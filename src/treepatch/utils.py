"""Shared helpers: the documented seed-derivation chain."""

from __future__ import annotations

import hashlib


def derive_seed(root_seed, *labels):
    """Stable sub-seed from a root seed and string labels.

    sha256 over `root_seed/label1/label2/...`, truncated to 63 bits. Every
    seeded component (split, sampler epochs, folds, test stream) derives its
    seed this way so runs are reproducible cell by cell.
    """
    key = "/".join([str(int(root_seed))] + [str(l) for l in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1
