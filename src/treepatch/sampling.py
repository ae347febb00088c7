"""Epoch composition for fine-tuning on a data patch.

Both modes visit every new-data (d2) example once per epoch and mix in
round(p * |d1|) old examples. Replay fixes one old subset for the whole run;
sample redraws the old subset each epoch so all of d1 is eventually seen
while new data stays over-weighted per example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .utils import derive_seed

MODES = ("replay", "sample")


class SamplerError(ValueError):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "sample"
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise SamplerError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise SamplerError(f"p={self.p} outside [0, 1]")


@dataclass(frozen=True)
class EpochPlan:
    ids: tuple  # shuffled order for one epoch
    n_old: int
    n_new: int


def _old_count(n_d1, p):
    return round(p * n_d1)


def build_replay(d1, p, seed):
    """Fixed replay buffer: one seeded uniform draw of round(p*|d1|) ids."""
    ids = d1.ids()
    n = _old_count(len(ids), p)
    rng = np.random.default_rng(derive_seed(seed, "replay", p))
    picked = rng.choice(len(ids), size=n, replace=False)
    return tuple(ids[i] for i in sorted(picked))


def epoch_plan(d1, d2, config, epoch_index):
    """Shuffled id order for one epoch.

    replay mode: d2 plus the fixed buffer, the same draw every epoch.
    sample mode: d2 plus a fresh per-epoch draw from d1 without replacement.
    """
    if config.mode == "replay":
        old_ids = list(build_replay(d1, config.p, config.seed))
    else:
        # balanced supersampling: successive windows of one seeded
        # permutation (mod |d1|), so every old example's inclusion frequency
        # converges to p at rate 1/epochs while each epoch is still a draw
        # without replacement
        ids = d1.ids()
        n = len(ids)
        n_old = _old_count(n, config.p)
        perm = np.random.default_rng(
            derive_seed(config.seed, "sample-perm", config.p)).permutation(n)
        start = (epoch_index * n_old) % n if n else 0
        picked = [perm[(start + i) % n] for i in range(n_old)]
        old_ids = [ids[i] for i in sorted(picked)]
    pool = list(d2.ids()) + old_ids
    order = np.random.default_rng(
        derive_seed(config.seed, "shuffle", epoch_index)).permutation(len(pool))
    return EpochPlan(ids=tuple(pool[i] for i in order),
                     n_old=len(old_ids), n_new=len(d2))


def batches(ids, batch_size):
    """Contiguous batches of a sequence of ids; the last may be short."""
    if batch_size < 1:
        raise SamplerError("batch_size must be >= 1")
    ids = list(ids)
    return [ids[i:i + batch_size] for i in range(0, len(ids), batch_size)]
