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


class EpochPlans:
    """The epoch plans of one run: plans(epoch_index) -> its EpochPlan,
    shuffled.

    replay mode: d2 plus the fixed buffer, the same draw every epoch.
    sample mode: d2 plus a fresh per-epoch draw from d1 without replacement.
    What does not depend on the epoch is read or drawn once, when the plans
    are made: d1's and d2's ids, and the replay buffer or the sample mode's
    permutation of d1.
    """

    def __init__(self, d1, d2, config):
        self.config = config
        self._new_ids = d2.ids()
        if config.mode == "replay":
            self._buffer = list(build_replay(d1, config.p, config.seed))
        else:
            # balanced supersampling: successive windows of one seeded
            # permutation (mod |d1|), so every old example's inclusion
            # frequency converges to p at rate 1/epochs while each epoch is
            # still a draw without replacement
            self._old = np.array(d1.ids(), dtype=object)
            self._window = np.arange(_old_count(len(self._old), config.p))
            self._perm = np.random.default_rng(derive_seed(
                config.seed, "sample-perm", config.p)).permutation(len(self._old))

    def _old_ids(self, positions):
        """d1's ids at these places of the permutation, in d1's order."""
        return self._old[np.sort(self._perm[positions])].tolist()

    def __call__(self, epoch_index):
        if self.config.mode == "replay":
            old_ids = self._buffer
        elif len(self._window):
            n = len(self._old)
            start = (epoch_index * len(self._window)) % n
            old_ids = self._old_ids((start + self._window) % n)
        else:
            old_ids = []
        pool = self._new_ids + old_ids
        rng = np.random.default_rng(
            derive_seed(self.config.seed, "shuffle", epoch_index))
        order = rng.permutation(len(pool))
        return EpochPlan(ids=tuple([pool[i] for i in order.tolist()]),
                         n_old=len(old_ids), n_new=len(self._new_ids))

    def drawn_ids(self, epochs):
        """Every id the plans of epochs 0 .. epochs-1 hold, each once: d2's,
        then d1's in d1's order. The sample windows of those epochs are the
        first epochs * window places of the permutation, mod |d1|."""
        if self.config.mode == "replay":
            return self._new_ids + self._buffer
        reach = min(epochs * len(self._window), len(self._old))
        return self._new_ids + self._old_ids(np.arange(reach))


def epoch_plan(d1, d2, config, epoch_index):
    """The EpochPlan of one epoch (see EpochPlans, which a run draws its
    plans from)."""
    return EpochPlans(d1, d2, config)(epoch_index)
