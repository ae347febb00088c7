import numpy as np
import pytest

from treepatch.dataset import Dataset, Example
from treepatch.sampling import (EpochPlan, EpochPlans, SamplerConfig,
                                SamplerError, build_replay, epoch_plan)
from treepatch.treebank import parse_top
from treepatch.utils import derive_seed


def make_dataset(prefix, n):
    exs = []
    for i in range(n):
        tree = parse_top(f"[IN:A tok{i} ]")
        exs.append(Example(id=f"{prefix}:{i}", query=f"tok{i}", tree=tree))
    return Dataset(tuple(exs))


D1 = make_dataset("old", 1000)
D2 = make_dataset("new", 60)


class TestSamplerConfig:
    def test_p_bounds(self):
        with pytest.raises(SamplerError):
            SamplerConfig(p=1.5)
        with pytest.raises(SamplerError):
            SamplerConfig(p=-0.1)

    def test_mode_validated(self):
        with pytest.raises(SamplerError):
            SamplerConfig(mode="bogus")


class TestReplayBuffer:
    def test_p_zero_is_empty(self):
        assert build_replay(D1, 0.0, seed=1) == ()

    def test_p_one_is_all_of_d1(self):
        assert sorted(build_replay(D1, 1.0, seed=1)) == sorted(D1.ids())

    def test_fraction_size_exact(self):
        buf = build_replay(D1, 0.1, seed=1)
        assert len(buf) == 100
        assert build_replay(D1, 0.1, seed=1) == buf  # stable


class TestEpochPlan:
    def test_every_new_id_exactly_once(self):
        for mode in ("replay", "sample"):
            cfg = SamplerConfig(mode=mode, p=0.3, seed=2)
            plan = epoch_plan(D1, D2, cfg, epoch_index=0)
            for eid in D2.ids():
                assert plan.ids.count(eid) == 1

    def test_p_zero_contains_only_new(self):
        for mode in ("replay", "sample"):
            plan = epoch_plan(D1, D2, SamplerConfig(mode=mode, p=0.0, seed=2), 0)
            assert sorted(plan.ids) == sorted(D2.ids())
            assert plan.n_old == 0 and plan.n_new == len(D2)

    def test_old_count_exact_for_all_p(self):
        for p, expected in [(0.0, 0), (0.1, 100), (0.5, 500), (1.0, 1000)]:
            for mode in ("replay", "sample"):
                plan = epoch_plan(D1, D2, SamplerConfig(mode=mode, p=p, seed=7), 0)
                assert plan.n_old == expected
                assert len(plan.ids) == expected + len(D2)

    def test_replay_old_set_epoch_invariant(self):
        cfg = SamplerConfig(mode="replay", p=0.2, seed=4)
        old_sets = []
        for epoch in range(5):
            plan = epoch_plan(D1, D2, cfg, epoch)
            old_sets.append(frozenset(plan.ids) - frozenset(D2.ids()))
        assert len(set(old_sets)) == 1

    def test_sample_mode_redraws_each_epoch(self):
        cfg = SamplerConfig(mode="sample", p=0.2, seed=4)
        a = frozenset(epoch_plan(D1, D2, cfg, 0).ids)
        b = frozenset(epoch_plan(D1, D2, cfg, 1).ids)
        assert a != b

    def test_sample_inclusion_frequency_matches_p(self):
        # Monte-Carlo oracle: each old id should appear in about p of epochs
        p, epochs = 0.1, 50
        cfg = SamplerConfig(mode="sample", p=p, seed=9)
        counts = {eid: 0 for eid in D1.ids()}
        for epoch in range(epochs):
            for eid in frozenset(epoch_plan(D1, D2, cfg, epoch).ids) - set(D2.ids()):
                counts[eid] += 1
        freqs = np.array(list(counts.values())) / epochs
        assert abs(freqs.mean() - p) < 1e-12  # exactly p by construction
        assert np.all(np.abs(freqs - p) <= 0.05 + 1e-12)

    def test_deterministic_under_fixed_seed(self):
        cfg = SamplerConfig(mode="sample", p=0.3, seed=5)
        assert epoch_plan(D1, D2, cfg, 3) == epoch_plan(D1, D2, cfg, 3)

    def test_new_data_weighted_more_per_example(self):
        # with p < 1 a new example is visited once per epoch, an old one p times
        plan = epoch_plan(D1, D2, SamplerConfig(mode="sample", p=0.5, seed=1), 0)
        new_visits = 1.0
        old_visits = plan.n_old / len(D1)
        assert new_visits > old_visits


def reference_epoch_plan(d1, d2, config, epoch_index):
    """One epoch's plan drawn from scratch: d1's and d2's ids read, the
    replay buffer built or the sample permutation drawn, and the window
    taken one scalar at a time (the plan before EpochPlans)."""
    if config.mode == "replay":
        old_ids = list(build_replay(d1, config.p, config.seed))
    else:
        ids = d1.ids()
        n = len(ids)
        n_old = round(config.p * n)
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


@pytest.mark.parametrize("mode", ["replay", "sample"])
def test_a_plan_is_a_function_of_its_epoch_alone(mode):
    """What lets train draw plans up to a compile pass ahead of its steps:
    an epoch's plan is the same asked twice, out of order, or first."""
    config = SamplerConfig(mode=mode, p=0.2, seed=11)
    plans = EpochPlans(D1, D2, config)
    forward = [plans(epoch) for epoch in range(6)]
    assert [plans(epoch) for epoch in (5, 3, 3, 0, 4, 1, 2)] == [
        forward[epoch] for epoch in (5, 3, 3, 0, 4, 1, 2)]
    assert EpochPlans(D1, D2, config)(4) == forward[4]
    assert len({plan.ids for plan in forward}) == 6


@pytest.mark.parametrize("mode", ["replay", "sample"])
@pytest.mark.parametrize("p", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("n_d1", [1000, 13, 0])
def test_plans_equal_the_per_epoch_reference(mode, p, n_d1):
    """At |d1| = 13 and p = 0.2 an epoch takes round(2.6) = 3 old examples,
    so the sample window of epoch 4 (positions 12, 0 and 1) wraps past
    |d1|; at |d1| = 1000 the windows of 200 tile the permutation, and epoch
    5 starts it again."""
    d1 = D1 if n_d1 == 1000 else make_dataset("old", n_d1)
    config = SamplerConfig(mode=mode, p=p, seed=11)
    plans = EpochPlans(d1, D2, config)
    drawn = set()
    for epoch in range(6):
        expected = reference_epoch_plan(d1, D2, config, epoch)
        assert plans(epoch) == expected
        assert epoch_plan(d1, D2, config, epoch) == expected
        # every id of the plans so far, each once: d2's, then d1's in order
        drawn.update(expected.ids)
        assert plans.drawn_ids(epoch + 1) == [
            i for i in D2.ids() + d1.ids() if i in drawn]
