import numpy as np
import pytest

from treepatch.regularizers import (FisherAccumulator, FreezeMask,
                                    LayoutMismatch, MissingAnchor,
                                    MissingFisher, ParamLayout, ParamVector,
                                    RegConfig, SparseGrad, anchored_step,
                                    apply_freeze, penalty)

LAYOUT = ParamLayout((("encoder", 3), ("intent_head", 2), ("tag_head", 4)))


def vec(values):
    return ParamVector(LAYOUT, np.asarray(values, dtype=float))


def rand_vec(rng):
    return ParamVector(LAYOUT, rng.normal(size=LAYOUT.size))


class TestLayout:
    def test_size_and_slices(self):
        assert LAYOUT.size == 9
        assert LAYOUT.slice_of("intent_head") == slice(3, 5)
        with pytest.raises(KeyError):
            LAYOUT.slice_of("nope")

    def test_shape_checked(self):
        with pytest.raises(LayoutMismatch):
            ParamVector(LAYOUT, np.zeros(5))


class TestPenalty:
    def test_zero_delta_gives_zero(self):
        theta = vec(np.arange(9.0))
        for kind in ("movenorm", "ewc"):
            for form in ("squared", "norm"):
                cfg = RegConfig(kind=kind, strength=3.0, form=form)
                fisher = np.ones(9)
                value, grad = penalty(theta, theta.copy(), fisher, cfg)
                assert value <= 3.0 * 1e-6  # norm form leaves the eps guard
                np.testing.assert_allclose(grad.values, 0.0, atol=1e-15)

    def test_zero_fisher_kills_ewc(self):
        theta, prev = vec(np.arange(9.0)), vec(np.zeros(9))
        cfg = RegConfig(kind="ewc", strength=5.0, form="squared")
        value, grad = penalty(theta, prev, np.zeros(9), cfg)
        assert value == 0.0
        np.testing.assert_array_equal(grad.values, 0.0)

    def test_squared_ewc_worked_example(self):
        # direct evaluation: lam*(F1*d1^2 + F2*d2^2) = 2*(1*9 + 4*0.25) = 20
        layout = ParamLayout((("g", 2),))
        theta = ParamVector(layout, np.array([3.0, 0.5]))
        prev = ParamVector(layout, np.zeros(2))
        cfg = RegConfig(kind="ewc", strength=2.0, form="squared")
        value, grad = penalty(theta, prev, np.array([1.0, 4.0]), cfg)
        assert value == 20.0
        np.testing.assert_array_equal(grad.values, [12.0, 8.0])

    def test_kind_none_is_free(self):
        theta, prev = vec(np.arange(9.0)), vec(np.zeros(9))
        value, grad = penalty(theta, prev, None, RegConfig())
        assert value == 0.0 and not grad.values.any()

    def test_missing_fisher(self):
        theta = vec(np.zeros(9))
        with pytest.raises(MissingFisher):
            penalty(theta, theta, None, RegConfig(kind="ewc", strength=1.0))

    def test_layout_mismatch(self):
        other = ParamVector(ParamLayout((("g", 9),)), np.zeros(9))
        with pytest.raises(LayoutMismatch):
            penalty(vec(np.zeros(9)), other, None,
                    RegConfig(kind="movenorm", strength=1.0))

    def test_linear_in_strength(self):
        rng = np.random.default_rng(0)
        theta, prev = rand_vec(rng), rand_vec(rng)
        fisher = rng.random(9)
        for kind in ("movenorm", "ewc"):
            for form in ("squared", "norm"):
                v1, _ = penalty(theta, prev, fisher,
                                RegConfig(kind=kind, strength=1.5, form=form))
                v2, _ = penalty(theta, prev, fisher,
                                RegConfig(kind=kind, strength=3.0, form=form))
                assert np.isclose(v2, 2 * v1)

    def test_unit_fisher_squared_equals_movenorm(self):
        rng = np.random.default_rng(1)
        theta, prev = rand_vec(rng), rand_vec(rng)
        v_ewc, g_ewc = penalty(theta, prev, np.ones(9),
                               RegConfig(kind="ewc", strength=2.5))
        v_mn, g_mn = penalty(theta, prev, None,
                             RegConfig(kind="movenorm", strength=2.5))
        assert v_ewc == v_mn
        np.testing.assert_array_equal(g_ewc.values, g_mn.values)

    def test_penalty_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta, prev = rand_vec(rng), rand_vec(rng)
            fisher = rng.random(9)
            for kind in ("movenorm", "ewc"):
                for form in ("squared", "norm"):
                    value, _ = penalty(theta, prev, fisher,
                                       RegConfig(kind=kind, strength=rng.random(), form=form))
                    assert value >= 0.0

    @pytest.mark.parametrize("kind", ["movenorm", "ewc"])
    @pytest.mark.parametrize("form", ["squared", "norm"])
    def test_gradient_matches_finite_differences(self, kind, form):
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(100):
            theta, prev = rand_vec(rng), rand_vec(rng)
            fisher = rng.random(9) + 0.1
            cfg = RegConfig(kind=kind, strength=float(rng.random() * 5 + 0.1),
                            form=form)
            _, grad = penalty(theta, prev, fisher, cfg)
            for i in range(LAYOUT.size):
                hi, lo = theta.copy(), theta.copy()
                hi.values[i] += step
                lo.values[i] -= step
                fd = (penalty(hi, prev, fisher, cfg)[0]
                      - penalty(lo, prev, fisher, cfg)[0]) / (2 * step)
                scale = max(abs(fd), abs(grad.values[i]), 1e-8)
                assert abs(grad.values[i] - fd) / scale <= 1e-4


class TestFisher:
    def test_single_gradient(self):
        acc = FisherAccumulator(LAYOUT)
        g = np.arange(9.0)
        acc.update(g)
        np.testing.assert_array_equal(acc.fisher(), g * g)

    def test_mean_of_squares(self):
        acc = FisherAccumulator(ParamLayout((("g", 2),)))
        acc.update(np.array([1.0, 2.0]))
        acc.update(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(acc.fisher(), [5.0, 10.0])

    def test_zero_gradients(self):
        acc = FisherAccumulator(LAYOUT)
        for _ in range(3):
            acc.update(np.zeros(9))
        np.testing.assert_array_equal(acc.fisher(), 0.0)

    def test_no_steps_gives_zero(self):
        np.testing.assert_array_equal(FisherAccumulator(LAYOUT).fisher(), 0.0)

    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(17, 9))
        acc = FisherAccumulator(LAYOUT)
        for g in grads:
            acc.update(g)
        expected = (grads ** 2).mean(axis=0)
        np.testing.assert_allclose(acc.fisher(), expected, atol=1e-12)

    def test_layout_checked(self):
        with pytest.raises(LayoutMismatch):
            FisherAccumulator(LAYOUT).update(np.zeros(4))


class TestFreeze:
    def test_all_frozen_zeroes_everything(self):
        grad = vec(np.arange(9.0) + 1)
        out = apply_freeze(grad, FreezeMask.of("encoder", "intent_head", "tag_head"))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_none_frozen_is_identity(self):
        grad = vec(np.arange(9.0))
        out = apply_freeze(grad, FreezeMask())
        np.testing.assert_array_equal(out.values, grad.values)

    def test_single_group_offsets(self):
        grad = vec(np.ones(9))
        out = apply_freeze(grad, FreezeMask.of("intent_head"))
        np.testing.assert_array_equal(out.values[3:5], 0.0)
        np.testing.assert_array_equal(out.values[:3], 1.0)
        np.testing.assert_array_equal(out.values[5:], 1.0)
        np.testing.assert_array_equal(grad.values, 1.0)  # input untouched


class TestAnchoredStep:
    BIG = ParamLayout((("encoder", 0), ("intent_head", 3000),
                       ("tag_head", 7000)))

    @pytest.mark.parametrize("frozen", [(), ("intent_head",)])
    @pytest.mark.parametrize("strength", [0.1, 10.0, 1000.0])
    @pytest.mark.parametrize("form", ["squared", "norm"])
    @pytest.mark.parametrize("kind", ["movenorm", "ewc"])
    def test_bit_identical_to_penalty_freeze_and_dense_update(
            self, kind, form, strength, frozen):
        rng = np.random.default_rng(7)
        size = self.BIG.size
        theta_prev = ParamVector(self.BIG, rng.normal(size=size))
        fisher = rng.exponential(size=size)
        config = RegConfig(kind=kind, strength=strength, form=form)
        mask = FreezeMask.of(*frozen)
        fused = ParamVector(self.BIG, theta_prev.values + rng.normal(
            scale=0.1, size=size))
        dense = fused.copy()
        step = anchored_step(fused, theta_prev, fisher, config, 1e-4, mask)
        for _ in range(5):
            index = np.sort(rng.choice(size, 500, replace=False))
            grad = SparseGrad(self.BIG, index, rng.normal(size=500))
            step(grad)
            _, total = penalty(dense, theta_prev, fisher, config)
            total.values[grad.index] += grad.data
            dense.values -= 1e-4 * apply_freeze(total, mask).values
        assert fused.values.tobytes() == dense.values.tobytes()

    @pytest.mark.parametrize("kind, strength", [("none", 1.0),
                                                ("movenorm", 0.0),
                                                ("ewc", 0.0)])
    def test_off_penalty_has_no_fused_step(self, kind, strength):
        """An off penalty's step is the sparse one: apply_freeze, then the
        update of the touched coordinates alone."""
        rng = np.random.default_rng(0)
        for mask in (FreezeMask(), FreezeMask.of("intent_head")):
            theta = rand_vec(rng)
            sparse = theta.copy()
            step = anchored_step(theta, theta.copy(), np.ones(LAYOUT.size),
                                 RegConfig(kind=kind, strength=strength), 0.1,
                                 mask)
            for _ in range(3):
                grad = SparseGrad(LAYOUT, np.array([0, 3, 4, 7]),
                                  rng.normal(size=4))
                step(grad)
                frozen = apply_freeze(grad, mask)
                sparse.values[frozen.index] -= 0.1 * frozen.data
            assert theta.values.tobytes() == sparse.values.tobytes()


OTHER_LAYOUT = ParamLayout((("g", 9),))


@pytest.mark.parametrize("strength", [1.0, 0.0])
@pytest.mark.parametrize("kind, prev, fisher, error", [
    pytest.param("movenorm", None, None, MissingAnchor,
                 id="movenorm-no-theta-prev"),
    pytest.param("ewc", None, np.ones(9), MissingAnchor,
                 id="ewc-no-theta-prev"),
    pytest.param("movenorm", ParamVector(OTHER_LAYOUT, np.zeros(9)), None,
                 LayoutMismatch, id="movenorm-theta-prev-other-layout"),
    pytest.param("ewc", ParamVector(OTHER_LAYOUT, np.zeros(9)), np.ones(9),
                 LayoutMismatch, id="ewc-theta-prev-other-layout"),
    pytest.param("ewc", vec(np.zeros(9)), None, MissingFisher,
                 id="ewc-no-fisher"),
    pytest.param("ewc", vec(np.zeros(9)), np.ones(8), LayoutMismatch,
                 id="ewc-fisher-wrong-shape"),
])
def test_penalty_and_anchored_step_reject_a_bad_anchor_alike(
        kind, prev, fisher, error, strength):
    theta = vec(np.arange(9.0))
    config = RegConfig(kind=kind, strength=strength)
    with pytest.raises(error):
        penalty(theta, prev, fisher, config)
    with pytest.raises(error):
        anchored_step(theta, prev, fisher, config, 0.1, FreezeMask())
