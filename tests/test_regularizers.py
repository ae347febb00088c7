import dataclasses
import tracemalloc

import numpy as np
import pytest

from treepatch import model, regularizers
from treepatch.regularizers import (FisherAccumulator, LayoutMismatch,
                                    MissingAnchor, MissingFisher, ParamLayout,
                                    ParamVector, RegConfig, RegError,
                                    SparseGrad, anchored_step, apply_freeze,
                                    penalty)

LAYOUT = ParamLayout((("encoder", 3), ("intent_head", 2), ("tag_head", 4)))


def vec(values):
    return ParamVector(LAYOUT, np.asarray(values, dtype=float))


def rand_vec(rng):
    return ParamVector(LAYOUT, rng.normal(size=LAYOUT.size))


def row_grad(layout, rng, share):
    """A SparseGrad of whole rows, as a batch's: per group, about `share`
    of its rows, drawn at random, with normal values."""
    rows = tuple(np.flatnonzero(rng.random(len(group)) < share)
                 for group in layout.rows(np.empty(layout.size)))
    blocks = tuple(rng.normal(size=(len(r), width))
                   for r, width in zip(rows, layout.widths))
    return SparseGrad(layout, rows, blocks)


def add_rows(values, grad):
    """values += grad, on a layout-sized array."""
    for value_rows, rows, block in zip(grad.layout.rows(values), grad.rows,
                                       grad.blocks):
        value_rows[rows] += block


def file_order(layout, values):
    """Layout-sized values in memory order, as a checkpoint file stores
    them: the transposes of their model._staged views, in turn."""
    return np.concatenate([view.T.ravel()
                           for view, _ in model._staged(layout, (values,))])


class TestLayout:
    def test_size_and_slices(self):
        assert LAYOUT.size == 9
        assert LAYOUT.slice_of("intent_head") == slice(3, 5)
        with pytest.raises(KeyError):
            LAYOUT.slice_of("nope")

    def test_shape_checked(self):
        with pytest.raises(LayoutMismatch):
            ParamVector(LAYOUT, np.zeros(5))

    def test_widths_default_to_one(self):
        assert LAYOUT.widths == (1, 1, 1)
        assert LAYOUT == ParamLayout(LAYOUT.groups, (1, 1, 1))
        assert LAYOUT != ParamLayout(LAYOUT.groups, (3, 1, 2))

    @pytest.mark.parametrize("widths, error", [
        ((1, 1, 3), "^tag_head: 4 coordinates do not form rows of 3$"),
        ((1, 0, 1), "^intent_head: 2 coordinates do not form rows of 0$"),
        ((1, 2), "^2 row widths for 3 groups$"),
    ])
    def test_rows_must_tile_their_group(self, widths, error):
        with pytest.raises(LayoutMismatch, match=error):
            ParamLayout(LAYOUT.groups, widths)

    def test_duplicate_group_name_rejected(self):
        """A second group of one name would be addressed as the first: its
        own coordinates never."""
        with pytest.raises(LayoutMismatch,
                           match="^a: two groups of that name$"):
            ParamLayout((("a", 2), ("a", 3)))

    def test_slices_made_once_are_not_fields(self):
        """The group slices the layout makes when it is made are no part of
        its eq, hash or repr."""
        again = ParamLayout(LAYOUT.groups)
        assert [f.name for f in dataclasses.fields(ParamLayout)] == [
            "groups", "widths"]
        assert again == LAYOUT and hash(again) == hash(LAYOUT)
        assert repr(LAYOUT) == ("ParamLayout(groups=(('encoder', 3), "
                                "('intent_head', 2), ('tag_head', 4)), "
                                "widths=(1, 1, 1))")
        assert [LAYOUT.slice_of(name) for name, _ in LAYOUT.groups] == [
            slice(0, 3), slice(3, 5), slice(5, 9)]
        values = np.arange(9.0)
        assert [rows.tolist() for rows in LAYOUT.rows(values)] == [
            [[0.0], [1.0], [2.0]], [[3.0], [4.0]],
            [[5.0], [6.0], [7.0], [8.0]]]
        assert all(np.shares_memory(rows, values)
                   for rows in LAYOUT.rows(values))


@pytest.mark.parametrize("kwargs, field", [
    ({"kind": "bogus"}, "kind"),
    ({"form": "bogus"}, "form"),
    ({"strength": -1.0}, "strength"),
    ({"strength": float("nan")}, "strength"),
    ({"strength": float("inf")}, "strength"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": float("inf")}, "epsilon"),
])
def test_reg_config_rejects_bad_value(kwargs, field):
    with pytest.raises(RegError, match=f"^{field} "):
        RegConfig(**kwargs)


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

    def test_sparse_grad_checked_unless_it_carries_the_same_layout(
            self, monkeypatch):
        """A SparseGrad on the accumulator's own layout object adds without
        a layout check; one on an equal layout made apart is checked and
        adds alike; one on another layout raises."""
        checks = []
        check = regularizers._check_layouts
        monkeypatch.setattr(regularizers, "_check_layouts",
                            lambda *v: checks.append(v) or check(*v))
        rows = tuple(np.array(r, dtype=np.intp) for r in ([0, 2], [1], []))
        blocks = (np.array([[1.0], [2.0]]), np.array([[3.0]]),
                  np.empty((0, 1)))
        acc = FisherAccumulator(LAYOUT)
        acc.update(SparseGrad(LAYOUT, rows, blocks))
        assert not checks
        acc.update(SparseGrad(ParamLayout(LAYOUT.groups), rows, blocks))
        assert len(checks) == 1
        np.testing.assert_array_equal(acc.sum_sq,
                                      [2.0, 0, 8.0, 0, 18.0, 0, 0, 0, 0])
        other = ParamLayout((("encoder", 3), ("intent_head", 2),
                             ("tag_head", 4)), (3, 1, 2))
        with pytest.raises(LayoutMismatch):
            acc.update(SparseGrad(other, rows, blocks))

    def test_sparse_grad_adds_into_a_replaced_sum_sq(self):
        acc = FisherAccumulator(LAYOUT)
        grad = SparseGrad(LAYOUT, tuple(np.array(r, dtype=np.intp)
                                        for r in ([1], [], [3])),
                          (np.array([[2.0]]), np.empty((0, 1)),
                           np.array([[3.0]])))
        acc.update(grad)
        first = acc.sum_sq
        acc.sum_sq = np.ones(LAYOUT.size)
        acc.update(grad)
        np.testing.assert_array_equal(first, [0, 4.0, 0, 0, 0, 0, 0, 0, 9.0])
        np.testing.assert_array_equal(acc.sum_sq,
                                      [1, 5.0, 1, 1, 1, 1, 1, 1, 10.0])


class TestFreeze:
    def test_all_frozen_zeroes_everything(self):
        grad = vec(np.arange(9.0) + 1)
        out = apply_freeze(grad, frozenset({"encoder", "intent_head", "tag_head"}))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_none_frozen_is_identity(self):
        grad = vec(np.arange(9.0))
        out = apply_freeze(grad, frozenset())
        np.testing.assert_array_equal(out.values, grad.values)

    def test_single_group_offsets(self):
        grad = vec(np.ones(9))
        out = apply_freeze(grad, frozenset({"intent_head"}))
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
        mask = frozenset(frozen)
        fused = ParamVector(self.BIG, theta_prev.values + rng.normal(
            scale=0.1, size=size))
        dense = fused.copy()
        step = anchored_step(fused, theta_prev, fisher, config, 1e-4, mask)
        for _ in range(5):
            grad = row_grad(self.BIG, rng, 0.05)
            step(grad)
            _, total = penalty(dense, theta_prev, fisher, config)
            add_rows(total.values, grad)
            dense.values -= 1e-4 * apply_freeze(total, mask).values
        assert fused.values.tobytes() == dense.values.tobytes()

    @pytest.mark.parametrize("form", ["squared", "norm"])
    @pytest.mark.parametrize("frozen", [(), ("intent_head",), ("tag_head",)])
    @pytest.mark.parametrize("layout", [
        BIG, ParamLayout(BIG.groups, (1, 10, 7))], ids=["width-1", "rows"])
    def test_support_step_bit_identical_with_zero_fisher_rows(
            self, layout, frozen, form):
        """EWC over a Fisher that is zero on most rows, and on single
        coordinates of the others: the support-row step, over the rows of
        theta's layout, equals penalty plus the dense update on the
        coordinates inside the support and outside it, touched or not.
        theta starts away from theta_prev, so that in the norm form the
        frozen groups add fixed terms to the root."""
        rng = np.random.default_rng(3)
        size = layout.size
        fisher = rng.exponential(size=size)
        for name, width in (("intent_head", 10), ("tag_head", 7)):
            rows = fisher[layout.slice_of(name)].reshape(-1, width)
            rows[rng.random(len(rows)) < 0.8] = 0.0
            rows[rng.random(rows.shape) < 0.1] = 0.0
        theta_prev = ParamVector(layout, rng.normal(size=size))
        config = RegConfig(kind="ewc", strength=10.0, form=form)
        mask = frozenset(frozen)
        fused = ParamVector(layout, theta_prev.values + rng.normal(
            scale=0.1, size=size))
        dense = fused.copy()
        step = anchored_step(fused, theta_prev, fisher, config, 1e-2, mask)
        for _ in range(5):
            grad = row_grad(layout, rng, 0.2)
            step(grad)
            _, total = penalty(dense, theta_prev, fisher, config)
            add_rows(total.values, grad)
            dense.values -= 1e-2 * apply_freeze(total, mask).values
        assert fused.values.tobytes() == dense.values.tobytes()
        assert not np.array_equal(fused.values, theta_prev.values)

    @pytest.mark.parametrize("kind", ["movenorm", "ewc"])
    def test_norm_form_sums_as_penalty_does(self, kind):
        """On a layout with row widths, the norm form's step equals penalty
        on theta as it is, in memory order, plus the dense update. delta
        and F span many magnitudes, so that on some step the sum in memory
        order differs from the sum in a checkpoint file's order."""
        layout = ParamLayout(self.BIG.groups, (1, 10, 7))
        rng = np.random.default_rng(11)
        size = layout.size
        theta_prev = ParamVector(layout, rng.normal(size=size))
        fisher = 10.0 ** rng.uniform(-6, 6, size=size)
        config = RegConfig(kind=kind, strength=1.0, form="norm")
        fused = ParamVector(layout, theta_prev.values + rng.normal(
            size=size) * 10.0 ** rng.uniform(-6, 2, size=size))
        dense = fused.copy()
        lr = 1.0  # steps large enough to show the root's last bits
        step = anchored_step(fused, theta_prev, fisher, config, lr,
                             frozenset())
        orders_differ = False
        for _ in range(5):
            squares = (dense.values - theta_prev.values) ** 2
            if kind == "ewc":
                squares *= fisher * fisher
            orders_differ |= np.sum(squares) != np.sum(
                file_order(layout, squares))
            grad = row_grad(layout, rng, 0.05)
            step(grad)
            _, total = penalty(dense, theta_prev, fisher, config)
            add_rows(total.values, grad)
            dense.values -= lr * total.values
        assert orders_differ
        assert fused.values.tobytes() == dense.values.tobytes()

    @pytest.mark.parametrize("kind", ["movenorm", "ewc"])
    def test_norm_step_allocates_nothing_theta_sized(self, kind):
        """After its first call, a norm-form step adds up its terms where
        they are: no step allocates an array near theta's size."""
        layout = ParamLayout(self.BIG.groups, (1, 10, 7))
        rng = np.random.default_rng(5)
        theta_prev = ParamVector(layout, rng.normal(size=layout.size))
        theta = ParamVector(layout, theta_prev.values + 0.1)
        step = anchored_step(theta, theta_prev,
                             rng.exponential(size=layout.size),
                             RegConfig(kind=kind, strength=1.0, form="norm"),
                             1e-2, frozenset())
        grad = row_grad(layout, rng, 0.02)
        step(grad)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < theta.values.nbytes // 4

    def test_squared_ewc_step_maps_rows_not_coordinates(self):
        """Building a squared-EWC step on the default model shape (12
        intents, 57 tags, feature_dim 4096) allocates less than an int32
        map over theta's coordinates would: each group maps its rows. The
        Fisher is positive on 1 in 20 feature rows and the biases, so that
        the support's own buffers stay small."""
        layout = ParamLayout((("intent_head", 12 * 4097),
                              ("tag_head", 57 * 4097)), (12, 57))
        rng = np.random.default_rng(4)
        fisher = np.zeros(layout.size)
        for rows in layout.rows(fisher):
            rows[rng.random(len(rows)) < 0.05] = 1e-3
            rows[-1] = 1e-3
        theta_prev = ParamVector(layout, rng.normal(size=layout.size))
        theta = ParamVector(layout, theta_prev.values + 0.1)
        config = RegConfig(kind="ewc", strength=1.0)
        tracemalloc.start()
        try:
            anchored_step(theta, theta_prev, fisher, config, 0.1, frozenset())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layout.size * 4

    def test_squared_ewc_step_gathers_theta_once(self, monkeypatch):
        """A squared EWC step whose support rows are not one run gathers
        theta's support rows once, when the step is made: its buffer owns
        them from then on, so no step gathers into it again (no np.take
        with out=), and theta still comes out as penalty plus the dense
        update."""
        layout = ParamLayout(self.BIG.groups, (1, 10, 7))
        rng = np.random.default_rng(6)
        fisher = rng.exponential(size=layout.size)
        for rows in layout.rows(fisher):
            rows[rng.random(len(rows)) < 0.5] = 0.0
        theta_prev = ParamVector(layout, rng.normal(size=layout.size))
        config = RegConfig(kind="ewc", strength=10.0)
        fused = ParamVector(layout, theta_prev.values + 0.1)
        dense = fused.copy()
        step = anchored_step(fused, theta_prev, fisher, config, 1e-2,
                             frozenset())
        gathers = []
        take = np.take
        monkeypatch.setattr(np, "take", lambda *args, **kw: gathers.append(
            "out" in kw) or take(*args, **kw))
        for _ in range(5):
            grad = row_grad(layout, rng, 0.2)
            step(grad)
            _, total = penalty(dense, theta_prev, fisher, config)
            add_rows(total.values, grad)
            dense.values -= 1e-2 * total.values
        assert not any(gathers)
        assert fused.values.tobytes() == dense.values.tobytes()

    @pytest.mark.parametrize("form", ["squared", "norm"])
    @pytest.mark.parametrize("kind", ["movenorm", "ewc"])
    def test_unknown_frozen_group_raises(self, kind, form):
        theta = rand_vec(np.random.default_rng(2))
        with pytest.raises(KeyError):
            anchored_step(theta, theta.copy(), np.ones(LAYOUT.size),
                          RegConfig(kind=kind, strength=1.0, form=form), 0.1,
                          frozenset({"decoder"}))

    @pytest.mark.parametrize("kind, strength", [("none", 1.0),
                                                ("movenorm", 0.0),
                                                ("ewc", 0.0)])
    def test_off_penalty_has_no_fused_step(self, kind, strength):
        """An off penalty's step is the sparse one: it equals apply_freeze
        and the dense update."""
        rng = np.random.default_rng(0)
        for mask in (frozenset(), frozenset({"intent_head"})):
            theta = rand_vec(rng)
            sparse = theta.copy()
            step = anchored_step(theta, theta.copy(), np.ones(LAYOUT.size),
                                 RegConfig(kind=kind, strength=strength), 0.1,
                                 mask)
            for _ in range(3):
                grad = SparseGrad(LAYOUT, tuple(map(np.array, ([0], [0, 1],
                                                               [2]))),
                                  tuple(rng.normal(size=(n, 1))
                                        for n in (1, 2, 1)))
                step(grad)
                total = ParamVector.zeros(LAYOUT)
                add_rows(total.values, grad)
                sparse.values -= 0.1 * apply_freeze(total, mask).values
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
    pytest.param("movenorm", ParamVector(ParamLayout(LAYOUT.groups, (3, 1, 2)),
                                         np.zeros(9)), None,
                 LayoutMismatch, id="movenorm-theta-prev-other-widths"),
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
        anchored_step(theta, prev, fisher, config, 0.1, frozenset())
