"""Anchoring penalties for fine-tuning, with analytic gradients.

The move-norm penalty pulls the weights toward their pre-fine-tuning values;
the EWC variant weights each coordinate by an importance estimate F, the
running mean of squared task-loss gradients accumulated from the very first
training step. Default "squared" form is the classic quadratic; the "norm"
form is the literal L2 distance with an epsilon guard at zero.

theta's ParamLayout describes its geometry (groups and row widths);
anchored_step, the one SGD step (sparse when the penalty is off, else one
kernel for every kind and form), reads it from theta. A data gradient is
a SparseGrad of whole rows: per group, the rows a batch touches and a
block of their values, which the Fisher update, the sparse step and the
anchored kernel index row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("none", "movenorm", "ewc")
FORMS = ("squared", "norm")


class RegError(ValueError):
    pass


class LayoutMismatch(RegError):
    pass


class MissingFisher(RegError):
    pass


class MissingAnchor(RegError):
    pass


@dataclass(frozen=True)
class ParamLayout:
    """Ordered named groups partitioning a flat parameter vector. In memory
    a group is rows of its width (1 unless given): one per feature, then
    its biases; a checkpoint file stores the feature rows transposed, and
    reordered converts at that boundary only."""

    groups: tuple  # ((name, size), ...)
    widths: tuple = ()  # the row width of each group, in order

    def __post_init__(self):
        if not self.widths:
            object.__setattr__(self, "widths", (1,) * len(self.groups))
        if len(self.widths) != len(self.groups):
            raise LayoutMismatch(f"{len(self.widths)} row widths for "
                                 f"{len(self.groups)} groups")
        slices, offset = {}, 0  # each group's slice, made once: not a field
        for (name, size), width in zip(self.groups, self.widths):
            if name in slices:
                raise LayoutMismatch(f"{name}: two groups of that name")
            if width < 1 or size % width:
                raise LayoutMismatch(f"{name}: {size} coordinates do not form "
                                     f"rows of {width}")
            slices[name] = slice(offset, offset + size)
            offset += size
        object.__setattr__(self, "_slices", slices)

    @property
    def size(self):
        return sum(size for _, size in self.groups)

    def slice_of(self, name):
        return self._slices[name]  # a name not in the layout: KeyError

    def reordered(self, values, to_memory, out=None):
        """Layout-sized `values` in the other order, in `out` (a new array
        unless given): a checkpoint file's row-major order to memory order
        when to_memory, else back. Only save_checkpoint and load_checkpoint
        call it. The identity on a group of width 1; the biases keep their
        place."""
        out = np.empty_like(values) if out is None else out
        for (name, size), width in zip(self.groups, self.widths):
            group = self.slice_of(name)
            features = max(size // width - 1, 0)
            shape = (width, features) if to_memory else (features, width)
            weights = slice(group.start, group.start + features * width)
            out[weights].reshape(shape[::-1])[...] = (
                values[weights].reshape(shape).T)
            out[weights.stop:group.stop] = values[weights.stop:group.stop]
        return out

    def rows(self, values):
        """Per group, in order, its part of the layout-sized `values` as a
        (rows, width) view."""
        return tuple(values[group].reshape(-1, width)
                     for group, width in zip(self._slices.values(),
                                             self.widths))


@dataclass
class ParamVector:
    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.layout.size,):
            raise LayoutMismatch(
                f"values shape {self.values.shape} != layout size {self.layout.size}")

    @classmethod
    def zeros(cls, layout):
        return cls(layout, np.zeros(layout.size))

    def copy(self):
        return ParamVector(self.layout, self.values.copy())

    def group(self, name):
        """View (not copy) of one named group."""
        return self.values[self.layout.slice_of(name)]


@dataclass
class SparseGrad:
    """A gradient that is zero outside whole rows of its layout. Per group,
    in layout order: `rows`, the sorted, unique ids of the rows it touches
    in the group's (rows, width) view (ParamLayout.rows), and `blocks`,
    their (len(rows), width) values. Adding an untouched coordinate's +0.0
    changes nothing, so Fisher accumulation, freezing and the SGD update of
    these rows alone equal the dense ones exactly, and an anchored step
    needs the dense step's arithmetic only on the rows where the anchor's
    weight is positive (see anchored_step)."""

    layout: ParamLayout
    rows: tuple  # per group, ascending row ids
    blocks: tuple  # per group, (len(rows), width) values


def _update_rows(view, rows, op, values):
    """view[rows] = op(view[rows], values), as `view[rows] op= values`
    computes it, with one take, one in-place op and one setitem: the same
    float operations, so the same bits."""
    sub = view.take(rows, axis=0)
    op(sub, values, out=sub)
    view[rows] = sub


def _check_layouts(*vectors):
    layouts = {v.layout for v in vectors}
    if len(layouts) > 1:
        raise LayoutMismatch("parameter vectors have different layouts")


@dataclass(frozen=True)
class RegConfig:
    kind: str = "none"
    strength: float = 0.0  # the lambda multiplier
    form: str = "squared"
    epsilon: float = 1e-12  # norm-form guard at delta = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise RegError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.form not in FORMS:
            raise RegError(f"form must be one of {FORMS}, got {self.form!r}")
        if not (math.isfinite(self.strength) and self.strength >= 0):
            raise RegError(f"strength must be finite and >= 0, got {self.strength!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise RegError(f"epsilon must be finite and > 0, got {self.epsilon!r}")


def _checked_fisher(fisher, theta):
    if fisher is None:
        raise MissingFisher("ewc penalty needs a fisher vector")
    fisher = np.asarray(fisher, dtype=np.float64)
    if fisher.shape != theta.values.shape:
        raise LayoutMismatch("fisher shape differs from theta")
    return fisher


def _anchor(theta, theta_prev, fisher, config):
    """(w, scale): the weight of each delta^2, and the scale of the
    coefficient c = scale * w of the penalty's gradient, or None when the
    penalty is off (kind "none" or strength 0). Every anchor check is here,
    and runs at strength 0 too."""
    if config.kind == "none":
        return None
    if theta_prev is None:
        raise MissingAnchor(f"{config.kind} penalty needs theta_prev")
    _check_layouts(theta, theta_prev)
    if config.kind == "ewc":
        fisher = _checked_fisher(fisher, theta)
    if config.strength == 0.0:
        return None
    lam = config.strength
    if config.form == "squared":
        return (fisher if config.kind == "ewc" else 1.0), 2.0 * lam
    return (fisher * fisher if config.kind == "ewc" else 1.0), lam


def penalty(theta, theta_prev, fisher, config):
    """(value, gradient) of the anchoring penalty at theta.

    squared form: lam * sum(w * delta^2), w = 1 (movenorm) or F (ewc).
    norm form:    lam * sqrt(sum(w * delta^2) + eps), w = 1 or F^2.
    """
    anchor = _anchor(theta, theta_prev, fisher, config)
    if anchor is None:
        return 0.0, ParamVector.zeros(theta.layout)
    w, scale = anchor
    c = scale * w
    lam = config.strength
    delta = theta.values - theta_prev.values
    if config.form == "squared":
        value = lam * float(np.sum(w * delta * delta))
        grad = c * delta
    else:
        root = np.sqrt(np.sum(w * delta * delta) + config.epsilon)
        value = lam * float(root)
        grad = c * delta / root
    return value, ParamVector(theta.layout, grad)


def anchored_step(theta, theta_prev, fisher, config, lr, freeze):
    """The SGD step of a run anchored by `config`: step(data_grad) updates
    theta in place, and is the only step train takes. `freeze` holds the
    names of the groups whose gradient is zeroed.

    The anchor and the frozen names are checked here, once, so a bad one
    fails before training starts. Every step indexes whole rows of
    theta.layout (ParamLayout.rows) and skips the frozen groups, whose
    dense update `x - lr * 0.0` is x. When the penalty is off (kind "none"
    or strength 0) the step is sparse: `rows -= lr * block` on the rows the
    data gradient touches. Otherwise one kernel serves every kind and form.
    It does the float operations of penalty, the data gradient's add,
    apply_freeze and the dense `theta -= lr * grad`, in the same order per
    coordinate, on the support only: the rows of the groups not frozen
    where the weight w of delta^2 is > 0 in some column (for move-norm,
    whose w is 1.0, every row, found without reading w). A group's support
    rows that form one run of theta are stepped in place. Others are
    gathered into a buffer once, when the step is made, and the buffer
    owns them from then on: each step steps the buffer and writes it back
    into theta, and reads none of them from theta, so nothing but the
    step may write theta's support rows between two steps (train writes
    theta through it alone). Each group maps its rows to their place in
    the support buffer; touched rows outside the support take the sparse
    step: there w = 0, and the dense step adds delta * 0 = +-0, so theta
    comes out bit-identical. The norm form keeps w * delta^2 in one
    theta-sized array (+0 where w = 0, fixed in frozen groups, refreshed
    on the support) and adds it up as penalty does; only it keeps w's
    support rows, and the squared form's EWC coefficient c = scale * w is
    gathered straight into its buffer. theta_prev and fisher are read,
    never written.

    A squared-form anchored step multiplies theta - theta_prev by
    1 - lr * 2 * lam * w, so it contracts only while lr * 2 * lam * max(w)
    < 2; past that the coordinates of largest w oscillate and grow.
    """
    anchor = _anchor(theta, theta_prev, fisher, config)
    layout = theta.layout
    for name in freeze:  # a name not in the layout raises KeyError
        layout.slice_of(name)
    trained = [i for i, (name, _) in enumerate(layout.groups)
               if name not in freeze]
    theta_rows = layout.rows(theta.values)
    if anchor is None:
        def sparse_step(data_grad):
            for i in trained:
                _update_rows(theta_rows[i], data_grad.rows[i], np.subtract,
                             lr * data_grad.blocks[i])

        return sparse_step
    weight, scale = anchor
    norm, ewc = config.form == "norm", np.ndim(weight) > 0
    w = np.broadcast_to(weight, (layout.size,))
    if norm:  # the terms w * delta^2
        delta = theta.values - theta_prev.values
        terms = w * delta * delta
    w_rows, prev_rows = layout.rows(w), layout.rows(theta_prev.values)
    terms_rows = layout.rows(terms) if norm else None
    support = [(i, np.flatnonzero((w_rows[i] > 0).any(axis=1)) if ewc
                else np.arange(len(theta_rows[i])))  # move-norm: w is 1.0
               for i in trained]
    n_support = sum(len(rows) * layout.widths[i] for i, rows in support)
    buf = np.empty(n_support)
    c = np.empty(n_support) if ewc else scale
    groups = []  # per trained group: each row's place in its buf rows, or -1
    parts = []  # per group with support: its theta, prev, w, terms, buf
    gathered = []  # (group, support rows, their theta and terms copies)
    start = 0
    for i, rows in support:
        width = layout.widths[i]
        place = np.full(len(theta_rows[i]), -1, dtype=np.intp)
        place[rows] = np.arange(len(rows))
        part = slice(start, start + len(rows) * width)
        start = part.stop
        buf_s = buf[part].reshape(-1, width)
        groups.append((i, place, buf_s))
        if not len(rows):
            continue
        if ewc:  # c = scale * w on the support
            c_s = c[part].reshape(-1, width)
            np.take(w_rows[i], rows, axis=0, out=c_s, mode="clip")
            np.multiply(scale, c_s, out=c_s)
        if rows[-1] - rows[0] == len(rows) - 1:  # one run: stepped in place
            rows = slice(rows[0], rows[-1] + 1)
        # views of one run, gathered copies of other rows
        theta_s = theta_rows[i][rows]
        w_s, terms_s = ((w_rows[i][rows], terms_rows[i][rows]) if norm
                        else (None, None))
        parts.append((theta_s, prev_rows[i][rows], w_s, terms_s, buf_s))
        if not isinstance(rows, slice):
            gathered.append((i, rows, theta_s, terms_s))

    def step(data_grad):
        for theta_s, prev_s, w_s, terms_s, buf_s in parts:
            np.subtract(theta_s, prev_s, out=buf_s)  # delta
            if norm:
                np.multiply(w_s, buf_s, out=terms_s)
                np.multiply(terms_s, buf_s, out=terms_s)
        if norm:
            for i, rows, _, terms_s in gathered:
                terms_rows[i][rows] = terms_s
            root = np.sqrt(np.sum(terms) + config.epsilon)
        np.multiply(buf, c, out=buf)
        if norm:
            np.divide(buf, root, out=buf)
        outside = []  # per group, its touched rows outside the support
        for i, place, buf_rows in groups:
            rows, block = data_grad.rows[i], data_grad.blocks[i]
            at = place[rows]
            inside = at >= 0
            buf_rows[at[inside]] += block[inside]
            outside.append((i, rows[~inside], block[~inside]))
        np.multiply(buf, lr, out=buf)
        for theta_s, *_, buf_s in parts:
            np.subtract(theta_s, buf_s, out=theta_s)
        for i, rows, theta_s, _ in gathered:
            theta_rows[i][rows] = theta_s
        for i, rows, block in outside:
            _update_rows(theta_rows[i], rows, np.subtract, lr * block)

    return step


@dataclass
class FisherAccumulator:
    """Running sum of squared gradients; fisher() is their mean. A
    SparseGrad adds into sum_sq's row views, made once per sum_sq array,
    and is checked against the accumulator's layout unless it carries that
    very layout object (train's gradients do)."""

    layout: ParamLayout
    sum_sq: np.ndarray = None
    steps: int = 0

    def __post_init__(self):
        if self.sum_sq is None:
            self.sum_sq = np.zeros(self.layout.size)
        self.sum_sq = np.asarray(self.sum_sq, dtype=np.float64)
        if self.sum_sq.shape != (self.layout.size,):
            raise LayoutMismatch("sum_sq shape differs from layout")
        self._rows = None  # (sum_sq, its row views), made at the first use

    def update(self, grad):
        """Add one gradient: a ParamVector, a SparseGrad or a plain array."""
        if isinstance(grad, SparseGrad):
            if grad.layout is not self.layout:
                _check_layouts(self, grad)
            if self._rows is None or self._rows[0] is not self.sum_sq:
                self._rows = self.sum_sq, self.layout.rows(self.sum_sq)
            for sum_rows, rows, block in zip(self._rows[1], grad.rows,
                                             grad.blocks):
                _update_rows(sum_rows, rows, np.add, block * block)
        else:
            if isinstance(grad, ParamVector):
                _check_layouts(self, grad)
                grad = grad.values
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.sum_sq.shape:
                raise LayoutMismatch("gradient shape differs from accumulator")
            self.sum_sq += grad * grad
        self.steps += 1
        return self

    def fisher(self):
        if self.steps == 0:
            return np.zeros_like(self.sum_sq)
        return self.sum_sq / self.steps


def apply_freeze(grad, frozen):
    """Copy of a ParamVector with the entries of the groups named in
    `frozen` zeroed; others unchanged. The step skips frozen groups
    instead (see anchored_step)."""
    out = grad.copy()
    for name in frozen:
        out.values[grad.layout.slice_of(name)] = 0.0
    return out
