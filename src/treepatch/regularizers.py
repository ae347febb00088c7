"""Anchoring penalties for fine-tuning, with analytic gradients.

The move-norm penalty pulls the weights toward their pre-fine-tuning values;
the EWC variant weights each coordinate by an importance estimate F, the
running mean of squared task-loss gradients accumulated from the very first
training step. Default "squared" form is the classic quadratic; the "norm"
form is the literal L2 distance with an epsilon guard at zero.

theta's ParamLayout is the one description of its geometry (groups, row
widths, memory and checkpoint order); anchored_step reads it from theta.
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
    its biases; a checkpoint stores the feature rows transposed (see
    reordered)."""

    groups: tuple  # ((name, size), ...)
    widths: tuple = ()  # the row width of each group, in order

    def __post_init__(self):
        if not self.widths:
            object.__setattr__(self, "widths", (1,) * len(self.groups))
        if len(self.widths) != len(self.groups):
            raise LayoutMismatch(f"{len(self.widths)} row widths for "
                                 f"{len(self.groups)} groups")
        for (name, size), width in zip(self.groups, self.widths):
            if width < 1 or size % width:
                raise LayoutMismatch(f"{name}: {size} coordinates do not form "
                                     f"rows of {width}")

    @property
    def size(self):
        return sum(size for _, size in self.groups)

    def slice_of(self, name):
        offset = 0
        for gname, size in self.groups:
            if gname == name:
                return slice(offset, offset + size)
            offset += size
        raise KeyError(name)

    def reordered(self, values, to_memory):
        """A copy of layout-sized `values` in the other order: checkpoint
        order to memory order when to_memory, else back. The identity on a
        group of width 1; the biases keep their place."""
        out = np.empty_like(values)
        for (name, size), width in zip(self.groups, self.widths):
            group = self.slice_of(name)
            features = max(size // width - 1, 0)
            shape = (width, features) if to_memory else (features, width)
            weights = slice(group.start, group.start + features * width)
            out[weights].reshape(shape[::-1])[...] = (
                values[weights].reshape(shape).T)
            out[weights.stop:group.stop] = values[weights.stop:group.stop]
        return out


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
    """A gradient that is zero outside `index`: sorted, unique flat positions
    into the layout, with `data` the values there. Adding an untouched
    coordinate's +0.0 changes nothing, so Fisher accumulation, freezing and
    the SGD update on these coordinates alone equal the dense ones exactly,
    and the squared EWC step needs the dense step's arithmetic only on the
    Fisher's support rows (see anchored_step)."""

    layout: ParamLayout
    index: np.ndarray
    data: np.ndarray

    def copy(self):
        return SparseGrad(self.layout, self.index, self.data.copy())


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

    The anchor is checked here, once, so a bad one fails before training
    starts. When the penalty is off (kind "none" or strength 0) the step is
    sparse: apply_freeze, then `theta -= lr * grad` on the coordinates the
    data gradient touches. Otherwise it does the float operations of
    penalty, the data gradient's scatter-add, apply_freeze and the dense
    `theta -= lr * grad`, in the same order per coordinate, without the
    dense temporaries, so theta comes out bit-identical:
    - squared EWC steps over the Fisher's support rows only: the rows of
      theta.layout, in the groups not frozen, where F > 0 in some column.
      Those rows are gathered into one buffer, stepped as the dense step
      steps them, and written back; the touched coordinates outside them
      take the sparse step. Where F = 0 the dense step adds delta * 0 =
      +-0, so the two agree.
    - move-norm (w = 1) and the norm form are fused into one preallocated
      theta-sized buffer. The norm form adds up w * delta^2 in checkpoint
      order, as penalty does on a checkpoint's values.

    A squared-form anchored step multiplies theta - theta_prev by
    1 - lr * 2 * lam * w, so it contracts only while lr * 2 * lam * max(w)
    < 2; past that the coordinates of largest w oscillate and grow.
    """
    anchor = _anchor(theta, theta_prev, fisher, config)
    if anchor is None:
        def sparse_step(data_grad):
            grad = apply_freeze(data_grad, freeze)
            theta.values[grad.index] -= lr * grad.data

        return sparse_step
    w, scale = anchor
    if config.kind == "ewc" and config.form == "squared":
        return _support_step(theta, theta_prev.values, w, scale, lr, freeze)
    c = scale * w
    # the norm form's reduction buffer
    tmp = None if config.form == "squared" else np.empty(theta.layout.size)
    frozen = [theta.layout.slice_of(name) for name in freeze]
    prev = theta_prev.values
    buf = np.empty(theta.layout.size)

    def step(data_grad):
        np.subtract(theta.values, prev, out=buf)  # delta
        if tmp is None:
            np.multiply(buf, c, out=buf)
        else:
            np.multiply(w, buf, out=tmp)
            np.multiply(tmp, buf, out=tmp)
            root = np.sqrt(np.sum(theta.layout.reordered(
                tmp, to_memory=False)) + config.epsilon)
            np.multiply(buf, c, out=buf)
            np.divide(buf, root, out=buf)
        buf[data_grad.index] += data_grad.data
        for group in frozen:
            buf[group] = 0.0
        np.multiply(buf, lr, out=buf)
        theta.values -= buf

    return step


def _support_step(theta, prev, fisher, scale, lr, freeze):
    """anchored_step's squared EWC step (see there): the dense fused step on
    the rows where the Fisher is positive, the sparse step elsewhere."""
    layout = theta.layout
    # where each coordinate's step happens: its place in the support buffer,
    # OUTSIDE (the sparse step) or FROZEN (none)
    OUTSIDE, FROZEN = -1, -2
    place = np.full(layout.size, OUTSIDE, dtype=np.int32)
    blocks = []  # (group's rows, support row ids, its part of the buffer)
    n_support = 0
    for (name, _), width in zip(layout.groups, layout.widths):
        group = layout.slice_of(name)
        if name in freeze:
            place[group] = FROZEN
            continue
        rows = np.flatnonzero(
            (fisher[group].reshape(-1, width) > 0).any(axis=1))
        if not len(rows):
            continue
        place[group].reshape(-1, width)[rows] = np.arange(
            n_support, n_support + len(rows) * width).reshape(-1, width)
        blocks.append((theta.values[group].reshape(-1, width), rows,
                       slice(n_support, n_support + len(rows) * width), width))
        n_support += len(rows) * width
    support = np.flatnonzero(place >= 0)
    prev_s, c_s = prev[support], scale * fisher[support]
    theta_s, buf = np.empty(n_support), np.empty(n_support)
    blocks = [(rows_of, rows, theta_s[part].reshape(-1, width))
              for rows_of, rows, part, width in blocks]

    def step(data_grad):
        at = place[data_grad.index]
        inside, outside = at >= 0, at == OUTSIDE
        for rows_of, rows, block in blocks:
            np.take(rows_of, rows, axis=0, out=block, mode="clip")
        np.subtract(theta_s, prev_s, out=buf)  # delta
        np.multiply(buf, c_s, out=buf)
        buf[at[inside]] += data_grad.data[inside]
        np.multiply(buf, lr, out=buf)
        np.subtract(theta_s, buf, out=theta_s)
        for rows_of, rows, block in blocks:
            rows_of[rows] = block
        theta.values[data_grad.index[outside]] -= lr * data_grad.data[outside]

    return step


@dataclass
class FisherAccumulator:
    """Running sum of squared gradients; fisher() is their mean."""

    layout: ParamLayout
    sum_sq: np.ndarray = None
    steps: int = 0

    def __post_init__(self):
        if self.sum_sq is None:
            self.sum_sq = np.zeros(self.layout.size)
        self.sum_sq = np.asarray(self.sum_sq, dtype=np.float64)
        if self.sum_sq.shape != (self.layout.size,):
            raise LayoutMismatch("sum_sq shape differs from layout")

    def update(self, grad):
        """Add one gradient: a ParamVector, a SparseGrad or a plain array."""
        if isinstance(grad, (ParamVector, SparseGrad)):
            _check_layouts(self, grad)
        if isinstance(grad, SparseGrad):
            self.sum_sq[grad.index] += grad.data * grad.data
        else:
            if isinstance(grad, ParamVector):
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
    """Copy of a ParamVector or SparseGrad with the entries of the groups
    named in `frozen` zeroed; others unchanged."""
    out = grad.copy()
    for name in frozen:
        group = grad.layout.slice_of(name)
        if isinstance(out, SparseGrad):
            lo, hi = np.searchsorted(out.index, (group.start, group.stop))
            out.data[lo:hi] = 0.0
        else:
            out.values[group] = 0.0
    return out
