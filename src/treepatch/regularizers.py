"""Anchoring penalties for fine-tuning, with analytic gradients.

The move-norm penalty pulls the weights toward their pre-fine-tuning values;
the EWC variant weights each coordinate by an importance estimate F, the
running mean of squared task-loss gradients accumulated from the very first
training step. Default "squared" form is the classic quadratic; the "norm"
form is the literal L2 distance with an epsilon guard at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Ordered named groups partitioning a flat parameter vector."""

    groups: tuple  # ((name, size), ...)

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
    the SGD update on these coordinates alone equal the dense ones exactly."""

    layout: ParamLayout
    index: np.ndarray
    data: np.ndarray

    def copy(self):
        return SparseGrad(self.layout, self.index, self.data.copy())


def _check_layouts(*vectors):
    layouts = {v.layout.groups for v in vectors}
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
        if self.strength < 0:
            raise RegError("strength must be >= 0")
        if self.epsilon <= 0:
            raise RegError("epsilon must be > 0")


def _checked_fisher(fisher, theta):
    if fisher is None:
        raise MissingFisher("ewc penalty needs a fisher vector")
    fisher = np.asarray(fisher, dtype=np.float64)
    if fisher.shape != theta.values.shape:
        raise LayoutMismatch("fisher shape differs from theta")
    return fisher


def _anchor(theta, theta_prev, fisher, config):
    """(w, c): the weight of each delta^2 and the coefficient of the
    penalty's gradient, or None when the penalty is off (kind "none" or
    strength 0). Every anchor check is here, and runs at strength 0 too."""
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
        w = fisher if config.kind == "ewc" else 1.0
        return w, 2.0 * lam * w
    w = fisher * fisher if config.kind == "ewc" else 1.0
    return w, lam * w


def penalty(theta, theta_prev, fisher, config):
    """(value, gradient) of the anchoring penalty at theta.

    squared form: lam * sum(w * delta^2), w = 1 (movenorm) or F (ewc).
    norm form:    lam * sqrt(sum(w * delta^2) + eps), w = 1 or F^2.
    """
    anchor = _anchor(theta, theta_prev, fisher, config)
    if anchor is None:
        return 0.0, ParamVector.zeros(theta.layout)
    w, c = anchor
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
    theta in place, and is the only step train takes.

    The anchor is checked here, once, so a bad one fails before training
    starts. When the penalty is off (kind "none" or strength 0) the step is
    sparse: apply_freeze, then `theta -= lr * grad` on the coordinates the
    data gradient touches. Otherwise it is fused: the float operations of
    penalty, the data gradient's scatter-add, apply_freeze and the dense
    `theta -= lr * grad`, in the same order, in one preallocated buffer, so
    theta comes out bit-identical without the dense temporaries.

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
    w, c = anchor
    # the norm form's reduction buffer
    tmp = None if config.form == "squared" else np.empty(theta.layout.size)
    frozen = [theta.layout.slice_of(name) for name in freeze.frozen]
    prev = theta_prev.values
    buf = np.empty(theta.layout.size)

    def step(data_grad):
        np.subtract(theta.values, prev, out=buf)  # delta
        if tmp is None:
            np.multiply(buf, c, out=buf)
        else:
            np.multiply(w, buf, out=tmp)
            np.multiply(tmp, buf, out=tmp)
            root = np.sqrt(np.sum(tmp) + config.epsilon)
            np.multiply(buf, c, out=buf)
            np.divide(buf, root, out=buf)
        buf[data_grad.index] += data_grad.data
        for group in frozen:
            buf[group] = 0.0
        np.multiply(buf, lr, out=buf)
        theta.values -= buf

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


@dataclass(frozen=True)
class FreezeMask:
    """Per-group flags; frozen groups get zero gradient."""

    frozen: frozenset = frozenset()

    @classmethod
    def of(cls, *names):
        return cls(frozenset(names))


def apply_freeze(grad, mask):
    """Copy of a ParamVector or SparseGrad with the entries of frozen groups
    zeroed; others unchanged."""
    out = grad.copy()
    for name in mask.frozen:
        group = grad.layout.slice_of(name)
        if isinstance(out, SparseGrad):
            lo, hi = np.searchsorted(out.index, (group.start, group.stop))
            out.data[lo:hi] = 0.0
        else:
            out.values[group] = 0.0
    return out
