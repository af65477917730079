"""Minimal vectorized reverse-mode differentiation over float64 numpy arrays.

The network and objective code in this package is written against the small
set of primitives below (affine maps, elu, sigmoid, clip, log, square,
mean/sum and elementwise arithmetic).  Every primitive accepts either plain
ndarrays or `Var` nodes; when no operand is a `Var` the primitive evaluates
eagerly and returns a plain array, so the same loss code serves both the
training path (exact gradients) and value-only paths such as finite
difference checks.  Eager calls compute no backward-only arrays: whatever
only a gradient needs (elu's slope, clip's mask) is built inside the
backward closure, so value-only forwards pay for the value alone.

Gradients are exact for the supported primitives, not numerical
approximations.  Everything is float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray

# Probability outputs are clamped this far away from {0, 1} so that the
# cross-entropy stays finite during training.
SIGMOID_CLAMP = 1e-12


def _value(x) -> Array:
    if isinstance(x, Var):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(value: Array, *links):
    parents = tuple((v, fn) for v, fn in links if isinstance(v, Var))
    if not parents:
        return value
    return Var(value, parents)


class Var:
    """A node in the differentiation graph."""

    __slots__ = ("value", "_parents")

    # Make numpy defer to the reflected operators below instead of trying
    # to ufunc-broadcast over Var objects.
    __array_ufunc__ = None

    def __init__(self, value, _parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = _parents

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def add(a, b):
    av, bv = _value(a), _value(b)
    return _node(
        av + bv,
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    )


def sub(a, b):
    av, bv = _value(a), _value(b)
    return _node(
        av - bv,
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    )


def mul(a, b):
    av, bv = _value(a), _value(b)
    return _node(
        av * bv,
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    )


def div(a, b):
    av, bv = _value(a), _value(b)
    return _node(
        av / bv,
        (a, lambda g: _unbroadcast(g / bv, av.shape)),
        (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)),
    )


def neg(a):
    av = _value(a)
    return _node(-av, (a, lambda g: -g))


def square(a):
    av = _value(a)
    return _node(av * av, (a, lambda g: 2.0 * g * av))


def log(a):
    av = _value(a)
    return _node(np.log(av), (a, lambda g: g / av))


def linear(x, weights, bias):
    """Affine map `x @ weights.T + bias` with weights stored (out, in)."""
    xv, wv, bv = _value(x), _value(weights), _value(bias)
    out = xv @ wv.T
    out += bv
    return _node(
        out,
        (x, lambda g: g @ wv),
        (weights, lambda g: g.T @ xv),
        (bias, lambda g: g.sum(axis=0)),
    )


def stable_sigmoid(z: Array) -> Array:
    """sigmoid(z) computed without overflow, clamped into (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


def sigmoid(a):
    av = _value(a)
    s = stable_sigmoid(av)
    return _node(s, (a, lambda g: g * s * (1.0 - s)))


def elu(a):
    """elu(x) = x for x > 0, exp(x) - 1 otherwise.  C1 at the origin.

    Computed in one fresh buffer as max(x, expm1(min(x, 0))); because
    expm1(x) >= x for x <= 0, it and its slope min(out + 1, 1) match the
    two-branch form where(x > 0, x, expm1(x)) bit for bit.
    """
    av = _value(a)
    out = np.minimum(av, 0.0, out=np.empty_like(av))
    np.expm1(out, out=out)
    np.maximum(av, out, out=out)
    return _node(out, (a, lambda g: g * np.minimum(out + 1.0, 1.0)))


def clip(a, lo: float, hi: float):
    """Clamp values into [lo, hi].  Gradient is 1 inside the band, 0 outside."""
    av = _value(a)
    return _node(np.clip(av, lo, hi), (a, lambda g: g * ((av >= lo) & (av <= hi))))


def reshape(a, shape):
    av = _value(a)
    orig = av.shape
    return _node(av.reshape(shape), (a, lambda g: np.asarray(g).reshape(orig)))


def vsum(a):
    av = _value(a)
    return _node(np.sum(av), (a, lambda g: np.full(av.shape, g, dtype=np.float64)))


def mean(a):
    av = _value(a)
    return _node(
        np.mean(av),
        (a, lambda g: np.full(av.shape, g / av.size, dtype=np.float64)),
    )


def _topo(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def gradients(
    params: Sequence[Array], loss_fn: Callable[[list[Var]], "Var | Array"]
) -> tuple[float, list[Array]]:
    """Evaluate `loss_fn` on Var-wrapped copies of `params`; return (loss, grads).

    `loss_fn` receives one Var per parameter array and must return a scalar
    built from the primitives in this module.  Parameters the loss does not
    depend on get an exact zero gradient.  Raises NumericError if the loss
    comes out non-finite.
    """
    vs = [Var(np.asarray(p, dtype=np.float64)) for p in params]
    out = loss_fn(vs)
    raw = np.asarray(_value(out))
    if raw.ndim != 0:
        raise ShapeError(f"loss must be scalar, got shape {raw.shape}")
    value = float(raw)
    if not np.isfinite(value):
        raise NumericError(f"loss evaluated to a non-finite value: {value!r}", value)
    grads: dict[int, Array] = {}
    if isinstance(out, Var):  # else the loss never touched a Var: every gradient is zero
        grads[id(out)] = np.ones((), dtype=np.float64)
        for node in reversed(_topo(out)):
            g = grads.get(id(node))
            if g is None:
                continue
            for parent, vjp in node._parents:
                contribution = vjp(g)
                prev = grads.get(id(parent))
                if prev is None:
                    grads[id(parent)] = np.asarray(contribution, dtype=np.float64)
                else:
                    grads[id(parent)] = prev + contribution
    return value, [np.zeros_like(v.value) if id(v) not in grads
                   else np.asarray(grads[id(v)]).reshape(v.value.shape) for v in vs]
