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

Hot path: a minibatch step of a narrow network is mostly per-node Python
and small-array numpy calls, not arithmetic.  So graph nodes are built
without re-validating values that are float64 arrays already, `mean`,
`clip` and the gradient sums call the ufunc that numpy's wrappers end in
(`np.add.reduce`, `ndarray.clip`), and every primitive keeps numpy's
operation order: values and gradients stay bit-identical.
`tests/test_autodiff.py` checks each rewritten primitive against its old
form (the `*_bit_identical_*` tests and
`test_topo_keeps_the_depth_first_order_of_the_pair_stack`), and
`test_minibatch_gradients_match_the_v1_fixture` in `tests/test_train.py`
pins one minibatch's loss and gradients per architecture.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray

# Probability outputs are clamped this far away from {0, 1} so that the
# cross-entropy stays finite during training.
SIGMOID_CLAMP = 1e-12


def _value(x) -> Array:
    if type(x) is Var:
        return x.value
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Sum `grad` (a float64 array or numpy scalar) down to `shape`, undoing
    numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.add.reduce(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.add.reduce(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(value: Array, *links):
    """A Var over `value` with the Var operands among `links`, (operand, vjp)
    pairs, as parents; `value` itself when no operand is a Var."""
    parents = []
    for link in links:
        if type(link[0]) is Var:
            parents.append(link)
    if not parents:
        return value
    node = Var.__new__(Var)  # value is float64 already; a numpy scalar becomes 0-d
    node.value = value if type(value) is np.ndarray else np.asarray(value, dtype=np.float64)
    node._parents = parents
    return node


class Var:
    """A node in the differentiation graph."""

    __slots__ = ("value", "_parents")

    # Make numpy defer to the reflected operators below instead of trying
    # to ufunc-broadcast over Var objects.
    __array_ufunc__ = None

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self._parents = ()

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
        (bias, lambda g: np.add.reduce(g, axis=0)),
    )


def stable_sigmoid(z: Array) -> Array:
    """sigmoid(z) computed without overflow, clamped into (0, 1)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return out.clip(SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)


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
    return _node(av.clip(lo, hi), (a, lambda g: g * ((av >= lo) & (av <= hi))))


def reshape(a, shape):
    av = _value(a)
    orig = av.shape
    return _node(av.reshape(shape), (a, lambda g: g.reshape(orig)))


def vsum(a):
    av = _value(a)
    return _node(np.sum(av), (a, lambda g: np.full(av.shape, g, dtype=np.float64)))


def mean(a):
    av = _value(a)
    return _node(
        np.add.reduce(av, axis=None) / av.size,  # np.mean's own arithmetic
        (a, lambda g: np.full(av.shape, g / av.size, dtype=np.float64)),
    )


def _topo(root: Var) -> list[Var]:
    """`root` and every node between it and the leaves, each after all of its
    parents: the depth-first post-order that visits parents last to first.
    Leaves are left out; the backward pass has nothing to do at them."""
    order: list[Var] = []
    seen: set[Var] = set()
    stack: list = [root]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if node is None:  # every parent of the node below the marker is done
            order.append(pop())
        elif node not in seen:
            seen.add(node)
            push(node)
            push(None)
            for parent, _ in node._parents:
                if parent._parents and parent not in seen:
                    push(parent)
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
    vs = [Var(p) for p in params]
    out = loss_fn(vs)
    raw = np.asarray(_value(out))
    if raw.ndim != 0:
        raise ShapeError(f"loss must be scalar, got shape {raw.shape}")
    value = float(raw)
    if not math.isfinite(value):
        raise NumericError(f"loss evaluated to a non-finite value: {value!r}", value)
    # Every vjp returns its operand's shape, as a float64 array or numpy scalar.
    grads: dict[Var, Array] = {}
    if type(out) is Var:  # else the loss never touched a Var: every gradient is zero
        grads[out] = np.ones((), dtype=np.float64)
        for node in reversed(_topo(out)):
            g = grads[node]
            for parent, vjp in node._parents:
                contribution = vjp(g)
                prev = grads.get(parent)
                grads[parent] = contribution if prev is None else prev + contribution
    return value, [np.asarray(grads[v]) if v in grads else np.zeros_like(v.value) for v in vs]
