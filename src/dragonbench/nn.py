"""Dense network building blocks: layers, initialization, SGD with momentum.

Parameters live in plain float64 numpy arrays.  Weight matrices are stored
(out, in), so a layer computes `x @ W.T + b`.  Randomness comes from
`numpy.random.Generator` (PCG64): the same seed yields the same stream on
every platform, which is what makes training runs reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = {
    "elu": ad.elu,
    "identity": lambda x: x,
    "sigmoid": ad.sigmoid,
}


def float_array(value, name: str) -> np.ndarray:
    """`value` as float64; ShapeError when its lists are ragged, ConfigError
    when an entry is not a number."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        if "inhomogeneous" in str(err):
            raise ShapeError(f"{name} is ragged") from err
        raise ConfigError(f"{name} is not numeric: {err}") from err


@dataclass
class DenseLayer:
    """One affine map plus activation.

    weights : (out, in) float64
    bias    : (out,) float64

    Both are converted to float64 on construction, so nested lists (as read
    from a checkpoint) are accepted; ragged or non-numeric ones are not.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = float_array(self.weights, "weights")
        self.bias = float_array(self.bias, "bias")
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match {self.weights.shape[0]} outputs"
            )
        if not (isinstance(self.activation, str) and self.activation in ACTIVATIONS):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise NumericError("layer parameters contain non-finite entries")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


def init_params(
    rng: np.random.Generator,
    layer_sizes: Sequence[int],
    activations: "str | Sequence[str]" = "elu",
) -> list[DenseLayer]:
    """Initialize a stack of dense layers.

    Weights are drawn N(0, 1/fan_in), i.e. std = fan_in ** -0.5; biases start
    at zero.  `activations` is either one name applied to every layer or a
    sequence with one entry per layer.
    """
    if len(layer_sizes) < 2:
        raise ConfigError("layer_sizes needs at least an input and an output size")
    if any(int(s) < 1 for s in layer_sizes):
        raise ConfigError(f"layer sizes must be positive, got {list(layer_sizes)}")
    n_layers = len(layer_sizes) - 1
    if isinstance(activations, str):
        acts = [activations] * n_layers
    else:
        acts = list(activations)
        if len(acts) != n_layers:
            raise ConfigError(
                f"got {len(acts)} activations for {n_layers} layers"
            )
    layers = []
    for fan_in, fan_out, act in zip(layer_sizes[:-1], layer_sizes[1:], acts):
        std = fan_in ** -0.5
        w = rng.normal(0.0, std, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return layers


def apply_stack(layers: Iterable[DenseLayer], x, params=None):
    """Run `x` through the stack.

    With `params=None` the layers' own arrays are used and the result is a
    plain ndarray.  The trainer passes `params`, a list of (weights, bias)
    pairs (possibly autodiff Vars) that positionally replace each layer's
    arrays, to build a differentiable graph with the same code path.
    """
    h = x
    for i, layer in enumerate(layers):
        w, b = (layer.weights, layer.bias) if params is None else params[i]
        h = ad.linear(h, w, b)  # frees the previous activation before the next is made
        h = ACTIVATIONS[layer.activation](h)
    return h


# The benchmark under perfbench/ times this name.  The checked forward behind
# `FittedModel.predict` is `models.build_predictors`.
forward = apply_stack


@dataclass
class SgdMomentum:
    """Classical momentum: v <- momentum * v + g;  p <- p - lr * v."""

    learning_rate: float
    momentum: float
    velocities: list[np.ndarray]

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], learning_rate: float, momentum: float):
        """Zero velocities for `params`; TrainConfig has checked both rates."""
        return cls(learning_rate, momentum, [np.zeros_like(p) for p in params])


def sgd_momentum_step(
    params: list[np.ndarray], grads: Sequence[np.ndarray], state: SgdMomentum
) -> list[np.ndarray]:
    """Apply one update in place; returns `params` for convenience.

    Zero gradients leave both the velocities and the parameters unchanged
    when the velocities are still zero.
    """
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ShapeError("params, grads and velocities must align")
    for p, g, v in zip(params, grads, state.velocities):
        if p.shape != g.shape:
            raise ShapeError(f"grad shape {g.shape} does not match param {p.shape}")
        v *= state.momentum
        v += g
        p -= state.learning_rate * v
    return params
