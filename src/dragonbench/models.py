"""Three-headed architectures for joint outcome/propensity estimation.

All three share the same skeleton: a stack of dense layers maps covariates
to a representation z(x), two outcome heads map z to the control and
treated predictions q0(x), q1(x), and a propensity component produces
g(x) in (0, 1).

  dragonnet  g comes from a single linear map + sigmoid on z, so the
             treatment signal shapes the shared representation.
  tarnet     no propensity head on z; an auxiliary logistic regression on
             the raw covariates (never the representation) supplies g.
  nednet     dragonnet's skeleton trained in two phases: first the shared
             stack + propensity head on pure cross-entropy, then fresh
             outcome heads on the frozen representation.

`FittedModel` is the estimation-facing contract: one vectorized
`predict(X) -> (q0, q1, g)` plus the trained fluctuation scalar.
Estimators only ever see this interface, so oracle models built from known
functions or tabulated values plug into the same pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError, UsageError
from .nn import DenseLayer, apply_stack, forward, init_params

ARCH_DRAGONNET = "dragonnet"
ARCH_TARNET = "tarnet"
ARCH_NEDNET = "nednet"
ARCHITECTURES = (ARCH_DRAGONNET, ARCH_TARNET, ARCH_NEDNET)

CHECKPOINT_FORMAT = "dragonbench-checkpoint"
CHECKPOINT_VERSION = 1


def _pairs(layers: Sequence[DenseLayer], leaves, cursor: int):
    """Take (weights, bias) pairs for `layers` from the flat leaf list."""
    out = []
    for _ in layers:
        out.append((leaves[cursor], leaves[cursor + 1]))
        cursor += 2
    return out, cursor


@dataclass
class DragonnetParams:
    """Also used by nednet, which trains the same skeleton in two phases."""

    shared: list[DenseLayer]
    head0: list[DenseLayer]
    head1: list[DenseLayer]
    propensity: DenseLayer
    epsilon: np.ndarray = field(default_factory=lambda: np.zeros(()))

    def leaves(self) -> list[np.ndarray]:
        out = []
        for layer in (*self.shared, *self.head0, *self.head1, self.propensity):
            out.append(layer.weights)
            out.append(layer.bias)
        out.append(self.epsilon)
        return out

    def apply(self, x, leaves=None):
        """Return (q0, q1, g, epsilon); Vars when `leaves` holds Vars."""
        if leaves is None:
            leaves = self.leaves()
        cur = 0
        shared_p, cur = _pairs(self.shared, leaves, cur)
        h0_p, cur = _pairs(self.head0, leaves, cur)
        h1_p, cur = _pairs(self.head1, leaves, cur)
        prop_p, cur = _pairs([self.propensity], leaves, cur)
        eps = leaves[cur]
        z = apply_stack(self.shared, x, shared_p)
        q0 = ad.reshape(apply_stack(self.head0, z, h0_p), (-1,))
        q1 = ad.reshape(apply_stack(self.head1, z, h1_p), (-1,))
        g = ad.reshape(apply_stack([self.propensity], z, prop_p), (-1,))
        return q0, q1, g, eps


@dataclass
class TarnetParams:
    shared: list[DenseLayer]
    head0: list[DenseLayer]
    head1: list[DenseLayer]
    aux_propensity: DenseLayer  # logistic regression on raw covariates
    epsilon: np.ndarray = field(default_factory=lambda: np.zeros(()))

    def leaves(self) -> list[np.ndarray]:
        out = []
        for layer in (*self.shared, *self.head0, *self.head1, self.aux_propensity):
            out.append(layer.weights)
            out.append(layer.bias)
        out.append(self.epsilon)
        return out

    def apply(self, x, leaves=None):
        if leaves is None:
            leaves = self.leaves()
        cur = 0
        shared_p, cur = _pairs(self.shared, leaves, cur)
        h0_p, cur = _pairs(self.head0, leaves, cur)
        h1_p, cur = _pairs(self.head1, leaves, cur)
        aux_p, cur = _pairs([self.aux_propensity], leaves, cur)
        eps = leaves[cur]
        z = apply_stack(self.shared, x, shared_p)
        q0 = ad.reshape(apply_stack(self.head0, z, h0_p), (-1,))
        q1 = ad.reshape(apply_stack(self.head1, z, h1_p), (-1,))
        # The aux model reads the covariates directly, never z.
        g = ad.reshape(apply_stack([self.aux_propensity], x, aux_p), (-1,))
        return q0, q1, g, eps


def _outcome_head(rng, rep_dim: int, outcome_widths: Sequence[int]) -> list[DenseLayer]:
    sizes = [rep_dim, *outcome_widths, 1]
    acts = ["elu"] * len(outcome_widths) + ["identity"]
    return init_params(rng, sizes, acts)


def init_dragonnet(
    rng: np.random.Generator,
    n_covariates: int,
    shared_widths: Sequence[int] = (200, 200, 200),
    outcome_widths: Sequence[int] = (100, 100),
) -> DragonnetParams:
    """Draw order is shared stack, head0, head1, propensity head, so the
    shared/outcome initialization matches tarnet's for the same stream."""
    if n_covariates < 1:
        raise ConfigError("n_covariates must be >= 1")
    shared = init_params(rng, [n_covariates, *shared_widths], "elu")
    rep = shared_widths[-1]
    head0 = _outcome_head(rng, rep, outcome_widths)
    head1 = _outcome_head(rng, rep, outcome_widths)
    prop = init_params(rng, [rep, 1], "sigmoid")[0]
    return DragonnetParams(shared, head0, head1, prop)


def init_tarnet(
    rng: np.random.Generator,
    n_covariates: int,
    shared_widths: Sequence[int] = (200, 200, 200),
    outcome_widths: Sequence[int] = (100, 100),
) -> TarnetParams:
    if n_covariates < 1:
        raise ConfigError("n_covariates must be >= 1")
    shared = init_params(rng, [n_covariates, *shared_widths], "elu")
    rep = shared_widths[-1]
    head0 = _outcome_head(rng, rep, outcome_widths)
    head1 = _outcome_head(rng, rep, outcome_widths)
    aux = init_params(rng, [n_covariates, 1], "sigmoid")[0]
    return TarnetParams(shared, head0, head1, aux)


init_nednet = init_dragonnet


def _check_input(params, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"x must be 2-d, got shape {x.shape}")
    expected = params.shared[0].in_dim
    if x.shape[1] != expected:
        raise ShapeError(f"x has {x.shape[1]} features, network expects {expected}")
    return x


def dragonnet_forward(params, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain-array forward pass of any of the three networks (`params.apply`
    knows where g reads from); returns (q0, q1, g), each (n,)."""
    x = _check_input(params, x)
    q0, q1, g, _ = params.apply(x)
    for name, arr in (("q0", q0), ("q1", q1), ("g", g)):
        if not np.isfinite(arr).all():
            raise NumericError(f"{name} contains non-finite values")
    return q0, q1, g


tarnet_forward = nednet_forward = dragonnet_forward


@dataclass(frozen=True)
class Scaler:
    """Column-standardization fitted on the training sample.

    Constant columns get std 1 so the transform stays well defined.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray) -> "Scaler":
        x_std = X.std(axis=0)
        x_std = np.where(x_std > 0, x_std, 1.0)
        y_std = float(y.std())
        return cls(X.mean(axis=0), x_std, float(y.mean()), y_std if y_std > 0 else 1.0)

    @classmethod
    def identity(cls, n_covariates: int) -> "Scaler":
        return cls(np.zeros(n_covariates), np.ones(n_covariates), 0.0, 1.0)

    def transform_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std

    def restore_y(self, y_scaled):
        return y_scaled * self.y_std + self.y_mean


@dataclass(frozen=True)
class FittedModel:
    """Estimation-facing view of a trained (or oracle) model.

    predict : (n, p) -> (q0, q1, g), each (n,), from one forward: outcome
              predictions in original units, propensity scores in (0, 1)
    epsilon_hat : trained fluctuation scalar, in outcome units; 0.0 when
                  targeted regularization was off

    `q0`, `q1` and `g` each run a whole `predict` and keep one column; call
    `predict` once when more than one of them is needed.
    """

    predict: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    epsilon_hat: float
    metadata: dict
    payload: dict | None = None

    @property
    def treg(self) -> bool:
        return bool(self.metadata.get("treg", False))

    def q0(self, X) -> np.ndarray:
        return self.predict(X)[0]

    def q1(self, X) -> np.ndarray:
        return self.predict(X)[1]

    def g(self, X) -> np.ndarray:
        return self.predict(X)[2]

    @classmethod
    def from_functions(
        cls, q0, q1, g, epsilon_hat: float = 0.0, treg: bool = False, metadata: dict | None = None
    ) -> "FittedModel":
        meta = {"architecture": "functions", "treg": treg}
        if metadata:
            meta.update(metadata)
        predict = lambda X: (q0(X), q1(X), g(X))
        return cls(predict=predict, epsilon_hat=float(epsilon_hat), metadata=meta)

    @classmethod
    def from_values(
        cls,
        X: np.ndarray,
        q0_values: np.ndarray,
        q1_values: np.ndarray,
        g_values: np.ndarray,
        epsilon_hat: float = 0.0,
    ) -> "FittedModel":
        """Row-lookup oracle: predictions are tabulated for the rows of X.

        Queries with rows not present in X raise UsageError.  Used for
        oracle benchmarking where true mu0/mu1 and g are known per row.
        """
        X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
        table = {X[i].tobytes(): i for i in range(X.shape[0])}
        values = [np.asarray(v, dtype=np.float64) for v in (q0_values, q1_values, g_values)]

        def predict(Xq):
            Xq = np.ascontiguousarray(np.asarray(Xq, dtype=np.float64))
            idx = np.empty(Xq.shape[0], dtype=np.intp)
            for i in range(Xq.shape[0]):
                j = table.get(Xq[i].tobytes())
                if j is None:
                    raise UsageError("row not present in the oracle lookup table")
                idx[i] = j
            return tuple(v[idx] for v in values)

        return cls(
            predict=predict,
            epsilon_hat=float(epsilon_hat),
            metadata={"architecture": "oracle", "treg": float(epsilon_hat) != 0.0},
        )


def build_predictors(params, scaler: Scaler):
    """Wrap one network forward with the scaler; returns predict(X) -> (q0, q1, g)."""

    def predict(X):
        q0, q1, g = dragonnet_forward(params, scaler.transform_x(np.asarray(X, dtype=np.float64)))
        return scaler.restore_y(q0), scaler.restore_y(q1), g

    return predict


def _layer_to_json(layer: DenseLayer) -> dict:
    return {
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation,
    }


def _layer_from_json(obj: dict) -> DenseLayer:
    return DenseLayer(
        np.asarray(obj["weights"], dtype=np.float64),
        np.asarray(obj["bias"], dtype=np.float64),
        obj["activation"],
    )


def make_payload(arch: str, params, scaler: Scaler, epsilon_hat: float, treg: bool,
                 config_digest: str, train_config: dict | None = None) -> dict:
    stacks = {
        "shared": [_layer_to_json(l) for l in params.shared],
        "head0": [_layer_to_json(l) for l in params.head0],
        "head1": [_layer_to_json(l) for l in params.head1],
    }
    if arch == ARCH_TARNET:
        stacks["aux_propensity"] = [_layer_to_json(params.aux_propensity)]
    else:
        stacks["propensity"] = [_layer_to_json(params.propensity)]
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": arch,
        "treg": bool(treg),
        "epsilon_hat": float(epsilon_hat),
        "config_digest": config_digest,
        "train_config": train_config,
        "scaler": {
            "x_mean": scaler.x_mean.tolist(),
            "x_std": scaler.x_std.tolist(),
            "y_mean": scaler.y_mean,
            "y_std": scaler.y_std,
        },
        "stacks": stacks,
    }


def save_checkpoint(model: FittedModel, path) -> None:
    """Write the model's weights, scaler and epsilon to a JSON checkpoint.

    JSON floats round-trip float64 exactly (shortest-repr encoding), so a
    reloaded model predicts bit-identically.
    """
    if model.payload is None:
        raise UsageError("this model has no serializable parameters (oracle or function-backed)")
    path = Path(path)
    path.write_text(json.dumps(model.payload))


def _require(obj, keys, where: str) -> dict:
    """`obj`, once it is a dict holding every key; ConfigError otherwise."""
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise ConfigError(f"checkpoint {where} is missing {', '.join(missing)}")
    return obj


def _chain(name: str, layers: list[DenseLayer], width: int, out: int | None = None) -> int:
    """Output width of stack `name` fed `width` columns; ShapeError when it is
    empty, its layer widths do not chain, or it does not end at `out`."""
    for i, layer in enumerate(layers):
        if layer.in_dim != width:
            raise ShapeError(
                f"checkpoint {name} layer {i} takes {layer.in_dim} inputs, gets {width}"
            )
        width = layer.out_dim
    if not layers or out not in (None, width):
        raise ShapeError(f"checkpoint stack {name} is empty or does not output {out} columns")
    return width


def load_checkpoint(path) -> FittedModel:
    """Rebuild a model from `save_checkpoint` output.

    Missing sections raise ConfigError and layer widths that do not chain
    raise ShapeError, at load time rather than at the first prediction.
    """
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {obj.get('version')!r}")
    _require(obj, ("architecture", "treg", "epsilon_hat", "config_digest", "scaler", "stacks"),
             "file")
    arch = obj["architecture"]
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {arch!r}")
    prop_name = "aux_propensity" if arch == ARCH_TARNET else "propensity"
    stacks = _require(obj["stacks"], ("shared", "head0", "head1", prop_name), "stacks")
    shared, head0, head1, prop = (
        [_layer_from_json(_require(l, ("weights", "bias", "activation"), f"{k} layer"))
         for l in stacks[k]]
        for k in ("shared", "head0", "head1", prop_name)
    )
    p = shared[0].in_dim if shared else 0
    rep = _chain("shared", shared, p)
    _chain("head0", head0, rep, 1)
    _chain("head1", head1, rep, 1)
    _chain(prop_name, prop[:1], p if arch == ARCH_TARNET else rep, 1)
    params = (TarnetParams if arch == ARCH_TARNET else DragonnetParams)(
        shared, head0, head1, prop[0]
    )
    sc = _require(obj["scaler"], ("x_mean", "x_std", "y_mean", "y_std"), "scaler")
    x_mean, x_std = (np.asarray(sc[k], dtype=np.float64) for k in ("x_mean", "x_std"))
    scaler = Scaler(x_mean, x_std, float(sc["y_mean"]), float(sc["y_std"]))
    if x_mean.shape != (p,) or x_std.shape != (p,):
        raise ShapeError(f"checkpoint scaler does not have {p} columns")
    return FittedModel(
        predict=build_predictors(params, scaler),
        epsilon_hat=float(obj["epsilon_hat"]),
        metadata={"architecture": arch, "treg": bool(obj["treg"]),
                  "config_digest": obj["config_digest"]},
        payload=obj,
    )


__all__ = [
    "ARCHITECTURES",
    "ARCH_DRAGONNET",
    "ARCH_TARNET",
    "ARCH_NEDNET",
    "DragonnetParams",
    "TarnetParams",
    "FittedModel",
    "Scaler",
    "init_dragonnet",
    "init_tarnet",
    "init_nednet",
    "dragonnet_forward",
    "tarnet_forward",
    "nednet_forward",
    "build_predictors",
    "make_payload",
    "save_checkpoint",
    "load_checkpoint",
]
