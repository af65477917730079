"""One three-headed network for joint outcome/propensity estimation.

Every architecture is the same `ThreeHeadNet`: a stack of dense layers maps
covariates to a representation z(x), two outcome heads map z to the
control and treated predictions q0(x), q1(x), and a one-layer propensity
stack (linear map + sigmoid) produces g(x) in (0, 1).  The architectures
differ in where g reads from and in how they are trained:

  dragonnet  g reads z, so the treatment signal shapes the shared
             representation.
  tarnet     g reads the raw covariates x, never z: a logistic regression
             beside the outcome network.
  nednet     dragonnet's network trained in two phases: first the shared
             stack + propensity on pure cross-entropy, then the outcome
             heads on the frozen representation.

`FittedModel` is the estimation-facing contract: one vectorized
`predict(X) -> (q0, q1, g)` plus the trained fluctuation scalar.
Estimators only ever see this interface, so oracle models built from known
functions or tabulated values plug into the same pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError, UsageError
from .nn import DenseLayer, apply_stack, float_array, init_params
from .schema import as_number, config_values, plain

ARCH_DRAGONNET = "dragonnet"
ARCH_TARNET = "tarnet"
ARCH_NEDNET = "nednet"
ARCHITECTURES = (ARCH_DRAGONNET, ARCH_TARNET, ARCH_NEDNET)

CHECKPOINT_FORMAT = "dragonbench-checkpoint"
CHECKPOINT_VERSION = 1
STACKS = ("shared", "head0", "head1", "propensity")


@dataclass
class ThreeHeadNet:
    """The network of every architecture; `g_reads_x` is True for tarnet only.

    `propensity` is a one-layer stack (linear map + sigmoid) that reads z,
    or the raw covariates x when `g_reads_x`.  Draw order in `init_network`
    is shared, head0, head1, propensity, so the shared and outcome draws are
    the same for every architecture at one seed.  ShapeError, naming the
    stack, when a stack is empty or its widths do not chain from x to 1 column.
    """

    shared: list[DenseLayer]
    head0: list[DenseLayer]
    head1: list[DenseLayer]
    propensity: list[DenseLayer]
    g_reads_x: bool = False
    epsilon: np.ndarray = field(default_factory=lambda: np.zeros(()))

    def __post_init__(self):
        p, rep = (self.shared[0].in_dim, self.shared[-1].out_dim) if self.shared else (0, 0)
        for name, width, out in (("shared", p, rep), ("head0", rep, 1), ("head1", rep, 1),
                                 ("propensity", p if self.g_reads_x else rep, 1)):
            layers = getattr(self, name)
            for i, layer in enumerate(layers):
                if layer.in_dim != width:
                    raise ShapeError(f"{name} layer {i} takes {layer.in_dim} inputs, gets {width}")
                width = layer.out_dim
            if not layers or width != out:
                raise ShapeError(f"stack {name} is empty or does not output {out} columns")

    def leaves(self, stacks: Sequence[str] = STACKS) -> list[np.ndarray]:
        """(weights, bias) of every layer of the named stacks, in order; the
        whole network (the default) ends with epsilon.  SGD updates these
        arrays in place."""
        out = [a for name in stacks for l in getattr(self, name) for a in (l.weights, l.bias)]
        return out + [self.epsilon] if tuple(stacks) == STACKS else out

    def pairs(self, leaves, stacks: Sequence[str] = STACKS) -> dict:
        """Map each named stack to its (weights, bias) pairs, taken in order
        from `leaves` (arrays, or Vars while differentiating)."""
        it = iter(leaves)
        return {name: [(next(it), next(it)) for _ in getattr(self, name)] for name in stacks}

    def outcomes(self, z, pairs: dict):
        """(q0, q1), each (n,), from the representation z."""
        q0 = ad.reshape(apply_stack(self.head0, z, pairs.get("head0")), (-1,))
        q1 = ad.reshape(apply_stack(self.head1, z, pairs.get("head1")), (-1,))
        return q0, q1

    def g(self, x, z, pairs: dict):
        """Propensity scores, (n,), from z or, when `g_reads_x`, from x."""
        return ad.reshape(
            apply_stack(self.propensity, x if self.g_reads_x else z, pairs.get("propensity")),
            (-1,),
        )

    def apply(self, x, leaves=None):
        """Return (q0, q1, g, epsilon); Vars when `leaves` holds Vars."""
        if leaves is None:
            leaves = self.leaves()
        pairs = self.pairs(leaves)
        z = apply_stack(self.shared, x, pairs["shared"])
        return (*self.outcomes(z, pairs), self.g(x, z, pairs), leaves[-1])


def init_network(
    rng: np.random.Generator,
    n_covariates: int,
    shared_widths: Sequence[int] = (200, 200, 200),
    outcome_widths: Sequence[int] = (100, 100),
    arch: str = ARCH_DRAGONNET,
) -> ThreeHeadNet:
    g_reads_x = arch == ARCH_TARNET
    rep = shared_widths[-1]
    head_sizes = [rep, *outcome_widths, 1]
    head_acts = ["elu"] * len(outcome_widths) + ["identity"]
    shared = init_params(rng, [n_covariates, *shared_widths], "elu")
    head0 = init_params(rng, head_sizes, head_acts)
    head1 = init_params(rng, head_sizes, head_acts)
    propensity = init_params(rng, [n_covariates if g_reads_x else rep, 1], "sigmoid")
    return ThreeHeadNet(shared, head0, head1, propensity, g_reads_x)


@dataclass(frozen=True)
class Scaler:
    """Column-standardization fitted on the training sample.

    Constant columns get std 1 so the transform stays well defined.  Lists are
    accepted; a mean must be finite and a std finite and > 0 (ConfigError).
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @config_values("scaler")
    def __post_init__(self):
        for key, convert in (("x_mean", float_array), ("x_std", float_array),
                             ("y_mean", as_number), ("y_std", as_number)):
            object.__setattr__(self, key, convert(getattr(self, key), f"scaler {key}"))
        if self.x_mean.ndim != 1 or self.x_std.shape != self.x_mean.shape:
            raise ShapeError("scaler x_mean and x_std must be rows of one width")
        if not np.isfinite(self.x_mean).all():
            raise ConfigError("scaler x_mean is not finite")
        for key in ("x_std", "y_std"):
            if not np.all(np.isfinite(getattr(self, key)) & (getattr(self, key) > 0)):
                raise ConfigError(f"scaler {key} must be finite and > 0")

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray) -> "Scaler":
        x_std, y_std = X.std(axis=0), y.std()
        return cls(X.mean(axis=0), np.where(x_std > 0, x_std, 1.0), y.mean(),
                   y_std if y_std > 0 else 1.0)

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
    build_payload : zero-argument function returning the checkpoint dict;
                    None for oracle and function-backed models

    `q0`, `q1` and `g` each run a whole `predict` and keep one column; call
    `predict` once when more than one of them is needed.
    """

    predict: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    epsilon_hat: float
    metadata: dict
    build_payload: Callable[[], dict] | None = None

    @property
    def payload(self) -> dict | None:
        """The checkpoint dict, built afresh on every read (the weights stay
        arrays until then); None when the model has no serializable parameters."""
        return None if self.build_payload is None else self.build_payload()

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
        cls, q0, q1, g, epsilon_hat: float = 0.0, treg: bool = False
    ) -> "FittedModel":
        predict = lambda X: (q0(X), q1(X), g(X))
        return cls(predict=predict, epsilon_hat=float(epsilon_hat),
                   metadata={"architecture": "functions", "treg": treg})

    @classmethod
    def from_values(
        cls,
        X: np.ndarray,
        q0_values: np.ndarray,
        q1_values: np.ndarray,
        g_values: np.ndarray,
    ) -> "FittedModel":
        """Row-lookup oracle: predictions are tabulated for the rows of X.

        Queries with rows not present in X raise UsageError.  Used for
        oracle benchmarking where true mu0/mu1 and g are known per row; it
        has no trained fluctuation: epsilon_hat is 0 and treg False.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        table = {X[i].tobytes(): i for i in range(X.shape[0])}
        values = [np.asarray(v, dtype=np.float64) for v in (q0_values, q1_values, g_values)]

        def predict(Xq):
            try:
                idx = np.array([table[row.tobytes()]
                                for row in np.ascontiguousarray(Xq, dtype=np.float64)], dtype=np.intp)
            except KeyError:
                raise UsageError("row not present in the oracle lookup table") from None
            return tuple(v[idx] for v in values)

        return cls(
            predict=predict,
            epsilon_hat=0.0,
            metadata={"architecture": "oracle", "treg": False},
        )


def build_predictors(net: ThreeHeadNet, scaler: Scaler):
    """Wrap one network forward with the scaler; returns predict(X) -> (q0, q1, g),
    each (n,).

    X must be 2-d with the scaler's width: ShapeError otherwise, before numpy
    can broadcast a one-column X across it.  A non-finite prediction raises
    NumericError.
    """
    width = scaler.x_mean.shape[0]

    def predict(X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError(f"x must be 2-d, got shape {X.shape}")
        if X.shape[1] != width:
            raise ShapeError(f"x has {X.shape[1]} features, model expects {width}")
        q0, q1, g, _ = net.apply(scaler.transform_x(X))
        for name, arr in (("q0", q0), ("q1", q1), ("g", g)):
            if not np.isfinite(arr).all():
                raise NumericError(f"{name} contains non-finite values")
        return scaler.restore_y(q0), scaler.restore_y(q1), g

    return predict


def _sections(arch: str) -> dict[str, str]:
    """Checkpoint v1 section name of each stack: tarnet stores its
    propensity as `aux_propensity`."""
    return {name: "aux_propensity" if arch == ARCH_TARNET and name == "propensity" else name
            for name in STACKS}


def make_payload(arch: str, net: ThreeHeadNet, scaler: Scaler, epsilon_hat: float, treg: bool,
                 config_digest: str, train_config: dict | None = None) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "architecture": arch,
        "treg": bool(treg),
        "epsilon_hat": float(epsilon_hat),
        "config_digest": config_digest,
        "train_config": train_config,
        "scaler": plain(scaler),
        "stacks": {section: plain(getattr(net, name)) for name, section in _sections(arch).items()},
    }


def save_checkpoint(model: FittedModel, path) -> None:
    """Write the model's weights, scaler and epsilon to a JSON checkpoint.

    JSON floats round-trip float64 exactly (shortest-repr encoding), so a
    reloaded model predicts bit-identically.
    """
    payload = model.payload
    if payload is None:
        raise UsageError("this model has no serializable parameters (oracle or function-backed)")
    Path(path).write_text(json.dumps(payload))


@config_values("checkpoint")
def load_checkpoint(path) -> FittedModel:
    """Rebuild a model from `save_checkpoint` output.  Its `payload` parses
    the file's text again on each read, so saving it writes the same bytes.

    A file that is not JSON, a missing section, a value that is not a number,
    a non-finite epsilon_hat, a scaler that `Scaler` rejects, a `treg` that
    is not a bool or a `config_digest` that is not a string raise ConfigError
    naming the key; ragged arrays and layer widths that do not chain raise
    ShapeError, and non-finite weights NumericError, at load time.
    """
    try:
        text = Path(path).read_text()
        obj = json.loads(text)
    except ValueError as err:
        raise ConfigError(f"{path} is not JSON: {err}") from err
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a {CHECKPOINT_FORMAT} file: {path}")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {obj.get('version')!r}")
    arch = obj["architecture"]
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {arch!r}")
    for key, kind in (("treg", bool), ("config_digest", str)):
        if not isinstance(obj[key], kind):
            raise ConfigError(f"checkpoint {key} must be a {kind.__name__}, got {obj[key]!r}")
    sections = _sections(arch)
    stacks, sc = obj["stacks"], obj["scaler"]
    if not all(isinstance(stacks[s], list) for s in sections.values()):
        raise ConfigError("checkpoint stacks must be lists of layers")
    layers = {}
    for name, section in sections.items():
        try:
            layers[name] = [DenseLayer(o["weights"], o["bias"], o["activation"])
                            for o in stacks[section]]
        except (ConfigError, ShapeError) as err:
            raise type(err)(f"checkpoint {section} layer {err}") from err
    try:
        net = ThreeHeadNet(**layers, g_reads_x=arch == ARCH_TARNET)
        scaler = Scaler(sc["x_mean"], sc["x_std"], sc["y_mean"], sc["y_std"])
        epsilon_hat = as_number(obj["epsilon_hat"], "epsilon_hat")
    except (ConfigError, ShapeError) as err:
        raise type(err)(f"checkpoint {err}") from err
    if scaler.x_mean.shape != (net.shared[0].in_dim,):
        raise ShapeError(f"checkpoint scaler does not have {net.shared[0].in_dim} columns")
    return FittedModel(
        predict=build_predictors(net, scaler),
        epsilon_hat=epsilon_hat,
        metadata={"architecture": arch, "treg": obj["treg"],
                  "config_digest": obj["config_digest"]},
        build_payload=partial(json.loads, text),
    )
