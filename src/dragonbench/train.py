"""Training loops for the three architectures.

One plain SGD-with-momentum loop drives everything: per epoch the training
rows are reshuffled, minibatch gradients are taken through the autodiff
graph, and the full-data loss breakdown is recorded.  Early stopping
watches the validation total (or the training total when no validation
rows exist) with a patience counter and restores the best parameters seen.

Reproducibility: the caller's generator is used only to derive two child
seeds (initialization, data ordering), so a fixed seed fixes the entire
trajectory.  Architectures draw their shared stack and outcome heads
before any architecture-specific parameters, which keeps those draws
identical across dragonnet/tarnet for the same seed.

Internally covariates and outcomes are standardized (fit on the training
sample); predictions are mapped back to original units, and the trained
fluctuation scalar is rescaled accordingly, so everything downstream works
in outcome units.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .datagen import Dataset
from .errors import ConfigError, NumericError, TrainingDivergedError
from .models import (
    ARCH_DRAGONNET,
    ARCH_NEDNET,
    ARCH_TARNET,
    FittedModel,
    Scaler,
    build_predictors,
    init_dragonnet,
    init_tarnet,
    make_payload,
)
from .nn import SgdMomentum, apply_stack, make_rng, sgd_momentum_step
from .objectives import (
    LossBreakdown,
    cross_entropy_term,
    h_values,
    select_observed,
    squared_error_term,
    stationary_epsilon,
)


@dataclass(frozen=True)
class TrainConfig:
    """Objective weights, optimizer settings and architecture sizes.

    beta > 0 turns targeted regularization on.  `h_clip` bounds the
    propensity inside the fluctuation term during optimization; it matches
    the default estimator trim bound, so on trimmed rows the training-time
    and estimation-time perturbations agree exactly.  With
    `finalize_epsilon` the quadratic epsilon coordinate is solved exactly
    after SGD finishes, which both lowers the objective and makes the
    sample estimating equation hold at the reported epsilon.
    """

    alpha: float = 1.0
    beta: float = 0.0
    learning_rate: float = 2e-3
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.2
    shared_widths: tuple[int, ...] = (200, 200, 200)
    outcome_widths: tuple[int, ...] = (100, 100)
    h_clip: float = 0.01
    finalize_epsilon: bool = True
    standardize: bool = True
    seed: int | None = None

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"alpha and beta must be >= 0, got {self.alpha}, {self.beta}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.patience < 0:
            raise ConfigError("patience must be >= 0")
        if not 0.0 <= self.val_fraction <= 0.5:
            raise ConfigError(f"val_fraction must be in [0, 0.5], got {self.val_fraction}")
        if not 0.0 < self.h_clip < 0.5:
            raise ConfigError(f"h_clip must be in (0, 0.5), got {self.h_clip}")
        if not self.shared_widths or not self.outcome_widths:
            raise ConfigError("shared_widths and outcome_widths must be nonempty")
        if any(w < 1 for w in (*self.shared_widths, *self.outcome_widths)):
            raise ConfigError("layer widths must be positive")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["shared_widths"] = list(self.shared_widths)
        d["outcome_widths"] = list(self.outcome_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["shared_widths"] = tuple(d.get("shared_widths", (200, 200, 200)))
        d["outcome_widths"] = tuple(d.get("outcome_widths", (100, 100)))
        return cls(**d)


def config_digest(cfg: TrainConfig) -> str:
    payload = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _resolve_rng(cfg: TrainConfig, rng) -> np.random.Generator:
    if rng is not None:
        return rng
    return make_rng(cfg.seed if cfg.seed is not None else 0)


def _child_rngs(rng: np.random.Generator, k: int) -> list[np.random.Generator]:
    seeds = rng.integers(0, 2**63 - 1, size=k)
    return [np.random.default_rng(int(s)) for s in seeds]


def _composite_terms(q0, q1, g, eps, y, t, cfg: TrainConfig):
    """Outcome, cross-entropy and (if beta > 0) fluctuation penalty terms.

    Works on Vars during training and on plain arrays for reporting; the
    clip keeps the inverse-propensity weights bounded while optimizing.
    """
    q_at_t = select_observed(q0, q1, t)
    outcome = squared_error_term(q_at_t, y)
    xent = cross_entropy_term(g, t)
    if cfg.beta > 0:
        gc = ad.clip(g, cfg.h_clip, 1.0 - cfg.h_clip)
        resid = ad.sub(y, ad.add(q_at_t, eps * h_values(t, gc)))
        treg = ad.mean(ad.square(resid))
    else:
        treg = 0.0
    return outcome, xent, treg


def _composite_total(q0, q1, g, eps, y, t, cfg: TrainConfig):
    outcome, xent, treg = _composite_terms(q0, q1, g, eps, y, t, cfg)
    total = ad.add(outcome, cfg.alpha * xent)
    if cfg.beta > 0:
        total = ad.add(total, cfg.beta * treg)
    return total


def _composite_breakdown(params, Xs, ys, ts, cfg: TrainConfig) -> LossBreakdown:
    q0, q1, g, eps = params.apply(Xs)
    outcome, xent, treg = _composite_terms(q0, q1, g, eps, ys, ts, cfg)
    outcome, xent, treg = float(outcome), float(xent), float(treg)
    return LossBreakdown(
        outcome=outcome,
        xent=xent,
        treg=treg,
        total=outcome + cfg.alpha * xent + cfg.beta * treg,
    )


def _check_finite(breakdown: LossBreakdown, epoch: int):
    for term, value in breakdown.to_dict().items():
        if not np.isfinite(value):
            raise TrainingDivergedError(epoch, term, value)


def _sgd_loop(
    leaves: list[np.ndarray],
    batch_rows: np.ndarray,
    batch_loss: Callable,
    train_breakdown: Callable[[], LossBreakdown],
    val_breakdown: "Callable[[], LossBreakdown] | None",
    cfg: TrainConfig,
    order_rng: np.random.Generator,
) -> dict:
    """Run up to cfg.epochs epochs; returns traces and restores best leaves."""
    state = SgdMomentum.for_params(leaves, cfg.learning_rate, cfg.momentum)
    train_trace: list[LossBreakdown] = []
    val_trace: list[LossBreakdown] = []
    best_monitor = np.inf
    best_epoch = -1
    best_snapshot = None
    stale = 0
    n_rows = len(batch_rows)
    for epoch in range(cfg.epochs):
        perm = order_rng.permutation(n_rows)
        for start in range(0, n_rows, cfg.batch_size):
            idx = batch_rows[perm[start : start + cfg.batch_size]]
            try:
                _, grads = ad.gradients(leaves, lambda vs: batch_loss(vs, idx))
            except NumericError as err:
                raise TrainingDivergedError(epoch, "total", err.value) from err
            sgd_momentum_step(leaves, grads, state)
        tb = train_breakdown()
        _check_finite(tb, epoch)
        train_trace.append(tb)
        if val_breakdown is not None:
            vb = val_breakdown()
            _check_finite(vb, epoch)
            val_trace.append(vb)
            monitor = vb.total
        else:
            monitor = tb.total
        if monitor < best_monitor:
            best_monitor = monitor
            best_epoch = epoch
            best_snapshot = [a.copy() for a in leaves]
            stale = 0
        else:
            stale += 1
            if cfg.patience > 0 and stale >= cfg.patience:
                break
    if best_snapshot is not None:
        for a, s in zip(leaves, best_snapshot):
            a[...] = s
    return {
        "train_trace": train_trace,
        "val_trace": val_trace,
        "best_epoch": best_epoch,
        "epochs_run": len(train_trace),
    }


def _standardized(data: Dataset, cfg: TrainConfig):
    scaler = Scaler.fit(data.X, data.y) if cfg.standardize else Scaler.identity(data.p)
    Xs = scaler.transform_x(data.X)
    ys = scaler.transform_y(data.y)
    ts = data.t.astype(np.float64)
    return scaler, Xs, ys, ts


def _carve_validation(
    n: int, cfg: TrainConfig, order_rng: np.random.Generator, explicit_val: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Rows used for minibatching and (internal) validation rows.

    With an explicit validation set, or val_fraction = 0, every row is
    batched.  Otherwise a seeded fraction is held out of the minibatches
    purely to drive early stopping; reported losses still cover all rows.
    """
    all_rows = np.arange(n)
    if explicit_val or cfg.val_fraction <= 0 or n < 4:
        return all_rows, np.empty(0, dtype=np.intp)
    n_val = int(round(cfg.val_fraction * n))
    n_val = max(1, min(n_val, n - 1))
    perm = order_rng.permutation(n)
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _finalize_epsilon(params, Xs, ys, ts, cfg: TrainConfig):
    """Exact coordinate step on the quadratic epsilon term.

    Sets epsilon to its closed-form minimizer given the final network, so
    the trained model is stationary in epsilon on the training sample.
    """
    q0, q1, g, _ = params.apply(Xs)
    q_at_t = select_observed(q0, q1, ts)
    gc = np.clip(g, cfg.h_clip, 1.0 - cfg.h_clip)
    params.epsilon[...] = stationary_epsilon(ys, q_at_t, ts, gc)


def _traces_to_meta(loop: dict) -> dict:
    return {
        "train_loss_trace": [b.to_dict() for b in loop["train_trace"]],
        "val_loss_trace": [b.to_dict() for b in loop["val_trace"]],
        "best_epoch": loop["best_epoch"],
        "epochs_run": loop["epochs_run"],
    }


def _val_arrays(val_data: "Dataset | None", scaler: Scaler):
    if val_data is None:
        return None
    return (
        scaler.transform_x(val_data.X),
        scaler.transform_y(val_data.y),
        val_data.t.astype(np.float64),
    )


def _train_joint(arch: str, data: Dataset, cfg: TrainConfig, rng, val_data) -> FittedModel:
    """Shared trainer for dragonnet and tarnet (one joint objective)."""
    rng = _resolve_rng(cfg, rng)
    init_rng, order_rng = _child_rngs(rng, 2)
    scaler, Xs, ys, ts = _standardized(data, cfg)
    if arch == ARCH_TARNET:
        params = init_tarnet(init_rng, data.p, cfg.shared_widths, cfg.outcome_widths)
    else:
        params = init_dragonnet(init_rng, data.p, cfg.shared_widths, cfg.outcome_widths)
    leaves = params.leaves()
    ext_val = _val_arrays(val_data, scaler)
    batch_rows, carved = _carve_validation(data.n, cfg, order_rng, ext_val is not None)

    def batch_loss(vs, idx):
        q0, q1, g, eps = params.apply(Xs[idx], vs)
        return _composite_total(q0, q1, g, eps, ys[idx], ts[idx], cfg)

    def train_breakdown():
        return _composite_breakdown(params, Xs, ys, ts, cfg)

    if ext_val is not None:
        vX, vy, vt = ext_val
        val_breakdown = lambda: _composite_breakdown(params, vX, vy, vt, cfg)
    elif carved.size:
        val_breakdown = lambda: _composite_breakdown(
            params, Xs[carved], ys[carved], ts[carved], cfg
        )
    else:
        val_breakdown = None

    loop = _sgd_loop(leaves, batch_rows, batch_loss, train_breakdown, val_breakdown, cfg, order_rng)
    if cfg.beta > 0 and cfg.finalize_epsilon:
        _finalize_epsilon(params, Xs, ys, ts, cfg)
    epsilon_hat = float(params.epsilon) * scaler.y_std
    digest = config_digest(cfg)
    meta = {
        "architecture": arch,
        "treg": cfg.beta > 0,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "config_digest": digest,
        **_traces_to_meta(loop),
    }
    payload = make_payload(arch, params, scaler, epsilon_hat, cfg.beta > 0, digest, cfg.to_dict())
    return FittedModel(predict=build_predictors(params, scaler), epsilon_hat=epsilon_hat,
                       metadata=meta, payload=payload)


def train_dragonnet(
    data: Dataset, cfg: TrainConfig = TrainConfig(), rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    """Joint training of the shared stack, outcome heads and propensity head."""
    return _train_joint(ARCH_DRAGONNET, data, cfg, rng, val_data)


def train_tarnet(
    data: Dataset, cfg: TrainConfig = TrainConfig(), rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    """TARNET: outcome net without a propensity head on the representation.

    The auxiliary logistic regression is trained alongside from the same
    cross-entropy term; with beta > 0 the fluctuation penalty couples it to
    the outcome heads, otherwise the two evolve independently.
    """
    return _train_joint(ARCH_TARNET, data, cfg, rng, val_data)


def train_nednet(
    data: Dataset, cfg: TrainConfig = TrainConfig(), rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    """Two-phase training: propensity first, outcomes on the frozen trunk.

    Phase 1 fits the shared stack plus the propensity head on pure
    cross-entropy.  Phase 2 freezes the representation, re-initializes the
    outcome heads, and fits them on squared error with a fresh optimizer.
    Targeted regularization does not apply; epsilon stays 0.
    """
    if cfg.beta > 0:
        raise ConfigError("nednet has no fluctuation parameter; use beta = 0")
    rng = _resolve_rng(cfg, rng)
    init_rng, order_rng = _child_rngs(rng, 2)
    scaler, Xs, ys, ts = _standardized(data, cfg)
    params = init_dragonnet(init_rng, data.p, cfg.shared_widths, cfg.outcome_widths)
    ext_val = _val_arrays(val_data, scaler)
    batch_rows, carved = _carve_validation(data.n, cfg, order_rng, ext_val is not None)

    n_shared = len(params.shared)
    phase1_leaves = []
    for layer in (*params.shared, params.propensity):
        phase1_leaves.append(layer.weights)
        phase1_leaves.append(layer.bias)

    def p1_propensity(x, vs=None):
        if vs is None:
            shared_pairs = prop_pair = None
        else:
            shared_pairs = [(vs[2 * i], vs[2 * i + 1]) for i in range(n_shared)]
            prop_pair = [(vs[2 * n_shared], vs[2 * n_shared + 1])]
        z = apply_stack(params.shared, x, shared_pairs)
        return ad.reshape(apply_stack([params.propensity], z, prop_pair), (-1,))

    def p1_loss(vs, idx):
        return cross_entropy_term(p1_propensity(Xs[idx], vs), ts[idx])

    def p1_breakdown_on(rows):
        xent = float(cross_entropy_term(p1_propensity(Xs[rows]), ts[rows]))
        return LossBreakdown(outcome=0.0, xent=xent, treg=0.0, total=xent)

    def xent_breakdown(x, t):
        xent = float(cross_entropy_term(p1_propensity(x), t))
        return LossBreakdown(outcome=0.0, xent=xent, treg=0.0, total=xent)

    all_rows = np.arange(data.n)
    if ext_val is not None:
        vX, _, vt = ext_val
        p1_val = lambda: xent_breakdown(vX, vt)
    elif carved.size:
        p1_val = lambda: p1_breakdown_on(carved)
    else:
        p1_val = None
    loop1 = _sgd_loop(
        phase1_leaves, batch_rows, p1_loss, lambda: p1_breakdown_on(all_rows), p1_val, cfg, order_rng
    )

    # Phase 2: the representation is frozen, so it can be computed once.
    Z = apply_stack(params.shared, Xs)
    Zval = apply_stack(params.shared, ext_val[0]) if ext_val is not None else None
    n_h0 = len(params.head0)
    phase2_leaves = []
    for layer in (*params.head0, *params.head1):
        phase2_leaves.append(layer.weights)
        phase2_leaves.append(layer.bias)

    def heads_apply(z, vs=None):
        if vs is None:
            h0_pairs = h1_pairs = None
        else:
            h0_pairs = [(vs[2 * i], vs[2 * i + 1]) for i in range(n_h0)]
            h1_pairs = [
                (vs[2 * (n_h0 + i)], vs[2 * (n_h0 + i) + 1]) for i in range(len(params.head1))
            ]
        q0 = ad.reshape(apply_stack(params.head0, z, h0_pairs), (-1,))
        q1 = ad.reshape(apply_stack(params.head1, z, h1_pairs), (-1,))
        return q0, q1

    def p2_loss(vs, idx):
        q0, q1 = heads_apply(Z[idx], vs)
        return squared_error_term(select_observed(q0, q1, ts[idx]), ys[idx])

    def p2_breakdown_on(z, y, t):
        q0, q1 = heads_apply(z)
        mse = float(squared_error_term(select_observed(q0, q1, t), y))
        return LossBreakdown(outcome=mse, xent=0.0, treg=0.0, total=mse)

    if ext_val is not None:
        p2_val = lambda: p2_breakdown_on(Zval, ext_val[1], ext_val[2])
    elif carved.size:
        p2_val = lambda: p2_breakdown_on(Z[carved], ys[carved], ts[carved])
    else:
        p2_val = None
    loop2 = _sgd_loop(
        phase2_leaves, batch_rows, p2_loss, lambda: p2_breakdown_on(Z, ys, ts), p2_val, cfg, order_rng
    )

    digest = config_digest(cfg)
    meta = {
        "architecture": ARCH_NEDNET,
        "treg": False,
        "alpha": cfg.alpha,
        "beta": 0.0,
        "config_digest": digest,
        **_traces_to_meta(loop2),
        "phase1": _traces_to_meta(loop1),
    }
    payload = make_payload(ARCH_NEDNET, params, scaler, 0.0, False, digest, cfg.to_dict())
    return FittedModel(predict=build_predictors(params, scaler), epsilon_hat=0.0,
                       metadata=meta, payload=payload)


TRAINERS = {
    ARCH_DRAGONNET: train_dragonnet,
    ARCH_TARNET: train_tarnet,
    ARCH_NEDNET: train_nednet,
}


def train_architecture(
    arch: str, data: Dataset, cfg: TrainConfig, rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    if arch not in TRAINERS:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {sorted(TRAINERS)}")
    return TRAINERS[arch](data, cfg, rng=rng, val_data=val_data)
