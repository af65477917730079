"""Training loops for the three architectures.

One plain SGD-with-momentum loop drives everything: per epoch the training
rows are reshuffled, minibatch gradients are taken through the autodiff
graph, and the full-data loss breakdown is recorded.  Early stopping
watches the validation total (or the training total when no validation
rows exist) with a patience counter and restores the best parameters seen.
With a spare core and a fit large enough to pay for it, the next epoch's
SGD runs on a worker thread while the calling thread records the last one
(see `_sgd_loop`).

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

import contextvars
import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from operator import index

import numpy as np

from . import autodiff as ad
from .datagen import Dataset
from .errors import ConfigError, NumericError, TrainingDivergedError
from .estimators import stationary_epsilon
from .models import (
    ARCH_DRAGONNET,
    ARCH_NEDNET,
    ARCHITECTURES,
    STACKS,
    FittedModel,
    Scaler,
    ThreeHeadNet,
    build_predictors,
    init_network,
    make_payload,
)
from .nn import SgdMomentum, apply_stack, sgd_momentum_step
from .objectives import (
    LossBreakdown,
    cross_entropy_term,
    select_observed,
    squared_error_term,
    treg_term,
    weighted_total,
)
from .schema import check_bools, check_keys, config_values, plain

# Each nednet phase fits one term: (alpha, beta) = (1, 0) makes its total
# that term alone.
NEDNET_WEIGHTS = (1.0, 0.0)


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

    @config_values("train config")
    def __post_init__(self):
        check_bools(self)
        for name in ("alpha", "beta", "learning_rate"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.learning_rate == 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        object.__setattr__(self, "shared_widths", tuple(self.shared_widths))
        object.__setattr__(self, "outcome_widths", tuple(self.outcome_widths))
        if index(self.batch_size) < 1:
            raise ConfigError("batch_size must be >= 1")
        if index(self.epochs) < 0:
            raise ConfigError("epochs must be >= 0")
        if index(self.patience) < 0:
            raise ConfigError("patience must be >= 0")
        if self.seed is not None and index(self.seed) < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.val_fraction <= 0.5:
            raise ConfigError(f"val_fraction must be in [0, 0.5], got {self.val_fraction}")
        if not 0.0 < self.h_clip < 0.5:
            raise ConfigError(f"h_clip must be in (0, 0.5), got {self.h_clip}")
        if not self.shared_widths or not self.outcome_widths:
            raise ConfigError("shared_widths and outcome_widths must be nonempty")
        if any(index(w) < 1 for w in (*self.shared_widths, *self.outcome_widths)):
            raise ConfigError("layer widths must be positive")

    @classmethod
    @config_values("train config")
    def from_dict(cls, d: dict) -> "TrainConfig":
        check_keys(cls, d, "train config")
        return cls(**d)


def config_digest(cfg: TrainConfig) -> str:
    payload = json.dumps(plain(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _child_rngs(rng: np.random.Generator, k: int) -> list[np.random.Generator]:
    seeds = rng.integers(0, 2**63 - 1, size=k)
    return [np.random.default_rng(int(s)) for s in seeds]


def _composite_terms(net: ThreeHeadNet, x, y, t, leaves, cfg: TrainConfig):
    """Outcome, cross-entropy and (if beta > 0) fluctuation penalty terms of
    `net` run with `leaves` as its parameters.

    Works on Vars during training and on plain arrays for reporting; the
    clip keeps the inverse-propensity weights bounded while optimizing.
    """
    q0, q1, g, eps = net.apply(x, leaves)
    q_at_t = select_observed(q0, q1, t)
    outcome = squared_error_term(q_at_t, y)
    xent = cross_entropy_term(g, t)
    if cfg.beta > 0:
        treg = treg_term(y, q_at_t, t, ad.clip(g, cfg.h_clip, 1.0 - cfg.h_clip), eps)
    else:
        treg = 0.0
    return outcome, xent, treg


def _check_finite(breakdown: LossBreakdown, epoch: int):
    for term, value in plain(breakdown).items():
        if not np.isfinite(value):
            raise TrainingDivergedError(epoch, term, value)


# Epochs overlap only when one epoch's scoring reaches this many
# multiply-adds (scored rows x parameters, about 25 ms on one core): the
# threads hand the GIL over around each scoring op, and under load each
# hand-off can wait for a descheduled core.  An IHDP-like sweep fit (1e8)
# saved 10 % idle and lost up to 43 % loaded; 2400 rows (3.4e8) saved 19 %.
OVERLAP_MIN_WORK = 2e8


def _spare_core() -> bool:
    """True when this process can use a second core: it is the main process
    (pool workers already fill the cores) and may run on more than one CPU."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return multiprocessing.parent_process() is None and cpus > 1


def _sgd_loop(
    leaves: list[np.ndarray],
    terms,
    weights: tuple[float, float],
    train: tuple,
    val: "tuple | None",
    batch_rows: np.ndarray,
    cfg: TrainConfig,
    order_rng: np.random.Generator,
) -> dict:
    """Run up to cfg.epochs epochs and restore the best leaves; returns the
    metadata of the run: the loss traces as JSON, best_epoch and epochs_run.

    The loss is the weighted total of terms(x, y, t, leaves) -> (outcome,
    xent, treg) on minibatches of `train`'s rows `batch_rows`; `train` and
    `val` are (x, y, t) arrays, and every epoch records the `LossBreakdown`
    of each whole set.  `val` (None when nothing is held out) drives early
    stopping, else the training total does.

    The calling thread scores epoch k (breakdowns, checks, traces, early
    stopping) on a snapshot of `leaves`.  If the scoring reaches
    `OVERLAP_MIN_WORK`, `_spare_core()` holds and epoch k cannot end
    training, epoch k + 1's SGD runs meanwhile on one worker thread under
    the caller's numpy error state, else inline afterwards; the
    permutations drawn and the errors raised are the same either way.
    """
    alpha, beta = weights

    def breakdown(x, y, t, params):
        return LossBreakdown.weighted(*terms(x, y, t, params), alpha, beta)

    def batch_loss(vs, idx):
        return weighted_total(terms(*(a[idx] for a in train), vs), alpha, beta)

    def stops(stale):  # early stopping; also tells whether epoch k can end training
        return 0 < cfg.patience <= stale

    def sgd_epoch(epoch):
        order = batch_rows[order_rng.permutation(n_rows)]
        for start in range(0, n_rows, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            try:
                _, grads = ad.gradients(leaves, lambda vs: batch_loss(vs, idx))
            except NumericError as err:
                raise TrainingDivergedError(epoch, "total", err.value) from err
            sgd_momentum_step(leaves, grads, state)

    state = SgdMomentum.for_params(leaves, cfg.learning_rate, cfg.momentum)
    train_trace, val_trace = [], []
    best_monitor = np.inf
    best_epoch = -1
    best_snapshot = None
    stale = 0
    n_rows = len(batch_rows)
    ahead = None
    scored_rows = len(train[0]) + (0 if val is None else len(val[0]))
    overlap = scored_rows * sum(a.size for a in leaves) >= OVERLAP_MIN_WORK and _spare_core()
    # Leaving the pool joins a running epoch, so no thread outlives the loop
    # and epoch k's divergence is raised only once epoch k + 1 has stopped.
    with ThreadPoolExecutor(max_workers=1) if overlap else nullcontext() as pool:
        for epoch in range(cfg.epochs):
            if ahead is None:
                sgd_epoch(epoch)
            else:
                ahead.result()
            snapshot = [a.copy() for a in leaves]
            ahead = None
            if pool and epoch + 1 < cfg.epochs and not stops(stale + 1):
                ahead = pool.submit(contextvars.copy_context().run, sgd_epoch, epoch + 1)
            tb = breakdown(*train, snapshot)
            _check_finite(tb, epoch)
            train_trace.append(tb)
            if val is not None:
                vb = breakdown(*val, snapshot)
                _check_finite(vb, epoch)
                val_trace.append(vb)
                monitor = vb.total
            else:
                monitor = tb.total
            if monitor < best_monitor:
                best_monitor = monitor
                best_epoch = epoch
                best_snapshot = snapshot
                stale = 0
            else:
                stale += 1
                if stops(stale):
                    break
    if best_snapshot is not None:
        for a, s in zip(leaves, best_snapshot):
            a[...] = s
    return {
        "train_loss_trace": plain(train_trace),
        "val_loss_trace": plain(val_trace),
        "best_epoch": best_epoch,
        "epochs_run": len(train_trace),
    }


def _scaled(data: Dataset, scaler: Scaler) -> tuple:
    """(X, y, t) of `data` in the scaler's units, with t as float."""
    return scaler.transform_x(data.X), scaler.transform_y(data.y), data.t.astype(np.float64)


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


def _finalize_epsilon(net: ThreeHeadNet, Xs, ys, ts, cfg: TrainConfig):
    """Exact coordinate step on the quadratic epsilon term.

    Sets epsilon to its closed-form minimizer given the final network, so
    the trained model is stationary in epsilon on the training sample.
    """
    q0, q1, g, _ = net.apply(Xs)
    q_at_t = select_observed(q0, q1, ts)
    gc = np.clip(g, cfg.h_clip, 1.0 - cfg.h_clip)
    net.epsilon[...] = stationary_epsilon(ys, q_at_t, ts, gc)


def _fitted(arch: str, net: ThreeHeadNet, scaler: Scaler, cfg: TrainConfig, **meta) -> FittedModel:
    """The trained network with its scaler and metadata; the checkpoint payload
    is built only when read.  Epsilon comes back in outcome units."""
    epsilon_hat = float(net.epsilon) * scaler.y_std
    treg = cfg.beta > 0
    digest = config_digest(cfg)
    meta = {"architecture": arch, "treg": treg, "alpha": cfg.alpha, "beta": cfg.beta,
            "config_digest": digest, **meta}
    payload = partial(make_payload, arch, net, scaler, epsilon_hat, treg, digest, plain(cfg))
    return FittedModel(predict=build_predictors(net, scaler), epsilon_hat=epsilon_hat,
                       metadata=meta, build_payload=payload)


def train_dragonnet(
    data: Dataset, cfg: TrainConfig = TrainConfig(), rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    """Joint training of the shared stack, outcome heads and propensity head."""
    return train_architecture(ARCH_DRAGONNET, data, cfg, rng, val_data)


def train_architecture(
    arch: str, data: Dataset, cfg: TrainConfig, rng=None, val_data: "Dataset | None" = None
) -> FittedModel:
    """Train one of ARCHITECTURES on `data`.

    dragonnet and tarnet fit one joint objective; tarnet's propensity is a
    logistic regression on the raw covariates, coupled to the outcome heads
    only through the fluctuation penalty when beta > 0.  nednet trains in
    two phases: the shared stack plus the propensity on pure cross-entropy,
    then the outcome heads, still at their initial draw, on squared error
    over the frozen representation with a fresh optimizer.  nednet has no
    fluctuation term, so it needs beta = 0 and its epsilon stays 0.
    """
    if arch not in ARCHITECTURES:
        raise ConfigError(f"unknown architecture {arch!r}; expected one of {sorted(ARCHITECTURES)}")
    if arch == ARCH_NEDNET and cfg.beta > 0:
        raise ConfigError("nednet has no fluctuation parameter; use beta = 0")
    if rng is None:
        rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    init_rng, order_rng = _child_rngs(rng, 2)
    scaler = Scaler.fit(data.X, data.y) if cfg.standardize else Scaler.identity(data.p)
    Xs, ys, ts = _scaled(data, scaler)
    net = init_network(init_rng, data.p, cfg.shared_widths, cfg.outcome_widths, arch)
    ext_val = None if val_data is None else _scaled(val_data, scaler)
    batch_rows, carved = _carve_validation(data.n, cfg, order_rng, ext_val is not None)

    def fit(stacks, terms, weights, train, val):
        """SGD on the named stacks; `val` None means the carved rows, if any."""
        if val is None and carved.size:
            val = tuple(a[carved] for a in train)
        return _sgd_loop(net.leaves(stacks), terms, weights, train, val, batch_rows, cfg,
                         order_rng)

    if arch != ARCH_NEDNET:
        joint_terms = lambda x, y, t, vs: _composite_terms(net, x, y, t, vs, cfg)
        loop = fit(STACKS, joint_terms, (cfg.alpha, cfg.beta), (Xs, ys, ts), ext_val)
        if cfg.beta > 0 and cfg.finalize_epsilon:
            _finalize_epsilon(net, Xs, ys, ts, cfg)
        return _fitted(arch, net, scaler, cfg, **loop)

    # Phase 1: the shared stack and the propensity on cross-entropy alone.
    p1_stacks = ("shared", "propensity")

    def p1_terms(x, y, t, vs):
        pairs = net.pairs(vs, p1_stacks)
        z = apply_stack(net.shared, x, pairs["shared"])
        return 0.0, cross_entropy_term(net.g(x, z, pairs), t), 0.0

    loop1 = fit(p1_stacks, p1_terms, NEDNET_WEIGHTS, (Xs, ys, ts), ext_val)

    # Phase 2: the representation is frozen, so it is computed once over all
    # rows and sliced per minibatch.
    p2_stacks = ("head0", "head1")

    def p2_terms(z, y, t, vs):
        q0, q1 = net.outcomes(z, net.pairs(vs, p2_stacks))
        return squared_error_term(select_observed(q0, q1, t), y), 0.0, 0.0

    Z = apply_stack(net.shared, Xs)
    Zval = None if ext_val is None else (apply_stack(net.shared, ext_val[0]), *ext_val[1:])
    loop2 = fit(p2_stacks, p2_terms, NEDNET_WEIGHTS, (Z, ys, ts), Zval)
    return _fitted(arch, net, scaler, cfg, beta=0.0, **loop2, phase1=loop1)
