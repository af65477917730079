"""Average-treatment-effect estimators over a fitted outcome/propensity model.

Given the arrays q0, q1 (outcome predictions), g (propensities), t and y
of one row set, the package exposes the classical estimator family:

  psi_q      plug-in mean of Q(1, x) - Q(0, x)
  psi_aiptw  plug-in plus the inverse-propensity residual correction;
             solves the estimating equation mean(phi) = 0 by construction
  psi_tmle   one-step targeted update: a closed-form fluctuation epsilon
             moves Q along the clever covariate before plugging in
  psi_treg   plug-in over the perturbed outcome using the epsilon trained
             jointly with the network

All estimators are pure functions of those arrays and expect pre-trimmed
inputs: run `trim` on the propensity scores first and feed every
estimator the same retained rows, which is what `apply_estimators` does
with one `FittedModel.predict` per row set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NumericDomainError, ShapeError, UsageError
from .objectives import (
    _as_1d,
    _check_binary,
    _check_lengths,
    _check_prob_open,
    h_values,
    select_observed,
    stationary_epsilon,
)
from .schema import check_keys, config_values

OVERLAP_ACCURACY_THRESHOLD = 0.90

TAG_Q = "Q"
TAG_AIPTW = "AIPTW"
TAG_TMLE = "TMLE"
TAG_TREG = "TREG"
ESTIMATOR_TAGS = (TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG)


@dataclass(frozen=True)
class InfluenceValues:
    """Efficient influence curve values phi_i and their plain mean."""

    phi: np.ndarray
    mean_phi: float


@dataclass(frozen=True)
class TrimResult:
    kept: np.ndarray
    dropped_low: int
    dropped_high: int
    bounds: tuple[float, float]


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's output plus the trimming diagnostics of its run."""

    estimator_tag: str
    psi_hat: float
    n_used: int
    trim_bounds: tuple[float, float]
    mean_phi: float
    dropped_low: int
    dropped_high: int

    @classmethod
    @config_values("estimate report")
    def from_dict(cls, d: dict) -> "EstimateReport":
        check_keys(cls, d, "estimate report")
        return cls(**{**d, "trim_bounds": tuple(d["trim_bounds"])})


def _check_rows(n: int, context: str):
    if n == 0:
        raise EstimationError(f"{context}: no rows to estimate from")


def trim(g_values, bounds=(0.01, 0.99)) -> TrimResult:
    """Indices of rows whose propensity lies inside [low, high], inclusive."""
    g = _as_1d("g_values", g_values)
    if ((g < 0.0) | (g > 1.0)).any():
        raise NumericDomainError("g_values must lie in [0, 1]")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise NumericDomainError(f"trim bounds must satisfy 0 <= low < high <= 1, got {bounds}")
    kept = np.flatnonzero((g >= lo) & (g <= hi))
    return TrimResult(
        kept=kept,
        dropped_low=int((g < lo).sum()),
        dropped_high=int((g > hi).sum()),
        bounds=(lo, hi),
    )


def overlap_flag(heldout_accuracy: float) -> bool:
    """True when treatment is too predictable: accuracy strictly above 0.90."""
    acc = float(heldout_accuracy)
    if not 0.0 <= acc <= 1.0:
        raise NumericDomainError(f"accuracy must be in [0, 1], got {acc}")
    return acc > OVERLAP_ACCURACY_THRESHOLD


def propensity_accuracy(g_values, t) -> float:
    """Share of rows where thresholding g at 0.5 reproduces t."""
    g = _as_1d("g_values", g_values)
    t = _as_1d("t", t)
    _check_binary(t)
    _check_rows(_check_lengths(g=g, t=t), "propensity_accuracy")
    return float(np.mean((g > 0.5).astype(np.float64) == t))


def diff_in_means(t, y) -> float:
    """Unadjusted mean(y | t=1) - mean(y | t=0); the no-covariate baseline."""
    t = _as_1d("t", t)
    y = _as_1d("y", y)
    _check_binary(t)
    _check_lengths(t=t, y=y)
    treated = t == 1.0
    if not treated.any() or treated.all():
        raise EstimationError("diff_in_means needs both treated and control rows")
    return float(y[treated].mean() - y[~treated].mean())


def _nuisances(q0, q1, g, t, y):
    """Validated float arrays of one row set: same length, g inside (0, 1), t binary."""
    names = ("q0", "q1", "g", "t", "y")
    q0, q1, g, t, y = arrays = [_as_1d(k, v) for k, v in zip(names, (q0, q1, g, t, y))]
    _check_rows(_check_lengths(q0=q0, q1=q1, g=g, t=t, y=y), "estimator input")
    _check_prob_open(g)
    _check_binary(t)
    return arrays


def influence_curve(q0, q1, g, t, y, psi: float) -> InfluenceValues:
    """phi_i = q1_i - q0_i + H(t_i, g_i) * (y_i - q_{t_i}) - psi."""
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    phi = q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t)) - float(psi)
    return InfluenceValues(phi=phi, mean_phi=float(np.mean(phi)))


def psi_q(q0, q1) -> float:
    """Plug-in estimate: mean of q1(x) - q0(x) over the given rows."""
    q0 = _as_1d("q0", q0)
    q1 = _as_1d("q1", q1)
    _check_rows(_check_lengths(q0=q0, q1=q1), "estimator input")
    return float(np.mean(q1 - q0))


def psi_aiptw(q0, q1, g, t, y) -> tuple[float, InfluenceValues]:
    """Augmented IPW: plug-in plus mean inverse-propensity residual.

    The estimate is the value that zeroes the empirical mean of the
    influence curve, so mean_phi is 0 up to rounding by construction.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    psi = float(np.mean(q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t))))
    return psi, influence_curve(q0, q1, g, t, y, psi)


def _perturbed(q0, q1, g, t, y, eps: float) -> tuple[float, InfluenceValues]:
    """Plug-in and influence curve of the outcomes moved by eps along H."""
    q1_star = q1 + eps / g
    q0_star = q0 - eps / (1.0 - g)
    psi = float(np.mean(q1_star - q0_star))
    return psi, influence_curve(q0_star, q1_star, g, t, y, psi)


def psi_tmle(q0, q1, g, t, y) -> tuple[float, InfluenceValues, float]:
    """One-step targeted update with the closed-form fluctuation.

    epsilon = sum(H (y - q)) / sum(H^2) minimizes the squared perturbed
    residual exactly, the updated outcomes are q + epsilon * H, and the
    plug-in over them satisfies the estimating equation mean(phi) = 0 up
    to float rounding.  No iteration is needed: the fluctuation is linear
    in epsilon so one exact step lands on the solution.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    eps = stationary_epsilon(y, select_observed(q0, q1, t), t, g)
    return (*_perturbed(q0, q1, g, t, y, eps), float(eps))


def psi_treg(q0, q1, g, t, y, epsilon_hat: float) -> tuple[float, InfluenceValues]:
    """Plug-in over the perturbed outcomes at the jointly trained epsilon.

    `epsilon_hat` is the fluctuation a model learned with the targeted-
    regularization term (meaningless otherwise).  mean_phi is diagnostic:
    it is near zero exactly when training reached stationarity in epsilon
    on the rows being estimated.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    return _perturbed(q0, q1, g, t, y, float(epsilon_hat))


def apply_estimators(
    model, X, t, y, bounds=(0.01, 0.99), estimators=None
) -> dict[str, EstimateReport]:
    """Trim once, then run the requested estimators on the retained rows.

    Returns {tag: EstimateReport}.  The default set is Q/AIPTW/TMLE, plus
    TREG when the model was trained with targeted regularization.

    One `model.predict` on X gives the propensities to trim on; when the
    trim drops rows, one more `predict` on the kept rows feeds every
    estimator.  The kept rows are predicted afresh rather than sliced out
    of the first prediction because BLAS rounds differently at different
    row counts, and estimates must equal a direct prediction on the rows
    they use, bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    t = _as_1d("t", t)
    y = _as_1d("y", y)
    if estimators is None:
        estimators = (TAG_Q, TAG_AIPTW, TAG_TMLE) + ((TAG_TREG,) if model.treg else ())
    unknown = set(estimators) - set(ESTIMATOR_TAGS)
    if unknown:
        raise UsageError(f"unknown estimator tags: {sorted(unknown)}")
    if TAG_TREG in estimators and not model.treg:
        raise UsageError("TREG needs a model trained with beta > 0")
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d, got shape {X.shape}")
    _check_rows(X.shape[0], "apply_estimators")
    preds = model.predict(X)
    tr = trim(preds[2], bounds)
    if tr.kept.size == 0:
        raise EstimationError(
            f"trimming to {tr.bounds} removed every row "
            f"({tr.dropped_low} low, {tr.dropped_high} high)"
        )
    if tr.kept.size < X.shape[0]:
        preds = model.predict(X[tr.kept])
    q0, q1, g, tk, yk = _nuisances(*preds, t[tr.kept], y[tr.kept])
    reports: dict[str, EstimateReport] = {}
    for tag in estimators:
        if tag == TAG_Q:
            psi = psi_q(q0, q1)
            iv = influence_curve(q0, q1, g, tk, yk, psi)
        elif tag == TAG_AIPTW:
            psi, iv = psi_aiptw(q0, q1, g, tk, yk)
        elif tag == TAG_TMLE:
            psi, iv, _ = psi_tmle(q0, q1, g, tk, yk)
        else:
            psi, iv = psi_treg(q0, q1, g, tk, yk, model.epsilon_hat)
        reports[tag] = EstimateReport(
            estimator_tag=tag,
            psi_hat=psi,
            n_used=int(tr.kept.size),
            trim_bounds=tr.bounds,
            mean_phi=iv.mean_phi,
            dropped_low=tr.dropped_low,
            dropped_high=tr.dropped_high,
        )
    return reports
