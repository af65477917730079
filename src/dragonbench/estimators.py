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
    h_values,
    select_observed,
    stationary_epsilon,
)

OVERLAP_ACCURACY_THRESHOLD = 0.90

TAG_Q = "Q"
TAG_AIPTW = "AIPTW"
TAG_TMLE = "TMLE"
TAG_TREG = "TREG"
ESTIMATOR_TAGS = (TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG)


@dataclass(frozen=True)
class Estimate:
    psi_hat: float
    estimator_tag: str
    n_used: int
    trim_bounds: tuple[float, float]


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

    def to_dict(self) -> dict:
        return {
            "estimator_tag": self.estimator_tag,
            "psi_hat": self.psi_hat,
            "n_used": self.n_used,
            "trim_bounds": list(self.trim_bounds),
            "mean_phi": self.mean_phi,
            "dropped_low": self.dropped_low,
            "dropped_high": self.dropped_high,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimateReport":
        return cls(
            estimator_tag=d["estimator_tag"],
            psi_hat=d["psi_hat"],
            n_used=d["n_used"],
            trim_bounds=tuple(d["trim_bounds"]),
            mean_phi=d["mean_phi"],
            dropped_low=d["dropped_low"],
            dropped_high=d["dropped_high"],
        )


def _arr(name: str, x) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {out.shape}")
    return out


def _check_rows(n: int, context: str):
    if n == 0:
        raise EstimationError(f"{context}: no rows to estimate from")


def _check_g(g: np.ndarray):
    if ((g <= 0.0) | (g >= 1.0)).any():
        raise NumericDomainError("propensity values must lie strictly inside (0, 1)")


def _check_t(t: np.ndarray):
    if not np.isin(t, (0.0, 1.0)).all():
        raise NumericDomainError("t must contain only 0 and 1")


def _check_bounds(bounds) -> tuple[float, float]:
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (0.0 <= lo < hi <= 1.0):
        raise NumericDomainError(f"trim bounds must satisfy 0 <= low < high <= 1, got {bounds}")
    return lo, hi


def trim(g_values, bounds=(0.01, 0.99)) -> TrimResult:
    """Indices of rows whose propensity lies inside [low, high], inclusive."""
    g = _arr("g_values", g_values)
    if ((g < 0.0) | (g > 1.0)).any():
        raise NumericDomainError("g_values must lie in [0, 1]")
    lo, hi = _check_bounds(bounds)
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
    g = _arr("g_values", g_values)
    t = _arr("t", t)
    _check_t(t)
    if g.shape != t.shape:
        raise ShapeError(f"g {g.shape} and t {t.shape} must align")
    _check_rows(g.size, "propensity_accuracy")
    return float(np.mean((g > 0.5).astype(np.float64) == t))


def diff_in_means(t, y) -> float:
    """Unadjusted mean(y | t=1) - mean(y | t=0); the no-covariate baseline."""
    t = _arr("t", t)
    y = _arr("y", y)
    _check_t(t)
    if t.shape != y.shape:
        raise ShapeError("t and y must align")
    treated = t == 1.0
    if not treated.any() or treated.all():
        raise EstimationError("diff_in_means needs both treated and control rows")
    return float(y[treated].mean() - y[~treated].mean())


def _nuisances(q0, q1, g, t, y):
    """Validated float arrays of one row set: same length, g inside (0, 1), t binary."""
    arrays = [_arr(k, v) for k, v in zip(("q0", "q1", "g", "t", "y"), (q0, q1, g, t, y))]
    q0, q1, g, t, y = arrays
    if len({a.size for a in arrays}) != 1:
        raise ShapeError("q0, q1, g, t, y must all have the same length")
    _check_rows(q0.size, "estimator input")
    _check_g(g)
    _check_t(t)
    return arrays


def influence_curve(q0, q1, g, t, y, psi: float) -> InfluenceValues:
    """phi_i = q1_i - q0_i + H(t_i, g_i) * (y_i - q_{t_i}) - psi."""
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    phi = q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t)) - float(psi)
    return InfluenceValues(phi=phi, mean_phi=float(np.mean(phi)))


def psi_q(q0, q1, trim_bounds=(0.0, 1.0)) -> Estimate:
    """Plug-in estimate: mean of q1(x) - q0(x) over the given rows."""
    q0 = _arr("q0", q0)
    q1 = _arr("q1", q1)
    if q0.shape != q1.shape:
        raise ShapeError(f"q0 {q0.shape} and q1 {q1.shape} must align")
    _check_rows(q0.size, "estimator input")
    psi = float(np.mean(q1 - q0))
    return Estimate(psi, TAG_Q, q0.size, _check_bounds(trim_bounds))


def psi_aiptw(q0, q1, g, t, y, trim_bounds=(0.0, 1.0)) -> tuple[Estimate, InfluenceValues]:
    """Augmented IPW: plug-in plus mean inverse-propensity residual.

    The estimate is the value that zeroes the empirical mean of the
    influence curve, so mean_phi is 0 up to rounding by construction.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    psi = float(np.mean(q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t))))
    iv = influence_curve(q0, q1, g, t, y, psi)
    return Estimate(psi, TAG_AIPTW, q0.size, _check_bounds(trim_bounds)), iv


def _perturbed(q0, q1, g, t, y, eps: float) -> tuple[float, InfluenceValues]:
    """Plug-in and influence curve of the outcomes moved by eps along H."""
    q1_star = q1 + eps / g
    q0_star = q0 - eps / (1.0 - g)
    psi = float(np.mean(q1_star - q0_star))
    return psi, influence_curve(q0_star, q1_star, g, t, y, psi)


def psi_tmle(
    q0, q1, g, t, y, trim_bounds=(0.0, 1.0)
) -> tuple[Estimate, InfluenceValues, float]:
    """One-step targeted update with the closed-form fluctuation.

    epsilon = sum(H (y - q)) / sum(H^2) minimizes the squared perturbed
    residual exactly, the updated outcomes are q + epsilon * H, and the
    plug-in over them satisfies the estimating equation mean(phi) = 0 up
    to float rounding.  No iteration is needed: the fluctuation is linear
    in epsilon so one exact step lands on the solution.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    eps = stationary_epsilon(y, select_observed(q0, q1, t), t, g)
    psi, iv = _perturbed(q0, q1, g, t, y, eps)
    return Estimate(psi, TAG_TMLE, q0.size, _check_bounds(trim_bounds)), iv, float(eps)


def psi_treg(
    q0, q1, g, t, y, epsilon_hat: float, trim_bounds=(0.0, 1.0)
) -> tuple[Estimate, InfluenceValues]:
    """Plug-in over the perturbed outcomes at the jointly trained epsilon.

    `epsilon_hat` is the fluctuation a model learned with the targeted-
    regularization term (meaningless otherwise).  mean_phi is diagnostic:
    it is near zero exactly when training reached stationarity in epsilon
    on the rows being estimated.
    """
    q0, q1, g, t, y = _nuisances(q0, q1, g, t, y)
    psi, iv = _perturbed(q0, q1, g, t, y, float(epsilon_hat))
    return Estimate(psi, TAG_TREG, q0.size, _check_bounds(trim_bounds)), iv


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
    t = _arr("t", t)
    y = _arr("y", y)
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
            est = psi_q(q0, q1, tr.bounds)
            iv = influence_curve(q0, q1, g, tk, yk, est.psi_hat)
        elif tag == TAG_AIPTW:
            est, iv = psi_aiptw(q0, q1, g, tk, yk, tr.bounds)
        elif tag == TAG_TMLE:
            est, iv, _ = psi_tmle(q0, q1, g, tk, yk, tr.bounds)
        else:
            est, iv = psi_treg(q0, q1, g, tk, yk, model.epsilon_hat, tr.bounds)
        reports[tag] = EstimateReport(
            estimator_tag=tag,
            psi_hat=est.psi_hat,
            n_used=int(tr.kept.size),
            trim_bounds=tr.bounds,
            mean_phi=iv.mean_phi,
            dropped_low=tr.dropped_low,
            dropped_high=tr.dropped_high,
        )
    return reports
