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

Each public function checks its arrays once, through `_checked`, and the
influence curve is written once, in `_influence`, for checked arrays.
`stationary_epsilon` is TMLE's fluctuation and training's exact epsilon step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NumericDomainError, NumericError, ShapeError, UsageError
from .objectives import h_values, select_observed
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


def _checked(**arrays) -> list[np.ndarray]:
    """The arrays as 1-d float64, refused unless they have one length, an
    array named `t` holds only 0 and 1, and one named `g` lies inside (0, 1)."""
    out = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    for name, a in out.items():
        if a.ndim != 1:
            raise ShapeError(f"{name} must be 1-d, got shape {a.shape}")
    lengths = {name: len(a) for name, a in out.items()}
    if len(set(lengths.values())) != 1:
        raise ShapeError(f"length mismatch: {lengths}")
    if "t" in out and not np.isin(out["t"], (0.0, 1.0)).all():
        raise NumericDomainError("t must contain only 0 and 1")
    if "g" in out and ((out["g"] <= 0.0) | (out["g"] >= 1.0)).any():
        raise NumericDomainError("g must lie strictly inside (0, 1)")
    return list(out.values())


def _check_rows(n: int, context: str):
    if n == 0:
        raise EstimationError(f"{context}: no rows to estimate from")


def trim(g_values, bounds=(0.01, 0.99)) -> TrimResult:
    """Indices of rows whose propensity lies inside [low, high], inclusive."""
    [g] = _checked(g_values=g_values)
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
    g, t = _checked(g_values=g_values, t=t)
    _check_rows(len(t), "propensity_accuracy")
    return float(np.mean((g > 0.5).astype(np.float64) == t))


def diff_in_means(t, y) -> float:
    """Unadjusted mean(y | t=1) - mean(y | t=0); the no-covariate baseline."""
    t, y = _checked(t=t, y=y)
    treated = t == 1.0
    if not treated.any() or treated.all():
        raise EstimationError("diff_in_means needs both treated and control rows")
    return float(y[treated].mean() - y[~treated].mean())


def _nuisances(q0, q1, g, t, y) -> list[np.ndarray]:
    """The checked arrays (q0, q1, g, t, y) of one nonempty row set."""
    arrays = _checked(q0=q0, q1=q1, g=g, t=t, y=y)
    _check_rows(len(arrays[0]), "estimator input")
    return arrays


def _influence(q0, q1, g, t, y, psi: float) -> InfluenceValues:
    """`influence_curve` of arrays already checked."""
    phi = q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t)) - float(psi)
    return InfluenceValues(phi=phi, mean_phi=float(np.mean(phi)))


def influence_curve(q0, q1, g, t, y, psi: float) -> InfluenceValues:
    """phi_i = q1_i - q0_i + H(t_i, g_i) * (y_i - q_{t_i}) - psi."""
    return _influence(*_nuisances(q0, q1, g, t, y), psi)


def stationary_epsilon(y, q_at_t, t, g) -> float:
    """Closed-form minimizer in epsilon of mean[(y - q_at_t - epsilon * H(t, g))^2]:

        epsilon* = sum(H_i * (y_i - q_i)) / sum(H_i^2).

    The penalty is a parabola in epsilon with positive curvature whenever
    the sample is nonempty, so this point is its unique minimum and the
    estimating equation mean[H * (y - Q~)] = 0 holds there.
    """
    y, q_at_t, t, g = _checked(y=y, q_at_t=q_at_t, t=t, g=g)
    h = h_values(t, g)
    denom = float(np.sum(h * h))
    if not np.isfinite(denom) or denom <= 0.0:
        raise NumericError(f"degenerate curvature sum(H^2) = {denom!r}", denom)
    return float(np.sum(h * (y - q_at_t)) / denom)


def psi_q(q0, q1) -> float:
    """Plug-in estimate: mean of q1(x) - q0(x) over the given rows."""
    q0, q1 = _checked(q0=q0, q1=q1)
    _check_rows(len(q0), "estimator input")
    return float(np.mean(q1 - q0))


def psi_aiptw(q0, q1, g, t, y) -> tuple[float, InfluenceValues]:
    """Augmented IPW: plug-in plus mean inverse-propensity residual.

    The estimate is the value that zeroes the empirical mean of the
    influence curve, so mean_phi is 0 up to rounding by construction.
    """
    arrays = _nuisances(q0, q1, g, t, y)
    psi = _influence(*arrays, 0.0).mean_phi  # the mean contrast: x - 0.0 is x
    return psi, _influence(*arrays, psi)


def _perturbed(q0, q1, g, t, y, eps: float) -> tuple[float, InfluenceValues]:
    """Plug-in and influence curve of the outcomes moved by eps along H."""
    q1_star = q1 + eps / g
    q0_star = q0 - eps / (1.0 - g)
    psi = float(np.mean(q1_star - q0_star))
    return psi, _influence(q0_star, q1_star, g, t, y, psi)


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
    t, y = _checked(t=t, y=y)
    if estimators is None:
        estimators = (TAG_Q, TAG_AIPTW, TAG_TMLE) + ((TAG_TREG,) if model.treg else ())
    unknown = set(estimators) - set(ESTIMATOR_TAGS)
    if unknown:
        raise UsageError(f"unknown estimator tags: {sorted(unknown)}")
    if TAG_TREG in estimators and not model.treg:
        raise UsageError("TREG needs a model trained with beta > 0")
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-d, got shape {X.shape}")
    if X.shape[0] != len(t):
        raise ShapeError(f"X has {X.shape[0]} rows but t and y have {len(t)}")
    _check_rows(len(t), "apply_estimators")
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
            iv = _influence(q0, q1, g, tk, yk, psi)
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
