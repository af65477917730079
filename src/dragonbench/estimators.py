"""Average-treatment-effect estimators over a fitted outcome/propensity model.

`estimate` takes the arrays q0, q1 (outcome predictions), g (propensities),
t and y of one row set and returns {tag: (psi_hat, InfluenceValues)} for
the classical estimator family:

  Q      plug-in mean of Q(1, x) - Q(0, x)
  AIPTW  plug-in plus the inverse-propensity residual correction;
         solves the estimating equation mean(phi) = 0 by construction
  TMLE   one-step targeted update: a closed-form fluctuation epsilon
         moves Q along the clever covariate before plugging in
  TREG   plug-in over the perturbed outcome using the epsilon trained
         jointly with the network

The estimates expect pre-trimmed inputs: run `trim` on the propensity
scores first and feed every estimator the same retained rows, which is
what `apply_estimators` does with one `FittedModel.predict` per row set.

Each public function checks its arrays once, through `_checked`, and the
influence curve is written once, in `_influence`, for checked arrays.
`check_tags` is the one estimator-tag rule; the bench's configs apply it too.
`stationary_epsilon` is TMLE's fluctuation and training's exact epsilon step.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, NumericDomainError, NumericError, ShapeError, UsageError
from .objectives import h_values, select_observed
from .schema import as_number, check_keys, config_values

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
    """The arrays as finite 1-d float64 of one length, refused unless an array
    named `t` holds only 0 and 1 and one named `g` lies inside (0, 1)."""
    out = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    for name, a in out.items():
        if a.ndim != 1:
            raise ShapeError(f"{name} must be 1-d, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NumericDomainError(f"{name} must be finite")
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


def read_trim_bounds(bounds) -> tuple[float, float]:
    """`bounds` as (low, high), each read by `as_number`; NumericDomainError
    unless they are two numbers with 0 <= low < high <= 1."""
    with suppress(TypeError, ValueError):
        lo, hi = (as_number(b, "trim bound") for b in bounds)
        if 0.0 <= lo < hi <= 1.0:
            return lo, hi
    raise NumericDomainError(f"trim bounds must satisfy 0 <= low < high <= 1, got {bounds!r}")


def trim(g_values, bounds=(0.01, 0.99)) -> TrimResult:
    """Indices of rows whose propensity lies inside [low, high], inclusive."""
    [g] = _checked(g_values=g_values)
    if ((g < 0.0) | (g > 1.0)).any():
        raise NumericDomainError("g_values must lie in [0, 1]")
    lo, hi = read_trim_bounds(bounds)
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


def _influence(q0, q1, g, t, y, psi: float) -> InfluenceValues:
    """phi_i = q1_i - q0_i + H(t_i, g_i) * (y_i - q_{t_i}) - psi, for checked arrays."""
    phi = q1 - q0 + h_values(t, g) * (y - select_observed(q0, q1, t)) - float(psi)
    return InfluenceValues(phi=phi, mean_phi=float(np.mean(phi)))


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


def _perturbed(q0, q1, g, t, y, eps: float) -> tuple[float, InfluenceValues]:
    """Plug-in and influence curve of the outcomes moved by eps along H."""
    q1_star = q1 + eps / g
    q0_star = q0 - eps / (1.0 - g)
    psi = float(np.mean(q1_star - q0_star))
    return psi, _influence(q0_star, q1_star, g, t, y, psi)


def check_tags(estimators, treg: bool) -> tuple[str, ...]:
    """The tags as a tuple; by default Q/AIPTW/TMLE, plus TREG when `treg`.
    UsageError for a string, an unknown tag, and TREG unless `treg`."""
    if estimators is None:
        return (TAG_Q, TAG_AIPTW, TAG_TMLE) + ((TAG_TREG,) if treg else ())
    if isinstance(estimators, str):
        raise UsageError(f"estimators must be a list of tags, not the string {estimators!r}")
    estimators = tuple(estimators)  # an iterator is read once
    unknown = set(estimators) - set(ESTIMATOR_TAGS)
    if unknown:
        raise UsageError(f"unknown estimator tags: {sorted(unknown)}")
    if TAG_TREG in estimators and not treg:
        raise UsageError("TREG needs a model trained with beta > 0 (in a bench config, treg = true)")
    return estimators


def estimate(q0, q1, g, t, y, estimators=None, epsilon_hat=None) -> dict:
    """{tag: (psi_hat, InfluenceValues)} of the requested estimators on one
    row set; by default Q/AIPTW/TMLE, plus TREG when `epsilon_hat` (the
    fluctuation trained with the targeted-regularization term) is given.
    AIPTW and TMLE zero mean_phi by construction; TREG's is near 0 exactly
    when training reached stationarity in epsilon on these rows.
    """
    estimators = check_tags(estimators, epsilon_hat is not None)
    if epsilon_hat is not None and not np.isfinite(epsilon_hat):
        raise NumericDomainError(f"epsilon_hat must be finite, got {epsilon_hat!r}")
    q0, q1, g, t, y = _checked(q0=q0, q1=q1, g=g, t=t, y=y)
    _check_rows(len(t), "estimator input")
    out = {}
    for tag in estimators:
        if tag == TAG_AIPTW:
            psi = _influence(q0, q1, g, t, y, 0.0).mean_phi  # the mean contrast: x - 0.0 is x
            out[tag] = psi, _influence(q0, q1, g, t, y, psi)
        else:  # Q, TREG, TMLE: the plug-in of Q + eps * H at eps = 0, the trained eps, eps*
            eps = 0.0 if tag == TAG_Q else epsilon_hat
            if tag == TAG_TMLE:
                eps = stationary_epsilon(y, select_observed(q0, q1, t), t, g)
            out[tag] = _perturbed(q0, q1, g, t, y, float(eps))
    return out


def apply_estimators(
    model, X, t, y, bounds=(0.01, 0.99), estimators=None
) -> dict[str, EstimateReport]:
    """Trim once, then `estimate` on the retained rows.

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
    estimators = check_tags(estimators, model.treg)
    bounds = read_trim_bounds(bounds)
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
    estimates = estimate(*preds, t[tr.kept], y[tr.kept], estimators,
                         model.epsilon_hat if model.treg else None)
    trimmed = dict(n_used=int(tr.kept.size), trim_bounds=tr.bounds,
                   dropped_low=tr.dropped_low, dropped_high=tr.dropped_high)
    return {tag: EstimateReport(estimator_tag=tag, psi_hat=psi, mean_phi=iv.mean_phi, **trimmed)
            for tag, (psi, iv) in estimates.items()}
