"""Training objectives for the outcome/propensity networks.

The base objective is

    R = mean[ (Q(t_i, x_i) - y_i)^2 + alpha * CE(g(x_i), t_i) ]

and the targeted-regularization variant adds a penalty built from the
perturbed outcome

    Q~(t, x) = Q(t, x) + epsilon * (t / g(x) - (1 - t) / (1 - g(x)))

    full = R + beta * mean[ (y_i - Q~(t_i, x_i))^2 ].

The penalty is quadratic in epsilon, so for fixed network parameters its
unique minimizer has the closed form implemented by
`stationary_epsilon`.  At that point the sample estimating equation
mean[H(t_i, g_i) * (y_i - Q~_i)] = 0 holds, which is what ties the trained
epsilon to the plug-in estimate downstream.

The `*_term` helpers accept autodiff Vars as well as plain arrays, so one
set of terms serves training and reporting; `LossBreakdown.weighted`
records their values and weighted total.  `stationary_epsilon` is the
plain-array entry point with full input validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NumericDomainError, NumericError, ShapeError

# Cross-entropy clamp: keeps log() finite without touching values that are
# already well inside (0, 1).  Estimator-level trimming is a separate,
# much coarser concern.
XENT_CLAMP = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    """Loss components; `total` is exactly outcome + alpha*xent + beta*treg."""

    outcome: float
    xent: float
    treg: float
    total: float

    @classmethod
    def weighted(cls, outcome, xent, treg, alpha: float, beta: float) -> "LossBreakdown":
        """The terms as floats, with their total under the weights (alpha, beta)."""
        outcome, xent, treg = float(outcome), float(xent), float(treg)
        return cls(outcome, xent, treg, outcome + alpha * xent + beta * treg)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "xent": self.xent,
            "treg": self.treg,
            "total": self.total,
        }


def _as_1d(name: str, x) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.ndim != 1:
        raise ShapeError(f"{name} must be 1-d, got shape {out.shape}")
    if out.size == 0:
        raise ShapeError(f"{name} is empty")
    return out


def _check_lengths(**named) -> int:
    lengths = {k: len(v) for k, v in named.items()}
    if len(set(lengths.values())) != 1:
        raise ShapeError(f"length mismatch: {lengths}")
    return next(iter(lengths.values()))


def _check_binary(t: np.ndarray):
    if not np.isin(t, (0.0, 1.0)).all():
        raise NumericDomainError("t must contain only 0 and 1")


def _check_prob_open(g: np.ndarray):
    if ((g <= 0.0) | (g >= 1.0)).any():
        raise NumericDomainError("g must lie strictly inside (0, 1)")


def select_observed(q0, q1, t):
    """Pick the factual prediction per row: q1 where t = 1, q0 where t = 0."""
    return t * q1 + (1.0 - t) * q0


def squared_error_term(q_at_t, y):
    return ad.mean(ad.square(ad.sub(q_at_t, y)))


def cross_entropy_term(g, t):
    gc = ad.clip(g, XENT_CLAMP, 1.0 - XENT_CLAMP)
    return ad.neg(ad.mean(t * ad.log(gc) + (1.0 - t) * ad.log(1.0 - gc)))


def h_values(t, g):
    """Inverse-propensity contrast H(t, g) = t/g - (1-t)/(1-g)."""
    return t / g - (1.0 - t) / (1.0 - g)


def treg_term(y, q_at_t, t, g, epsilon):
    resid = ad.sub(y, ad.add(q_at_t, epsilon * h_values(t, g)))
    return ad.mean(ad.square(resid))


def stationary_epsilon(y, q_at_t, t, g) -> float:
    """Closed-form minimizer of the penalty in epsilon for fixed q and g:

        epsilon* = sum(H_i * (y_i - q_i)) / sum(H_i^2).

    The penalty is a parabola in epsilon with positive curvature whenever
    the sample is nonempty, so this point is its unique minimum and the
    estimating equation mean[H * (y - Q~)] = 0 holds there.
    """
    y = _as_1d("y", y)
    q_at_t = _as_1d("q_at_t", q_at_t)
    t = _as_1d("t", t)
    g = _as_1d("g", g)
    _check_lengths(y=y, q_at_t=q_at_t, t=t, g=g)
    _check_binary(t)
    _check_prob_open(g)
    h = h_values(t, g)
    denom = float(np.sum(h * h))
    if not np.isfinite(denom) or denom <= 0.0:
        raise NumericError(f"degenerate curvature sum(H^2) = {denom!r}", denom)
    return float(np.sum(h * (y - q_at_t)) / denom)
