"""Training objectives for the outcome/propensity networks.

The base objective is

    R = mean[ (Q(t_i, x_i) - y_i)^2 + alpha * CE(g(x_i), t_i) ]

and the targeted-regularization variant adds a penalty built from the
perturbed outcome

    Q~(t, x) = Q(t, x) + epsilon * (t / g(x) - (1 - t) / (1 - g(x)))

    full = R + beta * mean[ (y_i - Q~(t_i, x_i))^2 ].

The penalty is quadratic in epsilon, so for fixed network parameters its
unique minimizer has a closed form, `estimators.stationary_epsilon`.  At
that point the sample estimating equation mean[H(t_i, g_i) * (y_i - Q~_i)]
= 0 holds, which is what ties the trained epsilon to the plug-in estimate
downstream.

The `*_term` helpers and `weighted_total` accept autodiff Vars as well as
plain arrays, so one set of terms and one total serve training and
reporting (`LossBreakdown.weighted`).  Nothing here checks its input: the
estimators check theirs before they use `select_observed` and `h_values`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad

# Cross-entropy clamp: keeps log() finite without touching values that are
# already well inside (0, 1).  Estimator-level trimming is a separate,
# much coarser concern.
XENT_CLAMP = 1e-12


@dataclass(frozen=True)
class LossBreakdown:
    """Loss components; `total` is their `weighted_total`."""

    outcome: float
    xent: float
    treg: float
    total: float

    @classmethod
    def weighted(cls, outcome, xent, treg, alpha: float, beta: float) -> "LossBreakdown":
        """The terms as floats, with their total under the weights (alpha, beta)."""
        terms = float(outcome), float(xent), float(treg)
        return cls(*terms, float(weighted_total(terms, alpha, beta)))


def weighted_total(terms, alpha: float, beta: float):
    """outcome + alpha * xent (+ beta * treg when beta > 0) of the terms
    (outcome, xent, treg), on Vars or floats."""
    outcome, xent, treg = terms
    total = ad.add(outcome, alpha * xent)
    return ad.add(total, beta * treg) if beta > 0 else total


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

