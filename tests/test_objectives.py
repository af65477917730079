"""Loss terms against hand computations, and the fluctuation math.

stationary_epsilon is checked three independent ways: a numeric scan of
the penalty, the estimating equation it must zero, and the autodiff
derivative of the full objective at that point.  Weighted totals go
through `LossBreakdown.weighted`, as the training traces do, and it calls
the `weighted_total` that the training graph uses.
"""

import numpy as np
import pytest

import dragonbench.autodiff as ad
from dragonbench.errors import ConfigError, NumericDomainError, NumericError, ShapeError
from dragonbench.objectives import (
    LossBreakdown,
    cross_entropy_term,
    h_values,
    select_observed,
    squared_error_term,
    stationary_epsilon,
    treg_term,
    weighted_total,
)
from dragonbench.train import TrainConfig


def objective(q_at_t, g, y, t, alpha=1.0, beta=0.0, epsilon=0.0) -> LossBreakdown:
    """Every term on plain arrays, with its total under (alpha, beta)."""
    terms = (squared_error_term(q_at_t, y), cross_entropy_term(g, t),
             treg_term(y, q_at_t, t, g, epsilon))
    return LossBreakdown.weighted(*terms, alpha, beta)


def treg_penalty(y, q_at_t, t, g, epsilon) -> float:
    return float(treg_term(y, q_at_t, t, g, epsilon))


def test_uninformative_propensity_gives_log_two():
    y = np.array([1.0, -2.0, 0.3])
    t = np.array([1.0, 0.0, 1.0])
    g = np.full(3, 0.5)
    br = objective(q_at_t=y, g=g, y=y, t=t, alpha=1.0)
    assert br.outcome == 0.0
    assert br.xent == pytest.approx(np.log(2.0), rel=1e-15)
    assert br.total == pytest.approx(np.log(2.0), rel=1e-15)


def test_single_example_hand_computation():
    # (3 - 1)^2 + (-log 0.8) = 4.2231435513...
    br = objective(
        q_at_t=np.array([1.0]),
        g=np.array([0.8]),
        y=np.array([3.0]),
        t=np.array([1.0]),
        alpha=1.0,
    )
    assert br.outcome == pytest.approx(4.0)
    assert br.xent == pytest.approx(-np.log(0.8))
    assert br.total == pytest.approx(4.0 - np.log(0.8))


def test_alpha_scales_only_the_propensity_term():
    y = np.array([1.0, 2.0])
    t = np.array([1.0, 0.0])
    g = np.array([0.7, 0.3])
    q = np.array([0.5, 2.5])
    a0 = objective(q, g, y, t, alpha=0.0)
    a2 = objective(q, g, y, t, alpha=2.0)
    assert a0.total == pytest.approx(a0.outcome)
    assert a2.total == pytest.approx(a0.outcome + 2.0 * a0.xent)


def test_h_values_hand_cases():
    assert h_values(1.0, 0.5) == pytest.approx(2.0)
    assert h_values(0.0, 0.5) == pytest.approx(-2.0)
    assert h_values(1.0, 0.25) == pytest.approx(4.0)
    np.testing.assert_allclose(
        h_values(np.array([1.0, 0.0]), np.array([0.25, 0.2])), [4.0, -1.25]
    )


def test_perturbed_outcome_both_arms():
    # Q~ = q + eps * H: at q = 1, g = 0.5, eps = 0.2 it is 1.4 for the
    # treated and 0.6 for the control, so the penalty vanishes at those y
    q, g, eps = np.array([1.0]), np.array([0.5]), 0.2
    for t, q_tilde in ((1.0, 1.4), (0.0, 0.6)):
        assert treg_penalty(np.array([q_tilde]), q, np.array([t]), g, eps) == pytest.approx(
            0.0, abs=1e-24
        )
        assert treg_penalty(np.array([q_tilde + 1.0]), q, np.array([t]), g, eps) == pytest.approx(1.0)


def test_treg_penalty_zero_at_perfect_fit():
    y = np.array([2.0, -1.0])
    t = np.array([1.0, 0.0])
    g = np.array([0.5, 0.5])
    assert treg_penalty(y, q_at_t=y, t=t, g=g, epsilon=0.0) == 0.0


def test_treg_penalty_single_example():
    # y=2, q=1, t=1, g=0.5, eps=0 -> residual 1 -> penalty 1
    val = treg_penalty(
        np.array([2.0]), np.array([1.0]), np.array([1.0]), np.array([0.5]), 0.0
    )
    assert val == pytest.approx(1.0)


def test_full_objective_totals_are_the_exact_sum():
    rng = np.random.default_rng(4)
    n = 17
    q0 = rng.normal(size=n)
    q1 = rng.normal(size=n)
    g = rng.uniform(0.1, 0.9, size=n)
    y = rng.normal(size=n)
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    q_at_t = select_observed(q0, q1, t)
    br = objective(q_at_t, g, y, t, alpha=0.7, beta=1.3, epsilon=0.05)
    assert br.total == br.outcome + 0.7 * br.xent + 1.3 * br.treg
    base = objective(q_at_t, g, y, t, alpha=0.7)
    assert br.outcome == base.outcome
    assert br.xent == base.xent
    # the training graph's total is the same sum, bit for bit
    terms = tuple(ad.Var(v) for v in (br.outcome, br.xent, br.treg))
    assert float(weighted_total(terms, 0.7, 1.3).value) == br.total
    assert float(weighted_total(terms, 0.7, 0.0).value) == base.total


def test_objective_is_permutation_invariant():
    rng = np.random.default_rng(9)
    n = 40
    q0, q1, y = rng.normal(size=(3, n))
    g = rng.uniform(0.2, 0.8, size=n)
    t = (rng.uniform(size=n) < 0.4).astype(np.float64)
    perm = rng.permutation(n)
    a = objective(select_observed(q0, q1, t), g, y, t, 1.0, 1.0, 0.1)
    b = objective(select_observed(q0, q1, t)[perm], g[perm], y[perm], t[perm], 1.0, 1.0, 0.1)
    assert a.total == pytest.approx(b.total, rel=1e-14)


def test_stationary_epsilon_closed_form_example():
    # Two rows: H = (2, -2); eps* = sum(H (y-q)) / sum(H^2) = (2*1 + (-2)*(-1))/8 = 0.5
    y = np.array([1.0, -1.0])
    q = np.array([0.0, 0.0])
    t = np.array([1.0, 0.0])
    g = np.array([0.5, 0.5])
    assert stationary_epsilon(y, q, t, g) == pytest.approx(0.5)


def test_stationary_epsilon_is_the_scan_minimum():
    rng = np.random.default_rng(21)
    n = 60
    y = rng.normal(size=n)
    q = rng.normal(size=n)
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    g = rng.uniform(0.15, 0.85, size=n)
    star = stationary_epsilon(y, q, t, g)
    grid = star + np.linspace(-1.0, 1.0, 401)
    values = [treg_penalty(y, q, t, g, e) for e in grid]
    assert grid[int(np.argmin(values))] == pytest.approx(star, abs=6e-3)
    # estimating equation: mean[H (y - Q~)] = 0 at the stationary point
    h = h_values(t, g)
    resid = y - (q + star * h)
    assert np.mean(h * resid) == pytest.approx(0.0, abs=1e-12)


def test_penalty_is_convex_in_epsilon():
    rng = np.random.default_rng(30)
    n = 25
    y = rng.normal(size=n)
    q = rng.normal(size=n)
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    g = rng.uniform(0.2, 0.8, size=n)
    for e1, e2 in [(-1.0, 1.0), (0.0, 2.0), (-0.3, 0.1)]:
        mid = treg_penalty(y, q, t, g, 0.5 * (e1 + e2))
        avg = 0.5 * (treg_penalty(y, q, t, g, e1) + treg_penalty(y, q, t, g, e2))
        assert mid <= avg + 1e-12


def test_objective_gradient_in_epsilon_vanishes_at_stationary_point():
    rng = np.random.default_rng(33)
    n = 50
    q0, q1, y = rng.normal(size=(3, n))
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    g = rng.uniform(0.1, 0.9, size=n)
    q_at_t = select_observed(q0, q1, t)
    star = stationary_epsilon(y, q_at_t, t, g)

    def loss(ps):
        (eps,) = ps
        resid = ad.sub(y - q_at_t, ad.mul(eps, h_values(t, g)))
        return ad.mean(ad.square(resid))

    _, grads = ad.gradients([np.array(star)], loss)
    assert grads[0] == pytest.approx(0.0, abs=1e-10)


def test_terms_work_on_graph_values():
    # The same term functions must build a graph when handed Vars.
    y = np.array([1.0, 0.0])
    t = np.array([1.0, 0.0])

    def loss(ps):
        g = ad.sigmoid(ps[0])
        return cross_entropy_term(g, t)

    value, grads = ad.gradients([np.zeros(2)], loss)
    assert value == pytest.approx(np.log(2.0))
    assert np.all(np.isfinite(grads[0]))


def test_cross_entropy_clamps_boundary_probabilities():
    val = cross_entropy_term(np.array([1.0 - 1e-15, 1e-15]), np.array([1.0, 0.0]))
    assert np.isfinite(float(val))
    assert float(val) >= 0.0


def test_squared_error_term_oracle():
    assert float(squared_error_term(np.array([1.0, 2.0]), np.array([2.0, 0.0]))) == pytest.approx(2.5)


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        stationary_epsilon(np.ones(3), np.ones(3), np.array([1.0, 0.0]), np.full(3, 0.5))


def test_non_binary_treatment_rejected():
    with pytest.raises(NumericDomainError):
        stationary_epsilon(np.ones(2), np.zeros(2), np.array([1.0, 0.5]), np.full(2, 0.5))


def test_propensity_outside_open_interval_rejected():
    with pytest.raises(NumericDomainError):
        stationary_epsilon(np.ones(2), np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 0.5]))


def test_negative_weights_rejected():
    # the objective's weights are validated where they are set
    with pytest.raises(ConfigError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(alpha=1.0, beta=-1.0)


def test_stationary_epsilon_degenerate_curvature():
    # sum(H^2) can only degenerate through non-finite inputs; force it with
    # an empty sample.
    with pytest.raises((NumericError, ShapeError)):
        stationary_epsilon(np.array([]), np.array([]), np.array([]), np.array([]))
