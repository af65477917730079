"""Estimator suite against hand-worked examples and structural identities.

The A-IPTW and TMLE influence-mean identities hold by construction, so
those assertions use machine-precision tolerances, not statistical ones.
Test names write the estimate of tag T as psi_t (psi_q is the Q estimate)
and its influence curve as influence_curve; all of them come from `estimate`.
"""

import numpy as np
import pytest

from dragonbench.autodiff import stable_sigmoid
from dragonbench.errors import (
    ConfigError,
    EstimationError,
    NumericDomainError,
    ShapeError,
    UsageError,
)
from dragonbench.datagen import gen_dgp_lin
from dragonbench.estimators import (
    TAG_AIPTW,
    TAG_Q,
    TAG_TMLE,
    TAG_TREG,
    EstimateReport,
    apply_estimators,
    diff_in_means,
    estimate,
    overlap_flag,
    propensity_accuracy,
    stationary_epsilon,
    trim,
)
from dragonbench.models import FittedModel
from dragonbench.objectives import select_observed
from dragonbench.schema import plain


def table_model(X, q0, q1, g):
    return FittedModel.from_values(X, np.asarray(q0, float), np.asarray(q1, float),
                                   np.asarray(g, float))


def test_psi_q_is_the_mean_contrast():
    X = np.array([[0.0], [1.0]])
    model = table_model(X, q0=[0.0, 0.0], q1=[1.0, 3.0], g=[0.5, 0.5])
    psi, _ = estimate(*model.predict(X), [1.0, 0.0], [1.0, 0.0], (TAG_Q,))[TAG_Q]
    assert psi == pytest.approx(2.0)
    report = apply_estimators(model, X, [1.0, 0.0], [1.0, 0.0], (0.0, 1.0), (TAG_Q,))[TAG_Q]
    assert report.psi_hat == pytest.approx(2.0)
    assert report.n_used == 2


def test_psi_aiptw_single_row_hand_value():
    # q1 - q0 + H (y - q1) = (2 - 1) + 2 * (3 - 2) = 3
    X = np.array([[0.0]])
    model = table_model(X, q0=[1.0], q1=[2.0], g=[0.5])
    psi, iv = estimate(*model.predict(X), np.array([1.0]), np.array([3.0]), (TAG_AIPTW,))[TAG_AIPTW]
    assert psi == pytest.approx(3.0)
    assert abs(iv.mean_phi) <= 1e-12


def test_psi_aiptw_zeroes_influence_mean_by_construction():
    rng = np.random.default_rng(8)
    n = 200
    X = rng.normal(size=(n, 3))
    model = table_model(
        X, rng.normal(size=n), rng.normal(size=n), rng.uniform(0.1, 0.9, size=n)
    )
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    _, iv = estimate(*model.predict(X), t, y, (TAG_AIPTW,))[TAG_AIPTW]
    assert abs(iv.mean_phi) <= 1e-12


def test_psi_tmle_two_point_closed_form():
    # H = (2, -2), residuals (1, -1): eps = (2 + 2) / 8 = 0.5.
    # Updated contrasts are (q1 + eps/g) - (q0 - eps/(1-g)) = 2 on both rows.
    X = np.array([[0.0], [1.0]])
    model = table_model(X, q0=[0.0, 0.0], q1=[0.0, 0.0], g=[0.5, 0.5])
    t = np.array([1.0, 0.0])
    y = np.array([1.0, -1.0])
    q0, q1, g = model.predict(X)
    psi, iv = estimate(q0, q1, g, t, y, (TAG_TMLE,))[TAG_TMLE]
    assert stationary_epsilon(y, select_observed(q0, q1, t), t, g) == pytest.approx(0.5)
    assert psi == pytest.approx(2.0)
    assert abs(iv.mean_phi) <= 1e-8


def test_psi_tmle_influence_mean_near_zero_random():
    rng = np.random.default_rng(13)
    n = 500
    X = rng.normal(size=(n, 2))
    model = table_model(
        X, rng.normal(size=n), rng.normal(size=n), rng.uniform(0.05, 0.95, size=n)
    )
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    _, iv = estimate(*model.predict(X), t, y, (TAG_TMLE,))[TAG_TMLE]
    assert abs(iv.mean_phi) <= 1e-8


def test_psi_treg_shifts_plug_in_by_trained_epsilon():
    # With g constant at 0.5, the update adds eps * (1/g + 1/(1-g)) = 4 eps.
    X = np.array([[0.0], [1.0], [2.0]])
    model = table_model(X, q0=[0.0, 1.0, -1.0], q1=[1.0, 2.0, 0.0], g=[0.5] * 3)
    t = np.array([1.0, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.0])
    est = estimate(*model.predict(X), t, y, (TAG_Q, TAG_TREG), epsilon_hat=0.1)
    assert est[TAG_TREG][0] == pytest.approx(est[TAG_Q][0] + 0.4)


def test_psi_treg_requires_treg_training():
    X = np.array([[0.0]])
    model = FittedModel.from_values(X, np.zeros(1), np.ones(1), np.full(1, 0.5))
    with pytest.raises(UsageError):
        apply_estimators(model, X, np.array([1.0]), np.array([1.0]), estimators=(TAG_TREG,))
    with pytest.raises(UsageError, match="TREG needs a model trained with beta > 0"):
        estimate(*model.predict(X), np.array([1.0]), np.array([1.0]), (TAG_TREG,))


def test_influence_curve_hand_value():
    # phi = (q1 - q0) + H (y - q1) - psi = 1 + 2 (2 - 1) - 1 = 2, at Q's psi = 1
    psi, iv = estimate(
        np.array([0.0]), np.array([1.0]), np.array([0.5]), np.array([1.0]),
        np.array([2.0]), (TAG_Q,),
    )[TAG_Q]
    assert psi == pytest.approx(1.0)
    assert iv.phi[0] == pytest.approx(2.0)
    assert iv.mean_phi == pytest.approx(2.0)


def test_trim_bounds_are_inclusive():
    g = np.array([0.005, 0.01, 0.5, 0.99, 0.995])
    tr = trim(g, (0.01, 0.99))
    np.testing.assert_array_equal(tr.kept, [1, 2, 3])
    assert tr.dropped_low == 1
    assert tr.dropped_high == 1
    assert tr.bounds == (0.01, 0.99)


def test_trim_keeps_exact_boundary_rows():
    tr = trim(np.array([0.005, 0.5, 0.995]), (0.01, 0.99))
    np.testing.assert_array_equal(tr.kept, [1])


def test_trim_rejects_values_outside_unit_interval():
    with pytest.raises(NumericDomainError):
        trim(np.array([0.5, 1.2]))


def test_trim_invalid_bounds():
    with pytest.raises(NumericDomainError):
        trim(np.array([0.5]), (0.9, 0.1))


def test_overlap_flag_strictly_above_threshold():
    assert overlap_flag(0.95) is True
    assert overlap_flag(0.90) is False
    assert overlap_flag(0.5) is False
    with pytest.raises(NumericDomainError, match="accuracy must be in"):
        overlap_flag(1.5)


def test_propensity_accuracy_threshold_rule():
    g = np.array([0.6, 0.4, 0.51, 0.5])
    t = np.array([1.0, 0.0, 0.0, 0.0])
    # predictions: 1, 0, 1, 0 -> three of four match
    assert propensity_accuracy(g, t) == pytest.approx(0.75)


def test_diff_in_means_hand_value():
    t = np.array([1.0, 1.0, 0.0])
    y = np.array([2.0, 4.0, 1.0])
    assert diff_in_means(t, y) == pytest.approx(2.0)


def test_diff_in_means_needs_both_groups():
    with pytest.raises(EstimationError):
        diff_in_means(np.ones(3), np.arange(3.0))


def test_estimates_are_permutation_invariant():
    rng = np.random.default_rng(17)
    n = 80
    X = rng.normal(size=(n, 2))
    q0, q1 = rng.normal(size=(2, n))
    g = rng.uniform(0.2, 0.8, size=n)
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    model = table_model(X, q0, q1, g)
    perm = rng.permutation(n)
    a, _ = estimate(*model.predict(X), t, y, (TAG_AIPTW,))[TAG_AIPTW]
    b, _ = estimate(*model.predict(X[perm]), t[perm], y[perm], (TAG_AIPTW,))[TAG_AIPTW]
    assert a == pytest.approx(b, rel=1e-12)


def test_duplicating_every_row_preserves_estimates():
    rng = np.random.default_rng(19)
    n = 40
    X = rng.normal(size=(n, 2))
    q0, q1 = rng.normal(size=(2, n))
    g = rng.uniform(0.2, 0.8, size=n)
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    model = table_model(X, q0, q1, g)
    dup = np.concatenate([np.arange(n), np.arange(n)])
    one, _ = estimate(*model.predict(X), t, y, (TAG_TMLE,))[TAG_TMLE]
    two, _ = estimate(*model.predict(X[dup]), t[dup], y[dup], (TAG_TMLE,))[TAG_TMLE]
    assert one == pytest.approx(two, rel=1e-12)


def test_double_robustness_with_true_propensity_and_zero_outcome_model():
    # A wrong outcome model (identically zero) plus the true propensity
    # still gives a root-n consistent corrected estimate; the plug-in is
    # off by exactly tau.
    rng = np.random.default_rng(23)
    tau = 1.0
    data = gen_dgp_lin(n=4000, p=5, tau=tau, confounding_strength=1.0, noise_sd=1.0, rng=rng)
    model = FittedModel.from_functions(
        q0=lambda X: np.zeros(X.shape[0]),
        q1=lambda X: np.zeros(X.shape[0]),
        g=lambda X: data.g_true,  # predicted on data.X only
    )
    t = data.t.astype(np.float64)
    q0, q1, g = model.predict(data.X)
    est = estimate(q0, q1, g, t, data.y)
    psi, iv = est[TAG_AIPTW]
    se = iv.phi.std(ddof=1) / np.sqrt(data.n)
    assert abs(psi - tau) < 5.0 * se
    assert abs(est[TAG_Q][0] - tau) == pytest.approx(tau)
    tm, tm_iv = est[TAG_TMLE]
    tm_se = tm_iv.phi.std(ddof=1) / np.sqrt(data.n)
    assert abs(tm - tau) < 5.0 * tm_se


def test_apply_estimators_shares_one_trimmed_set():
    rng = np.random.default_rng(29)
    n = 120
    X = rng.normal(size=(n, 2))
    g = rng.uniform(0.0, 1.0, size=n)
    model = table_model(X, rng.normal(size=n), rng.normal(size=n), np.clip(g, 1e-6, 1 - 1e-6))
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    reports = apply_estimators(model, X, t, y, (0.1, 0.9))
    assert set(reports) == {TAG_Q, TAG_AIPTW, TAG_TMLE}
    n_used = {r.n_used for r in reports.values()}
    assert len(n_used) == 1
    dropped = next(iter(reports.values()))
    assert dropped.dropped_low + dropped.dropped_high + dropped.n_used == n
    assert dropped.dropped_low > 0 and dropped.dropped_high > 0


def test_apply_estimators_adds_treg_for_treg_models():
    X = np.array([[0.0], [1.0]])
    model = FittedModel.from_functions(lambda X: np.zeros(len(X)), lambda X: np.ones(len(X)),
                                       lambda X: np.full(len(X), 0.5), epsilon_hat=0.05,
                                       treg=True)
    reports = apply_estimators(model, X, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert set(reports) == {TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG}


def test_apply_estimators_predicts_once_per_row_set():
    # One predict to trim on, reused when nothing is trimmed; otherwise
    # exactly one more on the kept rows.
    rng = np.random.default_rng(31)
    n = 100
    X = rng.normal(size=(n, 2))
    t = (rng.uniform(size=n) < 0.5).astype(np.float64)
    y = rng.normal(size=n)
    calls = []

    def q0(Xq):
        calls.append(len(Xq))
        return np.zeros(len(Xq))

    model = FittedModel.from_functions(
        q0, lambda Xq: np.ones(len(Xq)),
        lambda Xq: stable_sigmoid(2.0 * (Xq @ (np.ones(2) / np.sqrt(2)))),
        epsilon_hat=0.1, treg=True,
    )
    apply_estimators(model, X, t, y, (0.0, 1.0), (TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG))
    assert calls == [n]
    calls.clear()
    reports = apply_estimators(model, X, t, y, (0.2, 0.8), (TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG))
    n_used = reports[TAG_Q].n_used
    assert 0 < n_used < n
    assert calls == [n, n_used]


def test_apply_estimators_unknown_tag():
    X = np.array([[0.0]])
    model = table_model(X, [0.0], [1.0], [0.5])
    with pytest.raises(UsageError):
        apply_estimators(model, X, np.array([1.0]), np.array([1.0]), estimators=("PSI",))
    with pytest.raises(UsageError, match=r"unknown estimator tags: \['PSI'\]"):
        estimate(*model.predict(X), np.array([1.0]), np.array([1.0]), ("PSI", TAG_Q))


@pytest.mark.parametrize("tags", [TAG_Q, TAG_TMLE])
def test_a_string_of_tags_is_refused(tags):
    # Iterating "TMLE" gives its letters, and "Q" gives "Q" by accident.
    X = np.array([[0.0]])
    model = table_model(X, [0.0], [1.0], [0.5])
    match = f"estimators must be a list of tags, not the string '{tags}'"
    with pytest.raises(UsageError, match=match):
        apply_estimators(model, X, np.array([1.0]), np.array([1.0]), estimators=tags)
    with pytest.raises(UsageError, match=match):
        estimate(*model.predict(X), np.array([1.0]), np.array([1.0]), tags)
    taken = estimate(*model.predict(X), np.array([1.0]), np.array([1.0]), iter([tags]))
    assert list(taken) == [tags]  # an iterator of tags is read once, not consumed by the check


@pytest.mark.parametrize("n", [5, 12])
def test_apply_estimators_refuses_t_and_y_that_do_not_match_the_rows_of_x(n):
    # Refused before any predict: fewer rows used to end in a bare
    # IndexError, more rows in estimates from the first 10 rows alone.
    X = np.zeros((10, 2))
    calls = []
    model = FittedModel.from_functions(lambda Xq: calls.append(Xq) or np.zeros(len(Xq)),
                                       lambda Xq: np.ones(len(Xq)),
                                       lambda Xq: np.full(len(Xq), 0.5))
    t = np.arange(n) % 2.0
    with pytest.raises(ShapeError, match=f"X has 10 rows but t and y have {n}"):
        apply_estimators(model, X, t, np.zeros(n))
    assert calls == []


def test_apply_estimators_refuses_bad_rows_before_predicting():
    X = np.array([[0.0], [1.0]])
    model = table_model(X, [0.0, 0.0], [1.0, 1.0], [0.001, 0.5])
    with pytest.raises(ShapeError, match="X must be 2-d"):
        apply_estimators(model, X[:, 0], np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(EstimationError, match="no rows to estimate from"):
        apply_estimators(model, np.zeros((0, 1)), np.zeros(0), np.zeros(0))
    # t is checked on every row, also on a row the trim would drop
    with pytest.raises(NumericDomainError, match="t must contain only 0 and 1"):
        apply_estimators(model, X, np.array([0.5, 1.0]), np.zeros(2), (0.01, 0.99))


ONE, TWO_D, T = np.full(2, 0.5), np.full((2, 1), 0.5), np.array([0.0, 1.0])
PUBLIC_CHECKS = {  # each public estimation function, with a given array in one argument;
    # psi_<tag> asks `estimate` for that tag, influence_curve for the default set
    "trim": lambda a: trim(a),
    "propensity_accuracy": lambda a: propensity_accuracy(a, T),
    "diff_in_means": lambda a: diff_in_means(T, a),
    "influence_curve": lambda a: estimate(ONE, a, ONE, T, ONE),
    "psi_q": lambda a: estimate(a, ONE, ONE, T, ONE, (TAG_Q,)),
    "psi_aiptw": lambda a: estimate(ONE, ONE, a, T, ONE, (TAG_AIPTW,)),
    "psi_tmle": lambda a: estimate(ONE, ONE, ONE, T, a, (TAG_TMLE,)),
    "psi_treg": lambda a: estimate(ONE, ONE, ONE, T, a, (TAG_TREG,), 0.1),
    "stationary_epsilon": lambda a: stationary_epsilon(ONE, a, T, ONE),
    "apply_estimators": lambda a: apply_estimators(table_model(np.zeros((2, 1)), ONE, ONE, ONE),
                                                   np.zeros((2, 1)), T, a),
}


@pytest.mark.parametrize("call", PUBLIC_CHECKS.values(), ids=PUBLIC_CHECKS)
def test_every_estimation_function_refuses_a_2d_array(call):
    call(ONE)  # the 1-d twin passes
    with pytest.raises(ShapeError, match=r"must be 1-d, got shape \(2, 1\)"):
        call(TWO_D)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", PUBLIC_CHECKS.values(), ids=PUBLIC_CHECKS)
def test_every_estimation_function_refuses_a_non_finite_entry(call, bad):
    # trim used to keep [0.3, nan, 0.7] as 2 of 3 rows with 0 dropped either way
    with pytest.raises(NumericDomainError, match="must be finite"):
        call(np.array([0.5, bad]))


@pytest.mark.parametrize("name", ["q0", "q1", "g", "t", "y"])
def test_estimate_names_the_array_with_a_non_finite_entry(name):
    # A NaN g used to pass the (0, 1) check, since every comparison with
    # NaN is false, and NaN or inf outcomes gave nan/inf estimates.
    arrays = dict(q0=np.zeros(3), q1=np.ones(3), g=np.full(3, 0.5),
                  t=np.array([0.0, 1.0, 1.0]), y=np.ones(3))
    arrays[name][1] = np.nan
    with pytest.raises(NumericDomainError, match=f"^{name} must be finite$"):
        estimate(**arrays)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_estimate_refuses_a_non_finite_epsilon_hat(eps):
    arrays = np.zeros(2), np.ones(2), np.full(2, 0.5), np.array([0.0, 1.0]), np.ones(2)
    with pytest.raises(NumericDomainError, match="epsilon_hat must be finite"):
        estimate(*arrays, (TAG_TREG,), eps)


def test_apply_estimators_refuses_non_finite_outcomes_and_predictions():
    X = np.zeros((3, 1))
    t, y = np.array([0.0, 1.0, 1.0]), np.array([1.0, np.inf, 0.0])
    fine = FittedModel.from_functions(lambda Xq: np.zeros(len(Xq)), lambda Xq: np.ones(len(Xq)),
                                      lambda Xq: np.full(len(Xq), 0.5))
    with pytest.raises(NumericDomainError, match="^y must be finite$"):
        apply_estimators(fine, X, t, y)
    nan_q1 = FittedModel.from_functions(lambda Xq: np.zeros(len(Xq)),
                                        lambda Xq: np.full(len(Xq), np.nan),
                                        lambda Xq: np.full(len(Xq), 0.5))
    with pytest.raises(NumericDomainError, match="^q1 must be finite$"):
        apply_estimators(nan_q1, X, t, np.zeros(3))


@pytest.mark.parametrize("bounds", [0.5, (0.1,), ("a", "b"), (0.1, 0.9, 5), "ab", (np.nan, 0.9),
                                    (False, True), (0.9, 0.1)])
def test_malformed_trim_bounds_are_refused_before_any_predict(bounds):
    X = np.zeros((4, 1))
    calls = []
    model = FittedModel.from_functions(lambda Xq: calls.append(len(Xq)) or np.zeros(len(Xq)),
                                       lambda Xq: np.ones(len(Xq)),
                                       lambda Xq: np.full(len(Xq), 0.5))
    t = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(NumericDomainError, match="trim bounds must satisfy"):
        apply_estimators(model, X, t, np.zeros(4), bounds)
    assert calls == []
    with pytest.raises(NumericDomainError, match="trim bounds must satisfy"):
        trim(np.full(4, 0.5), bounds)


def test_estimate_defaults_to_q_aiptw_tmle_and_adds_treg_with_a_trained_epsilon():
    arrays = np.zeros(2), np.ones(2), np.full(2, 0.5), np.array([0.0, 1.0]), np.ones(2)
    assert list(estimate(*arrays)) == [TAG_Q, TAG_AIPTW, TAG_TMLE]
    assert list(estimate(*arrays, epsilon_hat=0.05)) == [TAG_Q, TAG_AIPTW, TAG_TMLE, TAG_TREG]
    assert list(estimate(*arrays, (TAG_TREG, TAG_Q), 0.05)) == [TAG_TREG, TAG_Q]


@pytest.mark.parametrize("call", [
    lambda: estimate([], [], [], [], [], (TAG_Q,)),
    lambda: estimate([], [], [], [], [], (TAG_AIPTW,)),
    lambda: estimate([], [], [], [], []),
    lambda: propensity_accuracy([], []),
], ids=["psi_q", "psi_aiptw", "influence_curve", "propensity_accuracy"])
def test_estimators_refuse_empty_rows(call):
    with pytest.raises(EstimationError, match="no rows to estimate from"):
        call()


def test_apply_estimators_everything_trimmed():
    X = np.array([[0.0], [1.0]])
    model = table_model(X, [0.0, 0.0], [1.0, 1.0], [0.001, 0.999])
    with pytest.raises(EstimationError):
        apply_estimators(model, X, np.array([1.0, 0.0]), np.array([1.0, 0.0]), (0.4, 0.6))


def test_report_roundtrips_through_dict():
    report = EstimateReport(
        estimator_tag=TAG_TMLE, psi_hat=1.25, n_used=90, trim_bounds=(0.01, 0.99),
        mean_phi=1e-9, dropped_low=3, dropped_high=7,
    )
    again = EstimateReport.from_dict(plain(report))
    assert again == report


def test_report_from_dict_names_a_missing_field():
    d = plain(EstimateReport(
        estimator_tag=TAG_Q, psi_hat=1.0, n_used=10, trim_bounds=(0.01, 0.99),
        mean_phi=0.5, dropped_low=0, dropped_high=0,
    ))
    del d["trim_bounds"]
    with pytest.raises(ConfigError, match="trim_bounds"):
        EstimateReport.from_dict(d)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_estimates_follow_a_shift_and_a_scale_of_the_outcomes(seed):
    # Adding c to y, q0 and q1 leaves every residual and contrast as it was;
    # multiplying all three by s > 0 multiplies each estimate by s.
    rng = np.random.default_rng(seed)
    n = 60
    q0, q1, y = rng.normal(size=(3, n))
    g = rng.uniform(0.1, 0.9, size=n)
    t = (rng.uniform(size=n) < g).astype(np.float64)
    c, s = rng.normal(scale=5.0), rng.uniform(0.1, 10.0)

    def estimates(q0, q1, y):
        return [psi for psi, _ in estimate(q0, q1, g, t, y).values()]

    base = np.array(estimates(q0, q1, y))
    np.testing.assert_allclose(estimates(q0 + c, q1 + c, y + c), base, rtol=0, atol=1e-12)
    np.testing.assert_allclose(estimates(s * q0, s * q1, s * y), s * base, rtol=1e-12, atol=1e-12)
