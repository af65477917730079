"""Generators, CSV round-trips and the split rules."""

import numpy as np
import pytest

from dragonbench.autodiff import stable_sigmoid
from dragonbench.datagen import (
    Dataset,
    SplitSpec,
    gen_dgp_ihdp_like,
    gen_dgp_irrelevant,
    gen_dgp_lin,
    load_csv,
    split,
    write_csv,
)
from dragonbench.errors import ConfigError, IngestionError, ShapeError


def lin_data(n=200, p=4, tau=1.0, c=1.0, noise=1.0, seed=0):
    return gen_dgp_lin(n, p, tau, c, noise, np.random.default_rng(seed))


# --- generators ---------------------------------------------------------------

def test_lin_noise_free_outcomes_are_exact():
    data = gen_dgp_lin(n=50, p=3, tau=2.0, confounding_strength=1.0, noise_sd=0.0,
                       rng=np.random.default_rng(1))
    f = data.X @ (np.ones(3) / np.sqrt(3))  # u = w.x with w = ones/sqrt(p)
    np.testing.assert_array_equal(data.g_true, stable_sigmoid(f))
    np.testing.assert_allclose(data.y, 2.0 * data.t + f, rtol=0, atol=1e-12)
    np.testing.assert_allclose(data.mu0, f, rtol=0, atol=0)
    np.testing.assert_allclose(data.mu1, f + 2.0, rtol=0, atol=0)


def test_lin_sample_ate_equals_tau_exactly():
    data = lin_data(tau=1.5)
    assert data.sample_ate == pytest.approx(1.5, abs=0)


def test_lin_zero_confounding_gives_coin_flip_propensity():
    data = lin_data(n=30, c=0.0)
    np.testing.assert_array_equal(data.g_true, np.full(30, 0.5))


def test_lin_treatment_rate_tracks_confounding_direction():
    # With the normalized direction, g = sigmoid(c * wx) averages to ~0.5
    # but correlates with wx.
    data = gen_dgp_lin(n=20000, p=4, tau=1.0, confounding_strength=2.0, noise_sd=1.0,
                       rng=np.random.default_rng(3))
    wx = data.X @ np.full(4, 0.5)  # w = ones/sqrt(4)
    assert np.corrcoef(wx, data.t)[0, 1] > 0.3
    assert 0.4 < data.t.mean() < 0.6


def test_irrelevant_covariate_blocks():
    data = gen_dgp_irrelevant(n=20000, p_confound=3, p_outcome_only=3, tau=1.0,
                              rng=np.random.default_rng(5))
    assert data.p == 6
    conf, extra = data.X[:, :3], data.X[:, 3:]
    t = data.t.astype(bool)
    # confounders shift between arms; outcome-only columns do not
    conf_gap = np.abs(conf[t].mean(axis=0) - conf[~t].mean(axis=0))
    extra_gap = np.abs(extra[t].mean(axis=0) - extra[~t].mean(axis=0))
    assert conf_gap.min() > 0.1
    assert extra_gap.max() < 0.05
    # but they do drive the outcome
    corr = [abs(np.corrcoef(extra[:, j], data.mu0)[0, 1]) for j in range(3)]
    assert min(corr) > 0.1


def test_irrelevant_zero_extra_columns_allowed():
    data = gen_dgp_irrelevant(n=100, p_confound=3, p_outcome_only=0, tau=1.0,
                              rng=np.random.default_rng(6))
    assert data.p == 3


@pytest.mark.parametrize("n", [0, -5])
def test_irrelevant_rejects_fewer_than_one_row(n):
    with pytest.raises(ConfigError, match=f"need n >= 1 and p_confound >= 1, got n={n}"):
        gen_dgp_irrelevant(n=n, p_confound=2, p_outcome_only=1, tau=1.0,
                           rng=np.random.default_rng(0))


@pytest.mark.parametrize("generate, match", [
    (lambda rng: gen_dgp_lin(0, 2, 1.0, 1.0, 1.0, rng), r"need n >= 1 and p >= 1, got n=0, p=2$"),
    (lambda rng: gen_dgp_ihdp_like(20, 0, rng), r"need n >= 1 and p >= 1, got n=20, p=0$"),
    (lambda rng: gen_dgp_irrelevant(20, 2, -1, 1.0, rng), r"p_outcome_only must be >= 0"),
], ids=["lin-n", "ihdp_like-p", "irrelevant-p_outcome_only"])
def test_generators_reject_a_count_out_of_range(generate, match):
    with pytest.raises(ConfigError, match=match):
        generate(np.random.default_rng(0))


@pytest.mark.parametrize("generate", [
    lambda noise_sd, rng: gen_dgp_lin(20, 2, 1.0, 1.0, noise_sd, rng),
    lambda noise_sd, rng: gen_dgp_irrelevant(20, 2, 1, 1.0, rng, noise_sd=noise_sd),
    lambda noise_sd, rng: gen_dgp_ihdp_like(20, 3, rng, noise_sd=noise_sd),
], ids=["lin", "irrelevant", "ihdp_like"])
def test_generators_reject_a_negative_noise_sd(generate):
    with pytest.raises(ConfigError, match="noise_sd must be >= 0, got -1"):
        generate(-1.0, np.random.default_rng(0))


def test_ihdp_like_hits_target_sample_ate_exactly():
    data = gen_dgp_ihdp_like(n=747, p=25, rng=np.random.default_rng(7))
    assert data.sample_ate == pytest.approx(4.0, abs=1e-12)
    assert np.all(data.mu0 > 0.0)
    assert data.n == 747 and data.p == 25


def test_ihdp_like_target_is_configurable():
    data = gen_dgp_ihdp_like(n=200, p=10, rng=np.random.default_rng(8),
                             target_sample_ate=-1.0)
    assert data.sample_ate == pytest.approx(-1.0, abs=1e-12)


def test_generators_are_deterministic_per_seed():
    a = lin_data(seed=11)
    b = lin_data(seed=11)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.t, b.t)


# --- dataset container --------------------------------------------------------

def test_dataset_rejects_non_binary_treatment():
    with pytest.raises(ConfigError):
        Dataset(X=np.zeros((2, 1)), t=np.array([0, 2]), y=np.zeros(2))


def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(ShapeError):
        Dataset(X=np.zeros((3, 1)), t=np.zeros(3, dtype=np.int64), y=np.zeros(2))


def test_dataset_requires_paired_mu_columns():
    with pytest.raises(ConfigError):
        Dataset(X=np.zeros((2, 1)), t=np.zeros(2, dtype=np.int64), y=np.zeros(2),
                mu0=np.zeros(2))


def test_subset_slices_all_fields():
    data = lin_data(n=20)
    sub = data.subset(np.array([3, 5, 7]))
    assert sub.n == 3
    np.testing.assert_array_equal(sub.X, data.X[[3, 5, 7]])
    np.testing.assert_array_equal(sub.mu1, data.mu1[[3, 5, 7]])


def test_sample_ate_is_none_without_mu():
    data = lin_data()
    assert Dataset(X=data.X, t=data.t, y=data.y).sample_ate is None


# --- csv ----------------------------------------------------------------------

def test_csv_roundtrip_is_bit_exact(tmp_path):
    data = lin_data(n=37, p=5, seed=13)
    path = tmp_path / "d.csv"
    write_csv(data, path)
    again = load_csv(path)
    np.testing.assert_array_equal(again.X, data.X)
    np.testing.assert_array_equal(again.y, data.y)
    np.testing.assert_array_equal(again.t, data.t)
    np.testing.assert_array_equal(again.mu0, data.mu0)
    np.testing.assert_array_equal(again.mu1, data.mu1)


def test_csv_roundtrip_without_mu(tmp_path):
    data = lin_data(n=10)
    bare = Dataset(X=data.X, t=data.t, y=data.y)
    path = tmp_path / "bare.csv"
    write_csv(bare, path)
    again = load_csv(path)
    assert again.mu0 is None
    np.testing.assert_array_equal(again.y, bare.y)


def test_load_csv_reports_bad_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x0,x1,t,y"]
    for i in range(5):
        rows.append(f"0.{i},1.0,0,2.5")
    rows[3] = "0.2,1.0,2,2.5"  # physical line 4: treatment out of range
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestionError) as exc:
        load_csv(path)
    assert "line 4" in str(exc.value)


def test_load_csv_reports_non_finite_fields_as_bad_lines(tmp_path):
    path = tmp_path / "nonfinite.csv"
    path.write_text(
        "x0,t,y,mu0,mu1\n"
        "1.0,0,2.0,1.0,2.0\n"
        "1.0,1,2.0,1.0,nan\n"    # line 3
        "inf,1,1.5,1.0,2.0\n"    # line 4
        "2.0,0,-Infinity,1.0,2.0\n"  # line 5
    )
    with pytest.raises(IngestionError) as exc:
        load_csv(path)
    assert exc.value.lines == (3, 4, 5)
    assert "line 3: non-finite field" in str(exc.value)


def test_load_csv_collects_every_malformed_row(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text(
        "x0,t,y\n"
        "1.0,0,2.0\n"
        "oops,0,2.0\n"      # line 3
        "1.0,1,1.5\n"
        "2.0,1\n"           # line 5: short row
        "3.0,7,0.0\n"       # line 6: treatment out of range
    )
    with pytest.raises(IngestionError) as exc:
        load_csv(path)
    msg = str(exc.value)
    assert "line 3" in msg and "line 5" in msg and "line 6" in msg
    assert "line 2" not in msg and "line 4" not in msg


def test_load_csv_rejects_unexpected_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,c\n1,0,2\n")
    with pytest.raises(IngestionError):
        load_csv(path)


# --- splits -------------------------------------------------------------------

def test_split_counts_n100():
    data = lin_data(n=100)
    idx = split(data, SplitSpec(0.63, 0.27, 0.10, seed=0))
    assert (idx.train.size, idx.validation.size, idx.test.size) == (63, 27, 10)


def test_split_largest_remainder_n10():
    # 6.3 / 2.7 / 1.0 -> floors 6/2/1, leftover row goes to validation
    data = lin_data(n=10)
    idx = split(data, SplitSpec(0.63, 0.27, 0.10, seed=1))
    assert (idx.train.size, idx.validation.size, idx.test.size) == (6, 3, 1)


def test_split_everything_to_train():
    data = lin_data(n=25)
    idx = split(data, SplitSpec(1.0, 0.0, 0.0, seed=5))
    np.testing.assert_array_equal(idx.train, np.arange(25))
    assert idx.validation.size == 0 and idx.test.size == 0


def test_split_positive_proportions_get_rows():
    data = lin_data(n=3)
    idx = split(data, SplitSpec(0.98, 0.01, 0.01, seed=2))
    assert idx.train.size == 1 and idx.validation.size == 1 and idx.test.size == 1


def test_split_too_small_to_honor_proportions():
    data = lin_data(n=1)
    with pytest.raises(ConfigError):
        split(data, SplitSpec(0.5, 0.25, 0.25, seed=0))


def test_split_is_disjoint_exhaustive_and_sorted():
    data = lin_data(n=101)
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = rng.dirichlet([2.0, 1.0, 1.0])
        idx = split(data, SplitSpec(float(q[0]), float(q[1]), float(q[2]),
                                    seed=int(rng.integers(1 << 31))))
        parts = [idx.train, idx.validation, idx.test]
        merged = np.concatenate(parts)
        assert merged.size == 101
        np.testing.assert_array_equal(np.sort(merged), np.arange(101))
        for part in parts:
            np.testing.assert_array_equal(part, np.sort(part))


def test_split_depends_only_on_seed():
    data = lin_data(n=60)
    a = split(data, SplitSpec(0.7, 0.2, 0.1, seed=9))
    b = split(data, SplitSpec(0.7, 0.2, 0.1, seed=9))
    c = split(data, SplitSpec(0.7, 0.2, 0.1, seed=10))
    np.testing.assert_array_equal(a.train, b.train)
    assert not np.array_equal(a.train, c.train)


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.4, 0.2)
    with pytest.raises(ConfigError):
        SplitSpec(-0.1, 0.6, 0.5)


@pytest.mark.parametrize("props", [(True, False, False), ("0.5", 0.5, 0.0), (0.5, None, 0.5)])
def test_split_spec_refuses_proportions_that_are_not_numbers(props):
    with pytest.raises(ConfigError, match="malformed split spec: .* proportion is not a number"):
        SplitSpec(*props)


def test_split_spec_refuses_a_non_finite_proportion():
    with pytest.raises(ConfigError, match="validation proportion is not finite"):
        SplitSpec(0.5, float("nan"), 0.5)
