"""Replication harness: seeding, pairing, sweeps and reports.

Experiments here run tiny networks for a few epochs; only plumbing is
under test, not estimation quality.
"""

import json
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dragonbench.bench as bench
from dragonbench import blas_threads
from dragonbench.bench import (
    ExperimentConfig,
    RunResult,
    compare_methods,
    emit_report,
    emit_sweep_report,
    format_summary,
    format_truncation_table,
    load_report,
    make_dataset,
    paired_headline_errors,
    run_experiment,
    run_grid,
    run_replication,
    subsample_sweep,
    summarize,
    truncation_sweep,
)
from dragonbench.autodiff import stable_sigmoid
from dragonbench.datagen import write_csv
from dragonbench.errors import ConfigError, TrainingDivergedError
from dragonbench.estimators import (
    ESTIMATOR_TAGS,
    EstimateReport,
    influence_curve,
    psi_aiptw,
    psi_q,
    psi_tmle,
    psi_treg,
    trim,
)
from dragonbench.models import FittedModel
from dragonbench.schema import plain
from dragonbench.train import TrainConfig

DATA = Path(__file__).parent / "data"

TINY_TRAIN = TrainConfig(epochs=3, patience=0, val_fraction=0.0,
                         shared_widths=(8,), outcome_widths=(4,))


def tiny_config(**overrides):
    base = dict(
        dgp={"kind": "lin", "n": 120, "p": 3, "tau": 1.0},
        architecture="dragonnet",
        replications=3,
        split=(0.7, 0.2, 0.1),
        train=TINY_TRAIN,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def strip_wall_time(run: RunResult) -> dict:
    d = run.to_dict()
    d.pop("wall_time")
    return d


# --- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(architecture="mystery")
    with pytest.raises(ConfigError):
        tiny_config(architecture="nednet", treg=True)
    with pytest.raises(ConfigError):
        tiny_config(replications=0)
    with pytest.raises(ConfigError):
        tiny_config(trim=(0.5, 0.4))
    with pytest.raises(ConfigError):
        tiny_config(estimators=("Q", "NOPE"))
    with pytest.raises(ConfigError):
        tiny_config(dgp={"n": 10})
    with pytest.raises(ConfigError, match="base_seed must be >= 0"):
        tiny_config(base_seed=-1)
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        tiny_config(workers=0)
    with pytest.raises(ConfigError, match="train must be a TrainConfig or a dict"):
        tiny_config(train=[("epochs", 3)])


@pytest.mark.parametrize("split, match", [
    ((0.5, 0.5, 0.5), "proportions must sum to 1"),
    ((-0.5, 1.0, 0.5), "train proportion must be >= 0"),
    ((0.5, 0.5), "split needs"),
])
def test_config_rejects_a_bad_split_when_built(split, match):
    with pytest.raises(ConfigError, match=match):
        tiny_config(split=split)


@pytest.mark.parametrize("field, value", [("alpha", -1.0), ("alpha", float("nan")),
                                          ("beta", -1.0), ("beta", float("inf"))])
def test_config_checks_the_training_weights_when_built(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("overrides, match", [
    ({"treg": True, "beta": 0.0}, "treg needs beta > 0"),
    ({"treg": True, "architecture": "oracle"}, "oracle does not take the targeted"),
    ({"estimators": ("Q", "TREG")}, "estimator TREG needs treg"),
], ids=["beta-zero", "oracle", "treg-estimator-without-treg"])
def test_config_refuses_targeted_regularization_that_cannot_run(overrides, match):
    with pytest.raises(ConfigError, match=match):
        tiny_config(**overrides)


@pytest.mark.parametrize("weights", [{"alpha": 5.0}, {"beta": 1.0}])
def test_config_refuses_weights_set_inside_train(weights):
    with pytest.raises(ConfigError, match="set alpha and beta at the top level"):
        tiny_config(train=replace(TINY_TRAIN, **weights))
    with pytest.raises(ConfigError, match="set alpha and beta at the top level"):
        ExperimentConfig.from_dict({**plain(tiny_config()),
                                    "train": {**plain(TINY_TRAIN), **weights}})


@pytest.mark.parametrize("seed", [0, 5])
def test_config_refuses_a_train_seed(seed):
    # Each replication trains on a stream drawn from (base_seed, replication),
    # so a train seed would change nothing.
    with pytest.raises(ConfigError, match="set base_seed"):
        tiny_config(train=replace(TINY_TRAIN, seed=seed))
    with pytest.raises(ConfigError, match="set base_seed"):
        ExperimentConfig.from_dict({**plain(tiny_config()),
                                    "train": {**plain(TINY_TRAIN), "seed": seed}})


def test_config_roundtrip():
    cfg = tiny_config(treg=True, estimators=("TREG", "TMLE"), workers=2)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(plain(cfg))))
    assert again == cfg


def test_config_typos_name_the_unknown_keys():
    d = plain(tiny_config())
    with pytest.raises(ConfigError, match="replicatoins"):
        ExperimentConfig.from_dict({**d, "replicatoins": 2})
    with pytest.raises(ConfigError, match="epoch"):
        ExperimentConfig.from_dict({**d, "train": {**d["train"], "epoch": 2}})


WRONGLY_TYPED = {
    "trim-scalar": {"trim": 0.5},
    "widths-scalar": {"train": {"shared_widths": 32}},
    "epochs-string": {"train": {"epochs": "10"}},
    "epochs-float": {"train": {"epochs": 10.0}},
    "replications-string": {"replications": "2"},
    "no-dgp": {"dgp": None},  # None drops the key
    "treg-string": {"treg": "false"},
    "standardize-string": {"train": {"standardize": "no"}},
}


@pytest.mark.parametrize("case", WRONGLY_TYPED)
def test_wrongly_typed_config_values_raise_config_error(case):
    d = {**plain(tiny_config()), **WRONGLY_TYPED[case]}
    with pytest.raises(ConfigError, match="malformed"):
        ExperimentConfig.from_dict({k: v for k, v in d.items() if v is not None})


def test_method_label_and_headline():
    assert tiny_config().method_label == "dragonnet"
    assert tiny_config(treg=True).method_label == "dragonnet+treg"
    assert tiny_config().headline_tag() == "Q"
    assert tiny_config(treg=True).headline_tag() == "TREG"
    assert tiny_config().estimator_tags() == ("Q", "TMLE")
    assert tiny_config(treg=True).estimator_tags() == ("TREG", "TMLE")


def test_effective_train_config_gates_beta_on_treg():
    cfg = tiny_config(alpha=0.7, beta=2.0)
    assert cfg.effective_train_config().beta == 0.0
    assert cfg.effective_train_config().alpha == 0.7
    assert tiny_config(treg=True, beta=2.0).effective_train_config().beta == 2.0


# --- dataset construction -----------------------------------------------------

def test_make_dataset_kinds():
    rng = np.random.default_rng(0)
    lin = make_dataset({"kind": "lin", "n": 50, "p": 3}, rng, 0)
    assert (lin.n, lin.p) == (50, 3)
    irr = make_dataset({"kind": "irrelevant", "n": 40, "p_confound": 2,
                        "p_outcome_only": 3}, np.random.default_rng(1), 0)
    assert irr.p == 5
    ihdp = make_dataset({"kind": "ihdp_like", "n": 60, "p": 5}, np.random.default_rng(2), 0)
    assert ihdp.sample_ate == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ConfigError):
        make_dataset({"kind": "parametric"}, rng, 0)


@pytest.mark.parametrize("dgp, match", [
    ({"kind": "lin", "p": 3}, "needs the key 'n'"),
    ({"kind": "lin", "n": "abc", "p": 3}, "malformed lin dgp key 'n'"),
    ({"kind": "irrelevant", "n": 40, "p_confound": 2}, "needs the key 'p_outcome_only'"),
    ({"kind": "lin", "n": 40, "p": 3, "noise": 1.0}, "unknown lin dgp keys: noise$"),
    ({"kind": "csv", "paths": ["a.csv"], "path": "a.csv"}, "unknown csv dgp keys: path$"),
    ({"kind": "lin", "n": 40, "p": 3, "tau": float("nan")}, "lin dgp key 'tau' is not finite"),
    ({"kind": "ihdp_like", "target_sample_ate": "-inf"}, "key 'target_sample_ate' is not finite"),
    ({"kind": "lin", "n": float("inf"), "p": 3}, "malformed lin dgp key 'n'"),
    ({"kind": "csv", "paths": "B/d.csv"}, "csv dgp needs 'paths'"),
    ({"kind": "csv", "paths": [3]}, "csv dgp needs 'paths'"),
    ({"kind": "csv", "paths": []}, "csv dgp needs 'paths'"),
], ids=["missing", "malformed", "irrelevant-missing", "unknown", "csv-unknown", "nan",
        "infinite", "infinite-count", "csv-paths-string", "csv-paths-number", "csv-paths-empty"])
def test_bad_dgp_keys_raise_config_error_naming_the_key(dgp, match):
    with pytest.raises(ConfigError, match=match):
        make_dataset(dgp, np.random.default_rng(0), 0)


def test_make_dataset_csv_mode_maps_replications_to_paths(tmp_path):
    paths = []
    for i in range(2):
        data = make_dataset({"kind": "lin", "n": 30, "p": 2}, np.random.default_rng(i), 0)
        path = tmp_path / f"rep{i}.csv"
        write_csv(data, path)
        paths.append(str(path))
    spec = {"kind": "csv", "paths": paths}
    a = make_dataset(spec, np.random.default_rng(0), 0)
    b = make_dataset(spec, np.random.default_rng(0), 1)
    assert not np.array_equal(a.X, b.X)
    with pytest.raises(ConfigError):
        make_dataset(spec, np.random.default_rng(0), 2)


# --- replications -------------------------------------------------------------

def test_run_replication_produces_scoped_reports():
    runs = run_replication(tiny_config(), 0)
    assert len(runs) == 1
    run = runs[0]
    assert set(run.reports) == {"all", "in", "out"}
    assert set(run.reports["all"]) == {"Q", "TMLE"}
    assert run.truth == pytest.approx(1.0)
    assert run.diverged is None
    assert run.abs_errors["all"]["Q"] >= 0.0
    assert run.dim is not None and run.dim_abs_error is not None
    assert run.wall_time > 0.0


def test_replications_are_deterministic_apart_from_wall_time():
    cfg = tiny_config()
    a = run_replication(cfg, 1)[0]
    b = run_replication(cfg, 1)[0]
    assert strip_wall_time(a) == strip_wall_time(b)


def test_replications_differ_across_indices():
    cfg = tiny_config()
    a = run_replication(cfg, 0)[0]
    b = run_replication(cfg, 1)[0]
    assert a.abs_errors != b.abs_errors


def test_oracle_mode_has_zero_plug_in_error():
    cfg = tiny_config(architecture="oracle", estimators=("Q",), replications=2)
    result = run_experiment(cfg)
    for run in result.runs:
        assert run.abs_errors["all"]["Q"] == pytest.approx(0.0, abs=1e-12)
    assert result.summary.rows[0].mean_abs_err == pytest.approx(0.0, abs=1e-12)


def test_oracle_mode_requires_known_surfaces(tmp_path):
    # csv without mu columns has no oracle surfaces
    from dragonbench.datagen import Dataset

    data = make_dataset({"kind": "lin", "n": 30, "p": 2}, np.random.default_rng(0), 0)
    stripped = Dataset(X=data.X, t=data.t, y=data.y)
    path = tmp_path / "bare.csv"
    write_csv(stripped, path)
    cfg = tiny_config(architecture="oracle", dgp={"kind": "csv", "paths": [str(path)]},
                      replications=1)
    with pytest.raises(ConfigError):
        run_replication(cfg, 0)


def test_oracle_mode_uses_the_true_propensity(tmp_path):
    data = make_dataset({"kind": "lin", "n": 60, "p": 3, "confounding_strength": 2.0},
                        np.random.default_rng(0), 0)
    u = data.X @ (np.ones(3) / np.sqrt(3))  # the confounding index w.x
    np.testing.assert_array_equal(data.g_true, stable_sigmoid(2.0 * u))
    rows = np.arange(0, 60, 3)
    sub = data.subset(rows)
    np.testing.assert_array_equal(bench._oracle_model(sub).g(sub.X), data.g_true[rows])
    for dgp in ({"kind": "irrelevant", "n": 40, "p_confound": 2, "p_outcome_only": 3},
                {"kind": "ihdp_like", "n": 40, "p": 6}):
        other = make_dataset(dgp, np.random.default_rng(1), 0)
        g = bench._oracle_model(other).g(other.X)
        np.testing.assert_array_equal(g, other.g_true)
        assert np.all((g > 0.0) & (g < 1.0)) and g.std() > 0.0
    # csv keeps mu0/mu1 but not the propensity, so it has no oracle
    path = tmp_path / "with_mu.csv"
    write_csv(data, path)
    cfg = tiny_config(architecture="oracle", dgp={"kind": "csv", "paths": [str(path)]},
                      replications=1)
    with pytest.raises(ConfigError):
        run_replication(cfg, 0)


def test_summary_excludes_unusable_runs():
    cfg = tiny_config()
    runs = [run_replication(cfg, r)[0] for r in range(3)]
    flagged = replace(runs[1], overlap=True)
    table = summarize(cfg, [runs[0], flagged, runs[2]])
    assert all(row.n_runs == 2 for row in table.rows)
    diverged = replace(runs[1], diverged="boom", reports={}, abs_errors={})
    table2 = summarize(cfg, [runs[0], diverged, runs[2]])
    assert all(row.n_runs == 2 for row in table2.rows)


def test_summary_std_err_formula():
    cfg = tiny_config()
    result = run_experiment(cfg)
    errs = [r.abs_errors["all"]["Q"] for r in result.runs]
    row = next(r for r in result.summary.rows if r.estimator == "Q")
    assert row.mean_abs_err == pytest.approx(float(np.mean(errs)))
    assert row.std_err == pytest.approx(float(np.std(errs, ddof=1) / np.sqrt(len(errs))))
    assert row.n_runs == 3


def test_single_run_summary_has_zero_std_err():
    result = run_experiment(tiny_config(replications=1))
    assert all(row.std_err == 0.0 for row in result.summary.rows)


# --- comparisons ---------------------------------------------------------------

def test_compare_methods_hand_cases():
    # identical errors: no pair improves or degrades
    same = compare_methods([1.0, 2.0], [1.0, 2.0])
    assert (same.pct_improved, same.up_avg, same.down_avg) == (0.0, 0.0, 0.0)
    better = compare_methods([0.5, 1.5], [1.0, 2.0])
    assert better.pct_improved == 100.0
    assert better.up_avg == pytest.approx(0.5)
    assert better.down_avg == 0.0
    mixed = compare_methods([1.0, 3.0], [2.0, 2.0])
    assert mixed.pct_improved == 50.0
    assert mixed.up_avg == pytest.approx(1.0)
    assert mixed.down_avg == pytest.approx(1.0)
    assert mixed.n_pairs == 2


def test_compare_methods_rejects_misaligned_lists():
    with pytest.raises(ConfigError):
        compare_methods([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        compare_methods([], [])


def test_grid_pairs_runs_by_replication():
    cfg = tiny_config(replications=2)
    methods = (("tarnet", "tarnet", False), ("dragonnet", "dragonnet", False))
    grid = run_grid(cfg, methods=methods, baseline="tarnet")
    assert set(grid.results) == {"tarnet", "dragonnet"}
    self_cmp = grid.comparisons["tarnet"]
    assert (self_cmp.pct_improved, self_cmp.up_avg, self_cmp.down_avg) == (0.0, 0.0, 0.0)
    errs_d, errs_t = paired_headline_errors(grid.results["dragonnet"], grid.results["tarnet"])
    assert len(errs_d) == len(errs_t) == 2
    assert grid.comparisons["dragonnet"].n_pairs == 2
    # No pair for a replication the baseline lacks, for an unusable run, or
    # for a run without its headline estimate.
    dragon, tar = grid.results["dragonnet"], grid.results["tarnet"]
    first, second = tar.runs
    for runs in [(first,), (first, replace(second, overlap=True)),
                 (first, replace(second, abs_errors={}))]:
        assert paired_headline_errors(dragon, replace(tar, runs=runs)) == (errs_d[:1], errs_t[:1])


def test_a_grid_reports_treg_only_for_its_treg_methods():
    cfg = tiny_config(replications=1, treg=True, estimators=("Q", "TREG"))
    methods = (("tarnet", "tarnet", False), ("dragonnet+treg", "dragonnet", True))
    grid = run_grid(cfg, methods=methods, baseline="tarnet")
    tags = {label: (res.config.estimators, set(res.runs[0].reports["all"]))
            for label, res in grid.results.items()}
    assert tags == {"tarnet": (("Q",), {"Q"}), "dragonnet+treg": (("Q", "TREG"), {"Q", "TREG"})}
    assert grid.comparisons["dragonnet+treg"].n_pairs == 1  # its TREG against tarnet's Q


def test_grid_methods_see_identical_datasets():
    cfg = tiny_config(replications=1)
    methods = (("tarnet", "tarnet", False), ("dragonnet", "dragonnet", False))
    grid = run_grid(cfg, methods=methods, baseline="tarnet")
    a = grid.results["tarnet"].runs[0]
    b = grid.results["dragonnet"].runs[0]
    assert a.truth == b.truth
    assert a.dim == b.dim  # same drawn rows -> same raw contrast


def test_grid_rejects_unknown_baseline():
    with pytest.raises(ConfigError):
        run_grid(tiny_config(), baseline="mystery")


# --- sweeps ---------------------------------------------------------------------

def test_subsample_rate_one_reproduces_the_full_experiment():
    cfg = tiny_config(replications=2)
    full = run_experiment(cfg)
    swept = subsample_sweep(cfg, [1.0])[1.0]
    for a, b in zip(full.runs, swept.runs):
        assert strip_wall_time(a) == strip_wall_time(b)
    assert full.summary == swept.summary


def test_subsample_rates_validated():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        subsample_sweep(cfg, [0.0])
    with pytest.raises(ConfigError):
        subsample_sweep(cfg, [1.5])
    with pytest.raises(ConfigError):
        # 0.1 * 120 = 12 rows, below the floor
        subsample_sweep(cfg, [0.1])


def test_subsample_keeps_nested_row_sets():
    cfg = tiny_config(dgp={"kind": "lin", "n": 400, "p": 3, "tau": 1.0})
    ss = np.random.SeedSequence([cfg.base_seed, 0])
    _, _, _, sub = ss.spawn(4)
    perm = np.random.default_rng(sub).permutation(400)
    small = set(np.sort(perm[:200]).tolist())
    large = set(np.sort(perm[:300]).tolist())
    assert small < large


def test_truncation_sweep_trains_once_per_replication():
    cfg = tiny_config(replications=2)
    levels = ((0.01, 0.99), (0.1, 0.9))
    sweep = truncation_sweep(cfg, levels)
    assert set(sweep) == {(0.01, 0.99), (0.1, 0.9)}
    a, b = sweep[(0.01, 0.99)].runs[0], sweep[(0.1, 0.9)].runs[0]
    # same trained model underneath: heldout diagnostics agree exactly
    assert a.heldout_mse == b.heldout_mse
    assert a.trim_bounds == (0.01, 0.99) and b.trim_bounds == (0.1, 0.9)
    n_wide = a.reports["all"]["Q"].n_used
    n_narrow = b.reports["all"]["Q"].n_used
    assert n_narrow <= n_wide


def test_truncation_sweep_matches_single_runs():
    cfg = tiny_config(replications=1)
    sweep = truncation_sweep(cfg, ((0.01, 0.99),))
    single = run_experiment(cfg)
    assert strip_wall_time(sweep[(0.01, 0.99)].runs[0]) == strip_wall_time(single.runs[0])


def test_truncation_sweep_records_empty_levels_without_crashing():
    # bounds so tight that every row trims away at some level
    cfg = tiny_config(replications=1)
    sweep = truncation_sweep(cfg, ((0.499, 0.501), (0.01, 0.99)))
    narrow = sweep[(0.499, 0.501)].runs[0]
    assert narrow.estimation_errors  # recorded, not raised
    wide = sweep[(0.01, 0.99)].runs[0]
    assert wide.reports["all"]


def _record_calls(monkeypatch, name: str) -> list:
    """Swap bench.<name> for a wrapper logging (args, result) of each call."""
    log = []
    real = getattr(bench, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append((args, out))
        return out

    monkeypatch.setattr(bench, name, wrapped)
    return log


def test_truncation_sweep_estimates_a_repeated_level_once(monkeypatch):
    estimates = _record_calls(monkeypatch, "apply_estimators")
    sweep = truncation_sweep(tiny_config(replications=1), [(0.01, 0.99), (0.01, 0.99), (0.1, 0.9)])
    assert list(sweep) == [(0.01, 0.99), (0.1, 0.9)]
    assert len(estimates) == 6  # 2 levels x 3 scopes (all, in, out)


def test_truncation_sweep_reports_equal_estimators_on_a_fresh_prediction(monkeypatch):
    # Each report must equal the array estimators applied to one direct
    # predict on its scope's kept rows.  Slicing those rows out of a
    # prediction on more rows does not pass: BLAS rounds differently at
    # other row counts.
    splits = _record_calls(monkeypatch, "split")
    fits = _record_calls(monkeypatch, "train_architecture")
    level = (0.2, 0.8)
    cfg = tiny_config(
        dgp={"kind": "lin", "n": 200, "p": 4, "tau": 1.0, "confounding_strength": 2.0},
        treg=True, replications=2, estimators=ESTIMATOR_TAGS,
        train=replace(TINY_TRAIN, epochs=10, shared_widths=(32,), outcome_widths=(16,)),
    )
    runs = truncation_sweep(cfg, (level,))[level].runs
    dropped = 0
    for run, ((dataset, _), idx), (_, model) in zip(runs, splits, fits, strict=True):
        scopes = {
            "all": np.arange(dataset.n),
            "in": np.sort(np.concatenate([idx.train, idx.validation])),
            "out": idx.test,
        }
        assert set(run.reports) == set(scopes)
        for scope, rows in scopes.items():
            X, t, y = dataset.X[rows], dataset.t[rows].astype(np.float64), dataset.y[rows]
            tr = trim(model.g(X), level)
            dropped += tr.dropped_low + tr.dropped_high
            q0, q1, g = model.predict(X[tr.kept])
            tk, yk = t[tr.kept], y[tr.kept]
            psi_plug_in = psi_q(q0, q1)
            results = {
                "Q": (psi_plug_in, influence_curve(q0, q1, g, tk, yk, psi_plug_in)),
                "AIPTW": psi_aiptw(q0, q1, g, tk, yk),
                "TMLE": psi_tmle(q0, q1, g, tk, yk)[:2],
                "TREG": psi_treg(q0, q1, g, tk, yk, model.epsilon_hat),
            }
            for tag, (psi, iv) in results.items():
                assert run.reports[scope][tag] == EstimateReport(
                    estimator_tag=tag, psi_hat=psi,
                    n_used=int(tr.kept.size), trim_bounds=tr.bounds, mean_phi=iv.mean_phi,
                    dropped_low=tr.dropped_low, dropped_high=tr.dropped_high,
                )
    assert dropped > 0


def test_heldout_metrics_take_one_prediction(monkeypatch):
    calls = []

    def q0(X):
        calls.append(len(X))
        return np.zeros(len(X))

    model = FittedModel.from_functions(q0, lambda X: np.ones(len(X)),
                                       lambda X: np.full(len(X), 0.5))
    monkeypatch.setattr(bench, "train_architecture", lambda *args, **kwargs: model)
    monkeypatch.setattr(bench, "apply_estimators", lambda *args, **kwargs: {})
    run = run_replication(tiny_config(), 0)[0]
    assert len(calls) == 1
    assert run.heldout_mse is not None and run.heldout_accuracy is not None


def test_a_replication_predicts_each_row_set_once(monkeypatch):
    # The scope rows are predicted once for both levels and the held-out
    # diagnostics; only the level that trims rows predicts its kept rows.
    predicted = []
    real = bench.train_architecture

    def counting_fit(*args, **kwargs):
        model = real(*args, **kwargs)

        def predict(X):
            predicted.append(np.asarray(X).tobytes())
            return model.predict(X)

        return replace(model, predict=predict)

    monkeypatch.setattr(bench, "train_architecture", counting_fit)
    cfg = tiny_config(dgp={"kind": "lin", "n": 200, "p": 4, "tau": 1.0, "confounding_strength": 2.0})
    keep_all, narrow = run_replication(cfg, 0, bounds_list=((0.0, 1.0), (0.4, 0.6)))
    for scope in ("all", "in", "out"):
        assert keep_all.reports[scope]["Q"].n_used > narrow.reports[scope]["Q"].n_used
    assert len(predicted) == 6  # 3 scopes, then 3 kept-row sets at the narrow level
    assert len(set(predicted)) == 6


def test_a_diverged_fit_records_every_level_without_estimating(monkeypatch):
    levels = ((0.01, 0.99), (0.1, 0.9))
    fitted = run_replication(tiny_config(), 0, bounds_list=levels)

    def diverge(*args, **kwargs):
        raise TrainingDivergedError(1, "total", float("nan"))

    monkeypatch.setattr(bench, "train_architecture", diverge)
    estimates = _record_calls(monkeypatch, "apply_estimators")
    runs = run_replication(tiny_config(), 0, bounds_list=levels)
    assert [r.trim_bounds for r in runs] == list(levels)
    assert estimates == []
    for run, ref in zip(runs, fitted):
        assert run.diverged == "training diverged at epoch 1: total became nan"
        assert run.reports == run.abs_errors == run.estimation_errors == {}
        assert run.heldout_mse is None and run.heldout_accuracy is None
        assert run.overlap is False
        assert run.truth == ref.truth == pytest.approx(1.0)
        assert run.dim is not None and run.dim_abs_error is not None
        assert (run.dim, run.dim_abs_error) == (ref.dim, ref.dim_abs_error)
        assert not run.usable()


def test_truncation_levels_validated():
    with pytest.raises(ConfigError):
        truncation_sweep(tiny_config(), ((0.9, 0.1),))


# --- parallelism ----------------------------------------------------------------

def test_parallel_execution_matches_serial():
    serial = run_experiment(tiny_config(replications=3, workers=1))
    parallel = run_experiment(tiny_config(replications=3, workers=2))
    for a, b in zip(serial.runs, parallel.runs):
        assert strip_wall_time(a) == strip_wall_time(b)
    assert serial.summary == parallel.summary


def test_grid_and_subsample_sweep_on_two_workers_match_serial():
    serial, parallel = (tiny_config(replications=2, workers=w) for w in (1, 2))
    methods = (("tarnet", "tarnet", False), ("dragonnet+treg", "dragonnet", True))
    pairs = [(run_grid(serial, methods).results, run_grid(parallel, methods).results),
             (subsample_sweep(serial, [0.5, 1.0]), subsample_sweep(parallel, [0.5, 1.0]))]
    for a, b in pairs:
        assert list(a) == list(b)
        for key in a:
            assert list(map(strip_wall_time, a[key].runs)) == list(map(strip_wall_time, b[key].runs))


class _LazyFuture(Future):
    """Runs its task when its result is asked for, unless it was cancelled."""

    def __init__(self, task):
        super().__init__()
        self.task = task

    def run(self):
        if not self.done() and self.set_running_or_notify_cancel():
            try:
                self.set_result(self.task())
            except Exception as err:
                self.set_exception(err)

    def result(self, timeout=None):
        self.run()
        return super().result(timeout)


class _LazyPool:
    """Stands in for ProcessPoolExecutor and counts itself in `opened`.  Like a
    real pool, leaving it runs every task that was not cancelled."""

    opened = 0

    def __init__(self, max_workers):
        type(self).opened += 1
        self.futures = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fut in self.futures:
            fut.run()
        return False

    def submit(self, fn, *args):
        self.futures.append(_LazyFuture(lambda: fn(*args)))
        return self.futures[-1]


def _log_replications(monkeypatch, fail_first=False) -> list:
    """Log (method, replication) of each run_replication call as it starts."""
    log = []
    real = bench.run_replication

    def logged(config, replication, *args):
        log.append((config.method_label, replication))
        if fail_first and len(log) == 1:
            raise ConfigError("the first task fails")
        return real(config, replication, *args)

    monkeypatch.setattr(bench, "run_replication", logged)
    return log


def test_a_grid_runs_every_task_through_one_pool(monkeypatch):
    monkeypatch.setattr(_LazyPool, "opened", 0)
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _LazyPool)
    log = _log_replications(monkeypatch)
    grid = run_grid(tiny_config(replications=2, workers=2))
    assert _LazyPool.opened == 1
    assert log == [(label, r) for label in grid.results for r in (0, 1)]


def test_a_grid_task_error_cancels_the_tasks_not_yet_started(monkeypatch):
    monkeypatch.setattr(bench, "ProcessPoolExecutor", _LazyPool)
    log = _log_replications(monkeypatch, fail_first=True)
    with pytest.raises(ConfigError, match="the first task fails"):
        run_grid(tiny_config(replications=2, workers=2))
    assert log == [("tarnet", 0)]


def test_subsample_sweep_runs_a_repeated_rate_once(monkeypatch):
    log = _log_replications(monkeypatch)
    sweep = subsample_sweep(tiny_config(replications=2), [1.0, 1, 1.0])
    assert list(sweep) == [1.0]
    assert log == [("dragonnet", 0), ("dragonnet", 1)]


def test_subsample_sweep_checks_every_rate_before_any_replication(monkeypatch):
    log = _log_replications(monkeypatch)
    with pytest.raises(ConfigError, match="1.5"):
        subsample_sweep(tiny_config(), [1.0, 1.5])
    assert log == []


@pytest.mark.parametrize("rate", ["x", None])
def test_a_malformed_subsample_rate_is_a_config_error(monkeypatch, rate):
    log = _log_replications(monkeypatch)
    with pytest.raises(ConfigError, match="malformed subsample rate"):
        subsample_sweep(tiny_config(), [1.0, rate])
    assert log == []


# --- reports --------------------------------------------------------------------

def test_emit_report_summary_columns(tmp_path):
    result = run_experiment(tiny_config(replications=2))
    paths = emit_report(result, tmp_path / "out")
    lines = paths["summary"].read_text().strip().splitlines()
    assert lines[0] == "method,estimator,mean_abs_err,std_err,n_runs"
    assert len(lines) == 1 + len(result.summary.rows)
    first = lines[1].split(",")
    assert first[0] == "dragonnet" and first[1] == "Q"
    assert int(first[4]) == 2


def test_report_roundtrip_preserves_runs_and_summary(tmp_path):
    result = run_experiment(tiny_config(replications=2))
    paths = emit_report(result, tmp_path / "out")
    loaded = load_report(paths["runs"])
    again = loaded["dragonnet"]
    assert again.summary == result.summary
    for a, b in zip(result.runs, again.runs):
        assert a.to_dict() == b.to_dict()
    rewritten = emit_report(again, tmp_path / "again")
    for name, path in paths.items():
        assert rewritten[name].read_bytes() == path.read_bytes()


def test_load_report_reads_a_runs_json_written_before_blas_threads(tmp_path):
    # emit_report(run_experiment(tiny_config(replications=2))) of a version
    # whose reports did not record the BLAS thread count
    old = DATA / "runs_without_blas_threads.json"
    loaded = load_report(old)["dragonnet"]
    fresh = run_experiment(tiny_config(replications=2))
    assert loaded.config == fresh.config
    assert loaded.summary == fresh.summary
    rewritten = json.loads(emit_report(loaded, tmp_path)["runs"].read_text())
    assert rewritten == {**json.loads(old.read_text()), "blas_threads": blas_threads()}


MALFORMED_REPORTS = {
    "cut-off": lambda text: text[:-10],
    "no-methods": lambda text: text.replace('"methods"', '"levels"'),
    "no-runs": lambda text: text.replace('"runs"', '"rns"'),
    "run-key-typo": lambda text: text.replace('"dim_abs_error"', '"dim_abs_err"'),
    "no-psi-hat": lambda text: text.replace('"psi_hat"', '"psi"'),
}


@pytest.mark.parametrize("case", MALFORMED_REPORTS)
def test_load_report_of_a_malformed_file_raises_config_error(tmp_path, case):
    path = emit_report(run_experiment(tiny_config(replications=1)), tmp_path)["runs"]
    path.write_text(MALFORMED_REPORTS[case](path.read_text()))
    with pytest.raises(ConfigError):
        load_report(path)


def test_run_from_dict_names_a_missing_field():
    d = run_replication(tiny_config(architecture="oracle", replications=1), 0)[0].to_dict()
    del d["reports"]
    with pytest.raises(ConfigError, match="reports"):
        RunResult.from_dict(d)


def test_emit_report_grid_bundle(tmp_path):
    cfg = tiny_config(replications=1)
    grid = run_grid(cfg, methods=(("tarnet", "tarnet", False), ("dragonnet", "dragonnet", False)),
                    baseline="tarnet")
    paths = emit_report(grid, tmp_path / "grid")
    bundle = json.loads(paths["runs"].read_text())
    assert set(bundle["methods"]) == {"tarnet", "dragonnet"}
    assert bundle["baseline"] == "tarnet"
    assert "dragonnet" in bundle["comparisons"]
    assert bundle["blas_threads"] == blas_threads()
    lines = paths["summary"].read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # two methods x two estimators


def test_emit_report_refuses_empty_results(tmp_path):
    cfg = tiny_config(replications=1)
    runs = [replace(run_replication(cfg, 0)[0], overlap=True)]
    empty = run_experiment(cfg)
    empty = type(empty)(config=cfg, runs=tuple(runs))
    out = tmp_path / "never"
    with pytest.raises(ConfigError):
        emit_report(empty, out)
    assert not out.exists()


def test_emit_sweep_report(tmp_path):
    cfg = tiny_config(replications=1)
    sweep = truncation_sweep(cfg, ((0.01, 0.99), (0.1, 0.9)))
    paths = emit_sweep_report(sweep, tmp_path / "sw", "trim")
    lines = paths["csv"].read_text().strip().splitlines()
    assert lines[0] == "sweep,method,estimator,mean_abs_err,std_err,n_runs"
    assert any(line.startswith("0.01:0.99,") for line in lines[1:])
    bundle = json.loads(paths["json"].read_text())
    assert bundle["kind"] == "trim"
    assert set(bundle["levels"]) == {"0.01:0.99", "0.1:0.9"}
    assert bundle["blas_threads"] == blas_threads()
    with pytest.raises(ConfigError, match="empty sweep"):
        emit_sweep_report({}, tmp_path / "empty", "trim")
    assert not (tmp_path / "empty").exists()


def test_format_helpers_render_tables():
    cfg = tiny_config(replications=1)
    text = format_summary(run_experiment(cfg))
    assert "mean_abs_err" in text and "dragonnet" in text
    sweep = truncation_sweep(cfg, ((0.01, 0.99),))
    table = format_truncation_table(sweep)
    assert "[0.01,0.99]" in table
