"""Replication harness: seeding, pairing, sweeps and reports.

Experiments here run tiny networks for a few epochs; only plumbing is
under test, not estimation quality.
"""

import json
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
from dragonbench.datagen import lin_true_propensity, write_csv
from dragonbench.errors import ConfigError
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


@pytest.mark.parametrize("split, match", [
    ((0.5, 0.5, 0.5), "proportions must sum to 1"),
    ((-0.5, 1.0, 0.5), "train proportion must be >= 0"),
    ((0.5, 0.5), "split needs"),
])
def test_config_rejects_a_bad_split_when_built(split, match):
    with pytest.raises(ConfigError, match=match):
        tiny_config(split=split)


def test_config_roundtrip():
    cfg = tiny_config(treg=True, estimators=("TREG", "TMLE"), workers=2)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_typos_name_the_unknown_keys():
    d = tiny_config().to_dict()
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
    d = {**tiny_config().to_dict(), **WRONGLY_TYPED[case]}
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
], ids=["missing", "malformed", "irrelevant-missing", "unknown", "csv-unknown"])
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
    np.testing.assert_array_equal(data.g_true, lin_true_propensity(data.X, 2.0))
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


def test_format_helpers_render_tables():
    cfg = tiny_config(replications=1)
    text = format_summary(run_experiment(cfg))
    assert "mean_abs_err" in text and "dragonnet" in text
    sweep = truncation_sweep(cfg, ((0.01, 0.99),))
    table = format_truncation_table(sweep)
    assert "[0.01,0.99]" in table
