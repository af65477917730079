"""Replication harness: run methods over seeded replications and compare.

A replication draws a dataset, splits it, trains one method, trims on the
estimated propensity and applies the estimator suite.  Per-replication
seeds derive from SeedSequence([base_seed, replication]) spawned into
four independent child streams (data, split, training, subsampling), so
results are reproducible run-to-run and identical whether replications
execute serially or in a process pool.  Wall-clock time is recorded per
run but is the one field excluded from determinism claims.  A config is
checked whole when built, its `dgp` spec by `read_dgp` and its estimator
tags by `estimators.check_tags`, so a malformed one fails before any fit.

Absolute errors are measured against the dataset's sample average effect
(mean(mu1 - mu0)); data without mu0/mu1 (a CSV without those columns) has
no truth, so its runs record no errors.  Estimates are computed over three
row scopes: "in" (train plus validation), "out" (test) and "all"; summary
tables aggregate the "all" scope.  Replications whose heldout treatment
accuracy exceeds 0.90 are flagged as near-overlap-violations and excluded
from summaries while staying in the raw results.
"""

from __future__ import annotations

import csv
import inspect
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .blas import blas_threads
from .datagen import (
    Dataset,
    SplitIndices,
    SplitSpec,
    gen_dgp_ihdp_like,
    gen_dgp_irrelevant,
    gen_dgp_lin,
    load_csv,
    split,
)
from .errors import ConfigError, EstimationError, TrainingDivergedError
from .estimators import (
    TAG_Q,
    TAG_TMLE,
    TAG_TREG,
    EstimateReport,
    apply_estimators,
    check_tags,
    diff_in_means,
    overlap_flag,
    propensity_accuracy,
    read_trim_bounds,
)
from .models import ARCHITECTURES, FittedModel
from .objectives import select_observed, squared_error_term
from .schema import as_count, as_number, check_bools, check_keys, config_values, plain
from .train import TrainConfig, train_architecture

ARCH_ORACLE = "oracle"
MIN_SUBSAMPLE_ROWS = 50
DEFAULT_TRUNCATION_LEVELS = ((0.01, 0.99), (0.03, 0.97), (0.1, 0.9))
SUMMARY_SCOPE = "all"

# (label, architecture, treg) for the default comparison grid.
DEFAULT_GRID = (
    ("tarnet", "tarnet", False),
    ("tarnet+treg", "tarnet", True),
    ("dragonnet", "dragonnet", False),
    ("dragonnet+treg", "dragonnet", True),
)
DEFAULT_BASELINE = "tarnet"

# dgp kind -> (generator, defaults for keys the spec may leave out).
DGP_GENERATORS = {
    "lin": (gen_dgp_lin, {"tau": 1.0, "confounding_strength": 1.0, "noise_sd": 1.0}),
    "irrelevant": (gen_dgp_irrelevant, {"tau": 1.0}),
    "ihdp_like": (gen_dgp_ihdp_like, {"n": 747, "p": 25}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One method's run settings; `dgp` names the data source.

    dgp kinds: {"kind": "lin", n, p, tau, confounding_strength, noise_sd},
    {"kind": "irrelevant", n, p_confound, p_outcome_only, tau, ...},
    {"kind": "ihdp_like", n, p, ...} and {"kind": "csv", "paths": [...]}
    where replication i reads paths[i].  The objective weights are `alpha`
    and `beta`, not `train`'s, and the seed is `base_seed`, not `train`'s;
    `treg` needs beta > 0 and a trained architecture, which needs a train
    share > 0; TREG among `estimators` needs `treg`.
    """

    dgp: dict
    architecture: str = "dragonnet"
    treg: bool = False
    alpha: float = 1.0
    beta: float = 1.0
    trim: tuple[float, float] = (0.01, 0.99)
    split: tuple[float, float, float] = (1.0, 0.0, 0.0)
    replications: int = 25
    base_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    estimators: "tuple[str, ...] | None" = None
    workers: int = 1

    @config_values("experiment config")
    def __post_init__(self):
        check_bools(self)
        if not isinstance(self.train, TrainConfig):
            raise ConfigError("train must be a TrainConfig or a dict of its fields")
        if (self.train.alpha, self.train.beta) != (TrainConfig.alpha, TrainConfig.beta):
            raise ConfigError("train alpha and beta are not used: set alpha and beta at the "
                              "top level of the experiment config")
        replace(self.train, alpha=self.alpha, beta=self.beta)  # TrainConfig checks the weights
        if self.train.seed is not None:
            raise ConfigError("train seed is not used: each replication's training seed "
                              "derives from base_seed, so set base_seed")
        if self.architecture not in (*ARCHITECTURES, ARCH_ORACLE):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        if self.treg and self.architecture in ("nednet", ARCH_ORACLE):
            raise ConfigError(f"{self.architecture} does not take the targeted-regularization term")
        if self.treg and self.beta == 0:
            raise ConfigError("treg needs beta > 0")
        if as_count(self.replications, "replications") < 1:
            raise ConfigError("replications must be >= 1")
        if as_count(self.base_seed, "base_seed") < 0:
            raise ConfigError("base_seed must be >= 0")
        if as_count(self.workers, "workers") < 1:
            raise ConfigError("workers must be >= 1")
        read_dgp(self.dgp, self.replications)
        object.__setattr__(self, "trim", read_trim_bounds(self.trim))
        object.__setattr__(self, "split", tuple(as_number(q, "split proportion") for q in self.split))
        if len(self.split) != 3:
            raise ConfigError("split needs (train, validation, test) proportions")
        SplitSpec(*self.split)
        if self.split[0] == 0 and self.architecture != ARCH_ORACLE:
            raise ConfigError(f"{self.architecture} trains, so its train proportion must be > 0")
        if self.estimators is not None:
            object.__setattr__(self, "estimators", check_tags(self.estimators, self.treg))

    @property
    def method_label(self) -> str:
        return self.architecture + ("+treg" if self.treg else "")

    def estimator_tags(self) -> tuple[str, ...]:
        if self.estimators is not None:
            return self.estimators
        return (self.headline_tag(), TAG_TMLE)

    def headline_tag(self) -> str:
        return TAG_TREG if self.treg else TAG_Q

    def effective_train_config(self) -> TrainConfig:
        return replace(
            self.train, alpha=self.alpha, beta=self.beta if self.treg else 0.0
        )

    @classmethod
    @config_values("experiment config")
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_keys(cls, d, "experiment config")
        d = dict(d)
        if isinstance(d.get("train"), dict):
            d["train"] = TrainConfig.from_dict(d["train"])
        return cls(**d)


@dataclass(frozen=True)
class RunResult:
    """Everything one replication produced, before any aggregation."""

    replication: int
    method: str
    trim_bounds: tuple[float, float]
    truth: "float | None"
    reports: dict  # scope -> {tag: EstimateReport}
    abs_errors: dict  # scope -> {tag: float}
    estimation_errors: dict  # scope -> message, when estimation failed
    dim: "float | None"
    dim_abs_error: "float | None"
    heldout_mse: "float | None"
    heldout_accuracy: "float | None"
    overlap: bool
    diverged: "str | None"
    wall_time: float

    def to_dict(self) -> dict:  # the benchmark under perfbench/ calls this name
        return plain(self)

    @classmethod
    @config_values("run")
    def from_dict(cls, d: dict) -> "RunResult":
        check_keys(cls, d, "run")
        reports = {scope: {tag: EstimateReport.from_dict(r) for tag, r in by_tag.items()}
                   for scope, by_tag in d["reports"].items()}
        return cls(**{**d, "trim_bounds": tuple(d["trim_bounds"]), "reports": reports})

    def usable(self) -> bool:
        return self.diverged is None and not self.overlap and self.truth is not None


@dataclass(frozen=True)
class SummaryRow:
    method: str
    estimator: str
    mean_abs_err: float
    std_err: float
    n_runs: int


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]


@dataclass(frozen=True)
class ImprovementStats:
    """Share and size of paired improvements of a method over a baseline.

    A pair counts as improved when the method's absolute error is strictly
    below the baseline's; ties count as neither improved nor degraded.
    up_avg is the mean error reduction over improved pairs, down_avg the
    mean increase over degraded ones; both are 0 when their set is empty.
    """

    pct_improved: float
    up_avg: float
    down_avg: float
    n_pairs: int


@dataclass(frozen=True)
class ExperimentResult:
    """One method's runs; reports store (config, runs) and derive the summary."""

    config: ExperimentConfig
    runs: tuple[RunResult, ...]

    @property
    def summary(self) -> SummaryTable:
        return summarize(self.config, self.runs)


@dataclass(frozen=True)
class GridResult:
    results: dict  # label -> ExperimentResult
    comparisons: dict  # label -> ImprovementStats vs baseline (headline errors)
    baseline: str


def read_dgp(dgp: dict, replications: int = 1):
    """Check a `dgp` spec for `replications` replications; returns
    draw(rng, replication) -> that replication's Dataset.

    A generator kind takes its generator's parameters, bar `rng`, as keys,
    with the defaults of DGP_GENERATORS or else of the generator; a missing
    or unknown key, or a value that `as_count` or `as_number` refuses, is a
    ConfigError that names it, and so are a `dgp` that is not a dict and a
    csv spec with fewer `paths` than replications.  The generators check
    their values' ranges (`n` >= 1, `noise_sd` >= 0, ...) when they draw.
    """
    if not isinstance(dgp, dict):
        raise ConfigError(f"dgp must be a JSON object, got {type(dgp).__name__}")
    kind = dgp.get("kind")
    if kind == "csv":
        check_keys(("kind", "paths"), dgp, "csv dgp")
        paths = dgp.get("paths")
        if not (isinstance(paths, list) and paths and all(isinstance(q, str) for q in paths)):
            raise ConfigError(f"csv dgp needs 'paths', a nonempty list of file names, got {paths!r}")
        if replications > len(paths):
            raise ConfigError(f"csv dgp has {len(paths)} paths for {replications} replications")
        return lambda rng, replication: load_csv(paths[replication])
    if kind not in DGP_GENERATORS:
        raise ConfigError(f"unknown dgp kind {kind!r}")
    generator, defaults = DGP_GENERATORS[kind]
    signature = inspect.signature(generator, eval_str=True)
    params = {k: p for k, p in signature.parameters.items() if k != "rng"}
    check_keys({"kind", *params}, dgp, f"{kind} dgp")
    spec = {**defaults, **dgp}
    kwargs = {}
    for name, param in params.items():
        if name in spec:
            read = as_count if param.annotation is int else as_number
            with config_values(f"{kind} dgp key {name!r}"):
                kwargs[name] = read(spec[name], f"{kind} dgp key {name!r}")
        elif param.default is param.empty:
            raise ConfigError(f"{kind} dgp needs the key {name!r}")
    return lambda rng, replication: generator(rng=rng, **kwargs)


def make_dataset(dgp: dict, rng: np.random.Generator, replication: int) -> Dataset:
    """Draw one replication's dataset from a `dgp` spec, checked by `read_dgp`."""
    return read_dgp(dgp, replication + 1)(rng, replication)


def _replication_streams(base_seed: int, replication: int):
    ss = np.random.SeedSequence([base_seed, replication])
    data_c, split_c, train_c, sub_c = ss.spawn(4)
    return (
        np.random.default_rng(data_c),
        int(split_c.generate_state(1, np.uint64)[0]),
        np.random.default_rng(train_c),
        np.random.default_rng(sub_c),
    )


def _scope_indices(n: int, idx: SplitIndices) -> dict[str, np.ndarray]:
    scopes = {
        SUMMARY_SCOPE: np.arange(n),
        "in": np.sort(np.concatenate([idx.train, idx.validation])),
    }
    if idx.test.size:
        scopes["out"] = idx.test
    return scopes


def _oracle_model(dataset: Dataset) -> FittedModel:
    if dataset.mu0 is None or dataset.g_true is None:
        raise ConfigError("oracle mode needs a dataset with mu0/mu1 and g_true")
    return FittedModel.from_values(dataset.X, dataset.mu0, dataset.mu1, dataset.g_true)


def _predict_once(model: FittedModel) -> FittedModel:
    """`model` with a predict that returns its earlier result for an X of the
    same shape and bytes, so each row set of a replication is predicted once.
    Rows are never sliced out of a larger prediction: BLAS rounds by row count."""
    seen = {}

    def predict(X):
        X = np.asarray(X, dtype=np.float64)
        key = (X.shape, X.tobytes())
        if key not in seen:
            seen[key] = model.predict(X)
        return seen[key]

    return replace(model, predict=predict)


@config_values("subsample rate")
def _subsample_rate(rate) -> float:
    if not 0.0 < as_number(rate, "subsample rate") <= 1.0:
        raise ConfigError(f"subsample rate must be in (0, 1], got {rate}")
    return float(rate)


def run_replication(
    config: ExperimentConfig,
    replication: int,
    subsample_rate: "float | None" = None,
    bounds_list: "tuple | None" = None,
) -> list[RunResult]:
    """Run one replication; returns one RunResult per trim level.

    `bounds_list` defaults to (config.trim,).  Training happens once; only
    the trimming/estimation stage repeats per level, and a row set already
    predicted in this replication is not predicted again.  `wall_time`
    covers the draw and the fit, not prediction or estimation.
    """
    levels = tuple(bounds_list) if bounds_list else (config.trim,)
    started = time.perf_counter()
    data_rng, split_seed, train_rng, sub_rng = _replication_streams(
        config.base_seed, replication
    )
    dataset = make_dataset(config.dgp, data_rng, replication)
    if subsample_rate is not None:
        subsample_rate = _subsample_rate(subsample_rate)
        k = int(round(subsample_rate * dataset.n))
        if k < MIN_SUBSAMPLE_ROWS:
            raise ConfigError(
                f"subsample rate {subsample_rate} keeps {k} rows; need >= {MIN_SUBSAMPLE_ROWS}"
            )
        perm = sub_rng.permutation(dataset.n)
        dataset = dataset.subset(np.sort(perm[:k]))
    idx = split(dataset, SplitSpec(*config.split, seed=split_seed))
    diverged = None
    if config.architecture == ARCH_ORACLE:
        model = _oracle_model(dataset)
    else:
        try:
            model = train_architecture(
                config.architecture,
                dataset.subset(idx.train),
                config.effective_train_config(),
                rng=train_rng,
                val_data=dataset.subset(idx.validation) if idx.validation.size else None,
            )
        except TrainingDivergedError as err:
            model, diverged = None, str(err)
    wall = time.perf_counter() - started

    scopes = _scope_indices(dataset.n, idx)
    truth = dataset.sample_ate
    heldout_mse = heldout_acc = None
    if model is None:
        scopes = {}  # a diverged fit estimates nothing
    else:
        model = _predict_once(model)
        held = scopes.get("out", idx.validation if idx.validation.size else scopes[SUMMARY_SCOPE])
        q0h, q1h, gh = model.predict(dataset.X[held])
        th = dataset.t[held]
        heldout_mse = float(squared_error_term(select_observed(q0h, q1h, th), dataset.y[held]))
        heldout_acc = propensity_accuracy(gh, th)
    dim = diff_in_means(dataset.t, dataset.y) if 0 < dataset.t.sum() < dataset.n else None
    shared = dict(  # the RunResult fields every trim level has in common
        replication=replication, method=config.method_label, truth=truth, dim=dim,
        dim_abs_error=None if dim is None or truth is None else abs(dim - truth),
        heldout_mse=heldout_mse, heldout_accuracy=heldout_acc,
        overlap=heldout_acc is not None and overlap_flag(heldout_acc),
        diverged=diverged, wall_time=wall,
    )
    runs = []
    for bounds in levels:
        reports, errors = {}, {}
        for scope, rows in scopes.items():
            try:
                reports[scope] = apply_estimators(model, dataset.X[rows], dataset.t[rows],
                                                  dataset.y[rows], bounds, config.estimator_tags())
            except EstimationError as err:
                errors[scope] = str(err)
        abs_errors = {} if truth is None else {
            scope: {tag: abs(rep.psi_hat - truth) for tag, rep in by_tag.items()}
            for scope, by_tag in reports.items()
        }
        runs.append(RunResult(trim_bounds=bounds, reports=reports, abs_errors=abs_errors,
                              estimation_errors=errors, **shared))
    return runs


def _usable_errors(runs, tag: str, scope: str) -> dict[int, float]:
    """{replication: absolute error of `tag` in `scope`} over the usable runs
    that have one, in run order."""
    return {r.replication: r.abs_errors[scope][tag] for r in runs
            if r.usable() and tag in r.abs_errors.get(scope, {})}


def summarize(
    config: ExperimentConfig, runs, scope: str = SUMMARY_SCOPE
) -> SummaryTable:
    """Mean absolute error per estimator over usable runs, in seed order."""
    rows = []
    for tag in config.estimator_tags():
        errs = list(_usable_errors(runs, tag, scope).values())
        k = len(errs)
        if k == 0:
            continue
        arr = np.asarray(errs)
        std_err = float(arr.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
        rows.append(
            SummaryRow(
                method=config.method_label,
                estimator=tag,
                mean_abs_err=float(arr.mean()),
                std_err=std_err,
                n_runs=k,
            )
        )
    return SummaryTable(rows=tuple(rows))


def _run_all_replications(workers: int, jobs, bounds_list=None) -> list[list[tuple]]:
    """Run every replication of each (config, subsample_rate) job; returns, per
    job and per trim level of `bounds_list` (default: the config's trim), the
    runs in replication order.  With workers > 1 all tasks share one pool."""
    tasks = [(cfg, r, rate, bounds_list) for cfg, rate in jobs for r in range(cfg.replications)]
    if workers == 1:
        done = [run_replication(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_replication, *task) for task in tasks]
            try:
                done = [fut.result() for fut in futures]
            finally:  # after a task error, the tasks not yet started never start
                for fut in futures:
                    fut.cancel()
    done = iter(done)
    return [list(zip(*islice(done, cfg.replications))) for cfg, _ in jobs]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    [[runs]] = _run_all_replications(config.workers, [(config, None)])
    return ExperimentResult(config=config, runs=runs)


def compare_methods(method_errors, baseline_errors) -> ImprovementStats:
    """Paired comparison of per-replication absolute errors vs a baseline."""
    a = np.asarray(method_errors, dtype=np.float64)
    b = np.asarray(baseline_errors, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError(f"error lists must be aligned 1-d sequences, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ConfigError("no pairs to compare")
    improved = a < b
    degraded = a > b
    up = float(np.mean(b[improved] - a[improved])) if improved.any() else 0.0
    down = float(np.mean(a[degraded] - b[degraded])) if degraded.any() else 0.0
    return ImprovementStats(pct_improved=100.0 * float(improved.mean()), up_avg=up,
                            down_avg=down, n_pairs=int(a.size))


def paired_headline_errors(
    result_a: ExperimentResult, result_b: ExperimentResult, scope: str = SUMMARY_SCOPE
) -> tuple[list[float], list[float]]:
    """Headline-estimator errors aligned by replication, keeping pairs where
    both runs are usable."""
    errs_a = _usable_errors(result_a.runs, result_a.config.headline_tag(), scope)
    errs_b = _usable_errors(result_b.runs, result_b.config.headline_tag(), scope)
    both = [rep for rep in errs_a if rep in errs_b]
    return [errs_a[rep] for rep in both], [errs_b[rep] for rep in both]


def run_grid(
    config: ExperimentConfig, methods=DEFAULT_GRID, baseline: str = DEFAULT_BASELINE
) -> GridResult:
    """Run several methods on shared per-replication datasets.

    The data/split/train seeds depend only on (base_seed, replication), so
    every method sees the same drawn datasets and the comparisons pair up.
    Methods without treg report the config's `estimators` bar TREG, and
    every method must report its headline tag, which the comparisons use.
    """
    labels = [m[0] for m in methods]
    if baseline not in labels:
        raise ConfigError(f"baseline {baseline!r} is not in the method grid {labels}")
    tags = config.estimators
    untreg = tags and tuple(tag for tag in tags if tag != TAG_TREG)  # None stays None
    configs = [replace(config, architecture=arch, treg=treg, estimators=tags if treg else untreg)
               for _, arch, treg in methods]
    for label, cfg in zip(labels, configs):
        if cfg.headline_tag() not in cfg.estimator_tags():
            raise ConfigError(f"grid method {label} needs its headline estimator "
                              f"{cfg.headline_tag()} among the estimators, got {list(tags)}")
    per_method = _run_all_replications(config.workers, [(cfg, None) for cfg in configs])
    results = {label: ExperimentResult(cfg, runs)
               for label, cfg, [runs] in zip(labels, configs, per_method)}
    comparisons = {}
    base_result = results[baseline]
    for label in labels:
        errs_m, errs_b = paired_headline_errors(results[label], base_result)
        if errs_m:
            comparisons[label] = compare_methods(errs_m, errs_b)
    return GridResult(results=results, comparisons=comparisons, baseline=baseline)


def subsample_sweep(config: ExperimentConfig, rates) -> dict[float, ExperimentResult]:
    """Re-run the experiment on nested seeded subsamples of each dataset.

    Subset selection uses a dedicated per-replication stream: one
    permutation is drawn and rate r keeps its first round(r * n) entries
    (sorted), so smaller rates are subsets of larger ones and rate 1.0
    reproduces run_experiment exactly.  Each rate is checked to lie in
    (0, 1] before any replication runs.
    """
    rates = list(dict.fromkeys(_subsample_rate(r) for r in rates))  # a repeated rate runs once
    per_rate = _run_all_replications(config.workers, [(config, r) for r in rates])
    return {r: ExperimentResult(config, runs) for r, [runs] in zip(rates, per_rate)}


def truncation_sweep(
    config: ExperimentConfig, levels=DEFAULT_TRUNCATION_LEVELS
) -> dict[tuple[float, float], ExperimentResult]:
    """Estimate under several trim levels without retraining.

    Each replication trains once; the trimming/estimation stage reruns per
    level.  A level that trims away every row is recorded per run in
    `estimation_errors` rather than raising.  Each level is checked, as a
    config's `trim`, before any replication runs; a repeated level runs
    once, and no level at all trains nothing.
    """
    configs = {c.trim: c for c in (replace(config, trim=level) for level in levels)}
    if not configs:  # no level to estimate at, so nothing to train for
        return {}
    [per_level] = _run_all_replications(config.workers, [(config, None)], tuple(configs))
    return {trim: ExperimentResult(c, runs) for (trim, c), runs in zip(configs.items(), per_level)}


# --- reporting ---------------------------------------------------------------

def _by_method(results: "ExperimentResult | GridResult") -> dict[str, ExperimentResult]:
    if isinstance(results, GridResult):
        return results.results
    return {results.config.method_label: results}


def _sweep_label(key) -> str:
    """A sweep key as written in reports: "low:high" for a trim level, else the rate."""
    return f"{key[0]}:{key[1]}" if isinstance(key, tuple) else repr(float(key))


def _write_report(out_dir, csv_name, json_name, results: dict, key_column, bundle: dict):
    """Write the summary CSV and the JSON bundle under out_dir; returns their paths.

    The CSV has one line per summary row of each result in `results`; with
    a `key_column`, each line starts with the result's key.  The bundle
    gains a top-level "blas_threads": the OpenBLAS thread count the run
    computed with, or null when it is unknown.  Refuses to write anything
    when there are no summary rows, so a failed run never leaves a
    half-report behind.
    """
    if not any(res.summary.rows for res in results.values()):
        raise ConfigError("nothing to report: no usable runs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out_dir / csv_name, out_dir / json_name
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(([key_column] if key_column else []) + [f.name for f in fields(SummaryRow)])
        for key, res in results.items():
            for row in res.summary.rows:
                values = [repr(v) if isinstance(v, float) else v for v in astuple(row)]
                writer.writerow(([key] if key_column else []) + values)
    json_path.write_text(json.dumps({**bundle, "blas_threads": blas_threads()}))
    return csv_path, json_path


def emit_report(results: "ExperimentResult | GridResult", out_dir) -> dict[str, Path]:
    """Write summary.csv and runs.json under out_dir; returns the paths."""
    methods = _by_method(results)
    bundle = {"methods": plain(methods)}
    if isinstance(results, GridResult):
        bundle.update(baseline=results.baseline, comparisons=plain(results.comparisons))
    summary, runs = _write_report(out_dir, "summary.csv", "runs.json", methods, None, bundle)
    return {"summary": summary, "runs": runs}


@config_values("report")
def load_report(runs_path) -> dict[str, ExperimentResult]:
    """Rebuild per-method ExperimentResults (summaries recomputed) from runs.json."""
    out = {}
    for label, entry in json.loads(Path(runs_path).read_text())["methods"].items():
        check_keys(ExperimentResult, entry, "report entry")
        runs = tuple(RunResult.from_dict(d) for d in entry["runs"])
        out[label] = ExperimentResult(ExperimentConfig.from_dict(entry["config"]), runs)
    return out


def emit_sweep_report(sweep: dict, out_dir, kind: str) -> dict[str, Path]:
    """Long-format CSV + JSON bundle for a sweep keyed by rate or trim level."""
    levels = {_sweep_label(key): res for key, res in sweep.items()}
    csv_path, json_path = _write_report(out_dir, f"{kind}_sweep.csv", f"{kind}_sweep.json", levels,
                                        "sweep", {"kind": kind, "levels": plain(levels)})
    return {"csv": csv_path, "json": json_path}


def format_summary(results: "ExperimentResult | GridResult") -> str:
    """Plain-text table: one row per method x estimator, plus comparisons."""
    rows = [row for res in _by_method(results).values() for row in res.summary.rows]
    lines = [f"{'method':<18} {'estimator':<10} {'mean_abs_err':>12} {'std_err':>10} {'n':>4}"]
    for r in rows:
        lines.append(
            f"{r.method:<18} {r.estimator:<10} {r.mean_abs_err:>12.4f} {r.std_err:>10.4f} {r.n_runs:>4d}"
        )
    if isinstance(results, GridResult):
        lines.append("")
        lines.append(f"paired comparison vs {results.baseline} (headline estimators):")
        for label, st in results.comparisons.items():
            lines.append(
                f"  {label:<18} improved {st.pct_improved:5.1f}%  "
                f"up_avg {st.up_avg:.4f}  down_avg {st.down_avg:.4f}  pairs {st.n_pairs}"
            )
    return "\n".join(lines)


def format_truncation_table(sweep: dict) -> str:
    """Rows = method/estimator, columns = trim levels, cells = mean (se)."""
    by_key: dict = {}  # (method, estimator) -> {level: row}, in first-seen order
    for level, res in sweep.items():
        for row in res.summary.rows:
            by_key.setdefault((row.method, row.estimator), {}).setdefault(level, row)
    header = f"{'method':<18} {'estimator':<10}" + "".join(
        f" {f'[{lo},{hi}]':>18}" for lo, hi in sweep
    )
    lines = [header]
    for (method, tag), rows in by_key.items():
        cells = [f" {'-':>18}" if row is None
                 else f" {f'{row.mean_abs_err:.4f} ({row.std_err:.4f})':>18}"
                 for row in map(rows.get, sweep)]
        lines.append(f"{method:<18} {tag:<10}" + "".join(cells))
    return "\n".join(lines)
