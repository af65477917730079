"""The benchmark's workloads: seeded inputs, the timed public call, checks.

Each workload is built from a seed.  `call(k)` makes the k-th timed call
and returns its result; the same seed and k always give the same inputs.
`digest` hashes a result with every `wall_time` removed, `check` lists
what is wrong with a result (given its digest), and `outcome` counts the
replications or fits it attempted and how many of them diverged or
recorded estimation errors.

The settings follow the Dragonnet paper's protocols (Shi, Blei & Veitch,
arXiv 1906.02120): the 200/100-wide network on the linear DGP, the IHDP
63/27/10 split with a trim sweep, and the tarnet/dragonnet x treg grid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, replace

import numpy as np

from dragonbench import (
    ESTIMATOR_TAGS,
    TAG_AIPTW,
    TAG_TMLE,
    ExperimentConfig,
    TrainConfig,
    TrainingDivergedError,
    gen_dgp_lin,
    run_grid,
    train_dragonnet,
    truncation_sweep,
)

# The pinned digests below are the results of each workload's reference
# inputs, the ones built from this seed.
REFERENCE_SEED = 0

# Every fit runs exactly this many epochs (patience 0), so a call costs
# the same on every draw and every commit.  With the paper's patience-based
# stop the epoch count depends on the draw (15 to 32 epochs on IHDP-like
# draws), and the calls of one run spread from 2.0 s to 4.2 s.  The sweep
# and grid budgets are the typical stopping points of those protocols.
FIT_EPOCHS = 8
SWEEP_EPOCHS = 25
GRID_EPOCHS = 20
GRID_REPLICATIONS = 2

# The influence curve of AIPTW and TMLE has mean zero by construction.
MEAN_PHI_TOL = 1e-8

# sha256 of each workload's reference result, keyed by the OpenBLAS core
# and thread count: the wide networks round differently with 1 and with 2
# BLAS threads.  A key missing here means the output cannot be compared.
PINNED_DIGESTS = {
    "fit-wide": {
        "SkylakeX/1": "643fdcab41f0844b53cf7c50b819db12c28b92cc42b899abe9648d4b58a48049",
        "SkylakeX/2": "5ecc7f592503ef1cb9159c5a059bb87d0460cb5b9703b49ea69efae45fdfd322",
    },
    "sweep-ihdp": {
        "SkylakeX/1": "0499e7bf54b887c11ac4a6c7210fca36447d555299256dae16fe1d32a67704dc",
        "SkylakeX/2": "81b75e512be77e6aee380dd5271a99988149e9ebb0041d941723ea11e39c906b",
    },
    "grid-parallel": {
        "SkylakeX/1": "cf6117b85f059e629a46e715e2a53abba3d5cd595812ec998174f023093d56f3",
        "SkylakeX/2": "cf6117b85f059e629a46e715e2a53abba3d5cd595812ec998174f023093d56f3",
    },
}


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _call_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _run_dicts(runs) -> list[dict]:
    out = []
    for run in runs:
        d = run.to_dict()
        del d["wall_time"]
        out.append(d)
    return out


def _experiment_dict(result) -> dict:
    return {
        "runs": _run_dicts(result.runs),
        "summary": [asdict(row) for row in result.summary.rows],
    }


def _run_failed(run) -> bool:
    return run.diverged is not None or bool(run.estimation_errors)


def _run_problems(run, tags) -> list[str]:
    """What is wrong with one replication's estimates; nothing if it failed."""
    if _run_failed(run):
        return []
    where = f"{run.method} replication {run.replication} trim {run.trim_bounds}"
    problems = []
    if run.truth is None or not math.isfinite(run.truth):
        problems.append(f"{where}: no finite ground truth")
    for scope, by_tag in run.reports.items():
        if set(by_tag) != set(tags):
            problems.append(f"{where} {scope}: estimators {sorted(by_tag)} != {sorted(tags)}")
        for tag, rep in by_tag.items():
            if not math.isfinite(rep.psi_hat) or rep.n_used < 1:
                problems.append(f"{where} {scope} {tag}: psi_hat {rep.psi_hat} on {rep.n_used} rows")
            if tag in (TAG_AIPTW, TAG_TMLE) and not abs(rep.mean_phi) <= MEAN_PHI_TOL:
                problems.append(f"{where} {scope} {tag}: influence-curve mean {rep.mean_phi}")
    if set(run.reports) != {"all", "in", "out"}:
        problems.append(f"{where}: scopes {sorted(run.reports)}")
    return problems


class FitWide:
    """Repeated identical train_dragonnet fits on one gen_dgp_lin draw."""

    name = "fit-wide"
    dgp = {"kind": "lin", "n": 2000, "p": 10, "tau": 1.0,
           "confounding_strength": 1.0, "noise_sd": 1.0}
    split = (0.8, 0.2, 0.0)  # the train/validation carve the trainer makes

    def __init__(self, seed: int):
        self.data = gen_dgp_lin(
            n=2000, p=10, tau=1.0, confounding_strength=1.0, noise_sd=1.0,
            rng=np.random.default_rng(seed),
        )
        self.train = TrainConfig(alpha=1.0, beta=1.0, epochs=FIT_EPOCHS, patience=0, seed=seed)
        self.fit_config = self.train
        self.tags = ESTIMATOR_TAGS
        self._first_digest = None

    def call(self, k: int):
        try:
            return train_dragonnet(self.data, self.train)
        except TrainingDivergedError as err:
            return err

    def digest(self, model) -> str:
        if isinstance(model, TrainingDivergedError):
            return _sha256({"diverged": str(model)})
        return _sha256({"payload": model.payload, "metadata": model.metadata})

    def check(self, model, digest: str) -> list[str]:
        if isinstance(model, TrainingDivergedError):
            return []
        problems = []
        if model.metadata["epochs_run"] != FIT_EPOCHS:
            problems.append(f"fit ran {model.metadata['epochs_run']} epochs, not {FIT_EPOCHS}")
        # Every call repeats the same fit, so every result must be the same.
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            problems.append("a repeated fit gave a different result")
        return problems

    def outcome(self, model) -> tuple[int, int]:
        return 1, int(isinstance(model, TrainingDivergedError))


class SweepIhdp:
    """truncation_sweep at the default trim levels on one IHDP-like draw per call."""

    name = "sweep-ihdp"
    dgp = {"kind": "ihdp_like", "n": 747, "p": 25}
    split = (0.63, 0.27, 0.10)

    def __init__(self, seed: int):
        self.seed = seed
        self.tags = ESTIMATOR_TAGS
        self.train = TrainConfig(epochs=SWEEP_EPOCHS, patience=0)
        self.config = ExperimentConfig(
            dgp=self.dgp, architecture="dragonnet", treg=True, alpha=1.0, beta=1.0,
            split=self.split, replications=1, base_seed=seed, train=self.train,
            estimators=self.tags, workers=1,
        )
        self.fit_config = self.config.effective_train_config()

    def call(self, k: int):
        return truncation_sweep(replace(self.config, base_seed=_call_seed(self.seed, k)))

    def digest(self, sweep) -> str:
        return _sha256({f"{lo}:{hi}": _experiment_dict(res) for (lo, hi), res in sweep.items()})

    def check(self, sweep, digest: str) -> list[str]:
        return [p for res in sweep.values() for run in res.runs for p in _run_problems(run, self.tags)]

    def outcome(self, sweep) -> tuple[int, int]:
        per_rep: dict[int, bool] = {}
        for res in sweep.values():
            for run in res.runs:
                per_rep[run.replication] = per_rep.get(run.replication, False) or _run_failed(run)
        return len(per_rep), sum(per_rep.values())


class GridParallel:
    """run_grid over the default four methods with a two-process pool."""

    name = "grid-parallel"
    dgp = {"kind": "irrelevant", "n": 1000, "p_confound": 5, "p_outcome_only": 20, "tau": 1.0}
    split = (0.7, 0.1, 0.2)

    def __init__(self, seed: int):
        self.seed = seed
        self.train = TrainConfig(epochs=GRID_EPOCHS, patience=0, shared_widths=(32,), outcome_widths=(16,))
        self.config = ExperimentConfig(
            dgp=self.dgp, alpha=3.0, split=self.split, replications=GRID_REPLICATIONS,
            base_seed=seed, train=self.train, workers=2,
        )
        # The layer timings use the widest objective the grid trains.
        self.fit_config = replace(self.config, treg=True).effective_train_config()

    def call(self, k: int):
        return run_grid(replace(self.config, base_seed=_call_seed(self.seed, k)))

    def digest(self, grid) -> str:
        return _sha256({
            "baseline": grid.baseline,
            "methods": {label: _experiment_dict(res) for label, res in grid.results.items()},
            "comparisons": {label: asdict(st) for label, st in grid.comparisons.items()},
        })

    def check(self, grid, digest: str) -> list[str]:
        problems = []
        for res in grid.results.values():
            tags = res.config.estimator_tags()
            for run in res.runs:
                problems.extend(_run_problems(run, tags))
        return problems

    def outcome(self, grid) -> tuple[int, int]:
        runs = [run for res in grid.results.values() for run in res.runs]
        return len(runs), sum(_run_failed(run) for run in runs)


WORKLOADS = {cls.name: cls for cls in (FitWide, SweepIhdp, GridParallel)}
