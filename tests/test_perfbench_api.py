"""The dragonbench API that the benchmark under perfbench/ calls into.

perfbench/ stays unchanged while dragonbench changes, so every name it uses
must survive those changes.  Importing its modules resolves each name they
import from dragonbench; building each workload, timing the layers and
tracing a small grid reach the attributes they call (`nn.forward`,
`FittedModel.q0`, `ExperimentConfig.effective_train_config`, ...) and the
bench globals the tracer patches.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dragonbench.bench as bench
from dragonbench import ExperimentConfig, FittedModel, TrainConfig, gen_dgp_lin, run_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY_TRAIN = TrainConfig(epochs=2, patience=0, val_fraction=0.0, shared_widths=(8,),
                         outcome_widths=(4,))


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return SimpleNamespace(tracing=tracing, workloads=workloads)


def constant_model():
    return FittedModel.from_functions(
        q0=lambda X: np.zeros(len(X)),
        q1=lambda X: np.ones(len(X)),
        g=lambda X: np.full(len(X), 0.5),
    )


def test_count_model_calls_sees_one_call_per_head(perfbench):
    data = gen_dgp_lin(n=50, p=3, tau=1.0, confounding_strength=1.0, noise_sd=1.0,
                       rng=np.random.default_rng(0))
    calls = perfbench.tracing.count_model_calls(
        constant_model(), data.X, data.t.astype(np.float64), data.y, ("Q", "AIPTW", "TMLE"))
    assert calls == 3


def test_every_workload_builds(perfbench):
    for name, cls in perfbench.workloads.WORKLOADS.items():
        workload = cls(0)
        assert workload.name == name
        assert isinstance(workload.fit_config, TrainConfig)


def test_layer_timings_run_on_a_tiny_workload(perfbench):
    workload = SimpleNamespace(fit_config=TINY_TRAIN, dgp={"kind": "lin", "n": 100, "p": 3},
                               split=(0.7, 0.2, 0.1))
    data = bench.make_dataset(workload.dgp, np.random.default_rng(1), 0)
    out = perfbench.tracing.layer_timings(workload, constant_model(), data,
                                          ("Q", "AIPTW", "TMLE"), deadline=0.0, with_datagen=True)
    assert {"nn.forward_ms", "autodiff.step_ms", "datagen.split_s"} <= set(out)
    assert out["estimators.model_calls"] == 3


def test_tracer_sees_every_patched_bench_call(perfbench):
    tracing = perfbench.tracing
    cfg = ExperimentConfig(dgp={"kind": "lin", "n": 100, "p": 3}, split=(0.7, 0.2, 0.1),
                           replications=2, train=TINY_TRAIN, workers=2)
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = run_grid(cfg)
    assert all(tracer.named(name) for name in tracing.TRACED_NAMES)
    assert tracer.pools == 1  # every (method, replication) task shares one pool
    assert tracer.span_metrics()["estimators.calls"] == 3  # one per row scope
    assert bench.run_replication.__module__ == "dragonbench.bench"  # patches undone
