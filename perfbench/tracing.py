"""Spans around the calls the bench makes, and layer micro-timings.

The traced run measures the program from outside: `Tracer.patched` swaps
the names `dragonbench.bench` calls into (`make_dataset`, `split`,
`train_architecture`, `apply_estimators`, `run_replication` and
`ProcessPoolExecutor`) for wrappers that record spans in memory.  The pool
is replaced by one that counts itself and runs each task at once in this
process, so every replication's spans are seen; results do not depend on
the worker count, so the traced call's output must equal the untraced one.

`layer_timings` times single layers through public calls at a workload's
own shapes: its row count, covariate count, widths and estimator set.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import Future
from contextlib import contextmanager
from functools import partial

import numpy as np

import dragonbench.bench as bench
from dragonbench import (
    FittedModel,
    SplitSpec,
    apply_estimators,
    cross_entropy_term,
    make_dataset,
    select_observed,
    split,
    squared_error_term,
    treg_term,
)
from dragonbench import autodiff as ad
from dragonbench import nn

TRACED_NAMES = ("make_dataset", "split", "train_architecture", "apply_estimators", "run_replication")
TRIM = (0.01, 0.99)
BATCH_ROWS = 64
MIN_ROUNDS = 3


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class _SerialPool:
    """Stands in for ProcessPoolExecutor: counts itself, runs tasks in place."""

    def __init__(self, tracer: "Tracer", max_workers=None):
        tracer.pools += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(fn(*args, **kwargs))
        except Exception as err:  # re-raised by fut.result(), as a pool would
            fut.set_exception(err)
        return fut


class Tracer:
    """Spans kept in memory; the last model, dataset and estimator call seen."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pools = 0
        self.model = None
        self.dataset = None
        self.estimator_tags = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if name == "train_architecture":
                rec["epochs"] = out.metadata["epochs_run"]
                self.model = out
            elif name == "make_dataset":
                self.dataset = out
            elif name == "apply_estimators":
                self.estimator_tags = tuple(out)
            return out

        return traced

    @contextmanager
    def patched(self):
        saved = {name: getattr(bench, name) for name in (*TRACED_NAMES, "ProcessPoolExecutor")}
        for name in TRACED_NAMES:
            setattr(bench, name, self._wrap(name, saved[name]))
        bench.ProcessPoolExecutor = partial(_SerialPool, self)
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(bench, name, fn)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def span_metrics(self) -> dict[str, float]:
        """Per-layer figures for one traced workload call."""
        reps = self.named("run_replication")
        fits = self.named("train_architecture")
        estimates = self.named("apply_estimators")
        rep_total = sum(map(_duration, reps))
        train_total = sum(map(_duration, fits))
        estimate_total = sum(map(_duration, estimates))
        epochs = sum(s["epochs"] for s in fits)
        out = {
            "train.fit_s": statistics.median(map(_duration, fits)),
            "train.epochs": epochs,
            "train.epoch_ms": 1e3 * train_total / epochs,
            "estimators.calls": len(estimates) / len(reps),
            "bench.replication_s": statistics.median(map(_duration, reps)),
            "bench.train_share": train_total / rep_total,
            "bench.estimate_share": estimate_total / rep_total,
            "bench.other_share": 1.0 - (train_total + estimate_total) / rep_total,
            "bench.pools": self.pools,
        }
        for name, key in (("make_dataset", "datagen.make_s"), ("split", "datagen.split_s")):
            spans = self.named(name)
            if spans:
                out[key] = statistics.median(map(_duration, spans))
        return out


def count_model_calls(model, X, t, y, tags) -> int:
    """q0/q1/g calls one apply_estimators makes, through a counting model."""
    calls = 0

    def counted(fn):
        def f(Xq):
            nonlocal calls
            calls += 1
            return fn(Xq)

        return f

    counting = FittedModel.from_functions(
        counted(model.q0), counted(model.q1), counted(model.g),
        epsilon_hat=model.epsilon_hat, treg=model.treg,
    )
    apply_estimators(counting, X, t, y, TRIM, tags)
    return calls


def _three_heads(rng, p: int, cfg):
    """Layer stacks shaped like the trained network: trunk, two heads, propensity."""
    rep = cfg.shared_widths[-1]
    head_acts = ["elu"] * len(cfg.outcome_widths) + ["identity"]
    return (
        nn.init_params(rng, [p, *cfg.shared_widths], "elu"),
        nn.init_params(rng, [rep, *cfg.outcome_widths, 1], head_acts),
        nn.init_params(rng, [rep, *cfg.outcome_widths, 1], head_acts),
        nn.init_params(rng, [rep, 1], "sigmoid"),
    )


def _minibatch_loss(stacks, Xb, yb, tb, cfg):
    """The trainer's composite objective on one minibatch, as a function of
    the flat leaf list (weights and bias per layer, then epsilon)."""
    sizes = [len(s) for s in stacks]

    def loss(vs):
        pairs = [(vs[2 * i], vs[2 * i + 1]) for i in range(sum(sizes))]
        cut = np.cumsum([0, *sizes])
        shared, head0, head1, prop = (pairs[a:b] for a, b in zip(cut[:-1], cut[1:]))
        z = nn.apply_stack(stacks[0], Xb, shared)
        q0 = ad.reshape(nn.apply_stack(stacks[1], z, head0), (-1,))
        q1 = ad.reshape(nn.apply_stack(stacks[2], z, head1), (-1,))
        g = ad.reshape(nn.apply_stack(stacks[3], z, prop), (-1,))
        q_at_t = select_observed(q0, q1, tb)
        total = ad.add(squared_error_term(q_at_t, yb), cfg.alpha * cross_entropy_term(g, tb))
        if cfg.beta > 0:
            gc = ad.clip(g, cfg.h_clip, 1.0 - cfg.h_clip)
            total = ad.add(total, cfg.beta * treg_term(yb, q_at_t, tb, gc, vs[-1]))
        return total

    return loss


def layer_timings(workload, model, data, tags, deadline: float, with_datagen: bool) -> dict:
    """Median time of each layer call, in rounds until `deadline` (at least
    MIN_ROUNDS).  `with_datagen` adds make_dataset and split, for workloads
    whose own calls do not go through them."""
    cfg = workload.fit_config
    rng = np.random.default_rng(0)
    n, p = data.X.shape
    width = cfg.shared_widths[0]
    t = data.t.astype(np.float64)

    act = rng.normal(size=(n, width))
    weights = rng.normal(0.0, width ** -0.5, size=(width, width))
    bias = np.zeros(width)
    trunk = nn.init_params(rng, [p, *cfg.shared_widths], "elu")

    stacks = _three_heads(rng, p, cfg)
    leaves = [a for s in stacks for layer in s for a in (layer.weights, layer.bias)]
    leaves.append(np.zeros(()))
    rows = rng.permutation(n)[:BATCH_ROWS]
    batch_loss = _minibatch_loss(stacks, data.X[rows], data.y[rows], t[rows], cfg)
    _, grads = ad.gradients(leaves, batch_loss)
    stepped = [a.copy() for a in leaves]
    state = nn.SgdMomentum.for_params(stepped, cfg.learning_rate, cfg.momentum)

    timers = {
        "autodiff.elu_ms": lambda: ad.gradients([act], lambda vs: ad.vsum(ad.elu(vs[0]))),
        "autodiff.linear_ms": lambda: ad.gradients(
            [act, weights, bias], lambda vs: ad.vsum(ad.linear(*vs))
        ),
        "autodiff.step_ms": lambda: ad.gradients(leaves, batch_loss),
        "nn.forward_ms": lambda: nn.forward(trunk, data.X),
        "nn.sgd_step_ms": lambda: nn.sgd_momentum_step(stepped, grads, state),
        "models.predict_ms": lambda: model.q0(data.X),
        "estimators.apply_s": lambda: apply_estimators(model, data.X, t, data.y, TRIM, tags),
    }
    if with_datagen:
        timers["datagen.make_s"] = lambda: make_dataset(workload.dgp, np.random.default_rng(0), 0)
        timers["datagen.split_s"] = lambda: split(data, SplitSpec(*workload.split, seed=0))

    samples: dict[str, list[float]] = {name: [] for name in timers}
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for name, fn in timers.items():
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
        rounds += 1
    out = {}
    for name, values in samples.items():
        scale = 1e3 if name.endswith("_ms") else 1.0
        out[name] = scale * statistics.median(values)
    out["estimators.model_calls"] = count_model_calls(model, data.X, t, data.y, tags)
    return out
