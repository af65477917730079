"""Training loop behavior: determinism, monitoring, the fluctuation step,
and the architecture-specific contracts.

Networks here are deliberately tiny; statistical quality has its own
tests at realistic sizes in the acceptance suite.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dragonbench.autodiff as ad
import dragonbench.train as train_module
from dragonbench.datagen import Dataset, gen_dgp_lin
from dragonbench.errors import ConfigError, TrainingDivergedError
from dragonbench.estimators import apply_estimators, propensity_accuracy, stationary_epsilon
from dragonbench.models import (
    ARCH_NEDNET,
    STACKS,
    build_predictors,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from dragonbench.nn import apply_stack
from dragonbench.objectives import (
    cross_entropy_term,
    select_observed,
    weighted_total,
)
from dragonbench.schema import plain
from dragonbench.train import (
    NEDNET_WEIGHTS,
    TrainConfig,
    _can_fork,
    _child_rngs,
    _composite_terms,
    config_digest,
    train_architecture,
    train_dragonnet,
)
from dragonbench.models import Scaler


SMALL = dict(shared_widths=(16, 16), outcome_widths=(8,), epochs=15, patience=0,
             val_fraction=0.0, seed=0)


def toy_data(n=300, seed=0, noise=1.0, c=1.0):
    return gen_dgp_lin(n=n, p=4, tau=1.0, confounding_strength=c, noise_sd=noise,
                       rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def lin_model():
    data = toy_data(n=500, seed=1, noise=0.5)
    cfg = TrainConfig(beta=1.0, epochs=60, patience=0, val_fraction=0.0,
                      shared_widths=(32, 16), outcome_widths=(16,), seed=3)
    return data, train_dragonnet(data, cfg)


def test_zero_epochs_returns_the_initial_network():
    data = toy_data(n=80)
    cfg = TrainConfig(epochs=0, val_fraction=0.0, seed=5, **{k: v for k, v in SMALL.items() if k not in ("epochs", "val_fraction", "seed")})
    model = train_dragonnet(data, cfg)
    # rebuild the same init by replaying the seed derivation
    init_rng, _ = _child_rngs(np.random.default_rng(5), 2)
    params = init_network(init_rng, data.p, cfg.shared_widths, cfg.outcome_widths)
    scaler = Scaler.fit(data.X, data.y)
    q0, _, g = build_predictors(params, scaler)(data.X)
    np.testing.assert_array_equal(model.q0(data.X), q0)
    np.testing.assert_array_equal(model.g(data.X), g)
    assert model.metadata["epochs_run"] == 0


def test_training_reduces_the_objective():
    data = toy_data(n=300, seed=2)
    model = train_dragonnet(data, TrainConfig(**SMALL))
    trace = model.metadata["train_loss_trace"]
    assert trace[-1]["total"] < trace[0]["total"]


def test_propensity_head_learns_a_separable_rule():
    rng = np.random.default_rng(7)
    n = 400
    X = rng.normal(size=(n, 3))
    t = (X[:, 0] > 0).astype(np.int64)
    y = rng.normal(size=n)
    data = Dataset(X=X, t=t, y=y)
    model = train_dragonnet(data, TrainConfig(epochs=40, patience=0, val_fraction=0.0,
                                              shared_widths=(16,), outcome_widths=(8,), seed=1))
    acc = propensity_accuracy(model.g(X), t.astype(np.float64))
    assert acc > 0.95


def test_outcome_heads_reach_the_noise_floor(lin_model):
    data, model = lin_model
    q_at_t = select_observed(model.q0(data.X), model.q1(data.X), data.t.astype(np.float64))
    mse = float(np.mean((q_at_t - data.y) ** 2))
    assert mse < 2.0 * 0.5 ** 2


def test_architectures_share_trajectories_when_uncoupled():
    # alpha = beta = 0 silences every term the two architectures do not
    # share, and the init stream draws shared/head weights before the
    # architecture-specific extras, so outcome training must match exactly.
    data = toy_data(n=150, seed=4)
    cfg = TrainConfig(alpha=0.0, beta=0.0, epochs=8, patience=0, val_fraction=0.0,
                      shared_widths=(12,), outcome_widths=(6,), seed=11)
    d = train_dragonnet(data, cfg)
    t = train_architecture("tarnet", data, cfg)
    np.testing.assert_array_equal(d.q0(data.X), t.q0(data.X))
    np.testing.assert_array_equal(d.q1(data.X), t.q1(data.X))


def test_epsilon_hat_is_stationary_on_training_rows(lin_model):
    data, model = lin_model
    assert model.treg
    t = data.t.astype(np.float64)
    q_at_t = select_observed(model.q0(data.X), model.q1(data.X), t)
    g = np.clip(model.g(data.X), 0.01, 0.99)  # same clamp training uses
    star = stationary_epsilon(data.y, q_at_t, t, g)
    assert model.epsilon_hat == pytest.approx(star, rel=1e-10, abs=1e-12)


def test_beta_zero_keeps_epsilon_at_zero():
    data = toy_data(n=100, seed=5)
    model = train_dragonnet(data, TrainConfig(**SMALL))
    assert model.epsilon_hat == 0.0
    assert not model.treg


def test_nednet_rejects_targeted_regularization():
    data = toy_data(n=60)
    with pytest.raises(ConfigError):
        train_architecture("nednet", data,
                           TrainConfig(beta=1.0, **{k: v for k, v in SMALL.items() if k != "beta"}))


@pytest.mark.parametrize("arch", ["dragonnet", "tarnet", "nednet"])
def test_a_dataset_without_rows_is_refused_before_scaling(arch):
    empty = toy_data(n=60).subset(np.arange(0))
    with pytest.raises(ConfigError, match="no rows to train on"):
        train_architecture(arch, empty, TrainConfig(**SMALL))


def test_nednet_trunk_never_sees_the_outcomes():
    # Phase 1 fits trunk + propensity on (X, t) alone and phase 2 freezes
    # them, so replacing y wholesale cannot move the propensity.  Joint
    # training has no such firewall.
    data = toy_data(n=200, seed=6)
    other_y = data.y + np.random.default_rng(99).normal(size=data.n)
    twin = Dataset(X=data.X, t=data.t, y=other_y)
    cfg = TrainConfig(epochs=6, patience=0, val_fraction=0.0,
                      shared_widths=(10,), outcome_widths=(6,), seed=13)
    a = train_architecture("nednet", data, cfg)
    b = train_architecture("nednet", twin, cfg)
    np.testing.assert_array_equal(a.g(data.X), b.g(data.X))
    assert a.payload["stacks"]["shared"] == b.payload["stacks"]["shared"]
    assert a.payload["stacks"]["propensity"] == b.payload["stacks"]["propensity"]
    d_a = train_dragonnet(data, cfg)
    d_b = train_dragonnet(twin, cfg)
    assert not np.array_equal(d_a.g(data.X), d_b.g(data.X))


def test_nednet_phase_traces():
    data = toy_data(n=150, seed=8)
    model = train_architecture("nednet", data, TrainConfig(
        epochs=5, patience=0, val_fraction=0.0, shared_widths=(10,), outcome_widths=(6,), seed=2))
    phase1 = model.metadata["phase1"]["train_loss_trace"]
    phase2 = model.metadata["train_loss_trace"]
    assert all(entry["outcome"] == 0.0 for entry in phase1)  # pure cross-entropy
    assert all(entry["xent"] == 0.0 for entry in phase2)     # pure squared error
    assert model.epsilon_hat == 0.0


def test_nednet_phase_totals_are_their_single_term():
    # Each phase fits one term whatever alpha is: its total is that term alone.
    data = toy_data(n=150, seed=8)
    model = train_architecture("nednet", data, TrainConfig(
        alpha=0.5, epochs=4, patience=0, val_fraction=0.2, shared_widths=(10,), outcome_widths=(6,),
        seed=2))
    for key in ("train_loss_trace", "val_loss_trace"):
        assert all(e["total"] == e["xent"] for e in model.metadata["phase1"][key])
        assert all(e["total"] == e["outcome"] for e in model.metadata[key])


def test_training_is_deterministic_per_seed():
    data = toy_data(n=120, seed=9)
    cfg = TrainConfig(**SMALL)
    a = train_dragonnet(data, cfg)
    b = train_dragonnet(data, cfg)
    np.testing.assert_array_equal(a.q1(data.X), b.q1(data.X))
    np.testing.assert_array_equal(a.g(data.X), b.g(data.X))


def test_rng_argument_overrides_config_seed():
    data = toy_data(n=120, seed=9)
    cfg = TrainConfig(**SMALL)
    a = train_dragonnet(data, cfg, rng=np.random.default_rng(100))
    b = train_dragonnet(data, cfg, rng=np.random.default_rng(100))
    c = train_dragonnet(data, cfg, rng=np.random.default_rng(101))
    np.testing.assert_array_equal(a.q1(data.X), b.q1(data.X))
    assert not np.array_equal(a.q1(data.X), c.q1(data.X))


def test_divergence_raises_typed_error():
    data = toy_data(n=100, seed=10)
    cfg = TrainConfig(learning_rate=1e12, epochs=30, patience=0, val_fraction=0.0,
                      shared_widths=(16,), outcome_widths=(8,), seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        with np.errstate(all="ignore"):
            train_dragonnet(data, cfg)
    assert "epoch" in str(exc.value)


def test_small_fits_fork_no_scorer(monkeypatch):
    def no_fork(*args):
        raise AssertionError("a scorer process was forked")

    monkeypatch.setattr(train_module, "_ForkedScorer", no_fork)
    data = toy_data(n=150, seed=3)
    cfg = TrainConfig(epochs=3, patience=0, shared_widths=(10,), outcome_widths=(6,), seed=0)
    train_dragonnet(data, cfg)
    monkeypatch.setattr("dragonbench.train.OVERLAP_MIN_WORK", 0)
    train_dragonnet(data, replace(cfg, epochs=1))  # one epoch: nothing to overlap
    with ThreadPoolExecutor(max_workers=1) as pool:  # forking beside a thread could deadlock
        pool.submit(train_dragonnet, data, cfg).result(timeout=60)
    # Forking was measured safe only on Linux with OpenBLAS pinned to one
    # thread; another BLAS (blas_threads() is None) or platform scores inline.
    for stub in ((train_module, "blas_threads", lambda: None), (sys, "platform", "darwin")):
        with monkeypatch.context() as patched:
            patched.setattr(*stub)
            train_dragonnet(data, cfg)
    if _can_fork():  # the stub does catch a fit that forks
        with pytest.raises(AssertionError, match="scorer process"):
            train_dragonnet(data, cfg)


def _scoring_diverges_at(at_epoch: int):
    def check(breakdown, epoch):
        if epoch == at_epoch:
            raise TrainingDivergedError(epoch, "xent", float("nan"))
        return breakdown
    return check


# case -> (learning rate, the epoch whose scoring is made to diverge, the
# (epoch, term) of the error raised).  At rate 1e4 epoch 1's SGD diverges
# while a forked scorer scores epoch 0; when epoch 0's scoring diverges as
# well, its error must come first, as inline.
SCORER_FITS = {
    "normal": (2e-3, None, None),
    "sgd-diverges": (1e4, None, (1, "total")),
    "scoring-raises": (2e-3, 2, (2, "xent")),
    "both-raise": (1e4, 0, (0, "xent")),
}


@pytest.mark.parametrize("case", SCORER_FITS)
def test_a_fit_leaves_no_scorer_and_no_thread_behind(monkeypatch, case):
    # With the threshold at 0 each fit forks a scorer on a spare core, and a
    # typed error raised inside the scorer must cross the pipe intact.
    rate, scoring_diverges_at, expected = SCORER_FITS[case]
    monkeypatch.setattr("dragonbench.train.OVERLAP_MIN_WORK", 0)
    forked = []
    real = train_module._ForkedScorer
    monkeypatch.setattr(train_module, "_ForkedScorer", lambda *args: forked.append(1) or real(*args))
    if scoring_diverges_at is not None:
        monkeypatch.setattr(train_module, "_check_finite", _scoring_diverges_at(scoring_diverges_at))
    cfg = TrainConfig(learning_rate=rate, epochs=6, patience=0, val_fraction=0.0,
                      shared_widths=(16,), outcome_widths=(8,), seed=0)
    threads = threading.active_count()
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) if expected else nullcontext() as exc:
        train_dragonnet(toy_data(n=100, seed=10), cfg)
    if expected:
        assert (exc.value.epoch, exc.value.term) == expected
    assert forked == [1] * _can_fork()
    assert threading.active_count() == threads


def test_a_scorer_raises_what_inline_scoring_raises(monkeypatch):
    # At this rate epoch 0's SGD stays finite and its scoring overflows in a
    # matmul, inside the scorer process when one is forked.  Underflow is not
    # raised: the first SGD steps already underflow.
    cfg = TrainConfig(learning_rate=100.0, epochs=30, patience=0, val_fraction=0.0,
                      shared_widths=(16,), outcome_widths=(8,), seed=0)
    raised = []
    for threshold in (np.inf, 0):
        monkeypatch.setattr("dragonbench.train.OVERLAP_MIN_WORK", threshold)
        with np.errstate(all="raise", under="ignore"), pytest.raises(FloatingPointError) as exc:
            train_dragonnet(toy_data(n=100, seed=10), cfg)
        raised.append(str(exc.value))
    assert raised[0] == raised[1] == "overflow encountered in matmul"


def test_a_scorer_exits_when_its_parent_end_closes():
    leaves = [np.zeros((3, 2)), np.ones(5)]
    scorer = train_module._ForkedScorer(leaves, lambda epoch, views: [epoch, float(views[1].sum())])
    assert all(view.ctypes.data % 64 == 0 for view in scorer.views)
    scorer.submit(7, leaves)
    assert scorer.result() == [7, 5.0]
    os.kill(scorer.child.pid, signal.SIGINT)  # Ctrl-C reaches the child too, which ignores it
    scorer.submit(8, leaves)
    assert scorer.result() == [8, 5.0]
    scorer.conn.close()  # no stop message, as when the parent is killed
    scorer.child.join(timeout=5)
    assert scorer.child.exitcode == 0


def test_divergence_in_an_overlapped_epoch_keeps_the_callers_error_state(monkeypatch):
    # At this rate epoch 0 scores finite and epoch 1's SGD overflows while a
    # forked scorer scores epoch 0, when a spare core exists; an overflow
    # warning there would surface as the error instead of the typed one.
    monkeypatch.setattr("dragonbench.train.OVERLAP_MIN_WORK", 0)
    data = toy_data(n=100, seed=10)
    cfg = TrainConfig(learning_rate=1e4, epochs=30, patience=0, val_fraction=0.0,
                      shared_widths=(16,), outcome_widths=(8,), seed=0)
    threads = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
            train_dragonnet(data, cfg)
    assert exc.value.epoch == 1
    assert threading.active_count() == threads


# A seeded tiny fit of each architecture and the sha256 of the checkpoint
# it saves: building the payload on demand must not move a byte of the file.
CHECKPOINT_FITS = [
    ("dragonnet", 1.0, "7b8a3fceee9afd67a659ffd6bf852b9455ddc6f13bef9ab70b17c806f740a35d"),
    ("tarnet", 1.0, "8a9ac1e56e61d37486adf244f48e3914949e6618857ca0057cba22d0b703f704"),
    ("nednet", 0.0, "c0e9c691ddae9cfe221c4845581d57bc06d1a2fc813d1cb0efd014981397a9c9"),
]


def _checkpoint_fit(arch: str, beta: float):
    cfg = TrainConfig(beta=beta, epochs=4, patience=0, val_fraction=0.25,
                      shared_widths=(8,), outcome_widths=(4,), seed=7)
    return train_architecture(arch, toy_data(n=120, seed=3), cfg)


@pytest.mark.parametrize("arch, beta, _", CHECKPOINT_FITS, ids=[f[0] for f in CHECKPOINT_FITS])
def test_a_fit_builds_its_checkpoint_payload_only_when_read(monkeypatch, arch, beta, _):
    calls = []
    real = train_module.make_payload
    monkeypatch.setattr(train_module, "make_payload", lambda *args: calls.append(args) or real(*args))
    model = _checkpoint_fit(arch, beta)
    assert calls == []
    first = model.payload
    assert len(calls) == 1
    first["epsilon_hat"] = "edited"  # a caller's edit does not reach the next read
    assert model.payload["epsilon_hat"] == model.epsilon_hat
    assert len(calls) == 2


@pytest.mark.parametrize("arch, beta, sha256", CHECKPOINT_FITS, ids=[f[0] for f in CHECKPOINT_FITS])
def test_a_saved_checkpoint_keeps_its_bytes(tmp_path, arch, beta, sha256):
    save_checkpoint(_checkpoint_fit(arch, beta), tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "m.json").read_bytes()).hexdigest() == sha256


# (architecture, config) of fits that each stop on patience before 80 epochs:
# dragonnet+treg on a carved validation set, tarnet on its training total,
# and nednet, whose phase 2 reuses the ordering generator after phase 1
# stopped, so an epoch started past a possible stop would change it.
PARITY_FITS = [
    ("dragonnet", dict(beta=1.0, val_fraction=0.25, patience=3)),
    ("tarnet", dict(val_fraction=0.0, patience=2, learning_rate=0.05)),
    ("nednet", dict(val_fraction=0.25, patience=3, learning_rate=0.02)),
]


def _parity_fit(arch: str, overrides: dict) -> tuple:
    """(whether this process overlaps epochs, payload JSON, metadata JSON)."""
    cfg = TrainConfig(epochs=80, shared_widths=(10,), outcome_widths=(6,), seed=5, **overrides)
    model = train_architecture(arch, toy_data(n=150, seed=16), cfg)
    return (_can_fork(), json.dumps(model.payload, sort_keys=True),
            json.dumps(model.metadata, sort_keys=True))


def test_overlapped_fits_match_inline_fits_bit_for_bit(monkeypatch):
    monkeypatch.setattr("dragonbench.train.OVERLAP_MIN_WORK", 0)  # these fits are tiny
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        inline = [pool.submit(_parity_fit, *fit).result(timeout=120) for fit in PARITY_FITS]
    here = [_parity_fit(*fit) for fit in PARITY_FITS]
    assert [fit[0] for fit in inline] == [False] * len(PARITY_FITS)
    assert [fit[0] for fit in here] == [len(os.sched_getaffinity(0)) > 1] * len(PARITY_FITS)
    assert [fit[1:] for fit in here] == [fit[1:] for fit in inline]
    for _, _, meta in here:
        assert json.loads(meta)["epochs_run"] < 80
    assert json.loads(here[2][2])["phase1"]["epochs_run"] < 80


def test_validation_monitor_marks_the_best_epoch():
    data = toy_data(n=240, seed=12)
    cfg = TrainConfig(epochs=25, patience=0, val_fraction=0.25,
                      shared_widths=(12,), outcome_widths=(6,), seed=3)
    model = train_dragonnet(data, cfg)
    vals = [b["total"] for b in model.metadata["val_loss_trace"]]
    assert len(vals) == model.metadata["epochs_run"]
    assert model.metadata["best_epoch"] == int(np.argmin(vals))


def test_explicit_validation_set_is_used():
    train_part = toy_data(n=200, seed=14)
    val_part = toy_data(n=80, seed=15)
    cfg = TrainConfig(epochs=6, patience=0, val_fraction=0.0,
                      shared_widths=(10,), outcome_widths=(6,), seed=4)
    model = train_dragonnet(train_part, cfg, val_data=val_part)
    assert len(model.metadata["val_loss_trace"]) == model.metadata["epochs_run"]


def test_early_stopping_halts_stale_training():
    data = toy_data(n=150, seed=16)
    cfg = TrainConfig(epochs=400, patience=3, val_fraction=0.25,
                      shared_widths=(10,), outcome_widths=(6,), seed=5)
    model = train_dragonnet(data, cfg)
    assert model.metadata["epochs_run"] < 400


def test_trained_checkpoint_roundtrips_bit_exactly(tmp_path, lin_model):
    data, model = lin_model
    path = tmp_path / "m.json"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(again.q0(data.X), model.q0(data.X))
    np.testing.assert_array_equal(again.q1(data.X), model.q1(data.X))
    np.testing.assert_array_equal(again.g(data.X), model.g(data.X))
    assert again.epsilon_hat == model.epsilon_hat


def test_standardize_off_still_trains():
    data = toy_data(n=100, seed=17)
    cfg = TrainConfig(standardize=False, **{k: v for k, v in SMALL.items()})
    model = train_dragonnet(data, cfg)
    assert np.all(np.isfinite(model.q0(data.X)))


def test_estimates_follow_an_affine_map_of_the_outcome():
    # With standardize=True the network trains on (y - mean) / std, which is
    # the same for y and a*y + b (a > 0) up to rounding, so every estimate
    # moves to a * estimate.  The rounding of the scaler, carried through
    # SGD, bounds the agreement: 1e-9 in units of a*y here.
    a, b = 3.0, -7.5
    data = toy_data(n=200, seed=21)
    moved = Dataset(X=data.X, t=data.t, y=a * data.y + b)
    cfg = TrainConfig(beta=1.0, epochs=10, patience=0, val_fraction=0.0, shared_widths=(16,),
                      outcome_widths=(8,), seed=4, standardize=True)
    t = data.t.astype(np.float64)
    base = apply_estimators(train_architecture("dragonnet", data, cfg), data.X, t, data.y)
    after = apply_estimators(train_architecture("dragonnet", moved, cfg), data.X, t, moved.y)
    assert set(base) == set(after) == {"Q", "AIPTW", "TMLE", "TREG"}
    for tag, report in base.items():
        assert after[tag].psi_hat == pytest.approx(a * report.psi_hat, rel=0, abs=1e-9)
        assert after[tag].n_used == report.n_used


def test_dispatch_rejects_unknown_architecture():
    data = toy_data(n=50)
    with pytest.raises(ConfigError):
        train_architecture("resnet", data, TrainConfig(**SMALL))


def test_config_roundtrip_and_digest():
    cfg = TrainConfig(alpha=0.5, beta=2.0, epochs=7, shared_widths=(3, 3), seed=9)
    again = TrainConfig.from_dict(plain(cfg))
    assert again == cfg
    assert config_digest(cfg) == config_digest(again)
    assert len(config_digest(cfg)) == 16
    assert config_digest(cfg) != config_digest(TrainConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError, match="learning_rate must be positive"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match=r"momentum must be in \[0, 1\), got 1.0"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=0.9)
    with pytest.raises(ConfigError):
        TrainConfig(h_clip=0.6)
    for field, value, match in [("batch_size", 0, "batch_size must be >= 1"),
                                ("epochs", -1, "epochs must be >= 0"),
                                ("patience", -1, "patience must be >= 0"),
                                ("seed", -1, "seed must be >= 0"),
                                ("shared_widths", (), "must be nonempty"),
                                ("outcome_widths", (4, 0), "layer widths must be positive")]:
        with pytest.raises(ConfigError, match=match):
            TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["alpha", "beta", "learning_rate"])
def test_non_finite_training_weights_are_config_errors(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        TrainConfig(**{field: value})


def test_config_typo_names_the_unknown_key():
    with pytest.raises(ConfigError, match="epoch$"):
        TrainConfig.from_dict({"epoch": 3, "seed": 1})


@pytest.mark.parametrize("field, value", [("epochs", "10"), ("epochs", 10.0),
                                          ("shared_widths", 32), ("seed", "1"),
                                          ("epochs", True), ("batch_size", True),
                                          ("patience", False), ("seed", True),
                                          ("shared_widths", (True,)), ("outcome_widths", (4, 2.0)),
                                          ("alpha", True), ("beta", True),
                                          ("learning_rate", True), ("momentum", False),
                                          ("val_fraction", False)])
def test_wrongly_typed_train_config_is_a_config_error(field, value):
    with pytest.raises(ConfigError, match="malformed"):
        TrainConfig(**{field: value})


GRADIENTS_V1 = Path(__file__).parent / "data" / "minibatch_gradients_v1.json"
GRADIENT_CASES = [("tarnet", 0.0), ("tarnet", 1.0), ("dragonnet", 0.0), ("dragonnet", 1.0),
                  ("nednet", 0.0)]


def minibatch_gradients(arch: str, beta: float) -> tuple[float, list[np.ndarray]]:
    """Loss and every leaf's gradient of the trainer's objective on one seeded
    64-row minibatch at (8,)/(4,) widths: the joint objective, or nednet's
    phase 1 (shared stack and propensity on cross-entropy)."""
    data = gen_dgp_lin(n=200, p=5, tau=1.0, confounding_strength=1.0, noise_sd=1.0,
                       rng=np.random.default_rng(17))
    cfg = TrainConfig(beta=beta, shared_widths=(8,), outcome_widths=(4,))
    scaler = Scaler.fit(data.X, data.y)
    rows = np.random.default_rng(18).permutation(data.n)[:64]
    x, y = scaler.transform_x(data.X)[rows], scaler.transform_y(data.y)[rows]
    t = data.t.astype(np.float64)[rows]
    net = init_network(np.random.default_rng(19), data.p, cfg.shared_widths,
                       cfg.outcome_widths, arch)
    net.epsilon[...] = 0.25
    if arch != ARCH_NEDNET:
        return ad.gradients(net.leaves(), lambda vs: weighted_total(
            _composite_terms(net, x, y, t, vs, cfg), cfg.alpha, cfg.beta))
    stacks = ("shared", "propensity")

    def phase1(vs):
        pairs = net.pairs(vs, stacks)
        z = apply_stack(net.shared, x, pairs["shared"])
        return weighted_total((0.0, cross_entropy_term(net.g(x, z, pairs), t), 0.0),
                              *NEDNET_WEIGHTS)

    return ad.gradients(net.leaves(stacks), phase1)


@pytest.mark.parametrize("arch, beta", GRADIENT_CASES)
def test_minibatch_gradients_match_the_v1_fixture(arch, beta):
    # written before the autodiff hot path was reworked: the engine's output
    # must not move by one bit
    stored = json.loads(GRADIENTS_V1.read_text())[f"{arch}/beta={beta:g}"]
    loss, grads = minibatch_gradients(arch, beta)
    assert loss == stored["loss"]
    assert len(grads) == len(stored["gradients"])
    for got, want in zip(grads, stored["gradients"]):
        assert np.array_equal(got, np.array(want))


if __name__ == "__main__":  # rewrite the gradient fixture, only for an intended numeric change
    GRADIENTS_V1.write_text(json.dumps({
        f"{arch}/beta={beta:g}": {"loss": loss, "gradients": [g.tolist() for g in grads]}
        for arch, beta in GRADIENT_CASES for loss, grads in [minibatch_gradients(arch, beta)]
    }, indent=1) + "\n")
