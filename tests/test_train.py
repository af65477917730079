"""Training loop behavior: determinism, monitoring, the fluctuation step,
and the architecture-specific contracts.

Networks here are deliberately tiny; statistical quality has its own
tests at realistic sizes in the acceptance suite.
"""

import numpy as np
import pytest

from dragonbench.datagen import Dataset, gen_dgp_lin
from dragonbench.errors import ConfigError, TrainingDivergedError
from dragonbench.estimators import propensity_accuracy
from dragonbench.models import build_predictors, init_network, load_checkpoint, save_checkpoint
from dragonbench.objectives import select_observed, stationary_epsilon
from dragonbench.train import (
    TrainConfig,
    _child_rngs,
    config_digest,
    train_architecture,
    train_dragonnet,
    train_nednet,
    train_tarnet,
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
    t = train_tarnet(data, cfg)
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
        train_nednet(data, TrainConfig(beta=1.0, **{k: v for k, v in SMALL.items() if k != "beta"}))


def test_nednet_trunk_never_sees_the_outcomes():
    # Phase 1 fits trunk + propensity on (X, t) alone and phase 2 freezes
    # them, so replacing y wholesale cannot move the propensity.  Joint
    # training has no such firewall.
    data = toy_data(n=200, seed=6)
    other_y = data.y + np.random.default_rng(99).normal(size=data.n)
    twin = Dataset(X=data.X, t=data.t, y=other_y)
    cfg = TrainConfig(epochs=6, patience=0, val_fraction=0.0,
                      shared_widths=(10,), outcome_widths=(6,), seed=13)
    a = train_nednet(data, cfg)
    b = train_nednet(twin, cfg)
    np.testing.assert_array_equal(a.g(data.X), b.g(data.X))
    assert a.payload["stacks"]["shared"] == b.payload["stacks"]["shared"]
    assert a.payload["stacks"]["propensity"] == b.payload["stacks"]["propensity"]
    d_a = train_dragonnet(data, cfg)
    d_b = train_dragonnet(twin, cfg)
    assert not np.array_equal(d_a.g(data.X), d_b.g(data.X))


def test_nednet_phase_traces():
    data = toy_data(n=150, seed=8)
    model = train_nednet(data, TrainConfig(epochs=5, patience=0, val_fraction=0.0,
                                           shared_widths=(10,), outcome_widths=(6,), seed=2))
    phase1 = model.metadata["phase1"]["train_loss_trace"]
    phase2 = model.metadata["train_loss_trace"]
    assert all(entry["outcome"] == 0.0 for entry in phase1)  # pure cross-entropy
    assert all(entry["xent"] == 0.0 for entry in phase2)     # pure squared error
    assert model.epsilon_hat == 0.0


def test_nednet_phase_totals_are_their_single_term():
    # Each phase fits one term whatever alpha is: its total is that term alone.
    data = toy_data(n=150, seed=8)
    model = train_nednet(data, TrainConfig(alpha=0.5, epochs=4, patience=0, val_fraction=0.2,
                                           shared_widths=(10,), outcome_widths=(6,), seed=2))
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


def test_dispatch_rejects_unknown_architecture():
    data = toy_data(n=50)
    with pytest.raises(ConfigError):
        train_architecture("resnet", data, TrainConfig(**SMALL))


def test_config_roundtrip_and_digest():
    cfg = TrainConfig(alpha=0.5, beta=2.0, epochs=7, shared_widths=(3, 3), seed=9)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_digest(cfg) == config_digest(again)
    assert len(config_digest(cfg)) == 16
    assert config_digest(cfg) != config_digest(TrainConfig())


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=0.9)
    with pytest.raises(ConfigError):
        TrainConfig(h_clip=0.6)


def test_config_typo_names_the_unknown_key():
    with pytest.raises(ConfigError, match="epoch$"):
        TrainConfig.from_dict({"epoch": 3, "seed": 1})
