"""Layer init, forward pass and the momentum update rule."""

import numpy as np
import pytest

import dragonbench.nn as nn
from dragonbench.errors import ConfigError
from dragonbench.train import TrainConfig


def test_init_shapes_and_zero_bias():
    rng = np.random.default_rng(0)
    layers = nn.init_params(rng, [4, 8, 3])
    assert [l.weights.shape for l in layers] == [(8, 4), (3, 8)]
    for layer in layers:
        assert np.all(layer.bias == 0.0)


def test_init_scale_tracks_fan_in():
    rng = np.random.default_rng(1)
    layers = nn.init_params(rng, [25, 200, 200, 200])
    for layer in layers:
        fan_in = layer.weights.shape[1]
        observed = layer.weights.std()
        assert observed == pytest.approx(fan_in ** -0.5, rel=0.2)


def test_activation_list_must_match_layer_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        nn.init_params(rng, [3, 4, 1], activations=["elu"])


def test_forward_identity_weights_pass_input_through():
    layer = nn.DenseLayer(weights=np.eye(3), bias=np.zeros(3), activation="identity")
    x = np.array([[1.0, -2.0, 0.5]])
    np.testing.assert_array_equal(nn.apply_stack([layer], x), x)


def test_forward_single_unit_affine():
    layer = nn.DenseLayer(weights=np.array([[2.0]]), bias=np.array([1.0]), activation="identity")
    out = nn.apply_stack([layer], np.array([[3.0]]))
    np.testing.assert_array_equal(out, [[7.0]])


def test_forward_elu_negative_region():
    layer = nn.DenseLayer(weights=np.eye(1), bias=np.zeros(1), activation="elu")
    out = nn.apply_stack([layer], np.array([[-1.0]]))
    assert out[0, 0] == pytest.approx(np.expm1(-1.0))


def test_sgd_single_step_no_momentum():
    params = [np.array([1.0])]
    state = nn.SgdMomentum.for_params(params, learning_rate=0.1, momentum=0.0)
    nn.sgd_momentum_step(params, [np.array([2.0])], state)
    assert params[0][0] == pytest.approx(0.8)


def test_sgd_momentum_accumulates_velocity():
    # v1 = g = 1, p1 = -1; v2 = 0.9*1 + 1 = 1.9, p2 = -2.9
    params = [np.array([0.0])]
    state = nn.SgdMomentum.for_params(params, learning_rate=1.0, momentum=0.9)
    nn.sgd_momentum_step(params, [np.array([1.0])], state)
    assert params[0][0] == pytest.approx(-1.0)
    nn.sgd_momentum_step(params, [np.array([1.0])], state)
    assert params[0][0] == pytest.approx(-2.9)


def test_sgd_updates_in_place():
    params = [np.zeros(2)]
    ref = params[0]
    state = nn.SgdMomentum.for_params(params, learning_rate=0.5, momentum=0.0)
    out = nn.sgd_momentum_step(params, [np.ones(2)], state)
    assert out[0] is ref
    np.testing.assert_array_equal(ref, [-0.5, -0.5])


def test_sgd_config_validation():
    # The rates reach SgdMomentum only through TrainConfig, which refuses bad ones.
    with pytest.raises(ConfigError, match="learning_rate must be positive"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError, match=r"momentum must be in \[0, 1\)"):
        TrainConfig(momentum=1.0)
    cfg = TrainConfig(learning_rate=0.1, momentum=0.0)
    params = [np.ones((2, 3)), np.ones(3)]
    state = nn.SgdMomentum.for_params(params, cfg.learning_rate, cfg.momentum)
    assert (state.learning_rate, state.momentum) == (0.1, 0.0)
    assert [v.shape for v in state.velocities] == [(2, 3), (3,)]
    assert all(not v.any() for v in state.velocities)


def test_init_is_deterministic_per_seed():
    a = nn.init_params(np.random.default_rng(42), [3, 5, 2])
    b = nn.init_params(np.random.default_rng(42), [3, 5, 2])
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.weights, lb.weights)


def test_apply_stack_accepts_override_params():
    rng = np.random.default_rng(5)
    layers = nn.init_params(rng, [2, 3, 1])
    x = rng.normal(size=(4, 2))
    base = nn.apply_stack(layers, x)
    override = [(l.weights.copy(), l.bias.copy()) for l in layers]
    again = nn.apply_stack(layers, x, params=override)
    np.testing.assert_array_equal(base, again)
