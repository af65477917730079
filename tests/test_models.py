"""The three-head network, forward passes, scaling and checkpoints."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import dragonbench
from dragonbench.errors import ConfigError, NumericError, ShapeError, UsageError
from dragonbench.nn import DenseLayer
from dragonbench.models import (
    ARCH_DRAGONNET,
    ARCH_NEDNET,
    ARCH_TARNET,
    FittedModel,
    Scaler,
    ThreeHeadNet,
    build_predictors,
    init_network,
    load_checkpoint,
    make_payload,
    save_checkpoint,
)

DATA = Path(__file__).parent / "data"


def small_dragonnet(seed=0, p=4):
    return init_network(np.random.default_rng(seed), p, shared_widths=(8, 8), outcome_widths=(6,))


def predict_unscaled(net, x):
    """(q0, q1, g) of `net` on x through an identity scaler, which changes no value."""
    return build_predictors(net, Scaler.identity(net.shared[0].in_dim))(x)


def test_dragonnet_param_shapes():
    params = small_dragonnet(p=5)
    assert [l.weights.shape for l in params.shared] == [(8, 5), (8, 8)]
    assert [l.weights.shape for l in params.head0] == [(6, 8), (1, 6)]
    assert [l.weights.shape for l in params.head1] == [(6, 8), (1, 6)]
    assert [l.weights.shape for l in params.propensity] == [(1, 8)]
    assert not params.g_reads_x
    assert params.epsilon.shape == ()


def test_default_widths_match_reference_architecture():
    params = init_network(np.random.default_rng(0), 25)
    assert [l.weights.shape[0] for l in params.shared] == [200, 200, 200]
    assert [l.weights.shape[0] for l in params.head0] == [100, 100, 1]
    assert params.head0[-1].activation == "identity"
    assert [l.activation for l in params.propensity] == ["sigmoid"]


def test_zeroed_network_predicts_zero_and_half():
    params = small_dragonnet()
    for layer in (*params.shared, *params.head0, *params.head1, *params.propensity):
        layer.weights[...] = 0.0
        layer.bias[...] = 0.0
    x = np.random.default_rng(0).normal(size=(7, 4))
    q0, q1, g = predict_unscaled(params, x)
    np.testing.assert_array_equal(q0, np.zeros(7))
    np.testing.assert_array_equal(q1, np.zeros(7))
    np.testing.assert_array_equal(g, np.full(7, 0.5))


def test_shared_and_head_inits_agree_across_architectures():
    # Both architectures must consume the init stream in the same order for
    # everything they have in common.
    d = init_network(np.random.default_rng(3), 4, (8, 8), (6,), ARCH_DRAGONNET)
    t = init_network(np.random.default_rng(3), 4, (8, 8), (6,), ARCH_TARNET)
    for a, b in zip((*d.shared, *d.head0, *d.head1), (*t.shared, *t.head0, *t.head1)):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)


def test_tarnet_auxiliary_head_reads_raw_covariates():
    params = init_network(np.random.default_rng(1), 9, (8,), (6,), ARCH_TARNET)
    assert params.g_reads_x
    assert [l.weights.shape for l in params.propensity] == [(1, 9)]
    # g must follow x alone: a change to the representation leaves it as is
    x = np.random.default_rng(1).normal(size=(5, 9))
    g = predict_unscaled(params, x)[2]
    params.shared[0].weights[...] += 1.0
    np.testing.assert_array_equal(predict_unscaled(params, x)[2], g)


def test_forward_outputs_are_flat_and_finite():
    params = small_dragonnet()
    x = np.random.default_rng(2).normal(size=(11, 4))
    for out in predict_unscaled(params, x):
        assert out.shape == (11,)
        assert np.all(np.isfinite(out))
    tp = init_network(np.random.default_rng(2), 4, (8, 8), (6,), ARCH_TARNET)
    q0, q1, g = predict_unscaled(tp, x)
    assert np.all((g > 0) & (g < 1))


def test_forward_rejects_wrong_column_count():
    params = small_dragonnet(p=4)
    with pytest.raises(ShapeError):
        predict_unscaled(params, np.ones((3, 5)))


def test_build_predictors_rejects_a_nan_row():
    x = np.ones((3, 4))
    x[1, 2] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        predict_unscaled(small_dragonnet(p=4), x)


def test_apply_with_explicit_leaves_matches_direct_apply():
    params = small_dragonnet(seed=7)
    x = np.random.default_rng(7).normal(size=(5, 4))
    direct = params.apply(x)
    via_leaves = params.apply(x, params.leaves())
    for a, b in zip(direct, via_leaves):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_leaves_order_is_stable():
    params = small_dragonnet()
    leaves = params.leaves()
    # (weights, bias) per layer: shared x2, head0 x2, head1 x2, propensity, epsilon
    assert len(leaves) == 2 * (2 + 2 + 2 + 1) + 1
    assert leaves[0] is params.shared[0].weights
    assert leaves[-1] is params.epsilon


# --- scaler -------------------------------------------------------------------

def test_scaler_roundtrip():
    rng = np.random.default_rng(5)
    X = rng.normal(loc=3.0, scale=2.5, size=(100, 3))
    y = rng.normal(loc=-1.0, scale=4.0, size=100)
    sc = Scaler.fit(X, y)
    Xs = sc.transform_x(X)
    np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Xs.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(sc.restore_y(sc.transform_y(y)), y, rtol=1e-12)


def test_scaler_constant_column_guard():
    X = np.ones((10, 2))
    y = np.zeros(10)
    sc = Scaler.fit(X, y)
    out = sc.transform_x(X)
    assert np.all(np.isfinite(out))
    assert sc.y_std == 1.0


def test_identity_scaler_is_a_no_op():
    sc = Scaler.identity(3)
    X = np.random.default_rng(1).normal(size=(4, 3))
    np.testing.assert_array_equal(sc.transform_x(X), X)
    assert sc.restore_y(2.5) == 2.5


def test_build_predictors_restores_original_units():
    rng = np.random.default_rng(9)
    X = rng.normal(loc=5.0, scale=3.0, size=(40, 4))
    y = rng.normal(loc=100.0, scale=10.0, size=40)
    sc = Scaler.fit(X, y)
    params = small_dragonnet(seed=9)
    q0, q1, g_pred = build_predictors(params, sc)(X)
    q0s, q1s, g, _ = params.apply(sc.transform_x(X))
    np.testing.assert_allclose(q0, sc.restore_y(q0s), rtol=1e-12)
    np.testing.assert_allclose(q1, sc.restore_y(q1s), rtol=1e-12)
    np.testing.assert_allclose(g_pred, g, rtol=0, atol=0)


# --- fitted model / checkpoints -------------------------------------------------

def test_from_values_rejects_unknown_rows():
    X = np.array([[1.0, 2.0]])
    model = FittedModel.from_values(X, np.zeros(1), np.ones(1), np.full(1, 0.5))
    with pytest.raises(UsageError):
        model.q0(np.array([[9.0, 9.0]]))
    with pytest.raises(UsageError, match="row not present"):
        model.predict(np.array([[1.0, 2.0], [9.0, 9.0]]))


def test_from_values_predicts_zero_rows_as_three_empty_arrays():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = FittedModel.from_values(X, np.zeros(2), np.ones(2), np.full(2, 0.5))
    preds = model.predict(np.empty((0, 2)))
    assert len(preds) == 3
    assert all(p.shape == (0,) and p.dtype == np.float64 for p in preds)
    q0, q1, g = model.predict(X[::-1])  # a strided view looks up like its copy
    assert (q0.tolist(), q1.tolist(), g.tolist()) == ([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])


def test_from_functions_passthrough():
    model = FittedModel.from_functions(
        q0=lambda X: np.zeros(X.shape[0]),
        q1=lambda X: np.ones(X.shape[0]),
        g=lambda X: np.full(X.shape[0], 0.5),
        epsilon_hat=0.2,
        treg=True,
    )
    assert model.treg
    assert model.epsilon_hat == 0.2
    np.testing.assert_array_equal(model.q1(np.zeros((3, 2))), np.ones(3))


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 4))
    y = rng.normal(size=30)
    sc = Scaler.fit(X, y)
    params = small_dragonnet(seed=13)
    params.epsilon[...] = 0.0625
    payload = lambda: make_payload(ARCH_DRAGONNET, params, sc, 0.5, True, "cafe0123cafe0123")
    model = FittedModel(predict=build_predictors(params, sc), epsilon_hat=0.5,
                        metadata={"architecture": ARCH_DRAGONNET, "treg": True},
                        build_payload=payload)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(again.q0(X), model.q0(X))
    np.testing.assert_array_equal(again.q1(X), model.q1(X))
    np.testing.assert_array_equal(again.g(X), model.g(X))
    assert again.epsilon_hat == 0.5
    assert again.treg
    assert again.metadata["architecture"] == ARCH_DRAGONNET
    assert again.metadata["config_digest"] == "cafe0123cafe0123"


def test_checkpoint_tarnet_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.normal(size=(20, 3))
    y = rng.normal(size=20)
    sc = Scaler.fit(X, y)
    params = init_network(np.random.default_rng(17), 3, (8,), (6,), ARCH_TARNET)
    payload = lambda: make_payload(ARCH_TARNET, params, sc, 0.0, False, "beef4567beef4567")
    model = FittedModel(predict=build_predictors(params, sc), epsilon_hat=0.0,
                        metadata={"architecture": ARCH_TARNET, "treg": False},
                        build_payload=payload)
    path = tmp_path / "t.json"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    np.testing.assert_array_equal(again.g(X), model.g(X))


def test_oracle_models_cannot_be_checkpointed(tmp_path):
    X = np.zeros((1, 1))
    model = FittedModel.from_values(X, np.zeros(1), np.ones(1), np.full(1, 0.5))
    with pytest.raises(UsageError):
        save_checkpoint(model, tmp_path / "x.json")


def test_load_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def _saved_payload(tmp_path):
    """A valid dragonnet checkpoint's JSON object and the path it lives at."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(10, 4))
    sc = Scaler.fit(X, rng.normal(size=10))
    params = init_network(np.random.default_rng(21), 4, shared_widths=(4,), outcome_widths=(3,))
    payload = make_payload(ARCH_DRAGONNET, params, sc, 0.0, False, "0123456789abcdef")
    return payload, tmp_path / "ckpt.json"


def test_load_checkpoint_missing_section_is_a_config_error(tmp_path):
    payload, path = _saved_payload(tmp_path)
    del payload["scaler"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="scaler"):
        load_checkpoint(path)


def test_load_checkpoint_layer_width_mismatch_is_a_shape_error(tmp_path):
    payload, path = _saved_payload(tmp_path)
    # head0's first layer takes 5 inputs, but the trunk outputs 4
    payload["stacks"]["head0"][0]["weights"] = np.ones((3, 5)).tolist()
    path.write_text(json.dumps(payload))
    with pytest.raises(ShapeError, match="head0"):
        load_checkpoint(path)


def test_a_network_whose_stacks_do_not_chain_is_a_shape_error():
    net = small_dragonnet()
    narrow_head = [DenseLayer(np.ones((1, 6)), np.zeros(1))]
    with pytest.raises(ShapeError, match="head1 layer 0 takes 6 inputs, gets 8"):
        ThreeHeadNet(net.shared, net.head0, narrow_head, net.propensity)
    with pytest.raises(ShapeError, match="stack propensity is empty"):
        ThreeHeadNet(net.shared, net.head0, net.head1, [])


def test_named_leaf_subsets_map_back_to_their_stacks():
    params = small_dragonnet()
    heads = ("head0", "head1")
    leaves = params.leaves(heads)
    # a subset carries no epsilon; the whole network ends with it
    assert len(leaves) == 2 * (2 + 2)
    assert all(leaf is not params.epsilon for leaf in leaves)
    pairs = params.pairs(leaves, heads)
    assert list(pairs) == list(heads)
    for name in heads:
        for (w, b), layer in zip(pairs[name], getattr(params, name)):
            assert w is layer.weights and b is layer.bias


@pytest.mark.parametrize("width", [1, 6])
def test_predict_rejects_a_wrong_width_before_scaling(width):
    # a 1-column X would broadcast across the 4-column scaler unchecked
    sc = Scaler.fit(np.random.default_rng(2).normal(size=(10, 4)), np.arange(10.0))
    predict = build_predictors(small_dragonnet(p=4), sc)
    with pytest.raises(ShapeError, match="4"):
        predict(np.ones((3, width)))


@pytest.mark.parametrize("arch", [ARCH_DRAGONNET, ARCH_TARNET, ARCH_NEDNET])
def test_v1_checkpoint_fixtures_still_predict_the_same(arch, tmp_path):
    # written by the per-architecture containers this network replaced
    stored = json.loads((DATA / "checkpoint_v1_predictions.json").read_text())
    path = DATA / f"checkpoint_v1_{arch}.json"
    model = load_checkpoint(path)
    assert model.payload == json.loads(path.read_text())
    assert model.payload is not model.payload  # a fresh dict on every read
    save_checkpoint(model, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert model.metadata["architecture"] == arch
    assert model.epsilon_hat == stored[arch]["epsilon_hat"]
    for got, name in zip(model.predict(np.array(stored["X"])), ("q0", "q1", "g")):
        np.testing.assert_allclose(got, stored[arch][name], rtol=0, atol=1e-12)


@pytest.mark.parametrize("key, value", [
    ("treg", "false"), ("treg", 0), ("config_digest", 7), ("config_digest", None),
])
def test_checkpoint_treg_and_config_digest_of_the_wrong_type_are_config_errors(tmp_path, key, value):
    payload = json.loads((DATA / "checkpoint_v1_nednet.json").read_text())
    payload[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=f"checkpoint {key} must be"):
        load_checkpoint(path)


def _ragged_weights(payload):
    payload["stacks"]["shared"][0]["weights"][0] = [1.0]


def _text_weights(payload):
    payload["stacks"]["head1"][0]["weights"][0][0] = "one"


def _text_epsilon(payload):
    payload["epsilon_hat"] = "small"


def _number_for_a_stack(payload):
    payload["stacks"]["head0"] = 5


def _nan_epsilon(payload):
    payload["epsilon_hat"] = float("nan")  # json writes NaN and reads it back


def _zero_x_std(payload):
    payload["scaler"]["x_std"][0] = 0.0


def _infinite_y_std(payload):
    payload["scaler"]["y_std"] = float("inf")


def _nan_x_mean(payload):
    payload["scaler"]["x_mean"][1] = float("nan")


def _infinite_y_mean(payload):
    payload["scaler"]["y_mean"] = float("-inf")


def _huge_integer_weight(payload):
    payload["stacks"]["head1"][0]["weights"][0][0] = 10**400  # no float64 holds it


def _unknown_activation(payload):
    payload["stacks"]["shared"][0]["activation"] = "relu"


def _list_activation(payload):
    payload["stacks"]["propensity"][0]["activation"] = ["sigmoid"]  # unhashable, so no dict lookup can refuse it


@pytest.mark.parametrize("corrupt, error, match", [
    (_ragged_weights, ShapeError, "shared layer weights is ragged"),
    (_text_weights, ConfigError, "head1 layer weights is not numeric"),
    (_text_epsilon, ConfigError, "epsilon_hat is not a number"),
    (_number_for_a_stack, ConfigError, "stacks must be lists"),
    (_nan_epsilon, ConfigError, "checkpoint epsilon_hat is not finite"),
    (_zero_x_std, ConfigError, "checkpoint scaler x_std must be finite and > 0"),
    (_infinite_y_std, ConfigError, "checkpoint scaler y_std is not finite"),
    (_nan_x_mean, ConfigError, "checkpoint scaler x_mean is not finite"),
    (_infinite_y_mean, ConfigError, "checkpoint scaler y_mean is not finite"),
    (_huge_integer_weight, ConfigError, "head1 layer weights is not numeric"),
    (_unknown_activation, ConfigError, "unknown activation 'relu'"),
    (_list_activation, ConfigError, r"unknown activation \['sigmoid'\]"),
    (None, ConfigError, "not JSON"),
])
def test_load_checkpoint_malformed_values_raise_typed_errors(tmp_path, corrupt, error, match):
    payload, path = _saved_payload(tmp_path)
    if corrupt is None:
        path.write_text(json.dumps(payload)[:-10])
    else:
        corrupt(payload)
        path.write_text(json.dumps(payload))
    with pytest.raises(error, match=match):
        load_checkpoint(path)


@pytest.mark.parametrize("module", [dragonbench])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    public = {name for name, value in vars(module).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert not public - set(module.__all__)
