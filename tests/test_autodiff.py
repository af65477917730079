"""Gradient correctness for the reverse-mode core.

Hand-derived cases first, then seeded random expressions checked against
central finite differences.
"""

import numpy as np
import pytest

import dragonbench.autodiff as ad
from dragonbench.errors import NumericError, ShapeError


def fd_gradients(loss_fn, params, h=1e-6):
    """Central-difference gradients of loss_fn evaluated on plain arrays.

    Relies on every op in autodiff returning a plain ndarray when no Var
    is involved, so the same loss_fn serves both paths.
    """
    grads = []
    work = [np.array(p, dtype=np.float64) for p in params]
    for k in range(len(work)):
        flat = work[k].ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(ad._value(loss_fn(work)))
            flat[i] = orig - h
            down = float(ad._value(loss_fn(work)))
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g.reshape(work[k].shape))
    return grads


def test_square_loss_hand_derivative():
    # d/dw (w*x - y)^2 = 2*(w*x - y)*x = 8 at w=1, x=2, y=0
    x, y = 2.0, 0.0

    def loss(ps):
        (w,) = ps
        return ad.square(ad.sub(ad.mul(w, x), y))

    value, grads = ad.gradients([np.array(1.0)], loss)
    assert value == 4.0
    assert grads[0] == pytest.approx(8.0, abs=1e-12)


def test_unused_parameter_gets_zero_gradient():
    def loss(ps):
        used, unused = ps
        return ad.mean(ad.square(used))

    _, grads = ad.gradients([np.ones(3), np.ones((2, 2))], loss)
    assert grads[1].shape == (2, 2)
    assert np.all(grads[1] == 0.0)


def test_loss_without_vars_gives_zero_gradients():
    # A loss that never touches its parameters is structurally constant.
    _, grads = ad.gradients([np.ones(4)], lambda ps: np.float64(3.0))
    assert np.all(grads[0] == 0.0)


def test_non_scalar_loss_rejected():
    with pytest.raises(ShapeError):
        ad.gradients([np.ones(3)], lambda ps: ad.square(ps[0]))


def test_non_finite_loss_rejected():
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        ad.gradients([np.zeros(1)], lambda ps: ad.mean(ad.log(ps[0])))


def test_numpy_left_operand_still_builds_graph():
    # ndarray.__mul__ must defer to Var's reflected hook, not broadcast
    # over it as an object array.
    x = np.array([1.0, 2.0, 3.0])

    def loss(ps):
        out = x * ps[0] + x
        assert isinstance(out, ad.Var)
        return ad.mean(out)

    _, grads = ad.gradients([np.ones(3)], loss)
    np.testing.assert_allclose(grads[0], x / 3.0)


def test_operator_sugar_matches_function_forms():
    a = np.array([0.3, -0.7])
    b = np.array([1.1, 0.4])

    def via_ops(ps):
        p, q = ps
        return ad.vsum((p * q - q / 2.0) + (-p) + 1.0)

    def via_fns(ps):
        p, q = ps
        return ad.vsum(ad.add(ad.add(ad.sub(ad.mul(p, q), ad.div(q, 2.0)), ad.neg(p)), 1.0))

    v1, g1 = ad.gradients([a, b], via_ops)
    v2, g2 = ad.gradients([a, b], via_fns)
    assert v1 == v2
    for x, y in zip(g1, g2):
        np.testing.assert_array_equal(x, y)


def test_linear_gradients_match_fd():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(2, 3))
    b = rng.normal(size=2)

    def loss(ps):
        weights, bias = ps
        return ad.mean(ad.square(ad.linear(x, weights, bias)))

    _, grads = ad.gradients([w, b], loss)
    expected = fd_gradients(loss, [w, b])
    np.testing.assert_allclose(grads[0], expected[0], rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(grads[1], expected[1], rtol=1e-6, atol=1e-9)


def test_elu_value_and_gradient():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    out = ad.elu(x)
    expected = np.where(x > 0, x, np.expm1(x))
    np.testing.assert_allclose(out, expected, rtol=1e-15)

    def loss(ps):
        return ad.vsum(ad.elu(ps[0]))

    _, grads = ad.gradients([x], loss)
    np.testing.assert_allclose(grads[0], np.where(x > 0, 1.0, np.exp(x)), rtol=1e-12)


def float_draws(seed: int) -> list[np.ndarray]:
    """Signed zeros, subnormals, +-1e-300, +-700, +-inf and NaN, then (9, 7)
    draws: raw uint64 bit patterns (every exponent, subnormals, NaNs, infs)
    and normals at scales from 1e-20 to 1e3."""
    rng = np.random.default_rng(seed)
    tiny = np.finfo(np.float64).tiny
    special = np.array(
        [0.0, -0.0, tiny, -tiny, tiny / 2**20, -tiny / 2**20, 5e-324, -5e-324,
         -1e-300, 1e-300, -1e-17, 1e-17, -37.0, -700.0, 700.0, -800.0, 800.0,
         -np.inf, np.inf, np.nan]
    )
    draws = [special]
    for k in range(200):
        if k % 4 == 0:
            x = rng.integers(0, 2**64, size=(9, 7), dtype=np.uint64).view(np.float64)
        else:
            x = rng.normal(scale=10.0 ** rng.uniform(-20, 3), size=(9, 7))
        draws.append(x)
    return draws


def assert_same_bits(got, want):
    """Equal bit for bit (signed zeros included), except that NaN matches NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_elu_is_bit_identical_to_the_two_branch_form():
    rng = np.random.default_rng(29)
    assert type(ad.elu(-0.5)) is np.ndarray
    for x in float_draws(29):
        before = x.copy()
        ref = np.where(x > 0, x, np.expm1(np.minimum(x, 0)))
        ref_slope = np.where(x > 0, 1.0, ref + 1.0)
        out = ad.elu(x)
        assert type(out) is np.ndarray
        assert np.array_equal(out, ref, equal_nan=True)

        # elu's own backward, fed an arbitrary upstream gradient: a scalar
        # loss over these draws would be non-finite, which `gradients` rejects
        weights = rng.normal(size=x.shape)
        ((_, vjp),) = ad.elu(ad.Var(x))._parents
        g = vjp(weights)
        assert np.array_equal(g, weights * ref_slope, equal_nan=True)
        assert np.array_equal(x, before, equal_nan=True)


def test_sigmoid_is_bit_identical_to_the_masked_form():
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return np.clip(out, ad.SIGMOID_CLAMP, 1.0 - ad.SIGMOID_CLAMP)

    for z in float_draws(31):
        assert_same_bits(ad.stable_sigmoid(z), masked(z))
        assert_same_bits(ad.sigmoid(z), masked(z))
    assert_same_bits(ad.stable_sigmoid(-0.0), masked(np.array(-0.0)))


@pytest.mark.parametrize("lo, hi", [(1e-12, 1.0 - 1e-12), (0.01, 0.99), (0.0, 1.0),
                                    (-0.0, 0.0), (-1e-300, 5e-324), (-np.inf, np.inf)])
def test_clip_is_bit_identical_to_np_clip(lo, hi):
    for x in float_draws(37):
        assert_same_bits(ad.clip(x, lo, hi), np.clip(x, lo, hi))
        ((_, vjp),) = ad.clip(ad.Var(x), lo, hi)._parents
        upstream = np.arange(x.size, dtype=np.float64).reshape(x.shape) - 3.5
        assert_same_bits(vjp(upstream), upstream * ((x >= lo) & (x <= hi)))


def test_mean_is_bit_identical_to_np_mean():
    rng = np.random.default_rng(41)
    shaped = [rng.normal(size=s) for s in [(64, 1), (1, 64), (7, 300), (300, 7), (33, 17)]]
    shaped += [a.T for a in shaped] + [a[::2] for a in shaped]  # strided views too
    flat = [rng.normal(loc=rng.uniform(-5, 5), scale=10.0 ** rng.uniform(-8, 8), size=n)
            for n in range(1, 2001)]
    for x in flat + shaped:
        got, want = ad.mean(x), np.mean(x)
        assert type(got) is type(want) and got.view(np.uint64) == want.view(np.uint64)


def test_bias_and_broadcast_reductions_are_bit_identical_to_the_sum_method():
    rng = np.random.default_rng(43)
    for rows, cols in [(1, 1), (64, 32), (470, 200), (5, 3)]:
        g = rng.normal(size=(rows, cols))
        ((_, _), (_, _), (_, bias_vjp)) = ad.linear(
            ad.Var(rng.normal(size=(rows, 4))), ad.Var(np.ones((cols, 4))), ad.Var(np.zeros(cols))
        )._parents
        assert_same_bits(bias_vjp(g), g.sum(axis=0))
        assert_same_bits(ad._unbroadcast(g, ()), g.sum(axis=(0, 1)).reshape(()))
        assert_same_bits(ad._unbroadcast(g, (cols,)), g.sum(axis=0))
        assert_same_bits(ad._unbroadcast(g, (1, cols)), g.sum(axis=0, keepdims=True))
        assert_same_bits(ad._unbroadcast(g, (rows, 1)), g.sum(axis=1, keepdims=True))


def test_topo_keeps_the_depth_first_order_of_the_pair_stack():
    def pair_stack_order(root):  # the order the backward pass used to accumulate in
        order, seen, stack = [], set(), [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p, _ in node._parents if id(p) not in seen)
        return [node for node in order if node._parents]

    rng = np.random.default_rng(47)
    for _ in range(50):
        pool = [ad.Var(rng.normal(size=3)) for _ in range(3)]
        for _ in range(int(rng.integers(5, 40))):  # shared subexpressions, reused leaves
            a, b = (pool[int(i)] for i in rng.integers(0, len(pool), size=2))
            op = [ad.add, ad.sub, ad.mul, lambda a, b: ad.elu(a), lambda a, b: ad.mean(a) * b]
            pool.append(op[int(rng.integers(0, len(op)))](a, b))
        assert ad._topo(pool[-1]) == pair_stack_order(pool[-1])


def test_sigmoid_extreme_inputs_stay_in_open_interval():
    z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    s = ad.stable_sigmoid(z)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[2] == 0.5

    def loss(ps):
        return ad.vsum(ad.sigmoid(ps[0]))

    _, grads = ad.gradients([z], loss)
    assert np.all(np.isfinite(grads[0]))


def test_clip_gradient_masks_out_of_range_entries():
    x = np.array([-1.0, 0.2, 0.8, 2.0])

    def loss(ps):
        return ad.vsum(ad.clip(ps[0], 0.0, 1.0))

    _, grads = ad.gradients([x], loss)
    np.testing.assert_array_equal(grads[0], [0.0, 1.0, 1.0, 0.0])


def test_reshape_and_mean_roundtrip():
    x = np.arange(6.0).reshape(2, 3)

    def loss(ps):
        return ad.mean(ad.reshape(ps[0], (6,)))

    value, grads = ad.gradients([x], loss)
    assert value == pytest.approx(2.5)
    np.testing.assert_allclose(grads[0], np.full((2, 3), 1.0 / 6.0))


def test_broadcast_gradients_unbroadcast_correctly():
    # (n, k) + (k,) must sum the bias gradient over rows.
    x = np.ones((4, 2))
    b = np.array([0.5, -0.5])

    def loss(ps):
        return ad.vsum(ad.mul(x, ad.add(np.zeros((4, 2)), ps[0])))

    _, grads = ad.gradients([b], loss)
    np.testing.assert_array_equal(grads[0], [4.0, 4.0])


def _random_expression_loss(x, target):
    def loss(ps):
        w1, b1, w2, b2 = ps
        h = ad.elu(ad.linear(x, w1, b1))
        out = ad.linear(h, w2, b2)
        p = ad.sigmoid(ad.reshape(out, (-1,)))
        return ad.add(
            ad.mean(ad.square(ad.sub(p, target))),
            ad.mul(0.1, ad.mean(ad.neg(ad.log(p)))),
        )

    return loss


def test_random_compositions_match_finite_differences():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        target = rng.uniform(0.2, 0.8, size=n)
        params = [
            rng.normal(size=(k, d)) * 0.5,
            rng.normal(size=k) * 0.1,
            rng.normal(size=(1, k)) * 0.5,
            rng.normal(size=1) * 0.1,
        ]
        loss = _random_expression_loss(x, target)
        value, grads = ad.gradients(params, loss)
        assert np.isfinite(value)
        expected = fd_gradients(loss, params)
        for got, want in zip(grads, expected):
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


def test_repeated_use_of_same_var_accumulates():
    # f(w) = w*w + 3w has derivative 2w + 3.
    def loss(ps):
        (w,) = ps
        return ad.add(ad.mul(w, w), ad.mul(3.0, w))

    _, grads = ad.gradients([np.array(2.0)], loss)
    assert grads[0] == pytest.approx(7.0, abs=1e-12)
