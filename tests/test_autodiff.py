"""Every differentiation rule is checked against central finite differences."""

import ast
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kiqa
from kiqa import autodiff as ad
from kiqa.autodiff import SGD, Tensor, cross_entropy, no_grad, softmax

import composed
from composed import add_at_gather_grad, batched_weight_grad, div, log_softmax, neg, sub

RNG = np.random.default_rng(42)


def numeric_grad(loss_fn, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        hi = loss_fn()
        flat[i] = original - step
        lo = loss_fn()
        flat[i] = original
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def sum_of_squares(t: Tensor) -> Tensor:
    return (t * t).sum()


def check_grads(build_loss, *arrays):
    """build_loss(*tensors) -> scalar Tensor; FD-checks every input."""
    tensors = [Tensor(x, requires_grad=True) for x in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for t, x in zip(tensors, arrays):
        with no_grad():
            numeric = numeric_grad(lambda: build_loss(*[Tensor(a) for a in arrays]).item(), x)
        assert t.grad is not None
        assert rel_err(t.grad, numeric) < 1e-7


# --- elementwise -------------------------------------------------------------

def test_add_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    check_grads(lambda x, y: ((x + y) * (x + y)).sum(), a, b)


def test_sub_and_neg():
    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
    check_grads(lambda x, y: (sub(x, y) * 2.0 + neg(x)).sum(), a, b)


def test_mul_broadcast():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(3, 1))
    check_grads(lambda x, y: (x * y).sum(), a, b)


def test_div():
    a = RNG.normal(size=(3, 3))
    b = RNG.uniform(1.0, 2.0, size=(3, 3))
    check_grads(lambda x, y: div(x, y).sum(), a, b)


def test_scalar_operands():
    a = RNG.normal(size=(4,))
    check_grads(lambda x: sub(2.0 * x + 1.0, div(x, Tensor(3.0))).sum(), a)


@pytest.mark.parametrize(
    "fn",
    [
        ad.tanh,
        composed.exp,
        lambda t: composed.log(t + 3.0),
        lambda t: composed.pow_const(t, 2),
        lambda t: composed.pow_const(t, 0.5),
    ],
    ids=["tanh", "exp", "log", "square", "sqrt"],
)
def test_unary_ops(fn):
    a = RNG.uniform(0.5, 1.5, size=(3, 4))
    check_grads(lambda x: fn(x).sum(), a)


# --- matmul ------------------------------------------------------------------

def test_matmul_2d():
    a, b = RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))
    check_grads(lambda x, y: (x @ y).sum(), a, b)


def test_matmul_batched_times_params():
    # (B, L, d) @ (d, d): the parameter gradient must sum over the batch
    x = RNG.normal(size=(2, 5, 3))
    w = RNG.normal(size=(3, 3))
    check_grads(lambda a, b: sum_of_squares(a @ b), x, w)


def test_matmul_batched_both():
    a = RNG.normal(size=(2, 4, 3))
    b = RNG.normal(size=(2, 3, 4))
    check_grads(lambda x, y: (x @ y).sum(), a, b)


def test_attention_shaped_product():
    q = RNG.normal(size=(2, 4, 3))
    k = RNG.normal(size=(2, 4, 3))
    check_grads(lambda a, b: (a @ b.swap_last_axes()).sum(), q, k)


# --- reductions ----------------------------------------------------------------

def test_sum_axis_keepdims():
    a = RNG.normal(size=(3, 4, 2))
    check_grads(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), a)


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
def test_sum_over_an_axis_drops_it(axis):
    a = RNG.normal(size=(3, 4, 2))
    assert Tensor(a).sum(axis=axis).shape == a.sum(axis=axis).shape
    check_grads(lambda x: sum_of_squares(x.sum(axis=axis)), a)


def test_mean_axes():
    a = RNG.normal(size=(3, 4))
    check_grads(lambda x: composed.tmean(x), a)
    check_grads(lambda x: sum_of_squares(composed.tmean(x, axis=-1)), a)


def test_max_axis():
    a = RNG.normal(size=(4, 5))
    check_grads(lambda x: x.max(axis=1).sum(), a)
    check_grads(lambda x: x.max() * 2.0, a)


def test_max_ties_route_to_first():
    a = Tensor(np.array([1.0, 3.0, 3.0, 2.0]), requires_grad=True)
    a.max().backward()
    assert np.array_equal(a.grad, [0.0, 1.0, 0.0, 0.0])


# --- shaping and gather ----------------------------------------------------------

def test_reshape():
    a = RNG.normal(size=(2, 6))
    check_grads(lambda x: sum_of_squares(x.reshape(3, 4)), a)


def test_getitem_slice():
    a = RNG.normal(size=(3, 4, 5))
    check_grads(lambda x: sum_of_squares(x[:, 0, :]), a)


def test_gather_with_duplicate_rows():
    # embedding-style lookup where the same row appears twice
    table = RNG.normal(size=(6, 3))
    ids = np.array([[1, 4, 1], [0, 0, 5]])
    check_grads(lambda t: sum_of_squares(t[ids]), table)


# The gather's gradient and the one-row weight gradient against the expressions
# they replaced (composed.py), bit for bit: values, signed zeros and infinities.

def assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_EDGES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
_FLOATS = st.one_of(_EDGES, st.floats(allow_nan=False, width=64))


@st.composite
def gather_keys(draw):
    """(array shape, key): every kind of key kiqa gathers with, and more."""
    n, m, d = draw(st.tuples(st.integers(1, 5), st.integers(1, 4), st.integers(1, 3)))
    kind = draw(st.sampled_from(["ints", "table", "mask", "rows", "slices", "query", "mixed"]))
    ints = lambda size, hi: draw(hnp.arrays(np.int64, size, elements=st.integers(-hi, hi - 1)))
    if kind == "ints":  # repeated and negative indices
        return (n, d), ints(draw(st.integers(0, 3 * n)), n)
    if kind == "table":  # an embedding lookup of (B, L) ids
        return (n, d), ints((draw(st.integers(1, 3)), draw(st.integers(1, 4))), n)
    if kind == "mask":
        return (n, m, d), draw(hnp.arrays(np.bool_, (n, m, d)))
    if kind == "rows":
        return (n, m, d), draw(hnp.arrays(np.bool_, n))
    if kind == "slices":
        bounds = st.one_of(st.none(), st.integers(-6, 6))
        steps = st.one_of(st.none(), st.sampled_from([-2, -1, 1, 2]))
        return (n, m, d), (slice(draw(bounds), draw(bounds), draw(steps)), draw(st.integers(0, m - 1)))
    if kind == "query":  # the encoder's (arange[:, None], queries) gather
        queries = draw(hnp.arrays(np.int64, (n, draw(st.integers(1, 4))),
                                  elements=st.integers(0, m - 1)))
        return (n, m, d), (np.arange(n)[:, None], queries)
    return (n, m, d), (slice(None), ints(draw(st.integers(1, 6)), m))


@settings(max_examples=300, deadline=None)
@given(gather_keys(), st.data())
def test_gather_gradient_is_bitwise_add_at_into_zeros(shape_key, data):
    shape, key = shape_key
    assert_gather_gradient_is_add_at(
        shape, key, lambda out_shape: data.draw(hnp.arrays(np.float64, out_shape,
                                                           elements=_FLOATS)))


def assert_gather_gradient_is_add_at(shape, key, upstream_of):
    """``take``'s gradient into zeros of ``shape``, for the upstream gradient
    ``upstream_of(out_shape)``, is ``np.add.at``'s bit for bit."""
    a = Tensor(np.zeros(shape), requires_grad=True)
    out = ad.take(a, key)
    grad = upstream_of(out.shape)
    out._backward(grad)
    assert_bitwise(a.grad, add_at_gather_grad(a.data, key, grad))


def _signed_zeros(rng, shape, share):
    x = rng.normal(size=shape)
    zero = rng.random(shape) < share
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 256),
    st.sampled_from([1, 2, 16, 64]),
    st.sampled_from([1, 2, 16, 64]),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.sampled_from(["C", "F", "strided"]),
    st.integers(0, 2**32 - 1),
)
def test_one_row_weight_gradient_is_bitwise_the_batched_product(batch, k, n, zeros, layout,
                                                                seed):
    rng = np.random.default_rng(seed)
    x, grad = _signed_zeros(rng, (batch, 1, k), zeros), _signed_zeros(rng, (batch, 1, n), zeros)
    if layout == "F":
        x, grad = np.asfortranarray(x), np.asfortranarray(grad)
    elif layout == "strided":
        grad = _signed_zeros(rng, (batch, 1, 2 * n), zeros)[..., ::2]
    w = Tensor(rng.normal(size=(k, n)), requires_grad=True)
    out = ad.matmul(Tensor(x), w)
    out._backward(grad)
    assert_bitwise(w.grad, batched_weight_grad(x, grad, (k, n)))


# --- softmax and cross-entropy ------------------------------------------------------

def test_softmax_grad_and_normalization():
    a = RNG.normal(size=(3, 5)) * 3
    check_grads(lambda x: (softmax(x, axis=-1) * RNG_WEIGHTS).sum(), a)
    out = softmax(Tensor(a), axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


RNG_WEIGHTS = RNG.normal(size=(3, 5))


def test_softmax_is_shift_invariant_and_stable():
    a = RNG.normal(size=(2, 4))
    s1 = softmax(Tensor(a)).data
    s2 = softmax(Tensor(a + 1000.0)).data
    np.testing.assert_allclose(s1, s2, atol=1e-12)
    huge = softmax(Tensor(np.array([1e6, 0.0, -1e6]))).data
    assert np.isfinite(huge).all()


def test_log_softmax_matches_log_of_softmax():
    a = RNG.normal(size=(3, 4))
    np.testing.assert_allclose(
        log_softmax(Tensor(a)).data, np.log(softmax(Tensor(a)).data), atol=1e-12
    )
    check_grads(lambda x: (log_softmax(x) * RNG_WEIGHTS_2).sum(), a)


RNG_WEIGHTS_2 = RNG.normal(size=(3, 4))


def test_cross_entropy():
    logits = RNG.normal(size=(4, 3))
    gold = np.array([0, 2, 1, 2])
    check_grads(lambda x: cross_entropy(x, gold), logits)
    # hand value: mean of -log softmax at gold
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    want = -np.log(probs[np.arange(4), gold]).mean()
    assert cross_entropy(Tensor(logits), gold).item() == pytest.approx(want, abs=1e-12)


def onehot_cross_entropy(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Oracle: the gold log-probabilities picked by a one-hot product."""
    onehot = np.zeros_like(logits.data)
    onehot[np.arange(len(gold)), gold] = 1.0
    return div(neg((log_softmax(logits) * Tensor(onehot)).sum()), Tensor(len(gold)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 3), (7, 60)])
def test_cross_entropy_gradient_equals_one_hot_formula(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    logits = rng.normal(scale=3.0, size=shape)
    gold = rng.integers(shape[1], size=shape[0])
    grads = []
    for loss_fn in (cross_entropy, onehot_cross_entropy):
        x = Tensor(logits, requires_grad=True)
        loss = loss_fn(x, gold)
        loss.backward()
        grads.append(x.grad)
    assert (grads[0] == grads[1]).all()
    want = onehot_cross_entropy(Tensor(logits), gold).item()
    assert cross_entropy(Tensor(logits), gold).item() == pytest.approx(want, rel=1e-12, abs=0)


# --- fused primitives against their composed graphs -----------------------------------
#
# Values and input gradients must be the composed graph's bit for bit, so
# they are compared as bytes: a -0.0 where the graph gives +0.0 fails.

UPSTREAM = ("positive", "negative", "mixed", "+0.0", "-0.0")


def upstream(kind: str, shape, rng) -> np.ndarray:
    """A gradient arriving at a primitive's output, of the given sign."""
    if kind in ("+0.0", "-0.0"):
        return np.full(shape, float(kind))
    size = rng.uniform(0.5, 2.0, size=shape)
    return {"positive": size, "negative": -size, "mixed": rng.normal(size=shape)}[kind]


def value_and_grad_bytes(fn, arrays, up) -> list[bytes]:
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    (out * Tensor(up)).sum().backward()  # out's gradient is exactly ``up``
    assert all(t.grad is not None for t in tensors)
    return [out.data.tobytes()] + [t.grad.tobytes() for t in tensors]


def assert_bitwise_composed(fused, oracle, arrays, out_shape, rng):
    for kind in UPSTREAM:
        up = upstream(kind, out_shape, rng)
        got = value_and_grad_bytes(fused, arrays, up)
        assert got == value_and_grad_bytes(oracle, arrays, up), kind


SHAPES = [(1, 1), (1, 7), (3, 5), (2, 4, 6)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_softmax_is_bitwise_its_composed_graph(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    a = rng.normal(scale=3.0, size=shape)
    for axis in range(-len(shape), 0):
        assert_bitwise_composed(lambda x: softmax(x, axis=axis),
                                lambda x: composed.softmax(x, axis=axis), [a], shape, rng)


def key_pad(rng, batch: int, keys: int) -> np.ndarray:
    """(batch, 1, keys) additive mask: key 0 is always real, and the last row
    masks every key but that one."""
    pad = np.where(rng.random((batch, 1, keys)) < 0.4, -1e30, 0.0)
    pad[:, :, 0] = 0.0
    pad[-1, :, 1:] = -1e30
    return pad


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 7), (3, 5, 5), (2, 3, 6)], ids=str)
def test_attention_softmax_is_bitwise_its_composed_graph(shape):
    rng = np.random.default_rng(shape[-1])
    scores = rng.normal(scale=3.0, size=shape)
    pad = key_pad(rng, shape[0], shape[-1])
    for scale in (1.0, 1.0 / np.sqrt(3), 1e-8):
        assert_bitwise_composed(lambda x: ad.attention_softmax(x, pad, scale),
                                lambda x: composed.attention_softmax(x, pad, scale),
                                [scores], shape, rng)
        out = ad.attention_softmax(Tensor(scores), pad, scale).data
        assert np.all(out[np.broadcast_to(pad, shape) < 0] == 0.0)
        assert np.array_equal(out[-1, :, 0], np.ones(shape[1]))  # one real key: weight 1


def test_attention_softmax_ignores_padded_keys_bitwise():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(2, 4, 4))
    for extra in (1, 3, 9):
        padded = np.concatenate([scores, rng.normal(size=(2, 4, extra))], axis=-1)
        pad = np.concatenate([np.zeros((2, 1, 4)), np.full((2, 1, extra), -1e30)], axis=-1)
        for fn in (ad.attention_softmax, composed.attention_softmax):
            short = fn(Tensor(scores), np.zeros((2, 1, 4)), 0.5).data
            long = fn(Tensor(padded), pad, 0.5).data
            assert long[..., :4].tobytes() == short.tobytes()
            assert np.all(long[..., 4:] == 0.0)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
def test_layer_norm_is_bitwise_its_composed_graph(shape, scale):
    rng = np.random.default_rng(shape[-1])
    x = rng.normal(scale=scale, size=shape)
    gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    for eps in (1e-12, 1e-5):
        assert_bitwise_composed(lambda *t: ad.layer_norm(*t, eps),
                                lambda *t: composed.layer_norm(*t, eps),
                                [x, gamma, beta], shape, rng)


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 3), (9, 40)], ids=str)
@pytest.mark.parametrize("scale", [3.0, 1e3])  # at 1e3 most exponentials underflow to 0.0
def test_cross_entropy_is_bitwise_its_composed_graph(shape, scale):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    logits = rng.normal(scale=scale, size=shape)
    gold = rng.integers(shape[1], size=shape[0])
    assert_bitwise_composed(lambda x: cross_entropy(x, gold),
                            lambda x: composed.cross_entropy(x, gold), [logits], (), rng)


PAD_4 = np.array([[0.0, 0.0, -1e30, 0.0]])
GAMMA_4, BETA_4 = RNG.normal(size=4), RNG.normal(size=4)
FUSED_FD = {  # each a scalar loss of one (3, 4) input
    "softmax": lambda x: (softmax(x, axis=0) * RNG_WEIGHTS_2).sum(),
    "attention_softmax": lambda x: (ad.attention_softmax(x, PAD_4, 0.7) * RNG_WEIGHTS_2).sum(),
    "layer_norm": lambda x: (ad.layer_norm(x, Tensor(GAMMA_4), Tensor(BETA_4), 1e-5)
                             * RNG_WEIGHTS_2).sum(),
    "cross_entropy": lambda x: cross_entropy(x, np.array([3, 0, 3])),
}


@pytest.mark.parametrize("name", sorted(FUSED_FD))
def test_fused_primitive_gradients_match_finite_differences(name):
    check_grads(FUSED_FD[name], RNG.normal(size=(3, 4)))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layer_norm_of_a_constant_input_is_bitwise_its_composed_graph(shape):
    # x needs no gradient: gamma's and beta's are still those of the graph
    rng = np.random.default_rng(shape[-1] + 1)
    x, gamma, beta = rng.normal(size=shape), rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    for kind in UPSTREAM:
        up = upstream(kind, shape, rng)
        got = []
        for fn in (ad.layer_norm, composed.layer_norm):
            constant = Tensor(x)
            fused = functools.partial(fn, constant, eps=1e-5)
            got.append(value_and_grad_bytes(fused, [gamma, beta], up))
            assert constant.grad is None
        assert got[0] == got[1], kind


def test_layer_norm_gradients_reach_gain_and_shift():
    x, gamma, beta = RNG.normal(size=(2, 3, 4)), RNG.normal(size=4), RNG.normal(size=4)
    weights = RNG.normal(size=(2, 3, 4))
    check_grads(lambda a, g, b: (ad.layer_norm(a, g, b, 1e-5) * weights).sum(), x, gamma, beta)


# --- graph mechanics -----------------------------------------------------------------

def test_shared_node_accumulates_both_paths():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0 + x * x  # dy/dx = 3 + 2x = 7
    y.backward()
    assert x.grad[0] == pytest.approx(7.0)


W_DIAMOND = RNG.normal(size=(3,))


@pytest.mark.parametrize("sum_first", [True, False])
def test_gradient_shared_with_a_sibling_survives_a_second_path(sum_first):
    # add() hands one gradient array to both operands.  In this diamond x
    # reaches the product along two paths, x + y and x * 2; whichever path
    # the tape replays first gives x its first gradient, and when that is
    # the array shared with y, adding the second into it would change y.
    def build(x, y):
        s, m = x + y, x * 2.0
        return ((s * m if sum_first else m * s) * W_DIAMOND).sum()

    check_grads(build, RNG.normal(size=(3,)), RNG.normal(size=(3,)))


def test_deep_chain_no_recursion_error():
    x = Tensor(np.array([0.5]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y * 1.0001
    y.backward()
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_no_grad_blocks_taping():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad and y._parents == ()
    y2 = (x * 2.0).sum()
    assert y2.requires_grad


def test_constants_are_not_tracked():
    x = Tensor(np.ones(3))
    y = (x * 2.0).sum()
    assert not y.requires_grad
    y.backward()  # harmless no-op seeding
    assert x.grad is None


# --- optimizer ----------------------------------------------------------------------

def test_sgd_momentum_hand_computed():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.9)
    p.grad = np.array([2.0])
    opt.step()  # v = -0.2, p = 0.8
    assert p.data[0] == pytest.approx(0.8)
    opt.zero_grad()
    assert p.grad is None
    p.grad = np.array([1.0])
    opt.step()  # v = 0.9*(-0.2) - 0.1 = -0.28, p = 0.52
    assert p.data[0] == pytest.approx(0.52)


def test_sgd_zero_lr_keeps_parameters():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.0)
    p.grad = np.array([3.0, 4.0])
    opt.step()
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_sgd_skips_parameters_without_grads():
    p = Tensor(np.array([1.0]), requires_grad=True)
    SGD({"p": p}, lr=0.5).step()
    assert p.data[0] == 1.0


def test_sgd_rejects_negative_lr():
    with pytest.raises(ValueError, match="learning rate"):
        SGD({}, lr=-0.1)


def in_place_step(opt):
    """``SGD.step``'s arithmetic before it measured the update: the reference."""
    for name in sorted(opt.params):
        p = opt.params[name]
        if p.grad is not None:
            v = opt.velocity[name]
            v *= opt.momentum
            v -= opt.lr * p.grad
            p.data += v


def test_sgd_step_is_bitwise_the_in_place_update():
    def run(step):
        rng = np.random.default_rng(5)
        params = {k: Tensor(rng.normal(size=shape), requires_grad=True)
                  for k, shape in (("a", (3, 4)), ("b", (4,)), ("c", (2, 2)))}
        opt = SGD(params, lr=0.3, momentum=0.9)
        for i in range(5):
            for name, p in params.items():
                p.grad = None if name == "c" and i % 2 else rng.normal(size=p.data.shape)
            step(opt)
        return [(p.data.tobytes(), opt.velocity[k].tobytes()) for k, p in params.items()]

    assert run(SGD.step) == run(in_place_step)


@pytest.mark.parametrize("grad, stops", [(-1000.0, False), (-1000.5, True)])
def test_sgd_step_bound_is_on_the_update_over_the_floored_norm(grad, stops):
    # |theta| = 0.5 is floored to 1, so the bound is an update of 1e3
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = SGD({"p": p}, lr=1.0, momentum=0.0)
    p.grad = np.array([grad])
    if stops:
        with pytest.raises(ad.DivergenceError, match="1e\\+03 times the parameters' norm"):
            opt.step()
    else:
        opt.step()
        assert p.data[0] == 1000.5


def test_sgd_step_norm_counts_parameters_without_grads():
    def step(params):
        params["a"].grad = np.array([-2000.0])
        SGD(params, lr=1.0, momentum=0.0).step()

    # b has no gradient but is part of theta: 2000 / 10 = 200 passes
    step({"a": Tensor(np.zeros(1), requires_grad=True),
          "b": Tensor(np.array([10.0]), requires_grad=True)})
    with pytest.raises(ad.DivergenceError):
        step({"a": Tensor(np.zeros(1), requires_grad=True)})  # 2000 / 1


def test_sgd_step_that_diverges_changes_nothing():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    opt = SGD({"p": p, "q": q}, lr=0.1, momentum=0.9)
    p.grad, q.grad = np.array([1.0, 1.0]), np.array([-1.0])
    opt.step()  # a normal step: the velocity is not 0
    before = {k: (t.data.tobytes(), opt.velocity[k].tobytes()) for k, t in opt.params.items()}
    p.grad, q.grad = np.array([1.0, 1.0]), np.array([-1e6])
    with pytest.raises(ad.DivergenceError, match="lower the learning rate"):
        opt.step()
    assert {k: (t.data.tobytes(), opt.velocity[k].tobytes())
            for k, t in opt.params.items()} == before


# --- the training loop ----------------------------------------------------------------

def test_sgd_epoch_visits_order_in_slices():
    seen = []
    ad.sgd_epoch(SGD({}, lr=0.1), np.array([4, 2, 0, 3, 1]), 2, lambda b: seen.append(b.tolist()))
    assert seen == [[4, 2], [0, 3], [1]]


def test_sgd_epoch_steps_on_each_loss_and_skips_none():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.9)
    log = []
    ad.sgd_epoch(opt, np.arange(3), 1, lambda b: None if b[0] == 1 else (p * p).sum(), log)
    # p = 1 -> 0.8 (v = -0.2); the skipped batch must not step on the stale gradient
    assert log == [1.0, pytest.approx(0.64)]
    assert p.data[0] == pytest.approx(0.46)  # v = 0.9 * -0.2 - 0.1 * 1.6 = -0.34


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sgd_epoch_stops_on_non_finite_loss_before_stepping(bad):
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.9)

    def loss(batch):
        return (p * p).sum() if batch[0] == 0 else (p * p * Tensor(bad)).sum()

    log = []
    ad.sgd_epoch(opt, np.array([0]), 1, loss, log)  # a finite step: the velocity is not 0
    data, velocity = p.data.copy(), opt.velocity["p"].copy()
    with pytest.raises(ad.DivergenceError, match="nan|inf"):
        ad.sgd_epoch(opt, np.array([1, 0]), 1, loss, log)
    assert p.data.tobytes() == data.tobytes()
    assert opt.velocity["p"].tobytes() == velocity.tobytes()
    assert log == [1.0]  # neither the bad loss nor the batch after it


# --- guard: one training loop in the package ------------------------------------------

def training_calls(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each ``errstate`` or ``seterr`` call and each ``.step()``
    method call."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("errstate", "seterr", "step"):
            found.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id in ("errstate", "seterr"):
            found.append((node.lineno, func.id))
    return sorted(found)


def test_only_autodiff_sets_errstate_or_steps_an_optimizer():
    src = Path(kiqa.__file__).parent
    found = {
        path.name: [what for _, what in training_calls(ast.parse(path.read_text(encoding="utf-8")))]
        for path in sorted(src.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {
        "autodiff.py": ["errstate", "step"]  # both inside sgd_epoch
    }


def test_the_training_guard_sees_every_call():
    code = "\n".join([
        "np.errstate(all='ignore')",     # 1
        "numpy.errstate()",              # 2
        "errstate(over='ignore')",       # 3: from numpy import errstate
        "opt.step()",                    # 4
        "self.opt.step()",               # 5
        "np.seterr(all='ignore')",       # 6
        "step()",                        # a function, not an optimizer's method
        "opt.steps()",
    ])
    assert [line for line, _ in training_calls(ast.parse(code))] == [1, 2, 3, 4, 5, 6]
