"""The fused autodiff primitives, written out as graphs of small ops.

These are the forms kiqa computed before softmax, attention softmax,
layer norm and cross-entropy became single tape nodes, kept as oracles
(the ``-``, ``/``, ``.mean`` and ``**`` sugar they used is spelled as
calls): each fused primitive must give the same values and the same
gradients, bit for bit.  ``sub``, ``div``, ``neg``, ``exp``, ``log``,
``pow_const`` and ``tmean`` are the elementary ops only these graphs use,
with their differentiation rules.
``composed_graphs()`` swaps the composed forms in where kiqa calls the
fused ones, so whole training runs can be compared.

``full_hidden_states`` is the encoder block before its query side was
split off: every sublayer at every position.  It is the oracle for the
query-only block, whose rows must match its gathered rows.

``add_at_gather_grad`` and ``batched_weight_grad`` are the backward
expressions ``take`` and ``matmul`` used before the gather's gradient
became one ``bincount`` and the one-row weight gradient one ``einsum``;
the new rules must give the same bits.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from kiqa import autodiff as ad
from kiqa import encoder, fusion
from kiqa.autodiff import Tensor, _node, _unbroadcast


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data - b.data, (a, b))
    if out.requires_grad:
        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad, b.data.shape))
        out._backward = backward
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data / b.data, (a, b))
    if out.requires_grad:
        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.data.shape))
        out._backward = backward
    return out


def neg(a: Tensor) -> Tensor:
    return ad.mul(a, Tensor(-1.0))


def exp(a: Tensor) -> Tensor:
    value = np.exp(a.data)
    out = _node(value, (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad * value)
        out._backward = backward
    return out


def pow_const(a: Tensor, exponent: float) -> Tensor:
    out = _node(a.data**exponent, (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad * exponent * a.data ** (exponent - 1))
        out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    out = _node(np.log(a.data), (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad / a.data)
        out._backward = backward
    return out


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )
    out = _node(a.data.mean(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape) / count)
        out._backward = backward
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    # subtracting the detached max is a constant shift: values and
    # gradients are exact, large logits cannot overflow
    shifted = sub(a, Tensor(a.data.max(axis=axis, keepdims=True)))
    e = exp(shifted)
    return div(e, e.sum(axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = sub(a, Tensor(a.data.max(axis=axis, keepdims=True)))
    return sub(shifted, log(exp(shifted).sum(axis=axis, keepdims=True)))


def cross_entropy(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``gold`` class ids; logits (B, n)."""
    logp = log_softmax(logits, axis=-1)
    return div(neg(logp[np.arange(len(gold)), gold].sum()), Tensor(len(gold)))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(centered * centered, axis=-1, keepdims=True)
    return centered * pow_const(var + eps, -0.5) * gamma + beta


def attention_softmax(scores: Tensor, pad: np.ndarray, scale: float) -> Tensor:
    scores = scores * scale + Tensor(pad)
    shifted = sub(scores, Tensor(scores.data.max(axis=-1, keepdims=True)))
    e = exp(shifted)
    # ones-column matmul keeps the denominator bitwise-stable under padding
    return div(e, e @ Tensor(np.ones((scores.shape[-1], 1))))


def add_at_gather_grad(data: np.ndarray, key, grad: np.ndarray) -> np.ndarray:
    """The gradient of ``data[key]``: ``grad`` added into zeros with ``np.add.at``."""
    full = np.zeros_like(data)
    # callers draw ±inf and near-max floats on purpose: sums overflow to inf, inf + -inf is NaN
    with np.errstate(invalid="ignore", over="ignore"):
        np.add.at(full, key, grad)
    return full


def batched_weight_grad(a: np.ndarray, grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of ``b`` in ``a @ b``: the batched product, summed down to ``shape``."""
    return _unbroadcast(a.swapaxes(-1, -2) @ grad, shape)


def full_hidden_states(model: encoder.EncoderModel, ids: np.ndarray) -> Tensor:
    """(B, L) ids -> (B, L, d): the encoder block as kiqa ran it before its
    query side was split off, every sublayer at every position, written
    with the composed graphs."""
    p = model.params
    x = p["emb"][ids]
    q = x @ p["att_wq"]
    k = x @ p["att_wk"]
    v = x @ p["att_wv"]
    pad = np.where(ids == model.vocab.pad_id, -1e30, 0.0)[:, None, :]
    attn = attention_softmax(q @ k.swap_last_axes(), pad, 1.0 / np.sqrt(model.config.d))
    eps = encoder.LN_EPS
    x = layer_norm(x + (attn @ v) @ p["att_wo"], p["ln1_gamma"], p["ln1_beta"], eps)
    ffn = ad.tanh(x @ p["ffn_w1"] + p["ffn_b1"]) @ p["ffn_w2"] + p["ffn_b2"]
    return layer_norm(x + ffn, p["ln2_gamma"], p["ln2_beta"], eps)


@contextmanager
def composed_graphs():
    """Inside the block kiqa builds the composed graphs wherever it would
    call a fused primitive."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "softmax", softmax)  # fusion calls ad.softmax
        mp.setattr(encoder, "attention_softmax", attention_softmax)
        mp.setattr(encoder, "layer_norm", layer_norm)
        mp.setattr(encoder, "cross_entropy", cross_entropy)
        mp.setattr(fusion, "cross_entropy", cross_entropy)
        yield


def fused_and_composed(run):
    """``run()``'s result with the fused primitives, then with the composed graphs."""
    fused = run()
    with composed_graphs():
        return fused, run()


def tape(loss: Tensor) -> list[Tensor]:
    """Every node reachable from ``loss``, parameters included."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())
