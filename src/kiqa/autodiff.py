"""Tape-based reverse-mode differentiation over numpy float64 arrays.

Small by design: enough operations for an attention block, layer norm and
the scoring heads, with exact 64-bit gradients that finite-difference
checks can certify.  Tensors wrap ndarrays; operations on tensors that
require gradients record a backward closure, and ``backward()`` replays
the tape in reverse topological order.

Elementary primitives (arithmetic, matmul, tanh, reductions, gather,
reshaping) each have their own rule.  The fused primitives (``softmax``,
``attention_softmax``, ``layer_norm``, ``cross_entropy``) are one node in
place of a small graph of elementary ones: the backward does that graph's
numpy operations in the tape's order, so values and gradients are bitwise
the composed graph's, signed zeros and overflow included, with fewer nodes
and arrays on the tape.  The tests keep the composed graphs as oracles.

Broadcasting follows numpy; gradients of broadcast operands are summed
back down to the operand's shape.

A gather's gradient is one ``np.bincount`` over the flat positions its key
read: it adds from 0.0 in key order, as ``np.add.at`` into zeros does.  The
weight gradient of one-row products, (B, 1, k) @ (k, n) with k·n > 1, is one
``einsum`` over contiguous rows: it adds the B outer products in the order
of the batched product's sum over B (at k = n = 1 einsum reduces with SIMD).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- plumbing -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        # The first gradient is kept as it is, without a copy.  That array
        # may also be another node's gradient (add hands one array to both
        # operands), so later gradients add out of place, never into it.
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this tensor (gradient seeded with ones)."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return take(self, key)

    # -- method sugar -------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims=False):
        return tmax(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def swap_last_axes(self):
        return swap_last_axes(self)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
    return out


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.data.shape))
        out._backward = backward
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(grad):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.data.shape))
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    out = _node(a.data @ b.data, (a, b))
    if out.requires_grad:
        def backward(grad):
            if a.requires_grad:
                ga = grad @ b.data.swapaxes(-1, -2)
                a._accumulate(_unbroadcast(ga, a.data.shape))
            if not b.requires_grad:
                return
            if a.data.shape[1:-1] == (1,) and b.data.ndim == 2 and b.data.size > 1:
                rows = (np.ascontiguousarray(t[:, 0]) for t in (a.data, grad))  # one-row products
                b._accumulate(np.einsum("bi,bj->ij", *rows))
            else:
                b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ grad, b.data.shape))
        out._backward = backward
    return out


def tanh(a: Tensor) -> Tensor:
    value = np.tanh(a.data)
    out = _node(value, (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad * (1.0 - value * value))
        out._backward = backward
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = _node(a.data.sum(axis=axis, keepdims=keepdims), (a,))
    if out.requires_grad:
        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        out._backward = backward
    return out


def tmax(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Maximum reduction; the gradient routes to the FIRST argmax."""
    value = a.data.max(axis=axis, keepdims=keepdims)
    out = _node(value, (a,))
    if out.requires_grad:
        if axis is None:
            mask = np.zeros_like(a.data)
            mask.flat[int(np.argmax(a.data))] = 1.0
        else:
            mask = np.zeros_like(a.data)
            idx = np.argmax(a.data, axis=axis)
            np.put_along_axis(mask, np.expand_dims(idx, axis), 1.0, axis=axis)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(mask * g)
        out._backward = backward
    return out


def take(a: Tensor, key) -> Tensor:
    """Indexing/gather; duplicate fancy indices accumulate gradients."""
    out = _node(a.data[key], (a,))
    if out.requires_grad:
        def backward(grad):
            flat = np.arange(a.data.size).reshape(a.data.shape)[key].ravel()
            full = np.bincount(flat, weights=grad.ravel(), minlength=a.data.size)
            a._accumulate(full.astype(np.float64, copy=False).reshape(a.data.shape))  # int if empty
        out._backward = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _node(a.data.reshape(shape), (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad.reshape(a.data.shape))
        out._backward = backward
    return out


def swap_last_axes(a: Tensor) -> Tensor:
    out = _node(a.data.swapaxes(-1, -2), (a,))
    if out.requires_grad:
        def backward(grad):
            a._accumulate(grad.swapaxes(-1, -2))
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Fused primitives: each backward replays its composed graph's operations
# in the tape's order (see the module docstring)
# ---------------------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``: e = exp(a - max), out = e / e.sum(axis).

    The max is detached: subtracting it is a constant shift, so values and
    gradients are exact and large logits cannot overflow.
    """
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    s = e.sum(axis=axis, keepdims=True)
    out = _node(e / s, (a,))
    if out.requires_grad:
        def backward(grad):
            # e / s, then the sum's broadcast, then exp
            ds = _unbroadcast(-grad * e / (s * s), s.shape)
            a._accumulate((grad / s + ds) * e)
        out._backward = backward
    return out


def attention_softmax(scores: Tensor, pad: np.ndarray, scale: float) -> Tensor:
    """Softmax over the last axis of ``scores * scale + pad``, for attention rows.

    ``scale`` is the 1/√d of scaled dot-product attention.  ``pad`` is
    additive: ``encoder.NEG_INF`` at padded keys, whose exponentials
    underflow to exactly 0.0, and 0.0 elsewhere.  The denominator is a product with a ones
    column instead of ndarray.sum: a BLAS product is bitwise-stable under
    trailing zero terms where sum's pairwise accumulation is not, so padded
    and unpadded encodings of the same content are bitwise equal.
    """
    masked = scores.data * scale + pad
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    ones = np.ones((scores.data.shape[-1], 1))
    den = e @ ones
    out = _node(e / den, (scores,))
    if out.requires_grad:
        def backward(grad):
            # as in softmax, with den's gradient taken back through the
            # ones, then through the scaling
            dden = _unbroadcast(-grad * e / (den * den), den.shape)
            scores._accumulate((grad / den + dden @ ones.swapaxes(-1, -2)) * e * scale)
        out._backward = backward
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Post-norm over the last axis: with c = x - mean(x) and var = mean(c * c),
    out = c * (var + eps) ** -0.5 * gamma + beta."""
    count = x.data.shape[-1]
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var_eps = (centered * centered).mean(axis=-1, keepdims=True) + eps
    rstd = var_eps**-0.5
    normed = centered * rstd
    out = _node(normed * gamma.data + beta.data, (x, gamma, beta))
    if out.requires_grad:
        def backward(grad):
            if beta.requires_grad:
                beta._accumulate(_unbroadcast(grad, beta.data.shape))
            if gamma.requires_grad:
                gamma._accumulate(_unbroadcast(grad * normed, gamma.data.shape))
            if not x.requires_grad:
                return
            dnormed = grad * gamma.data
            # c * rstd, the power, the mean; c * c hands dsq to both operands
            drstd = _unbroadcast(dnormed * centered, rstd.shape)
            dvar = drstd * -0.5 * var_eps**-1.5
            dsq = (dvar / count) * centered
            dcentered = dnormed * rstd + dsq + dsq
            # c = x - mu, then mu = mean(x)
            dmu = _unbroadcast(-dcentered, dvar.shape)
            x._accumulate(dcentered + dmu / count)
        out._backward = backward
    return out


def cross_entropy(logits: Tensor, gold: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``gold`` class ids; logits (B, n).

    Log-probabilities are formed at the gold entries only; no one-hot and
    no log-softmax of the logits' size is built.
    """
    n = len(gold)
    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    picked = shifted[rows, gold] - np.log(s)[rows, 0]
    out = _node(picked.sum() * -1.0 / n, (logits,))
    if out.requires_grad:
        def backward(grad):
            # / n, negation and sum give each gold entry c; the gather puts
            # c into zeros, and log, the sum's broadcast and exp add
            # (-c / s) * e.  (The graph's 0.0 + c and row sum of -c differ
            # only in a zero's sign, which that addition erases.)
            c = grad / n * -1.0
            dlogits = np.zeros_like(e)
            dlogits[rows, gold] = c
            dlogits += -c / s * e
            logits._accumulate(dlogits)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Optimizer and training loop
# ---------------------------------------------------------------------------

class DivergenceError(ValueError):
    """A training loss went non-finite or an update dwarfed the parameters;
    the parameters are no longer usable."""


# ‖Δθ‖ / max(‖θ‖, 1) of one SGD update past which training has diverged.  A
# healthy run stays far below it: at most 0.68 in the tests that train, and
# 0.1 on the benchmark workloads.  A learning rate that collapses the loss
# instead of overflowing it shows only here (1e47 at lr = 1e50).
MAX_UPDATE_RATIO = 1e3


class SGD:
    """Gradient descent with classical momentum; update order is fixed."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9):
        if lr < 0:
            raise ValueError("learning rate must be >= 0")
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self) -> None:
        """Applies one update, or raises DivergenceError and changes nothing
        when the update is more than MAX_UPDATE_RATIO times the parameters' norm."""
        updates = {name: self.velocity[name] * self.momentum - self.lr * p.grad
                   for name, p in sorted(self.params.items()) if p.grad is not None}
        size = np.sqrt(sum(np.vdot(v, v) for v in updates.values()))
        norm = np.sqrt(sum(np.vdot(p.data, p.data) for p in self.params.values()))
        ratio = size / max(norm, 1.0)
        if ratio > MAX_UPDATE_RATIO:
            raise DivergenceError(f"an SGD update was {ratio:.3g} times the parameters' norm "
                                  f"(more than {MAX_UPDATE_RATIO:g}); lower the learning rate")
        for name, v in updates.items():
            self.velocity[name] = v
            self.params[name].data += v

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def sgd_epoch(opt: SGD, order, batch_size: int, batch_loss, loss_log: list[float] | None = None):
    """One pass of minibatch SGD over ``order``, in slices of ``batch_size``.

    ``batch_loss(slice)`` builds one minibatch's loss, or returns None to
    skip it.  A non-finite loss raises DivergenceError before the optimizer
    steps, so no parameter or velocity takes it in; each finite loss is
    appended to ``loss_log``.  A diverging run overflows before its loss
    goes non-finite, so numpy's overflow warnings would only repeat the
    DivergenceError and are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(order), batch_size):
            loss = batch_loss(order[lo : lo + batch_size])
            if loss is None:
                continue
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"training loss became {value!r}; lower the learning rate")
            if loss_log is not None:
                loss_log.append(value)
            opt.zero_grad()
            loss.backward()
            opt.step()
