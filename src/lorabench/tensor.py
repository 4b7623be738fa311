"""Dense tensors with reverse-mode automatic differentiation on a tape.

Tensors wrap row-major numpy arrays (float32 for training, float64 for
gradient checks).  Operations executed while a Tape is active record a
backward rule; Tape.backward replays the rules in reverse recording order,
which is a valid topological order by construction.

A backward rule computes the gradient of an input only if that input's
`requires_grad` is set when the rule runs, and returns None for any other
input: the gradient of a frozen weight, bias or layer-norm gain is never
formed, since nothing would read it.

The layers of the model are fused ops, one node each with a hand-written
backward: `linear`, `lora_linear`, `mlp` and `attention`.  Each makes the
numpy calls of its unfused composition in the same order, and hands its
inputs their gradients in the order the composition would, so results are
bitwise those of the composition; it keeps fewer arrays for its backward.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ShapeError, StateError

Scalar = Union[int, float]

_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5


class Tensor:
    """A dense array plus optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        # never in place: `add` hands one buffer to both of its inputs, so a
        # gradient may alias another tensor's
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


class _ActiveTapes(threading.local):
    """The stack of entered tapes, one per thread, so that concurrent training
    runs each record only onto their own tape."""

    def __init__(self):
        self.stack: list["Tape"] = []


class Tape:
    """Ordered record of differentiable operations.

    Every recorded node's inputs were recorded (or are leaves) before the
    node itself, so reverse replay visits consumers before producers.
    A tape can run backward exactly once; a second call raises StateError.
    The active tape is per thread.
    """

    _active = _ActiveTapes()

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._consumed = False

    def __enter__(self):
        Tape._active.stack.append(self)
        return self

    def __exit__(self, *exc):
        Tape._active.stack.pop()
        return False

    @classmethod
    def current(cls) -> Optional["Tape"]:
        stack = cls._active.stack
        return stack[-1] if stack else None

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable):
        self._nodes.append((out, inputs, backward))

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor):
        """Populate grad fields of every grad-requiring tensor reachable from loss.

        Each node leaves the tape as its rule runs, so the arrays its rule
        kept are freed during the backward, not when the step ends; the tape
        is empty afterwards.  Only leaves keep their gradient: a node's output
        drops its grad as soon as its rule has consumed it.  A rule may hand
        one input a tuple of gradients, which are added in the order given."""
        if self._consumed:
            raise StateError("tape already ran backward; build a fresh tape per step")
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            out, inputs, backward_fn = nodes.pop()
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            out.zero_grad()
            for inp, g in zip(inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                for part in (g if isinstance(g, tuple) else (g,)):
                    inp.accumulate_grad(part)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over `inputs` records a node: a tape is active and some
    input needs a gradient."""
    return Tape.current() is not None and any(i.requires_grad for i in inputs)


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    if _recording(inputs):
        out.requires_grad = True
        Tape.current().record(out, tuple(inputs), backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach `grad.shape` from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g, b.data.shape) if b.requires_grad else None))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = Tensor(a.data / b.data)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = (_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
              if b.requires_grad else None)
        return ga, gb

    return _record(out, (a, b), backward)


def _check_inner(a: Tensor, b: Tensor):
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_inner(a, b)
    ad, bd = a.data, b.data
    if ad.ndim > 2 and bd.ndim == 2:
        # linear-layer case: collapse the batch so BLAS sees one big gemm
        lead = ad.shape[:-1]
        a2 = ad.reshape(-1, ad.shape[-1])
        out = Tensor((a2 @ bd).reshape(lead + (bd.shape[1],)))

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ bd.T).reshape(ad.shape) if a.requires_grad else None,
                    a2.T @ g2 if b.requires_grad else None)

        return _record(out, (a, b), backward)

    out = Tensor(np.matmul(ad, bd))

    def backward(g):
        ga = (_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
              if a.requires_grad else None)
        gb = (_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
              if b.requires_grad else None)
        return ga, gb

    return _record(out, (a, b), backward)


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * 0.5 / out.data,))


# ---------------------------------------------------------------------------
# reductions / shape


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.data.shape).copy(),)

    return _record(out, (a,), backward)


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.mean())
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    """`a` repeated to `shape` by numpy broadcasting, as a read-only view."""
    out = Tensor(np.broadcast_to(a.data, shape))
    return _record(out, (a,), lambda g: (_unbroadcast(g, a.data.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    out = Tensor(a.data.transpose(axes))
    inv = np.argsort(axes)
    return _record(out, (a,), lambda g: (g.transpose(inv),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), backward)


def narrow(a: Tensor, length: int, axis: int = 0) -> Tensor:
    """The first `length` entries of `a` along `axis`, as a view; `a` itself
    when that is all of them.  The gradient is zero past `length`."""
    if a.data.shape[axis] == length:
        return a
    index = (slice(None),) * axis + (slice(0, length),)
    out = Tensor(a.data[index])

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return _record(out, (a,), backward)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: out[i] = table[ids[i]] (gradient scatter-adds)."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), backward)


def select_positions(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along axis 1 per batch row: out[i] = a[i, idx[i]], a
    sequence position of a (batch, seq, width) tensor or a class of
    (batch, classes) log-probabilities."""
    idx = np.asarray(idx)
    batch = np.arange(a.data.shape[0])
    out = Tensor(a.data[batch, idx])

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[batch, idx] = g
        return (ga,)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# neural-net specific ops


def row_softmax(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Softmax over the last axis of x / temperature, with max subtraction."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be > 0, got {temperature}")
    p = _softmax(x.data / temperature)
    out = Tensor(p)
    return _record(out, (x,), lambda g: (_softmax_grad(p, g) / temperature,))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of z, which it overwrites.  exp allocates
    its output: an in-place exp may take another numpy kernel, whose
    rounding can differ."""
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of the softmax scores, given the output p and its gradient g."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Numerically stable log-softmax over the last axis of x / temperature."""
    if temperature <= 0:
        raise DomainError(f"softmax temperature must be > 0, got {temperature}")
    z = x.data / temperature
    zmax = z.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
    out = Tensor(z - logsum)
    p = np.exp(out.data)

    def backward(g):
        return ((g - p * g.sum(axis=-1, keepdims=True)) / temperature,)

    return _record(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm over an empty last dimension")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm parameter shapes {gain.data.shape}/{bias.data.shape} do not match width {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)

    def backward(g):
        gx = None
        if x.requires_grad:
            gxhat = g * gain.data
            gx = inv * (gxhat
                        - gxhat.mean(axis=-1, keepdims=True)
                        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        ggain = (g * xhat).sum(axis=axes) if gain.requires_grad else None
        gbias = g.sum(axis=axes) if bias.requires_grad else None
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# fused layers: one node each, whose forward makes the numpy calls of the
# unfused composition in its order and whose backward hands back the same
# gradients in the same order, keeping fewer arrays in between


def _gelu(x: np.ndarray, slope: bool):
    """Tanh-approximate GELU of x, and its slope d gelu / dx if `slope` (else
    None).  tanh allocates its output, as exp does in `_softmax`."""
    x2 = x * x
    inner = x2 * 0.044715
    inner += 1.0
    inner *= x
    inner *= _GELU_C
    t = np.tanh(inner)
    res = t + 1.0
    res *= x
    res *= 0.5
    if not slope:
        return res, None
    dinner = x2
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _GELU_C
    dinner *= x
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    dx *= dinner
    t += 1.0
    dx += t
    dx *= 0.5
    return res, dx


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x, one node."""
    _check_inner(x, w)
    xd, wd = x.data, w.data
    x2 = xd.reshape(-1, xd.shape[-1])
    y = x2 @ wd
    y += b.data
    out = Tensor(y.reshape(xd.shape[:-1] + (wd.shape[1],)))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ wd.T).reshape(xd.shape) if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _record(out, (x, w, b), backward)


def lora_linear(x: Tensor, w: Tensor, b: Tensor, A: Tensor, B: Tensor, p: float,
                rng=None) -> Tensor:
    """x @ w + b + drop(x) @ A @ B: a projection plus its low-rank update, one
    node.

    drop is inverted dropout at rate p, its mask drawn by
    `rng.random(x.shape, dtype=...)`; without an rng, or at p = 0, it is the
    identity.  The node keeps the mask and drop(x) @ A.  x receives two
    gradients, the update's and then g @ w.T, as the composition adds them.
    """
    if not (0.0 <= p < 1.0):
        raise DomainError(f"dropout probability must be in [0, 1), got {p}")
    _check_inner(x, w)
    xd, wd, Ad, Bd = x.data, w.data, A.data, B.data
    dt = xd.dtype
    x2 = xd.reshape(-1, xd.shape[-1])
    y = x2 @ wd
    y += b.data
    mask = None
    if rng is not None and p > 0.0:
        keep = rng.random(xd.shape, dtype=dt) >= p
        mask = keep.astype(dt)
        mask *= np.asarray(1.0 / (1.0 - p), dtype=dt)

    def dropped():
        return x2 if mask is None else (xd * mask).reshape(x2.shape)

    u2 = dropped() @ Ad
    y += u2 @ Bd
    out = Tensor(y.reshape(xd.shape[:-1] + (wd.shape[1],)))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = gA = None
        if x.requires_grad or A.requires_grad:
            gu2 = g2 @ Bd.T
            if A.requires_grad:
                gA = dropped().T @ gu2
            if x.requires_grad:
                low = (gu2 @ Ad.T).reshape(xd.shape)
                if mask is not None:
                    low *= mask
                gx = (low, (g2 @ wd.T).reshape(xd.shape))
        return (gx,
                x2.T @ g2 if w.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None,
                gA,
                u2.T @ g2 if B.requires_grad else None)

    return _record(out, (x, w, b, A, B), backward)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """gelu(x @ w1 + b1) @ w2 + b2 over the last axis of x, one node.

    The node keeps the GELU slope, and the GELU output only if w2 needs a
    gradient when the node is recorded."""
    _check_inner(x, w1)
    xd, w1d, w2d = x.data, w1.data, w2.data
    x2 = xd.reshape(-1, xd.shape[-1])
    h = x2 @ w1d
    h += b1.data
    recording = _recording((x, w1, b1, w2, b2))
    act, slope = _gelu(h, slope=recording)
    y = act @ w2d
    y += b2.data
    out = Tensor(y.reshape(xd.shape[:-1] + (w2d.shape[1],)))
    if not recording:
        return out
    kept = act if w2.requires_grad else None
    hidden = xd.shape[:-1] + (w1d.shape[1],)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = gw1 = gb1 = None
        if x.requires_grad or w1.requires_grad or b1.requires_grad:
            gh = g2 @ w2d.T
            gh *= slope
            gx = (gh @ w1d.T).reshape(xd.shape) if x.requires_grad else None
            gw1 = x2.T @ gh if w1.requires_grad else None
            gb1 = _unbroadcast(gh.reshape(hidden), b1.data.shape) if b1.requires_grad else None
        return (gx, gw1, gb1,
                kept.T @ g2 if w2.requires_grad else None,
                _unbroadcast(g, b2.data.shape) if b2.requires_grad else None)

    return _record(out, (x, w1, b1, w2, b2), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: Optional[np.ndarray],
              heads: int) -> Tensor:
    """Multi-head attention of queries q over (batch, seq, width) keys and
    values, one node: split the heads, softmax(q k^T / sqrt(dh) + mask) v,
    merge the heads.  q is (batch, seq, width), or (batch, width) for one
    query per batch row, and the output has q's shape.  `mask` is added to
    the scores (None adds nothing).  The node keeps the softmax weights."""
    bsz, seq, d = k.data.shape
    nq = seq if q.data.ndim == 3 else 1
    if (q.data.shape not in ((bsz, seq, d), (bsz, d)) or v.data.shape != k.data.shape
            or d % heads):
        raise ShapeError(f"attention over q {q.data.shape}, k {k.data.shape}, "
                         f"v {v.data.shape} in {heads} heads")
    dh = d // heads

    def split(t, n):
        return t.reshape(bsz, n, heads, dh).transpose(0, 2, 1, 3)

    qs, ks, vs = split(q.data, nq), split(k.data, seq), split(v.data, seq)
    kT = ks.transpose(0, 1, 3, 2)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.data.dtype)
    s = np.matmul(qs, kT)
    s *= scale
    if mask is not None:
        s += mask.astype(s.dtype)
    p = _softmax(s)
    del s
    out = Tensor(np.matmul(p, vs).transpose(0, 2, 1, 3).reshape(q.data.shape))

    def merge(g, shape):
        return g.transpose(0, 2, 1, 3).reshape(shape)

    def backward(g):
        gctx = split(g, nq)
        gq = gk = gv = None
        if v.requires_grad:
            gv = merge(np.matmul(np.swapaxes(p, -1, -2), gctx), k.data.shape)
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(gctx, np.swapaxes(vs, -1, -2))
            gs = _softmax_grad(p, gp)
            gs *= scale
            if q.requires_grad:
                gq = merge(np.matmul(gs, ks), q.data.shape)
            if k.requires_grad:
                gk = merge(np.matmul(np.swapaxes(qs, -1, -2), gs).transpose(0, 1, 3, 2),
                           k.data.shape)
        return gq, gk, gv

    return _record(out, (q, k, v), backward)


def l2_normalize(x: Tensor) -> Tensor:
    """Scale vectors along the last axis to unit Euclidean norm."""
    sq = tsum(mul(x, x), axis=-1, keepdims=True)
    return div(x, sqrt(sq))
