"""The unfused compositions of the fused layers of lorabench.tensor, built
from single-purpose tape ops: the oracle the fused ops must match bit for
bit.  `dropout`, `gelu` and `reshape` live here because only these
compositions call them."""

import math
from typing import Optional

import numpy as np

from lorabench.errors import DomainError
from lorabench.tensor import (Tensor, _record, add, matmul, row_softmax,
                              transpose)

_GELU_C = math.sqrt(2.0 / math.pi)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximate GELU, elementwise."""
    x = a.data
    x2 = x * x
    inner = x2 * 0.044715
    inner += 1.0
    inner *= x
    inner *= _GELU_C
    t = np.tanh(inner)
    res = t + 1.0
    res *= x
    res *= 0.5
    out = Tensor(res)

    def backward(g):
        dinner = x2 * (3 * 0.044715)
        dinner += 1.0
        dinner *= _GELU_C
        dx = 1.0 - t * t
        dx *= x * dinner
        dx += 1.0 + t
        dx *= 0.5
        return (g * dx,)

    return _record(out, (a,), backward)


def dropout(x: Tensor, p: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout with a mask drawn from `rng`: an rng switches it on,
    so it is the identity without one or at p=0."""
    if not (0.0 <= p < 1.0):
        raise DomainError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    dt = x.data.dtype
    keep = (rng.random(x.data.shape, dtype=dt if dt == np.float32 else np.float64) >= p)
    mask = keep.astype(dt)
    mask *= np.asarray(1.0 / (1.0 - p), dtype=dt)
    out = Tensor(x.data * mask)
    return _record(out, (x,), lambda g: (g * mask,))


def linear(x, w, b):
    return add(matmul(x, w), b)


def lora_linear(x, w, b, A, B, p, rng=None):
    out = add(matmul(x, w), b)
    return add(out, matmul(matmul(dropout(x, p, rng), A), B))


def mlp(x, w1, b1, w2, b2):
    return add(matmul(gelu(add(matmul(x, w1), b1)), w2), b2)


def attention(q, k, v, mask, heads):
    bsz, seq, d = q.shape
    dh = d // heads

    def split_heads(t):
        return transpose(reshape(t, (bsz, seq, heads, dh)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if mask is not None:
        scores = add(scores, Tensor(mask.astype(q.dtype)))
    ctx = matmul(row_softmax(scores), v)
    return reshape(transpose(ctx, (0, 2, 1, 3)), (bsz, seq, d))


FUSED = ("linear", "lora_linear", "mlp", "attention")


def use_unfused(monkeypatch, module):
    """Make `module` call the compositions above in place of the fused ops."""
    for name in FUSED:
        monkeypatch.setattr(module, name, globals()[name])
