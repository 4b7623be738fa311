"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine anneal from base_lr at step 0 down to exactly 0 at total_steps."""
    if total_steps < 1:
        raise DomainError(f"total_steps must be >= 1, got {total_steps}")
    if not (0 <= step <= total_steps):
        raise DomainError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Decoupled-weight-decay Adam over a list of trainable tensors."""

    def __init__(self, params, lr: float = 2e-4, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise DomainError(f"learning rate must be > 0, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr: float | None = None):
        """One update; tensors with no grad are treated as zero-gradient."""
        if lr is None:
            lr = self.lr
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise DomainError(
                    f"NaN/Inf gradient at step {self.t} for tensor of shape {p.data.shape}")
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            mhat = self._m[i] / bc1
            vhat = self._v[i] / bc2
            update = mhat / (np.sqrt(vhat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= np.asarray(lr * update, dtype=p.data.dtype)
