"""Optimizer and learning-rate schedule contracts."""

import numpy as np
import pytest

from lorabench.errors import DomainError
from lorabench.optim import AdamW, cosine_lr
from lorabench.tensor import Tensor


class TestCosineLR:
    def test_start_is_base_lr(self):
        assert cosine_lr(0, 2000, 2e-4) == 2e-4

    def test_end_is_exactly_zero(self):
        assert cosine_lr(2000, 2000, 2e-4) == 0.0

    def test_midpoint_is_half(self):
        assert abs(cosine_lr(1000, 2000, 2e-4) - 1e-4) < 1e-9

    def test_monotone_decreasing(self):
        vals = [cosine_lr(t, 100, 1.0) for t in range(101)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_step_out_of_range(self):
        with pytest.raises(DomainError):
            cosine_lr(101, 100, 1.0)
        with pytest.raises(DomainError):
            cosine_lr(-1, 100, 1.0)

    def test_bad_total(self):
        with pytest.raises(DomainError):
            cosine_lr(0, 0, 1.0)


class TestAdamW:
    def test_zero_grad_no_decay_leaves_param(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        opt.step()
        assert np.array_equal(p.data, np.ones(3))

    def test_hand_computed_first_step(self):
        # w=0, g=1, lr=0.1: bias-corrected m_hat/sqrt(v_hat) = 1, so w -> -0.1
        p = Tensor(np.zeros(1), requires_grad=True)
        p.grad = np.ones(1)
        opt = AdamW([p], lr=0.1)
        opt.step()
        expected = -0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(float(p.data[0]) - expected) < 1e-12

    def test_decoupled_decay_shrinks(self):
        p = Tensor(np.full(2, 3.0), requires_grad=True)
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        opt.step()
        # zero gradient: update is exactly lr * wd * w
        assert np.allclose(p.data, 3.0 - 0.1 * 0.01 * 3.0, atol=1e-12)

    def test_nan_grad_aborts(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        opt = AdamW([p], lr=0.1)
        with pytest.raises(DomainError, match="NaN/Inf"):
            opt.step()

    def test_step_counter_increments(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        for want in (1, 2, 3):
            opt.step()
            assert opt.t == want

    def test_bad_lr(self):
        with pytest.raises(DomainError):
            AdamW([Tensor(np.zeros(1), requires_grad=True)], lr=0.0)

    def test_converges_on_quadratic(self):
        # minimize (w - 2)^2; AdamW should get close within a few hundred steps
        w = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamW([w], lr=0.05)
        for _ in range(500):
            w.grad = 2.0 * (w.data - 2.0)
            opt.step()
            opt.zero_grad()
        assert abs(float(w.data[0]) - 2.0) < 1e-2
