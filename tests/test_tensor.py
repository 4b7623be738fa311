"""Autodiff core: forward-value oracles and finite-difference gradient checks."""

import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analytic_grads, gradcheck, numeric_grad, small_model_for
from lorabench.errors import DomainError, ShapeError, StateError
from lorabench.fewshot import cross_entropy_loss
from lorabench.lora import PlacementConfig, inject
from lorabench.model import encode_images, encode_tokens, tokenize_prompt
from lorabench import tensor as fused
from lorabench.tensor import (Tape, Tensor, add, attention, broadcast_to, concat, div,
                              l2_normalize, layer_norm, linear, log_softmax, lora_linear,
                              matmul, mean, mlp, mul, narrow, row_softmax,
                              select_positions, sqrt, take_rows, transpose, tsum)
import unfused
from unfused import dropout, gelu, reshape


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# matmul

class TestMatmul:
    def test_identity(self):
        out = matmul(t64(np.eye(2)), t64([[5, 6], [7, 8]]))
        assert np.array_equal(out.data, [[5, 6], [7, 8]])

    def test_row_times_column(self):
        out = matmul(t64([[1, 2]]), t64([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        got = matmul(t64(a), t64(b)).data
        assert np.abs(got - want).max() < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        got = matmul(t64(a), t64(b)).data
        for i in range(2):
            assert np.abs(got[i] - a[i] @ b).max() < 1e-12

    def test_grad(self):
        rng = np.random.default_rng(2)
        a = t64(rng.standard_normal((3, 4)), rg=True)
        b = t64(rng.standard_normal((4, 2)), rg=True)
        c = t64(rng.standard_normal((3, 2)))
        gradcheck(lambda: tsum(mul(matmul(a, b), c)), [a, b])

    def test_grad_batched(self):
        rng = np.random.default_rng(3)
        a = t64(rng.standard_normal((2, 3, 4)), rg=True)
        b = t64(rng.standard_normal((4, 2)), rg=True)
        c = t64(rng.standard_normal((2, 3, 2)))
        gradcheck(lambda: tsum(mul(matmul(a, b), c)), [a, b])

    def test_grad_transposed_weight(self):
        # a weight stored as a transposed view is not C-contiguous; the
        # finite differences must still perturb its own entries
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((2, 3)))
        w = t64(rng.standard_normal((4, 3)).T, rg=True)
        assert not w.data.flags.c_contiguous
        c = t64(rng.standard_normal((2, 4)))
        gradcheck(lambda: tsum(mul(matmul(x, w), c)), [w])

    def test_grad_4d_by_4d(self):
        rng = np.random.default_rng(4)
        a = t64(rng.standard_normal((2, 2, 3, 4)), rg=True)
        b = t64(rng.standard_normal((2, 2, 4, 3)), rg=True)
        c = t64(rng.standard_normal((2, 2, 3, 3)))
        gradcheck(lambda: tsum(mul(matmul(a, b), c)), [a, b])


# ---------------------------------------------------------------------------
# softmax family

class TestSoftmax:
    def test_symmetric_row(self):
        out = row_softmax(t64([[0.0, 0.0]]))
        assert np.abs(out.data - 0.5).max() < 1e-12

    def test_closed_form(self):
        out = row_softmax(t64([[np.log(3.0), 0.0]]))
        assert np.abs(out.data - [0.75, 0.25]).max() < 1e-12

    def test_bad_temperature(self):
        with pytest.raises(DomainError):
            row_softmax(t64([[1.0, 2.0]]), temperature=0.0)
        with pytest.raises(DomainError):
            log_softmax(t64([[1.0, 2.0]]), temperature=-1.0)

    def test_stability_large_logits(self):
        out = row_softmax(t64([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0, 0] - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(0.01, 5.0))
    def test_rows_sum_to_one_and_preserve_argmax(self, row, tau):
        x = np.asarray(row, dtype=np.float64)[None]
        p = row_softmax(Tensor(x), temperature=tau).data
        assert abs(p.sum() - 1.0) < 1e-6
        gap = np.sort(x[0])[-1] - np.sort(x[0])[-2]
        if gap > 1e-6:  # near-ties may collapse after the tau division
            assert p.argmax() == x.argmax()

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        lp = log_softmax(t64(x), temperature=0.7).data
        p = row_softmax(t64(x), temperature=0.7).data
        assert np.abs(lp - np.log(p)).max() < 1e-10

    def test_grads(self):
        rng = np.random.default_rng(6)
        x = t64(rng.standard_normal((3, 5)), rg=True)
        c = t64(rng.standard_normal((3, 5)))
        gradcheck(lambda: tsum(mul(row_softmax(x, 0.5), c)), [x])
        gradcheck(lambda: tsum(mul(log_softmax(x, 0.5), c)), [x])


# ---------------------------------------------------------------------------
# layer norm / gelu

class TestLayerNorm:
    def test_constant_vector_collapses_to_bias(self):
        g, b = t64(np.ones(3)), t64([1.0, 2.0, 3.0])
        out = layer_norm(t64([[1.0, 1.0, 1.0]]), g, b)
        assert np.abs(out.data - [1.0, 2.0, 3.0]).max() < 1e-9

    def test_two_point_vector(self):
        out = layer_norm(t64([[-1.0, 1.0]]), t64(np.ones(2)), t64(np.zeros(2)))
        # sigma = 1 up to the 1e-5 epsilon inside the square root
        assert np.abs(out.data - [-1.0, 1.0]).max() < 1e-4

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(7)
        out = layer_norm(t64(rng.standard_normal((2, 4))),
                         t64(np.zeros(4)), t64([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(out.data, np.broadcast_to([1.0, 2.0, 3.0, 4.0], (2, 4)))

    def test_empty_last_dim_error(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.ones((2, 0))), t64(np.ones(0)), t64(np.zeros(0)))

    def test_mismatched_params_error(self):
        with pytest.raises(ShapeError):
            layer_norm(t64(np.ones((2, 4))), t64(np.ones(3)), t64(np.zeros(4)))

    def test_grad(self):
        rng = np.random.default_rng(8)
        x = t64(rng.standard_normal((3, 6)), rg=True)
        g = t64(rng.standard_normal(6), rg=True)
        b = t64(rng.standard_normal(6), rg=True)
        c = t64(rng.standard_normal((3, 6)))
        gradcheck(lambda: tsum(mul(layer_norm(x, g, b), c)), [x, g, b])


class TestGelu:
    def test_zero(self):
        assert gelu(t64(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(gelu(t64(10.0)).item() - 10.0) < 1e-6
        assert abs(gelu(t64(-10.0)).item()) < 1e-6

    def test_grad_at_half(self):
        x = t64(0.5, rg=True)
        (ag,) = analytic_grads(lambda: gelu(x), [x])
        ng = numeric_grad(lambda: gelu(x), x, h=1e-6)
        assert abs(ag - ng) < 1e-6

    def test_grad_random(self):
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((4, 4)), rg=True)
        c = t64(rng.standard_normal((4, 4)))
        gradcheck(lambda: tsum(mul(gelu(x), c)), [x])


# ---------------------------------------------------------------------------
# dropout

class TestDropout:
    def test_p_zero_identity(self):
        x = t64([[1.0, 2.0]])
        assert dropout(x, 0.0, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = t64([[1.0, 2.0]])
        assert dropout(x, 0.9, rng=None) is x

    def test_out_of_range_p(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                dropout(t64([1.0]), p, rng=np.random.default_rng(0))

    def test_monte_carlo_drop_rate(self):
        x = Tensor(np.ones((1000, 1000), dtype=np.float32))
        out = dropout(x, 0.25, rng=np.random.default_rng(11))
        frac = float((out.data == 0).mean())
        assert abs(frac - 0.25) < 0.005
        kept = out.data[out.data != 0]
        assert np.allclose(kept, 1.0 / 0.75, atol=1e-6)

    def test_deterministic_masks(self):
        x = Tensor(np.ones((64, 64), dtype=np.float32))
        a = dropout(x, 0.25, rng=np.random.default_rng(5)).data
        b = dropout(x, 0.25, rng=np.random.default_rng(5)).data
        assert np.array_equal(a, b)

    def test_grad_is_mask(self):
        x = t64(np.ones((8, 8)), rg=True)
        with Tape() as tape:
            out = dropout(x, 0.5, rng=np.random.default_rng(3))
            tape.backward(tsum(out))
        assert np.array_equal(x.grad, out.data)


# ---------------------------------------------------------------------------
# tape mechanics

# every op of more than one input that computes a gradient: the op and the
# shapes of its inputs
SKIP_CASES = {
    "matmul-2d": (matmul, [(3, 4), (4, 2)]),
    "matmul-linear": (matmul, [(2, 3, 4), (4, 5)]),
    "matmul-4d": (matmul, [(2, 2, 3, 4), (2, 2, 4, 3)]),
    "add-bias": (add, [(2, 3, 4), (4,)]),
    "mul-scale": (mul, [(2, 3, 4), ()]),
    "div": (div, [(3, 4), (3, 1)]),
    "layer_norm": (layer_norm, [(2, 3, 4), (4,), (4,)]),
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)]),
    "lora_linear": (lambda x, w, b, A, B: lora_linear(x, w, b, A, B, 0.5,
                                                      np.random.default_rng(0)),
                    [(2, 3, 4), (4, 5), (5,), (4, 2), (2, 5)]),
    "mlp": (mlp, [(2, 3, 4), (4, 6), (6,), (6, 4), (4,)]),
    "attention": (lambda q, k, v: attention(q, k, v, None, 2), [(2, 3, 4)] * 3),
}


def adapted_loss(ds, dtype):
    """A depth-2 model with random q,v,o adapters, its adapter factors and
    a closure for its few-shot loss on six images, with adapter dropout."""
    model = small_model_for(ds, dtype=dtype)
    adapted = inject(model, PlacementConfig(matrices=("q", "v", "o")), seed=1)
    rng = np.random.default_rng(2)
    for m in adapted.modules.values():
        m.B.data = rng.standard_normal(m.B.shape).astype(dtype)
    prompts = [tokenize_prompt(n, model.vocab, model.cfg.max_text_len)
               for n in ds.class_names]
    images, labels = ds.images[::5][:6], ds.labels[::5][:6]

    def loss_fn():
        feats = encode_images(model, images, rng=np.random.default_rng(3))
        texts = encode_tokens(model, np.stack(prompts), rng=np.random.default_rng(4))
        return cross_entropy_loss(matmul(feats, transpose(texts, (1, 0))), labels,
                                  model.tau)

    return model, adapted.trainable_parameters(), loss_fn


class TestBackward:
    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    def test_no_gradient_for_an_input_that_needs_none(self, case):
        op, shapes = SKIP_CASES[case]
        rng = np.random.default_rng(13)
        for flags in itertools.product([False, True], repeat=len(shapes)):
            if not any(flags):
                continue    # nothing is recorded
            inputs = [t64(rng.standard_normal(s), rg=f) for s, f in zip(shapes, flags)]
            with Tape() as tape:
                out = op(*inputs)
            (_, _, backward), = tape._nodes
            grads = backward(np.ones_like(out.data))
            assert [g is not None for g in grads] == list(flags), flags

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_skipped_gradients_change_no_adapter_gradient(self, small_dataset, dtype):
        # oracle: the same backward with every base tensor's gradient formed too
        model, factors, loss_fn = adapted_loss(small_dataset, dtype)
        alone = analytic_grads(loss_fn, factors)
        with_base = analytic_grads(loss_fn, factors + list(model.parameters()))
        for a, b in zip(alone, with_base):
            assert a is not None
            np.testing.assert_array_equal(a, b)

    def test_only_leaves_keep_gradients(self, small_dataset):
        _, factors, loss_fn = adapted_loss(small_dataset, "float32")
        for p in factors:
            p.requires_grad = True
        with Tape() as tape:
            loss = loss_fn()
            outputs = [out for out, _, _ in tape._nodes]
            tape.backward(loss)
        assert len(outputs) > 50 and len(tape) == 0
        assert all(out.grad is None for out in outputs)
        assert all(p.grad is not None for p in factors)

    def test_an_activation_is_freed_during_the_backward(self):
        # y is kept only by the nodes after the first; once their rules have
        # run, y must be gone before the first node's rule runs
        rng = np.random.default_rng(30)
        x = t64(rng.standard_normal((4, 3)), rg=True)
        w, b = t64(rng.standard_normal((3, 5)), rg=True), t64(rng.standard_normal(5))
        alive = []
        with Tape() as tape:
            y = linear(mul(x, 2.0), w, b)
            activation = weakref.ref(y.data)
            loss = tsum(mul(y, y))
            del y
            first_out, first_inputs, first_rule = tape._nodes[0]

            def probe(g):
                alive.append(activation() is not None)
                return first_rule(g)

            tape._nodes[0] = (first_out, first_inputs, probe)
            tape.backward(loss)
        assert alive == [False]
        assert x.grad is not None and w.grad is not None

    def test_linear_grad_matches_fd(self):
        rng = np.random.default_rng(12)
        w = t64(rng.standard_normal((3, 4)), rg=True)
        x = t64(rng.standard_normal((4, 2)))
        gradcheck(lambda: tsum(matmul(w, x)), [w], h=1e-6, tol=1e-6)

    def test_unused_tensor_gets_no_grad(self):
        w = t64(np.ones((2, 2)), rg=True)
        unused = t64(np.ones((2, 2)), rg=True)
        with Tape() as tape:
            tape.backward(tsum(mul(w, 2.0)))
        assert w.grad is not None
        assert unused.grad is None

    def test_double_backward_raises(self):
        w = t64(np.ones(2), rg=True)
        with Tape() as tape:
            loss = tsum(w)
            tape.backward(loss)
            with pytest.raises(StateError):
                tape.backward(loss)

    def test_non_scalar_loss_raises(self):
        w = t64(np.ones(3), rg=True)
        with Tape() as tape:
            out = mul(w, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(out)

    def test_fanout_accumulates(self):
        x = t64(2.0, rg=True)
        with Tape() as tape:
            tape.backward(add(mul(x, 3.0), mul(x, x)))
        assert abs(float(x.grad) - 7.0) < 1e-12  # 3 + 2x at x=2

    def test_shared_gradient_buffer_is_never_written_in_place(self):
        # add hands its output gradient to both inputs as one buffer; a later
        # contribution to a must not change b's gradient through it
        a, b = t64(np.ones(3), rg=True), t64(np.ones(3), rg=True)
        with Tape() as tape:
            c = mul(a, 3.0)
            tape.backward(tsum(add(add(a, b), c)))
        np.testing.assert_array_equal(b.grad, np.ones(3))
        np.testing.assert_array_equal(a.grad, np.full(3, 4.0))

    def test_no_tape_records_nothing(self):
        x = t64(np.ones(3), rg=True)
        out = mul(x, 2.0)
        assert out.requires_grad is False

    def test_frozen_input_stays_untouched(self):
        x = t64(np.ones(3), rg=False)
        with Tape() as tape:
            tape.backward(tsum(mul(x, 2.0)))
        assert x.grad is None


# ---------------------------------------------------------------------------
# fused layers against their unfused compositions (tests/unfused.py)

def _shared_input_projections(ops, t, rng):
    """Three adapted projections of one input, as q, k and v are: x takes
    six gradients, whose order shows in its sum."""
    x, rest = t[0], t[1:]
    outs = [ops.lora_linear(x, *rest[i:i + 4], 0.25, rng) for i in (0, 4, 8)]
    return add(add(outs[0], outs[1]), outs[2])


_PAD_MASK = np.where(np.arange(5) >= np.array([[5], [3]]), -1e9, 0.0)[:, None, None, :]

# name -> (input shapes, forward(ops module, input tensors, rng))
FUSED_CASES = {
    "linear": ([(2, 5, 8), (8, 6), (6,)], lambda ops, t, rng: ops.linear(*t)),
    "linear-2d": ([(7, 8), (8, 6), (6,)], lambda ops, t, rng: ops.linear(*t)),
    "lora_linear": ([(2, 5, 8), (8, 6), (6,), (8, 2), (2, 6)],
                    lambda ops, t, rng: ops.lora_linear(*t, 0.25, rng)),
    "lora_linear-shared-input": ([(2, 5, 8)] + [(8, 8), (8,), (8, 2), (2, 8)] * 3,
                                 _shared_input_projections),
    "mlp": ([(2, 5, 8), (8, 32), (32,), (32, 8), (8,)], lambda ops, t, rng: ops.mlp(*t)),
    "mlp-2d": ([(7, 8), (8, 4), (4,), (4, 8), (8,)], lambda ops, t, rng: ops.mlp(*t)),
    "attention": ([(2, 5, 8)] * 3, lambda ops, t, rng: ops.attention(*t, None, 2)),
    "attention-masked": ([(2, 5, 8)] * 3,
                         lambda ops, t, rng: ops.attention(*t, _PAD_MASK, 2)),
}


def _run_case(ops, case, dtype, dropout_on):
    """Forward and backward of one case; the output, every input's gradient
    and the state of the dropout stream afterwards."""
    shapes, forward = FUSED_CASES[case]
    draw = np.random.default_rng(21)
    inputs = [Tensor(draw.standard_normal(s).astype(dtype), requires_grad=True)
              for s in shapes]
    rng = np.random.default_rng(22) if dropout_on else None
    with Tape() as tape:
        out = forward(ops, inputs, rng)
        weights = Tensor(draw.standard_normal(out.shape).astype(dtype))
        tape.backward(tsum(mul(out, weights)))
    return out.data, [t.grad for t in inputs], rng and rng.bit_generator.state


class TestFusedOps:
    @pytest.mark.parametrize("case,dtype,dropout_on", [
        (case, dtype, on) for case in sorted(FUSED_CASES)
        for dtype in ("float32", "float64")
        for on in ((False, True) if "lora" in case else (False,))])
    def test_bitwise_equal_to_the_unfused_composition(self, case, dtype, dropout_on):
        out, grads, state = _run_case(fused, case, dtype, dropout_on)
        want_out, want_grads, want_state = _run_case(unfused, case, dtype, dropout_on)
        assert out.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(out, want_out)
        for g, w in zip(grads, want_grads):
            assert g is not None
            np.testing.assert_array_equal(g, w)
        assert state == want_state

    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_grad(self, case):
        shapes, forward = FUSED_CASES[case]
        rng = np.random.default_rng(24)
        inputs = [t64(rng.standard_normal(s) * 0.5, rg=True) for s in shapes]
        # a fresh stream per call, so every call draws the same masks
        out_shape = forward(fused, inputs, None).shape
        c = t64(rng.standard_normal(out_shape))
        gradcheck(lambda: tsum(mul(forward(fused, inputs, np.random.default_rng(25)), c)),
                  inputs)

    def test_lora_linear_masks_like_dropout(self):
        # the mask is drawn as dropout draws it, so the identity cases hold
        rng = np.random.default_rng(26)
        x, w, b, A, B = (t64(rng.standard_normal(s)) for s in [(3, 4), (4, 4), (4,),
                                                                 (4, 2), (2, 4)])
        plain = linear(x, w, b).data + x.data @ A.data @ B.data
        for p, r in ((0.0, np.random.default_rng(0)), (0.9, None)):
            np.testing.assert_array_equal(lora_linear(x, w, b, A, B, p, r).data, plain)
        for p in (-0.1, 1.0):
            with pytest.raises(DomainError):
                lora_linear(x, w, b, A, B, p, np.random.default_rng(0))

    def test_lora_linear_dropout_is_inverted(self):
        # with w = 0, b = 0 and A = B = I the op gives drop(x) itself: about
        # 1 - p of the entries kept, each scaled so that drop(x) / x has mean 1
        p, d = 0.25, 16
        x = t64(np.random.default_rng(28).uniform(1.0, 2.0, (12_500, d)))
        eye = t64(np.eye(d))
        ratio = lora_linear(x, t64(np.zeros((d, d))), t64(np.zeros(d)), eye, eye, p,
                            np.random.default_rng(29)).data / x.data
        n = ratio.size
        kept = float((ratio != 0).mean())
        assert abs(kept - (1 - p)) < 5 * np.sqrt(p * (1 - p) / n)
        # drop(x) / x is 1 / (1 - p) with chance 1 - p, else 0: variance p / (1 - p)
        assert abs(float(ratio.mean()) - 1.0) < 5 * np.sqrt(p / (1 - p) / n)

    def test_untaped_mlp_forms_no_slope(self, monkeypatch):
        # evaluation records nothing, so it skips the slope
        rng = np.random.default_rng(27)
        x, w1, b1, w2, b2 = (t64(rng.standard_normal(s))
                             for s in [(3, 4), (4, 6), (6,), (6, 4), (4,)])
        calls, real = [], fused._gelu
        monkeypatch.setattr(fused, "_gelu",
                            lambda h, slope: calls.append(slope) or real(h, slope))
        mlp(x, w1, b1, w2, b2)
        w1.requires_grad = True
        with Tape():
            mlp(x, w1, b1, w2, b2)
        assert calls == [False, True]


# ---------------------------------------------------------------------------
# remaining ops: value spot-checks plus fd gradients

class TestElementwiseOps:
    def test_arithmetic_values(self):
        a, b = t64([2.0, 4.0]), t64([1.0, 2.0])
        assert np.array_equal(add(a, b).data, [3.0, 6.0])
        assert np.array_equal(mul(a, b).data, [2.0, 8.0])
        assert np.array_equal(div(a, b).data, [2.0, 2.0])
        assert np.array_equal((-a).data, [-2.0, -4.0])

    def test_broadcast_grads(self):
        rng = np.random.default_rng(13)
        a = t64(rng.standard_normal((3, 4)), rg=True)
        b = t64(rng.uniform(0.5, 2.0, 4), rg=True)
        c = t64(rng.standard_normal((3, 4)))
        for op in (add, mul, div):
            gradcheck(lambda op=op: tsum(mul(op(a, b), c)), [a, b])

    def test_unary_grads(self):
        rng = np.random.default_rng(14)
        x = t64(rng.uniform(0.5, 2.0, (3, 3)), rg=True)
        c = t64(rng.standard_normal((3, 3)))
        gradcheck(lambda: tsum(mul(sqrt(x), c)), [x])

    def test_l2_normalize_unit_norm_and_grad(self):
        rng = np.random.default_rng(15)
        x = t64(rng.standard_normal((4, 6)), rg=True)
        out = l2_normalize(x)
        assert np.abs(np.linalg.norm(out.data, axis=-1) - 1.0).max() < 1e-6
        c = t64(rng.standard_normal((4, 6)))
        gradcheck(lambda: tsum(mul(l2_normalize(x), c)), [x])


class TestShapeOps:
    def test_values(self):
        x = t64(np.arange(6.0).reshape(2, 3))
        assert tsum(x).item() == 15.0
        assert np.array_equal(tsum(x, axis=0).data, [3.0, 5.0, 7.0])
        assert mean(x).item() == 2.5
        assert np.array_equal(reshape(x, (3, 2)).data, np.arange(6.0).reshape(3, 2))
        assert np.array_equal(transpose(x, (1, 0)).data, x.data.T)
        assert np.array_equal(concat([x, x], axis=0).data,
                              np.concatenate([x.data, x.data]))

    def test_grads(self):
        rng = np.random.default_rng(16)
        x = t64(rng.standard_normal((2, 3, 4)), rg=True)
        c3 = t64(rng.standard_normal((3, 4)))
        gradcheck(lambda: tsum(mul(tsum(x, axis=0), c3)), [x])
        gradcheck(lambda: mean(x), [x])
        c2 = t64(rng.standard_normal((4, 6)))
        gradcheck(lambda: tsum(mul(reshape(x, (4, 6)), c2)), [x])
        ct = t64(rng.standard_normal((4, 2, 3)))
        gradcheck(lambda: tsum(mul(transpose(x, (2, 0, 1)), ct)), [x])
        y = t64(rng.standard_normal((2, 3, 4)), rg=True)
        cc = t64(rng.standard_normal((4, 3, 4)))
        gradcheck(lambda: tsum(mul(concat([x, y], axis=0), cc)), [x, y])

    def test_narrow(self):
        rng = np.random.default_rng(18)
        x = t64(rng.standard_normal((2, 5, 3)), rg=True)
        assert narrow(x, 5, axis=1) is x
        out = narrow(x, 2, axis=1)
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, x.data[:, :2])
        c = t64(rng.standard_normal((2, 2, 3)))
        gradcheck(lambda: tsum(mul(narrow(x, 2, axis=1), c)), [x])
        # past the cut the gradient is exactly zero
        with Tape() as tape:
            tape.backward(tsum(mul(narrow(x, 2, axis=1), c)))
        assert not x.grad[:, 2:].any()
        x.zero_grad()
        c0 = t64(rng.standard_normal((1, 5, 3)))
        gradcheck(lambda: tsum(mul(narrow(x, 1), c0)), [x])

    def test_broadcast_to(self):
        rng = np.random.default_rng(19)
        x = t64(rng.standard_normal(4), rg=True)
        out = broadcast_to(x, (3, 1, 4))
        assert out.shape == (3, 1, 4) and np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, np.broadcast_to(x.data, (3, 1, 4)))
        c = t64(rng.standard_normal((3, 1, 4)))
        gradcheck(lambda: tsum(mul(broadcast_to(x, (3, 1, 4)), c)), [x])


class TestIndexingOps:
    def test_take_rows_scatter_adds(self):
        table = t64(np.arange(8.0).reshape(4, 2), rg=True)
        ids = np.array([1, 1, 3])
        with Tape() as tape:
            out = take_rows(table, ids)
            tape.backward(tsum(out))
        assert np.array_equal(out.data, table.data[ids])
        # row 1 picked twice -> gradient 2, row 3 once -> 1, rest 0
        assert np.array_equal(table.grad,
                              [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_select_positions(self):
        rng = np.random.default_rng(17)
        a = t64(rng.standard_normal((3, 4, 2)), rg=True)
        idx = np.array([0, 2, 3])
        out = select_positions(a, idx)
        for i in range(3):
            assert np.array_equal(out.data[i], a.data[i, idx[i]])
        c = t64(rng.standard_normal((3, 2)))
        gradcheck(lambda: tsum(mul(select_positions(a, idx), c)), [a])

    def test_select_positions_2d(self):
        # one class per row of (batch, classes) log-probabilities
        a = t64([[1.0, 2.0], [3.0, 4.0]], rg=True)
        idx = np.array([1, 0])
        with Tape() as tape:
            out = select_positions(a, idx)
            tape.backward(tsum(out))
        assert np.array_equal(out.data, [2.0, 3.0])
        assert np.array_equal(a.grad, [[0, 1], [1, 0]])


class TestDeterminism:
    def test_op_chain_bitwise_repeatable(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((16, 16)).astype(np.float32)

        def run():
            t = Tensor(x.copy())
            return gelu(matmul(row_softmax(t), t)).data

        assert np.array_equal(run(), run())
