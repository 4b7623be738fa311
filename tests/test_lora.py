"""Low-rank adapter engine: init, forward, placement, merge, counting."""

import numpy as np
import pytest

from conftest import small_model_for, zero_shot_logits
from lorabench.errors import DomainError, StateError
from lorabench.fewshot import TrainConfig, finetune_lora, sample_support_set
from lorabench.lora import (PlacementConfig, _encoder_of, init_lora, inject,
                            merge, trainable_param_count, unmerge)
from lorabench.model import _lora_linear, tokenize_prompt
from lorabench.tensor import Tape, Tensor


def _task(ds, shots=1, seed=0):
    return sample_support_set(ds.images, ds.labels, ds.class_names, shots, seed)


def _logits(model, ds):
    prompts = [tokenize_prompt(n, model.vocab, model.cfg.max_text_len)
               for n in ds.class_names]
    return zero_shot_logits(model, ds.images[:20], prompts).data


def _randomize_modules(adapted, scale=0.05, seed=0):
    rng = np.random.default_rng(seed)
    for m in adapted.modules.values():
        m.B.data = (rng.standard_normal(m.B.shape) * scale).astype(m.B.dtype)


# ---------------------------------------------------------------------------
# module init

class TestInit:
    def test_b_zero_delta_zero(self):
        # input-major like the host weight: A (d_in, r), B (r, d_out)
        m = init_lora(8, 6, 2, seed=0)
        assert m.A.shape == (6, 2)
        assert np.array_equal(m.B.data, np.zeros((2, 8)))
        assert np.array_equal(m.delta(), np.zeros((6, 8)))

    def test_same_seed_bitwise(self):
        a = init_lora(8, 8, 2, seed=5)
        b = init_lora(8, 8, 2, seed=5)
        assert np.array_equal(a.A.data, b.A.data)

    def test_kaiming_bound_d64(self):
        m = init_lora(64, 64, 16, seed=0)
        bound = np.sqrt(6.0 / 64.0)
        assert np.abs(m.A.data).max() <= bound
        # uniform over 1024 samples should come close to the bound
        assert np.abs(m.A.data).max() > 0.9 * bound

    def test_rank_out_of_range(self):
        for r in (0, 9):
            with pytest.raises(DomainError):
                init_lora(8, 8, r)

    def test_param_count(self):
        m = init_lora(8, 6, 2)
        assert m.param_count() == 2 * 6 + 8 * 2


def _linear(rng, d=4):
    """A row-convention (input-major) weight and bias, as blocks store them."""
    return Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal(d))


class TestLoraForward:
    """The adapted projection of every attention block, `model._lora_linear`:
    x @ W + b + drop(x) @ A @ B on rows x."""

    def test_b_zero_is_plain_linear(self):
        rng = np.random.default_rng(0)
        W, b = _linear(rng)
        x = rng.standard_normal((3, 4))
        m = init_lora(4, 4, 2, seed=1, dtype=np.float64)
        out = _lora_linear(Tensor(x), W, b, m, rng=None)
        assert np.array_equal(out.data, x @ W.data + b.data)

    def test_dense_materialization_oracle(self):
        rng = np.random.default_rng(2)
        W, b = _linear(rng)
        x = rng.standard_normal((3, 4))
        m = init_lora(4, 4, 2, seed=3, dtype=np.float64)
        m.B.data = rng.standard_normal((2, 4))
        want = x @ (W.data + m.A.data @ m.B.data) + b.data
        out = _lora_linear(Tensor(x), W, b, m, rng=None)
        assert np.abs(out.data - want).max() < 1e-12

    def test_batch_matches_vector_path(self):
        rng = np.random.default_rng(3)
        W, b = _linear(rng)
        xb = rng.standard_normal((5, 4))
        m = init_lora(4, 4, 2, seed=4, dtype=np.float64)
        m.B.data = rng.standard_normal((2, 4))
        batch = _lora_linear(Tensor(xb), W, b, m, rng=None).data
        for i in range(5):
            single = _lora_linear(Tensor(xb[i]), W, b, m, rng=None).data
            assert np.abs(batch[i] - single).max() < 1e-12

    def test_records_no_transpose_or_mul(self):
        # the factors share the host weight's input-major layout, and the
        # projection, its dropout and its low-rank path are one node
        rng = np.random.default_rng(4)
        W, b = _linear(rng)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        m = init_lora(4, 4, 2, dropout=0.5, seed=5, dtype=np.float64)
        with Tape() as tape:
            _lora_linear(x, W, b, m, rng=rng)
        ops = [backward.__qualname__.split(".", 1)[0] for _, _, backward in tape._nodes]
        assert ops == ["lora_linear"]


# ---------------------------------------------------------------------------
# placement

class TestPlacement:
    def test_defaults(self):
        cfg = PlacementConfig()
        assert cfg.matrices == ("q", "k", "v")
        assert (cfg.layer_span, cfg.encoders) == ("all", "both")
        assert (cfg.rank, cfg.dropout) == (2, 0.25)

    def test_validation(self):
        with pytest.raises(DomainError):
            PlacementConfig(matrices=())
        with pytest.raises(DomainError):
            PlacementConfig(matrices=("q", "q"))
        with pytest.raises(DomainError):
            PlacementConfig(matrices=("x",))
        with pytest.raises(DomainError):
            PlacementConfig(layer_span="middle")
        with pytest.raises(DomainError):
            PlacementConfig(encoders="audio")
        with pytest.raises(DomainError):
            PlacementConfig(rank=0)
        with pytest.raises(DomainError):
            PlacementConfig(dropout=1.0)

    @pytest.mark.parametrize("rank", [2.0, True], ids=["float", "bool"])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(DomainError, match="rank must be an integer >= 1"):
            PlacementConfig(rank=rank)

    def test_layer_spans(self):
        assert list(PlacementConfig(layer_span="bottom").selected_layers(4)) == [0, 1]
        assert list(PlacementConfig(layer_span="up").selected_layers(4)) == [2, 3]
        assert list(PlacementConfig(layer_span="all").selected_layers(4)) == [0, 1, 2, 3]
        # odd depth: bottom takes the extra layer
        assert list(PlacementConfig(layer_span="bottom").selected_layers(5)) == [0, 1, 2]
        assert list(PlacementConfig(layer_span="up").selected_layers(5)) == [3, 4]

    def test_default_target_count(self):
        assert len(PlacementConfig().targets(4)) == 24

    def test_bottom_v_vision(self):
        cfg = PlacementConfig(matrices=("v",), layer_span="bottom",
                              encoders="vision")
        assert cfg.targets(4) == [("vision", 0, "v"), ("vision", 1, "v")]

    def test_text_qkvo_all(self):
        cfg = PlacementConfig(matrices=("q", "k", "v", "o"), encoders="text")
        targets = cfg.targets(4)
        assert len(targets) == 16
        assert all(t[0] == "text" for t in targets)


# ---------------------------------------------------------------------------
# inject / merge / unmerge on a real model

class TestInject:
    def test_zero_init_noop_bitwise(self, small_dataset):
        model = small_model_for(small_dataset)
        before = _logits(model, small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        after = _logits(model, small_dataset)
        assert np.array_equal(before, after)
        assert adapted.trainable_count() > 0

    def test_double_inject_raises(self, small_dataset):
        model = small_model_for(small_dataset)
        inject(model, PlacementConfig(), seed=0)
        with pytest.raises(StateError):
            inject(model, PlacementConfig(), seed=0)

    def test_base_and_modules_frozen_at_rest(self, small_dataset):
        # only the training loop marks tensors, and only for its steps
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        assert all(not p.requires_grad for p in model.parameters())
        assert all(not p.requires_grad for p in adapted.trainable_parameters())

    def test_placement_exactness(self, small_dataset):
        model = small_model_for(small_dataset)
        cfg = PlacementConfig(matrices=("q", "v"), layer_span="up",
                              encoders="text")
        adapted = inject(model, cfg, seed=0)
        for enc_name, enc in (("vision", model.visual), ("text", model.textual)):
            for i, blk in enumerate(enc.blocks):
                expect = {"q", "v"} if (enc_name, i) in {("text", 1)} else set()
                assert set(blk.lora) == expect, (enc_name, i)
        assert set(adapted.modules) == {("text", 1, "q"), ("text", 1, "v")}

    def test_rank_exceeding_width(self, small_dataset):
        model = small_model_for(small_dataset)  # width 16
        with pytest.raises(DomainError):
            inject(model, PlacementConfig(rank=32), seed=0)
        assert not model.has_lora()


class TestMerge:
    def test_fresh_inject_merge_is_noop(self, small_dataset):
        model = small_model_for(small_dataset)
        before = _logits(model, small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        merge(adapted)
        assert np.array_equal(_logits(model, small_dataset), before)

    def test_merge_equivalence_32bit(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        _randomize_modules(adapted)
        dynamic = _logits(model, small_dataset)
        merge(adapted)
        merged = _logits(model, small_dataset)
        assert np.abs(dynamic - merged).max() < 1e-5

    def test_merge_equivalence_64bit(self, small_dataset):
        model = small_model_for(small_dataset, dtype="float64")
        adapted = inject(model, PlacementConfig(), seed=0)
        _randomize_modules(adapted)
        dynamic = _logits(model, small_dataset)
        merge(adapted)
        merged = _logits(model, small_dataset)
        assert np.abs(dynamic - merged).max() < 1e-10

    def test_merged_param_count_unchanged(self, small_dataset):
        model = small_model_for(small_dataset)
        base_count = model.param_count()
        adapted = inject(model, PlacementConfig(), seed=0)
        merged = merge(adapted)
        assert merged.param_count() == base_count
        assert not merged.has_lora()

    def test_merge_unmerge_bitwise(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        _randomize_modules(adapted)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        merge(adapted)
        unmerge(adapted)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]), n
        assert model.has_lora()

    def test_unmerge_restores_the_arrays_merge_replaced(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        _randomize_modules(adapted)
        weights = [_encoder_of(model, enc).blocks[layer].weight(mat)
                   for enc, layer, mat in adapted.modules]
        before = [w.data for w in weights]
        merge(adapted)
        unmerge(adapted)
        assert all(w.data is arr for w, arr in zip(weights, before))

    def test_merge_twice_same_weights(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        _randomize_modules(adapted)
        merge(adapted)
        first = {n: p.data.copy() for n, p in model.named_parameters()}
        unmerge(adapted)
        merge(adapted)
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, first[n]), n

    def test_double_merge_raises(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        merge(adapted)
        with pytest.raises(StateError):
            merge(adapted)

    def test_unmerge_without_merge_raises(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        with pytest.raises(StateError):
            unmerge(adapted)


# ---------------------------------------------------------------------------
# counting

class TestCounting:
    def test_single_matrix_formula(self):
        cfg = PlacementConfig(matrices=("q",), layer_span="all",
                              encoders="vision", rank=2)
        assert trainable_param_count(cfg, depth=1, width=8) == 2 * (8 + 8)

    def test_toy_default_is_6144(self):
        assert trainable_param_count(PlacementConfig(), depth=4, width=64) == 6144

    def test_linear_in_rank(self):
        c2 = trainable_param_count(PlacementConfig(rank=2), 4, 64)
        c4 = trainable_param_count(PlacementConfig(rank=4), 4, 64)
        assert c4 == 2 * c2

    def test_formula_matches_enumeration(self, small_dataset):
        for cfg in (PlacementConfig(),
                    PlacementConfig(matrices=("q", "o"), layer_span="bottom"),
                    PlacementConfig(matrices=("k",), encoders="vision", rank=4)):
            model = small_model_for(small_dataset)
            adapted = inject(model, cfg, seed=0)
            want = trainable_param_count(cfg, model.cfg.depth, model.cfg.width)
            assert adapted.trainable_count() == want
            assert sum(p.size for p in adapted.trainable_parameters()) == want


# ---------------------------------------------------------------------------
# training leaves the base frozen

class TestFrozenBase:
    def test_short_finetune_changes_only_modules(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        base_before = {n: p.data.copy() for n, p in model.named_parameters()}
        a_before = adapted.modules[("vision", 0, "q")].A.data.copy()
        task = _task(small_dataset, shots=2)
        finetune_lora(adapted, task, TrainConfig(iters_per_shot=3, seed=0))
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, base_before[n]), n
        assert not np.array_equal(adapted.modules[("vision", 0, "q")].A.data,
                                  a_before)

