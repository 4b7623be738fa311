"""Baseline mechanisms: continuous-context prompts, the bottleneck adapter,
and bias-only tuning."""

import hashlib

import numpy as np
import pytest

import lorabench.baselines as baselines
from conftest import small_model_for, zero_shot_logits
from lorabench.baselines import (LinearAdapter, _soft_prompt_features,
                                 adapter_finetune, adapter_logits,
                                 bias_only_finetune, bias_parameters,
                                 soft_prompt_finetune)
from lorabench.errors import DomainError
from lorabench.fewshot import (TrainConfig, class_prompts, evaluate,
                               sample_support_set, train_on_support)
from lorabench.model import (PROMPT_TEMPLATE, encode_images, encode_tokens,
                             tokenize_prompt)
from lorabench.tensor import Tape, Tensor, matmul, transpose


def _task(ds, shots=1, seed=0):
    return sample_support_set(ds.images, ds.labels, ds.class_names, shots, seed)


def _template_context(model):
    ids = np.asarray(model.vocab.encode_words(PROMPT_TEMPLATE))
    return Tensor(model.textual.token_embed.data[ids].copy(), requires_grad=True)


# ---------------------------------------------------------------------------
# soft prompts

# a float64 soft-prompt run (model seed 0, 2 shots, task seed 0, batch 8,
# 10 steps at lr 1e-2): its accuracy, recorded when its queries were scored
# on a separate soft-prompt evaluation path, and the sha256 of the trained
# context and of the query logits, recorded when each tower's last block
# began to run at its pooled rows only (which moved both by under 1e-14
# relative)
SOFT_PROMPT_RUN = (
    0.25,
    "733655b969c3467b51fb8aba3de039a613223e132ed95948ce65ec99bb215b15",
    "9612a9cf908c46a47eaf4b952c5c63f80733dc3346d85452cc2ecee13e515015",
)


class TestSoftPrompt:
    def test_step0_equals_template_zero_shot_exactly(self, small_dataset):
        model = small_model_for(small_dataset)
        task = _task(small_dataset)
        prompts = class_prompts(model, task.class_names)
        want = zero_shot_logits(model, task.query_images, prompts).data

        context = _template_context(model)
        tokens = np.stack(prompts)
        texts = _soft_prompt_features(model, context, tokens)
        feats = encode_images(model, task.query_images)
        got = matmul(feats, transpose(texts, (1, 0))).data
        assert np.array_equal(got, want)

    def test_context_rows_are_looked_up_in_one_node(self, small_dataset):
        # the context extends the token table, so the embedding is one lookup;
        # the text tower then cuts it to the positions the prompts fill
        model = small_model_for(small_dataset)
        context = _template_context(model)
        tokens = class_prompts(model, small_dataset.class_names)
        with Tape() as tape:
            _soft_prompt_features(model, context, tokens)
        ops = [backward.__qualname__.split(".", 1)[0] for _, _, backward in tape._nodes]
        assert ops[:ops.index("layer_norm")] == ["concat", "take_rows", "add", "narrow"]

    def test_runs_at_the_filled_width(self, small_dataset):
        # the class prompts fill n of the model's 12 positions; the blocks see n
        model = small_model_for(small_dataset)
        context = _template_context(model)
        tokens = class_prompts(model, small_dataset.class_names)
        n = int((tokens != 0).sum(axis=1).max())
        assert n < model.cfg.max_text_len == 12
        with Tape() as tape:
            _soft_prompt_features(model, context, tokens)
        shapes = [out.shape for out, _, _ in tape._nodes]
        assert shapes[3] == (len(tokens), n, 16)
        assert not [s for s in shapes[3:] if 12 in s]

    def test_trainable_count_is_m_times_width(self, small_dataset):
        model = small_model_for(small_dataset, width=64, heads=4, embed_dim=32,
                                depth=1)
        task = _task(small_dataset)
        res = soft_prompt_finetune(model, task,
                                   train_cfg=TrainConfig(iters_per_shot=1))
        assert res.trainable_count == 4 * 64 == 256

    def test_only_context_changes(self, small_dataset):
        model = small_model_for(small_dataset)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        task = _task(small_dataset)
        res = soft_prompt_finetune(model, task,
                                   train_cfg=TrainConfig(iters_per_shot=3))
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]), n
        assert len(res.history.losses) == 3

    def test_run_unchanged(self, small_dataset, monkeypatch):
        seen = {}

        def train_spy(model, params, *args, **kwargs):
            seen["context"] = params[0]
            return train_on_support(model, params, *args, **kwargs)

        def evaluate_spy(*args, **kwargs):
            acc, logits = evaluate(*args, **kwargs)
            seen["logits"] = logits
            return acc, logits

        monkeypatch.setattr(baselines, "train_on_support", train_spy)
        monkeypatch.setattr(baselines, "evaluate", evaluate_spy)
        model = small_model_for(small_dataset, dtype="float64")
        res = soft_prompt_finetune(model, _task(small_dataset, shots=2),
                                   TrainConfig(batch_size=8, iters_per_shot=5,
                                               lr=1e-2))
        digest = lambda a: hashlib.sha256(a.tobytes()).hexdigest()
        assert (res.accuracy, digest(seen["context"].data),
                digest(seen["logits"])) == SOFT_PROMPT_RUN


# ---------------------------------------------------------------------------
# adapter

# float64 loss histories of adapter runs, recorded before the adapter shared
# the few-shot training loop
ADAPTER_RUN_LOSSES = {
    1: [1.3969272054354778, 1.2834322313403264, 1.561054049481823,
        1.371514763277851, 1.3258471899733106],
    2: [1.412439263298991, 1.412376237899885, 1.412314804010242,
        1.4122578819638048, 1.412207951782701, 1.412166809279999,
        1.4121353922459667, 1.4121136902617915, 1.4121007463125679,
        1.4120947499659289],
}


class TestAdapter:
    def test_alpha_zero_equivalence_exact(self, small_dataset):
        model = small_model_for(small_dataset)
        task = _task(small_dataset)
        prompts = [tokenize_prompt(n, model.vocab, 12) for n in task.class_names]
        want = zero_shot_logits(model, task.query_images, prompts).data

        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4, seed=1)
        rng = np.random.default_rng(2)  # arbitrary weights, incl. nonzero w2
        adapter.w2.data = rng.standard_normal(adapter.w2.shape).astype(np.float32)
        feats = encode_images(model, task.query_images)
        texts = encode_tokens(model, np.stack(prompts))
        got = adapter_logits(adapter, 0.0, feats, texts).data
        assert np.array_equal(got, want)

    def test_zero_mlp_any_alpha_recovers_zero_shot(self, small_dataset):
        model = small_model_for(small_dataset)
        task = _task(small_dataset)
        prompts = [tokenize_prompt(n, model.vocab, 12) for n in task.class_names]
        feats = encode_images(model, task.query_images)
        texts = encode_tokens(model, np.stack(prompts))
        want = matmul(feats, transpose(texts, (1, 0))).data
        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4, seed=1)
        # w2 is zero-initialized, so the MLP output is zero for any alpha
        got = adapter_logits(adapter, 0.5, feats, texts).data
        assert np.abs(got - want).max() < 1e-6

    def test_trainable_count_552(self):
        adapter = LinearAdapter(32, bottleneck=8)
        assert adapter.param_count() == 552  # 2*32*8 weights + 8 + 32 biases

    def test_bottleneck_bound(self):
        with pytest.raises(DomainError):
            LinearAdapter(8, bottleneck=8)

    def test_alpha_range(self, small_dataset):
        model = small_model_for(small_dataset)
        task = _task(small_dataset)
        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4)
        with pytest.raises(DomainError):
            adapter_finetune(model, task, adapter, alpha=1.5,
                             train_cfg=TrainConfig(iters_per_shot=1))

    def test_finetune_trains_only_adapter(self, small_dataset):
        model = small_model_for(small_dataset)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        task = _task(small_dataset)
        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4, seed=0)
        res = adapter_finetune(model, task, adapter, alpha=0.5,
                               train_cfg=TrainConfig(iters_per_shot=3))
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]), n
        assert res.trainable_count == adapter.param_count()
        assert 0.0 <= res.accuracy <= 1.0

    @pytest.mark.parametrize("shots", sorted(ADAPTER_RUN_LOSSES))
    def test_loss_history_unchanged(self, small_dataset, shots):
        # batch 8 over a support set of 4 classes x shots images: equal to
        # the batch at 2 shots, smaller than it at 1
        model = small_model_for(small_dataset, dtype="float64")
        task = _task(small_dataset, shots=shots)
        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4, seed=0,
                                dtype=np.float64)
        res = adapter_finetune(model, task, adapter, alpha=0.5,
                               train_cfg=TrainConfig(batch_size=8, iters_per_shot=5))
        np.testing.assert_allclose(res.history.losses, ADAPTER_RUN_LOSSES[shots],
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# bias-only

class TestBiasOnly:
    def test_weight_matrices_bitwise_stable(self, small_dataset):
        model = small_model_for(small_dataset)
        weights_before = {n: p.data.copy() for n, p in model.named_parameters()
                          if p.data.ndim >= 2 or "ln" in n or n == "temperature"
                          or n.endswith("cls_token")}
        bias_before = [p.data.copy() for p in bias_parameters(model)]
        task = _task(small_dataset, shots=2)
        res = bias_only_finetune(model, task, TrainConfig(iters_per_shot=3))
        for n, p in model.named_parameters():
            if n in weights_before:
                assert np.array_equal(p.data, weights_before[n]), n
        changed = any(not np.array_equal(p.data, b)
                      for p, b in zip(bias_parameters(model), bias_before))
        assert changed
        assert res.trainable_count == sum(p.size for p in bias_parameters(model))

    def test_count_is_sum_of_bias_lengths(self, small_dataset):
        model = small_model_for(small_dataset)  # width 16, depth 2
        # per block: bq,bk,bv,bo (16 each) + b1 (64) + b2 (16) = 144
        assert sum(p.size for p in bias_parameters(model)) == 2 * 2 * 144

    def test_zero_steps_keeps_zero_shot_accuracy(self, small_dataset):
        from lorabench.fewshot import evaluate
        model = small_model_for(small_dataset)
        task = _task(small_dataset)
        zs, _ = evaluate(model, task)
        res = bias_only_finetune(model, task, TrainConfig(iters_per_shot=0))
        assert res.accuracy == zs
        assert len(res.history.losses) == 0
