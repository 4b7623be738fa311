"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with `pytest -s` or `-rA`).
The desk-scale pipeline (pretrain + 3-seed 4-shot adaptation) runs once in a
module fixture and feeds several criteria.
"""

import time

import numpy as np
import pytest

from conftest import small_model_for, zero_shot_logits
from lorabench.baselines import (LinearAdapter, _soft_prompt_features,
                                 adapter_logits, bias_only_finetune)
from lorabench.bench import pretrain_model, run_ablation
from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.fewshot import (PretrainConfig, TrainConfig, cross_entropy_loss,
                               evaluate, finetune_lora, sample_support_set)
from lorabench.lora import PlacementConfig, inject, merge, trainable_param_count
from lorabench.model import (DualEncoderModel, ModelConfig, PROMPT_TEMPLATE,
                             encode_images, encode_tokens, load_checkpoint,
                             save_checkpoint, tokenize_prompt)
from lorabench.optim import cosine_lr
from lorabench.report import write_report_csv
from lorabench.tensor import Tensor, matmul, row_softmax, transpose

# the pipeline fixture takes most of the suite's time: `pytest -m "not slow"` skips it
pytestmark = pytest.mark.slow


def check(num, desc, cond):
    print(f"[{'PASS' if cond else 'FAIL'}] criterion {num}: {desc}")
    assert cond, f"criterion {num}: {desc}"


def _prompts(model, class_names):
    return [tokenize_prompt(n, model.vocab, model.cfg.max_text_len)
            for n in class_names]


def _logits(model, images, class_names):
    return zero_shot_logits(model, images, _prompts(model, class_names)).data


@pytest.fixture(scope="module")
def desk_dataset():
    """8 classes x 64 images of 16x16 pixels (the default desk-scale corpus)."""
    return generate_dataset(SyntheticDatasetSpec(noise=0.6, seed=0))


@pytest.fixture(scope="module")
def pipeline(desk_dataset, tmp_path_factory):
    """Contrastive pretraining on the clean rendering, then 3-seed 4-shot
    adaptation on a pixel-shifted rendering of the same classes."""
    root = tmp_path_factory.mktemp("pipeline")
    t0 = time.time()
    model, pre_hist = pretrain_model(desk_dataset,
                                     PretrainConfig(epochs=40, lr=1e-3, seed=0))
    ckpt = root / "ckpt"
    save_checkpoint(model, ckpt)
    shifted = generate_dataset(SyntheticDatasetSpec(noise=0.6, pixel_shift=1,
                                                    seed=0))
    runs = []
    for seed in (0, 1, 2):
        m = load_checkpoint(ckpt)
        task = sample_support_set(shifted.images, shifted.labels,
                                  shifted.class_names, shots=4, seed=seed)
        zs, _ = evaluate(m, task)
        base_before = {n: p.data.copy() for n, p in m.named_parameters()}
        adapted = inject(m, PlacementConfig(), seed=seed)
        hist = finetune_lora(adapted, task, TrainConfig(seed=seed))
        acc, _ = evaluate(m, task)
        base_intact = all(np.array_equal(p.data, base_before[n])
                          for n, p in m.named_parameters())
        runs.append({"seed": seed, "zs": zs, "acc": acc, "hist": hist,
                     "base_intact": base_intact,
                     "trainable": adapted.trainable_count(),
                     "total": m.param_count()})
    return {"runs": runs, "pretrain_history": pre_hist, "ckpt": ckpt,
            "shifted": shifted, "seconds": time.time() - t0}


def test_criterion_01_zero_init_noop(desk_dataset):
    model = DualEncoderModel(ModelConfig(vocab_words=desk_dataset.vocab_words),
                             seed=0)
    images = np.random.default_rng(0).standard_normal((100, 16, 16))
    before = _logits(model, images, desk_dataset.class_names)
    inject(model, PlacementConfig(), seed=0)
    after = _logits(model, images, desk_dataset.class_names)
    check(1, "freshly injected adapters leave logits bitwise unchanged "
             "on 100 random images", np.array_equal(before, after))


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-10)])
def test_criterion_02_merge_equivalence(desk_dataset, dtype, tol):
    model = small_model_for(desk_dataset, dtype=dtype, depth=2, width=32,
                            heads=2, embed_dim=16)
    base_count = model.param_count()
    adapted = inject(model, PlacementConfig(), seed=0)
    task = sample_support_set(desk_dataset.images, desk_dataset.labels,
                              desk_dataset.class_names, shots=1, seed=0)
    finetune_lora(adapted, task, TrainConfig(iters_per_shot=200, seed=0))
    inputs = np.random.default_rng(1).standard_normal((100, 16, 16))
    dynamic = _logits(model, inputs, desk_dataset.class_names)
    merged = merge(adapted)
    static = _logits(model, inputs, desk_dataset.class_names)
    diff = float(np.abs(dynamic - static).max())
    check(2, f"after 200 training steps, |dynamic - merged| = {diff:.2e} "
             f"< {tol:.0e} at {dtype} and parameter count is unchanged",
          diff < tol and merged.param_count() == base_count)


def test_criterion_03_gradient_correctness(small_dataset):
    model = small_model_for(small_dataset, dtype="float64", depth=1, width=8,
                            heads=2, embed_dim=4, seed=0)
    adapted = inject(model, PlacementConfig(dropout=0.0), seed=0)
    imgs = small_dataset.images[:4].astype(np.float64)
    labels = small_dataset.labels[:4]
    prompts = _prompts(model, small_dataset.class_names)

    def loss_fn():
        feats = encode_images(model, imgs)
        texts = encode_tokens(model, np.stack(prompts))
        return cross_entropy_loss(matmul(feats, transpose(texts, (1, 0))),
                                  labels, model.tau)

    from conftest import analytic_grads, max_rel_err, numeric_grad
    params = adapted.trainable_parameters()
    grads = analytic_grads(loss_fn, params)
    worst = 0.0
    for p, ag in zip(params, grads):
        assert ag is not None
        worst = max(worst, max_rel_err(ag, numeric_grad(loss_fn, p, h=1e-5)))
    check(3, f"all {sum(p.size for p in params)} adapter parameters match "
             f"finite differences (worst rel err {worst:.2e} < 1e-4)",
          worst < 1e-4)


def test_criterion_04_parameter_accounting(desk_dataset):
    cfg = PlacementConfig()
    formula = trainable_param_count(cfg, depth=4, width=64)
    model = DualEncoderModel(ModelConfig(vocab_words=desk_dataset.vocab_words),
                             seed=0)
    adapted = inject(model, cfg, seed=0)
    enumerated = sum(p.size for p in adapted.trainable_parameters())
    check(4, f"formula {formula} == enumeration {enumerated} == 6144",
          formula == enumerated == 6144)


def test_criterion_05_hyperparameter_fidelity(pipeline):
    hist = pipeline["runs"][0]["hist"]
    ok = (len(hist.losses) == 2000
          and hist.lrs[0] == 2e-4
          and abs(hist.lrs[1000] - 1e-4) < 1e-9
          and cosine_lr(2000, 2000, 2e-4) == 0.0)
    check(5, "4-shot x 8 classes runs exactly 2000 iterations; lr trace "
             "2e-4 -> 1e-4 at midpoint (1e-9) -> 0 at the end", ok)


def test_criterion_06_desk_scale_pipeline(pipeline):
    runs = pipeline["runs"]
    zs = float(np.mean([r["zs"] for r in runs]))
    acc = float(np.mean([r["acc"] for r in runs]))
    frac = runs[0]["trainable"] / runs[0]["total"]
    ok = (acc - zs >= 0.15) and (frac < 0.05)
    check(6, f"3-seed mean accuracy {acc:.3f} beats zero-shot {zs:.3f} by "
             f"{100 * (acc - zs):.1f} pts (>= 15) with {100 * frac:.2f}% "
             f"trainable params (< 5%); {pipeline['seconds']:.0f}s", ok)


def test_criterion_07_frozen_base_integrity(pipeline):
    intact = all(r["base_intact"] for r in pipeline["runs"])
    check(7, "every non-adapter tensor is bitwise identical before and after "
             "the pipeline's training runs", intact)


def test_criterion_08_ablation_grid(small_dataset, tmp_path):
    factory = lambda: small_model_for(small_dataset, seed=0)
    placements = [PlacementConfig(matrices=(group,), rank=rank)
                  for group in ("q", "v") for rank in (1, 2)]
    cfg = TrainConfig(iters_per_shot=2)

    def run(path):
        rows, skipped = run_ablation(factory, small_dataset, placements, shots=1,
                                     n_seeds=3, master_seed=0, train_cfg=cfg)
        assert not skipped
        write_report_csv(path, rows, ablation=True)
        return rows

    rows = run(tmp_path / "a.csv")
    run(tmp_path / "b.csv")
    keys = {(r.extra["group"], r.extra["rank"], r.extra["span"],
             r.extra["encoders"], r.seed) for r in rows}
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    check(8, f"2 groups x 2 ranks x 3 seeds gives {len(rows)} rows "
             f"({len(keys)} unique keys) and a byte-identical rerun",
          len(rows) == 12 and len(keys) == 12 and identical)


def test_criterion_09_baseline_contracts(small_dataset):
    model = small_model_for(small_dataset)
    task = sample_support_set(small_dataset.images, small_dataset.labels,
                              small_dataset.class_names, shots=1, seed=0)
    prompts = _prompts(model, task.class_names)
    want = zero_shot_logits(model, task.query_images, prompts).data

    # soft-prompt step 0: context initialized from the template embeddings
    ids = np.asarray(model.vocab.encode_words(PROMPT_TEMPLATE))
    context = Tensor(model.textual.token_embed.data[ids].copy(),
                     requires_grad=True)
    tokens = np.stack(prompts)
    texts = _soft_prompt_features(model, context, tokens)
    feats = encode_images(model, task.query_images)
    soft = matmul(feats, transpose(texts, (1, 0))).data
    soft_ok = np.array_equal(soft, want)

    # adapter residual bypass at alpha = 0, arbitrary weights
    adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=4, seed=1)
    adapter.w2.data = np.random.default_rng(2).standard_normal(
        adapter.w2.shape).astype(np.float32)
    adapted = adapter_logits(adapter, 0.0, feats,
                             encode_tokens(model, np.stack(prompts))).data
    adapter_ok = np.array_equal(adapted, want)

    # bias-only training keeps every weight matrix bitwise intact
    weights_before = {n: p.data.copy() for n, p in model.named_parameters()
                      if p.data.ndim >= 2}
    bias_only_finetune(model, task, TrainConfig(iters_per_shot=3))
    bias_ok = all(np.array_equal(p.data, weights_before[n])
                  for n, p in model.named_parameters() if n in weights_before)

    check(9, f"soft-prompt step-0 exact: {soft_ok}; adapter alpha=0 exact: "
             f"{adapter_ok}; bias-only weights bitwise stable: {bias_ok}",
          soft_ok and adapter_ok and bias_ok)


def test_criterion_10_posterior_properties():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.uniform(-1.0, 1.0, (1000, 8)))
    sums_ok, argmax_ok = True, True
    base = logits.data.argmax(axis=1)
    for tau in (0.01, 0.07, 1.0):
        p = row_softmax(logits, temperature=tau).data
        sums_ok &= bool(np.abs(p.sum(axis=1) - 1.0).max() < 1e-6)
        argmax_ok &= bool(np.array_equal(p.argmax(axis=1), base))
    check(10, "posterior rows sum to 1 within 1e-6 and argmax is invariant "
              "under tau in {0.01, 0.07, 1.0} on 1000 random rows",
          sums_ok and argmax_ok)


def test_training_loss_decreases_smoothed(pipeline):
    # sanity on the desk-scale run: dropout makes per-step loss noisy, so
    # compare broad window means rather than consecutive steps
    losses = np.asarray(pipeline["runs"][0]["hist"].losses)
    quarter = len(losses) // 4
    assert losses[-quarter:].mean() < 0.8 * losses[:quarter].mean()
    assert losses[-quarter:].mean() < losses[quarter:2 * quarter].mean()


def test_pretraining_beats_chance_on_heldout_queries(pipeline):
    # zero-shot on query images never seen by pretraining-time adaptation:
    # must clear chance (1/8) by a wide margin after contrastive pretraining
    zs = float(np.mean([r["zs"] for r in pipeline["runs"]]))
    assert zs >= 0.125 + 0.20
