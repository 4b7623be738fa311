"""Benchmark harness: per-seed runs for each method, the ablation grid over
placement coordinates, and the pretrain step, all producing RunReport rows."""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .baselines import (LinearAdapter, adapter_finetune, bias_only_finetune,
                        soft_prompt_finetune)
from .data import Dataset
from .errors import DomainError, LorabenchError
from .fewshot import (FewShotTask, PretrainConfig, TrainConfig, accuracy,
                      class_prompts, contrastive_pretrain, evaluate,
                      finetune_lora, sample_support_set, zero_shot_logits)
from .lora import PlacementConfig, inject, merge, unmerge
from .model import DualEncoderModel, ModelConfig, save_checkpoint
from .report import RunReport, mean_report

METHODS = ("zero-shot", "lora", "soft-prompt", "adapter", "bias-only")
SHOT_GRID = (1, 2, 4, 8, 16)

DEFAULT_GROUPS = ("q", "k", "v", "o", "qk", "qkv", "qkvo")
DEFAULT_RANKS = (1, 2, 4, 8, 16)

# largest |merged - unmerged| query logit a lora row may report
MERGE_TOLERANCE = 1e-5

ModelFactory = Callable[[], DualEncoderModel]


def default_ablation_cells() -> list[tuple[str, int, str, str]]:
    """The documented default grid: 7 matrix groups x 5 ranks at every layer,
    plus the 7 groups at rank 2 restricted to the bottom or upper half."""
    cells = [(g, r, "all", "both") for g in DEFAULT_GROUPS for r in DEFAULT_RANKS]
    cells += [(g, 2, span, "both") for g in DEFAULT_GROUPS for span in ("bottom", "up")]
    return cells


def derive_seed(master: int, *parts) -> int:
    """Stable per-cell seed from the master seed and the cell coordinates."""
    h = zlib.crc32(repr((master,) + parts).encode())
    return int(h)


def base_zero_shot_accuracies(model: DualEncoderModel, ds: Dataset,
                              tasks: list[FewShotTask]) -> list[float]:
    """Every task's zero-shot accuracy, read from one evaluation of `model`
    on the union of the tasks' query images (rows of `ds`)."""
    union = np.unique(np.concatenate([t.query_indices for t in tasks]))
    pooled = FewShotTask(class_names=list(ds.class_names),
                         support_images=ds.images[:0], support_labels=ds.labels[:0],
                         query_images=ds.images[union], query_labels=ds.labels[union],
                         query_indices=union)
    _, logits = evaluate(model, pooled)
    return [accuracy(logits[np.searchsorted(union, t.query_indices)], t.query_labels)
            for t in tasks]


def run_single(model_factory: ModelFactory, task: FewShotTask, method: str,
               seed: int, zs_acc: float, zs_seconds: float = 0.0,
               placement: Optional[PlacementConfig] = None,
               train_cfg: Optional[TrainConfig] = None,
               record_seconds: bool = True,
               merged_checkpoint: Optional[str] = None) -> RunReport:
    """One (method, shots, seed) row on a freshly loaded model.

    `zs_acc` is the base model's zero-shot accuracy on `task`, from the
    command's one zero-shot pass; `zs_seconds` is this row's share of that
    pass, and is the `seconds` of a zero-shot row.  A trained row's `seconds`
    covers its training and its final evaluation.
    """
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    model = model_factory()
    cfg = replace(train_cfg or TrainConfig(), seed=seed)
    t0 = time.perf_counter()
    model.set_trainable(False)
    total = model.param_count()
    iters = cfg.iterations(task.shots)
    config_digest = "-"

    if method == "zero-shot":
        acc, trainable, iters = zs_acc, 0, 0
    elif method == "lora":
        pl = placement or PlacementConfig()
        config_digest = pl.digest()
        adapted = inject(model, pl, seed=seed)
        finetune_lora(adapted, task, cfg)
        acc, logits = evaluate(adapted.base, task)
        trainable = adapted.trainable_count()
        _assert_merge_equivalence(adapted, task, logits)
        if merged_checkpoint is not None:
            save_checkpoint(adapted.base, merged_checkpoint)
        unmerge(adapted)
    elif method == "soft-prompt":
        res = soft_prompt_finetune(model, task, cfg)
        acc, trainable = res.accuracy, res.trainable_count
        config_digest = "ctx4"
    elif method == "adapter":
        adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=8, seed=seed,
                                dtype=model.cfg.np_dtype)
        res = adapter_finetune(model, task, adapter, alpha=0.5, train_cfg=cfg)
        acc, trainable = res.accuracy, res.trainable_count
        config_digest = "mlp8-a0.5"
    else:  # bias-only
        res = bias_only_finetune(model, task, cfg)
        acc, trainable = res.accuracy, res.trainable_count
        config_digest = "bias"

    seconds = zs_seconds if method == "zero-shot" else time.perf_counter() - t0
    return RunReport(method=method, config=config_digest, shots=task.shots, seed=seed,
                     zs_acc=zs_acc, acc=acc, trainable=trainable, total=total,
                     iters=iters, seconds=seconds if record_seconds else None)


def _assert_merge_equivalence(adapted, task: FewShotTask,
                              logits: np.ndarray) -> None:
    """Merged logits must agree with `logits`, the adapted model's query
    logits before the merge, before a lora row is reported."""
    model = adapted.base
    n = min(100, task.query_images.shape[0])
    merge(adapted)
    merged = zero_shot_logits(model, task.query_images[:n],
                              class_prompts(model, task.class_names)).data
    diff = float(np.abs(logits[:n] - merged).max())
    if diff >= MERGE_TOLERANCE:
        unmerge(adapted)
        raise LorabenchError(f"merge equivalence violated: max logit diff {diff:.3e}")
    # leave the model merged; callers unmerge when they need the modules back


def _sample_tasks(ds: Dataset, shots: int, seeds: list[int]) -> list[FewShotTask]:
    return [sample_support_set(ds.images, ds.labels, ds.class_names, shots, seed)
            for seed in seeds]


def run_method_over_seeds(model_factory: ModelFactory, ds: Dataset, method: str,
                          shots: int, seeds: list[int],
                          placement: Optional[PlacementConfig] = None,
                          train_cfg: Optional[TrainConfig] = None,
                          record_seconds: bool = True,
                          merged_checkpoint_dir: Optional[str] = None
                          ) -> list[RunReport]:
    """Per-seed rows plus one aggregated 'mean' row.  Every seed's task is
    sampled first, and one base zero-shot pass gives every row its zs_acc."""
    tasks = _sample_tasks(ds, shots, seeds)
    base = model_factory()
    t0 = time.perf_counter()
    zs_accs = base_zero_shot_accuracies(base, ds, tasks)
    zs_seconds = (time.perf_counter() - t0) / len(tasks)
    # a zero-shot row changes nothing, so it reuses the model of that pass
    factory = (lambda: base) if method == "zero-shot" else model_factory
    rows = []
    for seed, task, zs_acc in zip(seeds, tasks, zs_accs):
        merged = None
        if merged_checkpoint_dir is not None and method == "lora":
            merged = f"{merged_checkpoint_dir}/merged_seed{seed}"
        rows.append(run_single(factory, task, method, seed, zs_acc, zs_seconds,
                               placement=placement, train_cfg=train_cfg,
                               record_seconds=record_seconds,
                               merged_checkpoint=merged))
    rows.append(mean_report(rows))
    return rows


def run_ablation(model_factory: ModelFactory, ds: Dataset,
                 placements: list[PlacementConfig], shots: int,
                 n_seeds: int, master_seed: int = 0, workers: int = 1,
                 train_cfg: Optional[TrainConfig] = None
                 ) -> tuple[list[RunReport], list[tuple]]:
    """One lora row per (placement, seed), ordered by placement then seed.
    A placement whose rank exceeds the base model's width is skipped before
    any model is loaded for it; the second return value lists it with the
    reason.  Every row's task is sampled, and one base zero-shot pass gives
    every row its zs_acc, before any row trains.  An error in a row
    propagates."""
    base = model_factory()
    width = base.cfg.width
    plan, skipped = [], []
    for pl in placements:
        cell = ("".join(pl.matrices), pl.rank, pl.layer_span, pl.encoders)
        if pl.rank > width:
            skipped.append((cell, f"rank {pl.rank} exceeds matrix dimension {width}"))
            continue
        plan += [(cell, pl, derive_seed(master_seed, *cell, s)) for s in range(n_seeds)]
    tasks = _sample_tasks(ds, shots, [seed for _, _, seed in plan])
    zs_accs = base_zero_shot_accuracies(base, ds, tasks) if plan else []
    del base  # each row loads its own model; keep one model per running row

    def run_row(step) -> RunReport:
        (cell, placement, seed), task, zs_acc = step
        row = run_single(model_factory, task, "lora", seed, zs_acc,
                         placement=placement, train_cfg=train_cfg,
                         record_seconds=False)
        row.extra = dict(zip(("group", "rank", "span", "encoders"), cell))
        return row

    steps = list(zip(plan, tasks, zs_accs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_row, steps))
    else:
        rows = list(map(run_row, steps))
    return rows, skipped


def pretrain_model(ds: Dataset, cfg: PretrainConfig,
                   model_cfg: Optional[ModelConfig] = None
                   ) -> tuple[DualEncoderModel, "TrainingHistory"]:
    if model_cfg is None:
        model_cfg = ModelConfig(vocab_words=ds.vocab_words)
    model = DualEncoderModel(model_cfg, seed=cfg.seed)
    history = contrastive_pretrain(model, ds.images, ds.captions, cfg)
    return model, history
