"""Benchmark harness: the one row plan every command runs, the ablation grid
over placement coordinates, and the pretrain step."""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .baselines import (LinearAdapter, adapter_finetune, bias_only_finetune,
                        soft_prompt_finetune)
from .data import Dataset
from .errors import DomainError, LorabenchError
from .fewshot import (FewShotTask, PretrainConfig, TrainConfig, accuracy,
                      contrastive_pretrain, evaluate, finetune_lora,
                      sample_support_set)
from .lora import PlacementConfig, inject, merge
from .model import (PROMPT_TEMPLATE, DualEncoderModel, ModelConfig, encode_images,
                    save_checkpoint)
from .report import ABLATION_EXTRA, RunReport

METHODS = ("zero-shot", "lora", "soft-prompt", "adapter", "bias-only")
SHOT_GRID = (1, 2, 4, 8, 16)

DEFAULT_GROUPS = ("q", "k", "v", "o", "qk", "qkv", "qkvo")
DEFAULT_RANKS = (1, 2, 4, 8, 16)

# largest |merged - unmerged| query logit a lora row may report, over its
# first MERGE_CHECK_QUERIES queries
MERGE_TOLERANCE = 1e-5
MERGE_CHECK_QUERIES = 100

# the adapter row's bottleneck width and residual blend
ADAPTER_BOTTLENECK = 8
ADAPTER_ALPHA = 0.5

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


def shared_zero_shot_pass(model: DualEncoderModel, ds: Dataset, tasks: list[FewShotTask]
                          ) -> tuple[list[float], np.ndarray, list[np.ndarray]]:
    """One evaluation of `model` on the union of the tasks' query images
    (rows of `ds`): every task's zero-shot accuracy, the (n_union, embed_dim)
    image features, and each task's rows of those features, in query order.

    An image's features do not depend on the other images of its forward
    block, so a task's rows are bitwise the features of its queries encoded
    on their own."""
    union = np.unique(np.concatenate([t.query_indices for t in tasks]))
    images = ds.images[union]
    feats = encode_images(model, images).data
    pooled = replace(tasks[0], query_images=images, query_labels=ds.labels[union],
                     query_indices=union)
    _, logits = evaluate(model, pooled, image_feats=feats)
    rows = [np.searchsorted(union, t.query_indices) for t in tasks]
    return ([accuracy(logits[r], t.query_labels) for r, t in zip(rows, tasks)],
            feats, rows)


class PlannedRow(NamedTuple):
    """One row of a plan, trained with `train`, whose seed is the row's seed.
    `cell` is its ablation coordinates (empty outside `ablate`); a lora row
    saves its merged model to `merged_checkpoint`."""
    method: str
    train: TrainConfig
    placement: Optional[PlacementConfig] = None
    cell: tuple = ()
    merged_checkpoint: Optional[Path] = None


def run_single(model_factory: ModelFactory, task: FewShotTask, row: PlannedRow,
               zs_acc: float, zs_seconds: float = 0.0,
               base_feats: Optional[np.ndarray] = None,
               feat_rows: Optional[np.ndarray] = None) -> RunReport:
    """The report of planned `row` on a model from `model_factory`.

    `zs_acc` is the base model's zero-shot accuracy on `task`, from the
    command's one zero-shot pass; `zs_seconds` is this row's share of that
    pass, and is the `seconds` of a zero-shot row.  A trained row's `seconds`
    covers its training and its final evaluation.

    `base_feats[feat_rows]`, when given, are the image features of `task`'s
    queries from that pass.  A row whose vision tower nothing trains scores
    its queries with them instead of encoding the images again.
    """
    method, cfg, seed = row.method, row.train, row.train.seed
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; choose from {METHODS}")
    model = model_factory()
    t0 = time.perf_counter()
    total = model.param_count()
    iters = cfg.iterations(task.shots)
    config_digest = "-"

    if method == "zero-shot":
        acc, trainable, iters = zs_acc, 0, 0
    elif method == "lora":
        pl = row.placement or PlacementConfig()
        config_digest = pl.digest()
        adapted = inject(model, pl, seed=seed)
        # training's test for a frozen block, taken before merge empties the
        # blocks of their adapters
        frozen = model.visual.frozen_prefix(adapted.trainable_parameters()) == model.cfg.depth
        feats = base_feats[feat_rows] if frozen and base_feats is not None else None
        finetune_lora(adapted, task, cfg)
        acc, logits = evaluate(adapted.base, task, image_feats=feats)
        trainable = adapted.trainable_count()
        _assert_merge_equivalence(adapted, task, logits, feats)
        if row.merged_checkpoint is not None:
            save_checkpoint(adapted.base, row.merged_checkpoint)
    else:
        # soft prompts and adapters train no tensor of the model
        feats = base_feats[feat_rows] if base_feats is not None else None
        if method == "soft-prompt":
            res = soft_prompt_finetune(model, task, cfg, feats)
            config_digest = f"ctx{len(PROMPT_TEMPLATE)}"
        elif method == "adapter":
            adapter = LinearAdapter(model.cfg.embed_dim, bottleneck=ADAPTER_BOTTLENECK,
                                    seed=seed, dtype=model.cfg.np_dtype)
            res = adapter_finetune(model, task, adapter, alpha=ADAPTER_ALPHA, train_cfg=cfg,
                                   query_feats=feats)
            config_digest = f"mlp{ADAPTER_BOTTLENECK}-a{ADAPTER_ALPHA}"
        else:  # bias-only
            res, config_digest = bias_only_finetune(model, task, cfg), "bias"
        acc, trainable = res.accuracy, res.trainable_count

    seconds = zs_seconds if method == "zero-shot" else time.perf_counter() - t0
    return RunReport(method=method, config=config_digest, shots=task.shots, seed=seed,
                     zs_acc=zs_acc, acc=acc, trainable=trainable, total=total,
                     iters=iters, seconds=seconds,
                     extra=dict(zip(ABLATION_EXTRA, row.cell)))


def _assert_merge_equivalence(adapted, task: FewShotTask, logits: np.ndarray,
                              image_feats: Optional[np.ndarray] = None) -> None:
    """Merged logits must agree with `logits`, the adapted model's query
    logits before the merge, before a lora row is reported.  `image_feats`,
    the queries' features when the vision tower has no adapter, stand for
    the merged model's."""
    n = MERGE_CHECK_QUERIES
    merge(adapted)
    _, merged = evaluate(adapted.base, replace(task, query_images=task.query_images[:n],
                                               query_labels=task.query_labels[:n]),
                         image_feats=None if image_feats is None else image_feats[:n])
    diff = float(np.abs(logits[:n] - merged).max())
    if not diff < MERGE_TOLERANCE:  # a NaN diff fails too
        raise LorabenchError(f"merge equivalence violated: max logit diff {diff:.3e}")


def run_plan(model_factory: ModelFactory, base: DualEncoderModel, ds: Dataset,
             plan: list[PlannedRow], shots: int, workers: int = 1) -> list[RunReport]:
    """One row per planned row, in plan order.  Every row's task is sampled,
    and one zero-shot pass of `base`, a model from `model_factory`, gives
    every row its zs_acc and its query features, before any row runs.  Each
    row then takes its model from `model_factory`, serially or on `workers`
    threads.  An error in a row propagates."""
    if not plan:
        return []
    tasks = [sample_support_set(ds.images, ds.labels, ds.class_names, shots,
                                row.train.seed) for row in plan]
    t0 = time.perf_counter()
    zs_accs, feats, feat_rows = shared_zero_shot_pass(base, ds, tasks)
    zs_seconds = (time.perf_counter() - t0) / len(plan)
    del base  # each row loads its own model; keep one model per running row

    args = (repeat(model_factory), tasks, plan, zs_accs, repeat(zs_seconds),
            repeat(feats), feat_rows)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_single, *args))
    return list(map(run_single, *args))


def run_ablation(model_factory: ModelFactory, ds: Dataset,
                 placements: list[PlacementConfig], shots: int,
                 n_seeds: int, master_seed: int = 0, workers: int = 1,
                 train_cfg: TrainConfig = TrainConfig()
                 ) -> tuple[list[RunReport], list[tuple]]:
    """One lora row per (placement, seed), ordered by placement then seed,
    each trained with `train_cfg` at the seed derived for it.  A placement
    whose rank exceeds the base model's width is skipped before any model
    is loaded for it; the second return value lists it with the reason."""
    loaded = [model_factory()]
    width = loaded[0].cfg.width
    plan, skipped = [], []
    for pl in placements:
        cell = ("".join(pl.matrices), pl.rank, pl.layer_span, pl.encoders)
        if pl.rank > width:
            skipped.append((cell, f"rank {pl.rank} exceeds matrix dimension {width}"))
            continue
        seeds = [derive_seed(master_seed, *cell, s) for s in range(n_seeds)]
        plan += [PlannedRow("lora", replace(train_cfg, seed=seed), pl, cell) for seed in seeds]
    # hand the runner the only reference, so it frees the model after its pass
    return run_plan(model_factory, loaded.pop(), ds, plan, shots, workers), skipped


def pretrain_model(ds: Dataset, cfg: PretrainConfig
                   ) -> tuple[DualEncoderModel, "TrainingHistory"]:
    model = DualEncoderModel(ModelConfig(image_size=ds.spec.image_size,
                                         vocab_words=ds.vocab_words), seed=cfg.seed)
    history = contrastive_pretrain(model, ds.images, ds.captions, cfg)
    return model, history
