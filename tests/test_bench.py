"""Run orchestration: the one base zero-shot pass a command shares, and the
merge check a lora row passes before it is reported."""

import numpy as np
import pytest

from conftest import small_model_for
from lorabench import bench
from lorabench.bench import (PlannedRow, base_zero_shot_accuracies, run_plan,
                             run_single)
from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.errors import LorabenchError
from lorabench.fewshot import TrainConfig, evaluate, sample_support_set
from lorabench.lora import PlacementConfig, inject


def _dataset():
    # 8 classes x 40 images: each task has 288 queries, more than four blocks
    return generate_dataset(SyntheticDatasetSpec(n_classes=8, images_per_class=40,
                                                 image_size=8, seed=2))


def _spread_model(ds):
    """A random model whose weights are scaled up, so that its predictions
    vary across images and each task gets its own accuracy."""
    model = small_model_for(ds, seed=4)
    for enc in (model.visual, model.textual):
        for _, p in enc.named_parameters():
            if p.data.ndim == 2:
                p.data = p.data * 10
    return model


def test_shared_pass_gives_each_task_its_own_zero_shot_accuracy():
    ds = _dataset()
    factory = lambda: _spread_model(ds)
    seeds = (0, 1, 2)
    tasks = [sample_support_set(ds.images, ds.labels, ds.class_names, 4, seed)
             for seed in seeds]
    shared = base_zero_shot_accuracies(factory(), ds, tasks)
    assert shared == [evaluate(factory(), task)[0] for task in tasks]
    plan = [PlannedRow("zero-shot", TrainConfig(seed=seed)) for seed in seeds]
    rows = run_plan(factory, factory(), ds, plan, 4)
    assert [r.zs_acc for r in rows] == shared
    assert [r.acc for r in rows] == shared
    assert len(set(shared)) == len(seeds)


def test_query_indices_locate_the_query_images():
    ds = _dataset()
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 4, seed=5)
    assert np.array_equal(ds.images[task.query_indices], task.query_images)
    assert np.array_equal(ds.labels[task.query_indices], task.query_labels)


def test_merge_check_refuses_a_merged_model_that_disagrees(monkeypatch, small_dataset):
    ds = small_dataset
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed=0)

    def lora_row():
        return run_single(lambda: small_model_for(ds), task,
                          PlannedRow("lora", TrainConfig(iters_per_shot=2, seed=0)), 0.0)

    assert lora_row().method == "lora"
    real_merge = bench.merge

    def merge_then_flip_projection(adapted):
        model = real_merge(adapted)
        model.visual.proj.data = -model.visual.proj.data
        return model

    monkeypatch.setattr(bench, "merge", merge_then_flip_projection)
    with pytest.raises(LorabenchError, match="merge equivalence violated"):
        lora_row()


def test_merge_check_refuses_a_nan_difference(small_dataset):
    # NaN compares false with the tolerance: the check must not read it as agreement
    ds = small_dataset
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed=0)
    adapted = inject(small_model_for(ds), PlacementConfig(), seed=0)
    logits = np.full((task.query_images.shape[0], task.num_classes), np.nan)
    with pytest.raises(LorabenchError, match="merge equivalence violated"):
        bench._assert_merge_equivalence(adapted, task, logits)
