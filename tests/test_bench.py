"""Run orchestration: the one base zero-shot pass a command shares."""

import numpy as np

from conftest import small_model_for
from lorabench.bench import PlannedRow, base_zero_shot_accuracies, run_plan
from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.fewshot import evaluate, sample_support_set


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
    plan = [PlannedRow("zero-shot", seed) for seed in seeds]
    rows = run_plan(factory, factory(), ds, plan, 4)
    assert [r.zs_acc for r in rows] == shared
    assert [r.acc for r in rows] == shared
    assert len(set(shared)) == len(seeds)


def test_query_indices_locate_the_query_images():
    ds = _dataset()
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 4, seed=5)
    assert np.array_equal(ds.images[task.query_indices], task.query_images)
    assert np.array_equal(ds.labels[task.query_indices], task.query_labels)
