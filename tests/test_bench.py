"""Run orchestration: the one base zero-shot pass a command shares, the rows
that score their queries with its image features, and the merge check a
lora row passes before it is reported."""

import numpy as np
import pytest

from conftest import small_model_for
from lorabench import baselines, bench, fewshot
from lorabench.bench import (MERGE_CHECK_QUERIES, PlannedRow, run_plan, run_single,
                             shared_zero_shot_pass)
from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.errors import LorabenchError
from lorabench.fewshot import TrainConfig, evaluate, sample_support_set
from lorabench.lora import PlacementConfig, inject
from lorabench.model import encode_images


def _dataset():
    # 8 classes x 40 images: each task has 288 queries, more than four blocks
    return generate_dataset(SyntheticDatasetSpec(n_classes=8, images_per_class=40,
                                                 image_size=8, seed=2))


def _spread_model(ds, **kw):
    """A random model whose weights are scaled up, so that its predictions
    vary across images and each task gets its own accuracy."""
    model = small_model_for(ds, seed=4, **kw)
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
    shared, _, _ = shared_zero_shot_pass(factory(), ds, tasks)
    assert shared == [evaluate(factory(), task)[0] for task in tasks]
    plan = [PlannedRow("zero-shot", TrainConfig(seed=seed)) for seed in seeds]
    rows = run_plan(factory, factory(), ds, plan, 4)
    assert [r.zs_acc for r in rows] == shared
    assert [r.acc for r in rows] == shared
    assert len(set(shared)) == len(seeds)


def test_shared_features_are_those_of_the_queries_encoded_alone():
    # 5 classes x 14 images at 1 shot: each task's 65 queries run as blocks
    # of 63 and 2 on their own, while the union of two tasks runs as 64 + 6
    ds = generate_dataset(SyntheticDatasetSpec(n_classes=5, images_per_class=14,
                                               image_size=8, seed=2))
    model = _spread_model(ds)
    tasks = [sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed)
             for seed in (0, 1)]
    _, feats, rows = shared_zero_shot_pass(model, ds, tasks)
    assert feats.shape[0] == 70 and [len(r) for r in rows] == [65, 65]
    for task, r in zip(tasks, rows):
        assert np.array_equal(feats[r], encode_images(model, task.query_images).data)


# (method, encoders of a lora row's adapters, whether the row encodes its queries)
REUSE_CASES = {"lora-text": ("lora", "text", False),
               "soft-prompt": ("soft-prompt", "both", False),
               "adapter": ("adapter", "both", False),
               "bias-only": ("bias-only", "both", True),
               "lora-vision": ("lora", "vision", True)}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_only_rows_whose_vision_tower_trains_encode_their_queries(case, monkeypatch):
    method, encoders, encodes = REUSE_CASES[case]
    ds = _dataset()
    factory = lambda: _spread_model(ds, embed_dim=16)  # wider than the adapter's bottleneck
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 4, seed=0)
    row = PlannedRow(method, TrainConfig(iters_per_shot=1, seed=0),
                     PlacementConfig(encoders=encoders))
    zs_accs, feats, rows = shared_zero_shot_pass(factory(), ds, [task])
    alone = run_single(factory, task, row, zs_accs[0])

    seen = []
    real = encode_images

    def spy(model, images, *args, **kwargs):
        seen.append(np.asarray(images))
        return real(model, images, *args, **kwargs)
    for module in (bench, fewshot, baselines):
        monkeypatch.setattr(module, "encode_images", spy)
    shared = run_single(factory, task, row, zs_accs[0], 0.0, feats, rows[0])

    queries = task.query_images
    encoded = [x for x in seen if x.shape[1:] == queries.shape[1:]
               and np.array_equal(x, queries[:len(x)])]
    # the final evaluation, and for a lora row the merge check's first queries
    assert [len(x) for x in encoded] == (
        [] if not encodes else
        [len(queries), MERGE_CHECK_QUERIES] if method == "lora" else [len(queries)])
    assert shared.acc == alone.acc


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


def test_merge_check_refuses_a_text_only_merge_that_disagrees(monkeypatch, small_dataset):
    # a text-only row scores its queries with the shared pass's features, and
    # the merge check scores the merged text tower against them
    ds = small_dataset
    task = sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed=0)
    _, feats, rows = shared_zero_shot_pass(small_model_for(ds), ds, [task])
    row = PlannedRow("lora", TrainConfig(iters_per_shot=2, seed=0),
                     PlacementConfig(encoders="text"))

    def lora_row():
        return run_single(lambda: small_model_for(ds), task, row, 0.0, 0.0, feats, rows[0])

    assert lora_row().method == "lora"
    real_merge = bench.merge

    def merge_then_flip_projection(adapted):
        model = real_merge(adapted)
        model.textual.proj.data = -model.textual.proj.data
        return model

    monkeypatch.setattr(bench, "merge", merge_then_flip_projection)
    with pytest.raises(LorabenchError, match="merge equivalence violated"):
        lora_row()
