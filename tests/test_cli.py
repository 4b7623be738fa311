"""CLI pipeline end to end (with tiny settings) plus exit-code contracts."""

import csv
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import types
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lorabench import bench, cli
from lorabench.cli import build_parser, main
from lorabench.data import (DEFAULT_CLASS_NAMES, SyntheticDatasetSpec, generate_dataset,
                            load_dataset, save_dataset)
from lorabench.errors import DomainError, FormatError
from lorabench.fewshot import PretrainConfig, TrainConfig, TrainingHistory
from lorabench.lora import ENCODER_CHOICES, LAYER_SPANS, MATRICES, PlacementConfig
from lorabench.model import load_checkpoint
from lorabench.report import ABLATION_EXTRA, RunReport, read_report_csv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen + short pretrain shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    ckpt = root / "ckpt"
    assert main(["gen", "--out", str(ds), "--classes", "4",
                 "--images-per-class", "16", "--seed", "0"]) == 0
    assert main(["pretrain", "--dataset", str(ds), "--out", str(ckpt),
                 "--epochs", "1", "--seed", "0"]) == 0
    return root


class TestGen:
    def test_writes_expected_layout(self, workdir):
        ds = workdir / "ds"
        assert sorted(p.name for p in ds.iterdir()) == ["images.bin", "manifest.json"]
        manifest = json.loads((ds / "manifest.json").read_text())
        assert len(manifest["captions"]) == 64

    def test_deterministic_directory(self, workdir, tmp_path):
        main(["gen", "--out", str(tmp_path / "again"), "--classes", "4",
              "--images-per-class", "16", "--seed", "0"])
        for name in ("manifest.json", "images.bin"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (workdir / "ds" / name).read_bytes(), name

    def test_shift_flag(self, tmp_path, workdir):
        main(["gen", "--out", str(tmp_path / "sh"), "--classes", "4",
              "--images-per-class", "16", "--seed", "0", "--shift", "2"])
        clean = np.frombuffer((workdir / "ds" / "images.bin").read_bytes(),
                              dtype="<f4").reshape(64, 16, 16)
        shifted = np.frombuffer((tmp_path / "sh" / "images.bin").read_bytes(),
                                dtype="<f4").reshape(64, 16, 16)
        assert np.array_equal(shifted, np.roll(clean, (2, 2), axis=(1, 2)))


class TestPretrain:
    def test_checkpoint_and_log(self, workdir):
        ckpt = workdir / "ckpt"
        assert (ckpt / "manifest.json").exists()
        assert (ckpt / "weights.bin").exists()
        with open(ckpt / "pretrain_log.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "lr", "loss"]
        assert len(rows) - 1 == 2  # 64 images / batch 32, 1 epoch

    def test_checkpoint_loads_with_unit_norm_embeddings(self, workdir):
        from lorabench.model import encode_images, load_checkpoint
        model = load_checkpoint(workdir / "ckpt")
        feats = encode_images(model, np.zeros((2, 16, 16))).data
        assert np.abs(np.linalg.norm(feats, axis=-1) - 1.0).max() < 1e-6

    def test_dataset_smaller_than_batch(self, tmp_path, capsys):
        # 8 classes x 2 images cannot fill one batch of 32
        assert main(["gen", "--out", str(tmp_path / "ds"),
                     "--images-per-class", "2"]) == 0
        capsys.readouterr()
        assert main(["pretrain", "--dataset", str(tmp_path / "ds"),
                     "--out", str(tmp_path / "ckpt")]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "batch size 32" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "ckpt").exists()


class TestZeroshot:
    def test_row_schema(self, workdir, tmp_path):
        out = tmp_path / "zs.csv"
        assert main(["zeroshot", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--out", str(out)]) == 0
        rows = read_report_csv(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "zero-shot"
        assert rows[0]["iters"] == "0"
        assert 0.0 <= rows[0]["acc"] <= 1.0


# A tiny float32 pipeline: gen, pretrain --epochs 1, a 4-step LoRA fine-tune
# merged into a checkpoint, then zeroshot on that checkpoint, whose 80 query
# images run as two blocks on the image-block pool.  float32 bytes depend on
# the BLAS kernels the CPU selects, so the digests may fail on another CPU or
# BLAS build; FROZEN_RUN_LOSSES["default"] in test_fewshot.py is the portable
# gate of the same protocol.
PIPELINE_SHA256 = {
    "ckpt/pretrain_log.csv": "c7fbf0b2be1b80c0f255fe0305d6e6bda27b17efea8865b43f8d6f193a5a253c",
    "merged/merged_seed0/weights.bin":
        "dd9091bc86cdb24ced3302f3b139c666ecc6506603e24c441b96f09407befc43",
}
PIPELINE_ZEROSHOT_ACC = 0.2375


class TestPinnedPipeline:
    def test_bytes_and_accuracy(self, tmp_path):
        ds, ckpt, merged = tmp_path / "ds", tmp_path / "ckpt", tmp_path / "merged"
        assert main(["gen", "--out", str(ds), "--classes", "4",
                     "--images-per-class", "24", "--seed", "0"]) == 0
        assert main(["pretrain", "--dataset", str(ds), "--out", str(ckpt),
                     "--epochs", "1", "--seed", "0"]) == 0
        assert main(["finetune", "--checkpoint", str(ckpt), "--dataset", str(ds),
                     "--method", "lora", "--shots", "1", "--iters-per-shot", "4",
                     "--seeds", "0", "--merged-out", str(merged),
                     "--out", str(tmp_path / "ft.csv")]) == 0
        assert main(["zeroshot", "--checkpoint", str(merged / "merged_seed0"),
                     "--dataset", str(ds), "--out", str(tmp_path / "zs.csv")]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in PIPELINE_SHA256}
        assert digests == PIPELINE_SHA256
        assert read_report_csv(tmp_path / "zs.csv")[0]["acc"] == PIPELINE_ZEROSHOT_ACC


class TestFinetune:
    def test_rows_and_mean(self, workdir, tmp_path):
        out = tmp_path / "ft.csv"
        code = main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--method", "lora",
                     "--shots", "1", "--seeds", "0,1",
                     "--iters-per-shot", "2", "--out", str(out)])
        assert code == 0
        rows = read_report_csv(out)
        assert [r["seed"] for r in rows] == ["0", "1", "mean"]
        assert all(r["trainable"] == "6144" for r in rows)  # 24 modules, r=2, d=64
        assert all(r["iters"] == "2" for r in rows)

    def test_merged_checkpoint_written(self, workdir, tmp_path):
        from lorabench.model import load_checkpoint
        out = tmp_path / "ft.csv"
        merged = tmp_path / "merged"
        assert main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--method", "lora",
                     "--shots", "1", "--seeds", "0", "--iters-per-shot", "2",
                     "--merged-out", str(merged), "--out", str(out)]) == 0
        model = load_checkpoint(merged / "merged_seed0")
        assert not model.has_lora()

    def test_baseline_method_runs(self, workdir, tmp_path):
        out = tmp_path / "bias.csv"
        assert main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--method", "bias-only",
                     "--shots", "1", "--seeds", "0", "--iters-per-shot", "2",
                     "--out", str(out)]) == 0
        rows = read_report_csv(out)
        assert rows[0]["method"] == "bias-only"

    def test_invalid_shots_is_usage_error(self, workdir, tmp_path):
        code = main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--method", "lora",
                     "--shots", "3", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_unknown_method_is_usage_error(self, workdir, tmp_path):
        code = main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--method", "prefix",
                     "--shots", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestAblate:
    def test_small_grid_rows(self, workdir, tmp_path):
        out = tmp_path / "ab.csv"
        assert main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--groups", "q,v",
                     "--ranks", "1,2", "--shots", "1", "--seeds", "1",
                     "--iters-per-shot", "1", "--out", str(out)]) == 0
        rows = read_report_csv(out)
        assert len(rows) == 4  # 2 groups x 2 ranks x 1 seed
        keys = {(r["group"], r["rank"], r["span"], r["encoders"], r["seed"])
                for r in rows}
        assert len(keys) == 4
        assert all(r["seconds"] == "" for r in rows)

    def test_single_cell_single_seed_one_row(self, workdir, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--groups", "q",
                     "--ranks", "2", "--shots", "1", "--seeds", "1",
                     "--iters-per-shot", "1", "--out", str(out)]) == 0
        assert len(read_report_csv(out)) == 1

    def test_rerun_byte_identical(self, workdir, tmp_path):
        args = ["ablate", "--checkpoint", str(workdir / "ckpt"),
                "--dataset", str(workdir / "ds"), "--groups", "q,v",
                "--ranks", "1", "--shots", "1", "--seeds", "2",
                "--iters-per-shot", "1"]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_oversized_rank_cell_skipped_not_fatal(self, workdir, tmp_path, capsys,
                                                   monkeypatch):
        loads = []
        monkeypatch.setattr("lorabench.cli.load_checkpoint",
                            lambda path: loads.append(path) or load_checkpoint(path))
        out = tmp_path / "skip.csv"
        assert main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--groups", "q",
                     "--ranks", "2,128", "--shots", "1", "--seeds", "1",
                     "--iters-per-shot", "1", "--out", str(out)]) == 0
        assert len(read_report_csv(out)) == 1
        assert "skipped" in capsys.readouterr().err
        # the zero-shot pass and the one rank-2 row; none for the skipped cell
        assert len(loads) == 2

    def test_training_error_propagates(self, workdir, tmp_path, capsys, monkeypatch):
        calls = []

        def finetune_lora(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise DomainError("non-finite gradient")
            return real(*args, **kwargs)

        real = bench.finetune_lora
        monkeypatch.setattr(bench, "finetune_lora", finetune_lora)
        out = tmp_path / "err.csv"
        assert main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--groups", "q",
                     "--ranks", "1", "--shots", "1", "--seeds", "3",
                     "--iters-per-shot", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite gradient" in err
        assert "Traceback" not in err and not out.exists()
        assert len(calls) == 2

    def test_workers_match_serial(self, workdir, tmp_path, monkeypatch):
        # 20 steps per row: enough for runs sharing a tape to drift apart;
        # two workers are allowed however many CPUs this process may use
        monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
        base = ["ablate", "--checkpoint", str(workdir / "ckpt"),
                "--dataset", str(workdir / "ds"), "--groups", "q,v",
                "--ranks", "1", "--shots", "1", "--seeds", "1",
                "--iters-per-shot", "20"]
        assert main(base + ["--out", str(tmp_path / "s.csv")]) == 0
        assert main(base + ["--workers", "2", "--out", str(tmp_path / "p.csv")]) == 0
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


class TestWorkersBound:
    @pytest.mark.parametrize("cpus,workers", [({0}, 2), ({0, 1, 2}, 4), ({0, 1}, 1000)],
                             ids=["1-cpu-2", "3-cpus-4", "2-cpus-1000"])
    def test_more_workers_than_usable_cpus(self, cpus, workers, workdir, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def start(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", start)
        out = tmp_path / "x.csv"
        code = main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--default-grid", "--seeds", "3",
                     "--workers", str(workers), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and "Traceback" not in err
        assert f"--workers must be at most the {len(cpus)} usable CPUs, got {workers}" in err
        assert not out.exists()


class TestCheckpointLoads:
    """The zero-shot pass loads the base model once; each trained row loads
    its own; a zero-shot row scores the model of the pass."""

    @pytest.mark.parametrize("argv,loads", [
        (["zeroshot"], 1),
        (["finetune", "--method", "lora", "--seeds", "0,1"], 3),
        (["ablate", "--groups", "q,v", "--ranks", "1", "--seeds", "1"], 3),
    ], ids=["zeroshot", "finetune-2-seeds", "ablate-2-rows"])
    def test_load_count(self, argv, loads, workdir, tmp_path, monkeypatch):
        loaded = []
        monkeypatch.setattr("lorabench.cli.load_checkpoint",
                            lambda path: loaded.append(path) or load_checkpoint(path))
        trained = [] if argv[0] == "zeroshot" else ["--iters-per-shot", "1"]
        assert main([*argv, *trained, "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--shots", "1",
                     "--out", str(tmp_path / "rows.csv")]) == 0
        assert len(loaded) == loads


def _stub_row(model_factory, task, row, zs_acc, *args):
    return RunReport(method=row.method, config=row.placement.digest(), shots=task.shots,
                     seed=row.train.seed, zs_acc=zs_acc, acc=zs_acc, trainable=0, total=0,
                     iters=0, extra=dict(zip(ABLATION_EXTRA, row.cell)))


def _valid_grid(cells) -> bool:
    """A grid runs when it has a cell, every cell is valid and none repeats."""
    return bool(cells) and len(set(cells)) == len(cells) and all(
        len(set(group)) == len(group) and set(group) <= set(MATRICES)
        and rank >= 1 and span in LAYER_SPANS and encoders in ENCODER_CHOICES
        for group, rank, span, encoders in cells)


class TestGridFuzz:
    """Any --groups/--ranks/--spans/--encoders either exits 1 with one line
    (some cell invalid or repeated, or no cell) or writes one row per seed of
    every cell whose rank fits the model width.  Rows are stubbed; only
    planning runs."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(groups=st.lists(st.text("qkvox", min_size=1, max_size=3), max_size=3),
           ranks=st.lists(st.integers(-1, 70), max_size=3),
           spans=st.lists(st.sampled_from(LAYER_SPANS + ("middle",)), max_size=2),
           encoders=st.lists(st.sampled_from(ENCODER_CHOICES + ("audio",)),
                             max_size=2))
    def test_grid_flags(self, workdir, capsys, groups, ranks, spans, encoders):
        width = load_checkpoint(workdir / "ckpt").cfg.width
        cells = [(g, r, s, e) for g in groups for r in ranks for s in spans
                 for e in encoders]
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(bench, "run_single", _stub_row)
            out = Path(tmp) / "grid.csv"
            code = main(["ablate", "--checkpoint", str(workdir / "ckpt"),
                         "--dataset", str(workdir / "ds"), "--shots", "1",
                         "--seeds", "2", "--out", str(out),
                         f"--groups={','.join(groups)}",
                         f"--ranks={','.join(map(str, ranks))}",
                         f"--spans={','.join(spans)}",
                         f"--encoders={','.join(encoders)}"])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err + captured.out
            if not _valid_grid(cells):
                assert code == 1 and captured.err.count("\n") == 1
                assert not out.exists()
                return
            assert code == 0
            kept = [(g, str(r), s, e) for g, r, s, e in cells if r <= width]
            rows = read_report_csv(out)
            assert [(r["group"], r["rank"], r["span"], r["encoders"])
                    for r in rows] == [c for c in kept for _ in range(2)]
            assert captured.err.count("skipped cell") == len(cells) - len(kept)


def _zeroshot_with_manifest(workdir, artifact, manifest, tmp: Path) -> int:
    """Run zeroshot on a copy of the workdir's `artifact` ("ds" or "ckpt")
    whose manifest.json holds `manifest`."""
    hostile = tmp / artifact
    shutil.copytree(workdir / artifact, hostile)
    (hostile / "manifest.json").write_text(json.dumps(manifest))
    paths = {"ds": workdir / "ds", "ckpt": workdir / "ckpt", artifact: hostile}
    return main(["zeroshot", "--checkpoint", str(paths["ckpt"]),
                 "--dataset", str(paths["ds"]), "--shots", "1"])


# any JSON value: scalars, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


class TestManifestFuzz:
    """A dataset or checkpoint whose manifest.json is replaced, whole or in
    one top-level field, by any JSON value: zeroshot either scores it (exit
    0) or exits 2 with one stderr line, never with a traceback."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(artifact=st.sampled_from(["ds", "ckpt"]), value=JSON_VALUES, data=st.data())
    def test_zeroshot(self, workdir, capsys, artifact, value, data):
        manifest = json.loads((workdir / artifact / "manifest.json").read_text())
        key = data.draw(st.sampled_from([None, *sorted(manifest)]), label="key")
        if key is None:
            manifest = value
        else:
            manifest[key] = value
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            code = _zeroshot_with_manifest(workdir, artifact, manifest, Path(tmp))
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert code in (0, 2) and captured.err.count("\n") <= 1


# any JSON value Python's json reads and writes, NaN and +-Infinity included
JSON_VALUES_NONFINITE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def _has_declared_type(value, hint) -> bool:
    """A bool is not a number, an int may stand for a float, a float is
    finite, and a list or tuple holds items of its one item type."""
    if typing.get_origin(hint) in (list, tuple):
        return (isinstance(value, typing.get_origin(hint))
                and all(_has_declared_type(v, typing.get_args(hint)[0]) for v in value))
    if hint is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is hint


class TestManifestFieldFuzz:
    """A checkpoint whose config, or a dataset whose spec, has one field
    replaced by any JSON value, or a dataset with one caption replaced:
    zeroshot scores it (exit 0) or exits 2 with one stderr line, and a
    loader that returns gives a config whose every field has its declared
    type."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(artifact=st.sampled_from(["ds", "ckpt"]), value=JSON_VALUES_NONFINITE,
           data=st.data())
    def test_zeroshot(self, workdir, capsys, artifact, value, data):
        manifest = json.loads((workdir / artifact / "manifest.json").read_text())
        if artifact == "ckpt":
            fields_of = manifest["config"]
        else:
            fields_of = data.draw(st.sampled_from([manifest["spec"], manifest["captions"]]),
                                  label="spec or captions")
        key = data.draw(st.sampled_from(sorted(fields_of) if isinstance(fields_of, dict)
                                        else range(len(fields_of))), label="field")
        fields_of[key] = value
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            code = _zeroshot_with_manifest(workdir, artifact, manifest, Path(tmp))
            loader = {"ds": load_dataset, "ckpt": load_checkpoint}[artifact]
            try:
                loaded = loader(Path(tmp) / artifact)
            except FormatError:
                loaded = None
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert code in (0, 2) and captured.err.count("\n") <= 1
        if loaded is not None:
            config = loaded.spec if artifact == "ds" else loaded.cfg
            hints = typing.get_type_hints(type(config))
            wrong = {f.name: getattr(config, f.name) for f in fields(config)
                     if not _has_declared_type(getattr(config, f.name), hints[f.name])}
            assert not wrong, f"loaded with fields of the wrong type: {wrong}"


def _name_lists(names):
    """The checkpoint's parameter names as they are, permuted, shortened or
    with one name duplicated."""
    n = len(names)
    return (st.just(names) | st.permutations(names)
            | st.sets(st.integers(0, n - 1)).map(lambda keep: [names[i] for i in sorted(keep)])
            | st.integers(0, n - 1).map(lambda i: names[:i + 1] + names[i:]))


class TestCheckpointFuzz:
    """A checkpoint whose weights.bin is cut short or extended by up to 64
    bytes, and whose tensors list is replaced by any JSON value or by a
    permuted, shortened or duplicated name list: zeroshot either scores it
    (exit 0) or exits 2 with one stderr line, never with a traceback."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_zeroshot(self, workdir, capsys, data):
        manifest = json.loads((workdir / "ckpt" / "manifest.json").read_text())
        blob = (workdir / "ckpt" / "weights.bin").read_bytes()
        size = data.draw(st.integers(0, len(blob) - 1)
                         | st.integers(len(blob), len(blob) + 64), label="blob bytes")
        manifest["tensors"] = data.draw(JSON_VALUES | _name_lists(manifest["tensors"]),
                                        label="tensors")
        capsys.readouterr()
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "ckpt"
            ckpt.mkdir()
            (ckpt / "weights.bin").write_bytes(blob[:size] + bytes(max(0, size - len(blob))))
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            code = main(["zeroshot", "--checkpoint", str(ckpt),
                         "--dataset", str(workdir / "ds"), "--shots", "1"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert code in (0, 2) and captured.err.count("\n") <= 1


# any JSON value a --config file holds: NaN, +-Infinity and an int beyond a
# float's range included
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.just(10 ** 400) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
# the words the commands' string keys take
CONFIG_WORDS = st.sampled_from([*bench.METHODS, *MATRICES, "qv", *LAYER_SPANS,
                                *ENCODER_CHOICES])


def _values_like(default):
    """JSON values of the type of a key's default, inside and outside the
    range its command or config accepts."""
    if isinstance(default, list):
        return st.lists(_values_like(default[0]), max_size=3)
    numbers = st.integers(-1, 4) | st.integers(-3, 40) | st.just(10 ** 400)
    if isinstance(default, float):
        return numbers | st.floats()
    return numbers if isinstance(default, int) else st.none() | CONFIG_WORDS


def _stub_plan(model_factory, base, ds, plan, shots, workers=1):
    return [RunReport(method=row.method, config="-", shots=shots, seed=row.train.seed,
                      zs_acc=0.5, acc=0.5, trainable=0, total=0, iters=0, seconds=0.0)
            for row in plan]


class TestConfigFileFuzz:
    """A --config file that sets any keys of its command to any JSON values:
    the command runs (exit 0) or exits 1 with one stderr line, never with a
    traceback.  What renders, saves or trains a dataset or model is stubbed,
    so no fuzzed size is ever allocated and no thread starts: only the
    command's checks and configs run."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(cli._KEYS)), data=st.data())
    def test_config_contents(self, workdir, capsys, command, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(cli._KEYS[command])),
                                  unique=True, max_size=4), label="keys")
        config = {}
        for key in keys:
            # the key's own type three times in four, so that most values get
            # past the type check to the configs' own checks
            like = _values_like(cli._KEYS[command][key])
            config[key] = data.draw(st.one_of(CONFIG_VALUES, like, like, like), label=key)
        model = load_checkpoint(workdir / "ckpt")
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(cli, "generate_dataset", lambda spec: types.SimpleNamespace(
                images=np.zeros((1, 1, 1)), class_names=DEFAULT_CLASS_NAMES[:spec.n_classes]))
            mp.setattr(cli, "save_dataset", lambda ds, directory: None)
            mp.setattr(cli, "pretrain_model",
                       lambda ds, cfg: (model, TrainingHistory([cfg.lr], [1.0])))
            mp.setattr(cli, "run_plan", _stub_plan)
            mp.setattr(cli, "run_ablation", lambda *args, **kwargs: ([], []))
            (Path(tmp) / "config.json").write_text(json.dumps(config))
            paths = {"gen": ["--out"], "pretrain": ["--dataset", "--out"]}.get(
                command, ["--checkpoint", "--dataset", "--out"])
            where = {"--checkpoint": workdir / "ckpt", "--dataset": workdir / "ds",
                     "--out": Path(tmp) / "out"}
            code = main([command, *[a for flag in paths for a in (flag, str(where[flag]))],
                         "--config", str(Path(tmp) / "config.json")])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        assert code in (0, 1), captured.err
        if code == 1:
            assert captured.err.count("\n") == 1


class TestHostileConfig:
    def test_depth_far_beyond_the_blob(self, workdir, tmp_path, capsys):
        # the config asks for a depth of 2**20 over the depth-4 blob
        ckpt = tmp_path / "ckpt"
        shutil.copytree(workdir / "ckpt", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"]["depth"] = 2 ** 20
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["zeroshot", "--checkpoint", str(ckpt),
                     "--dataset", str(workdir / "ds"), "--shots", "1"])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: weights.bin has ") and "config needs" in err


class TestReportCmd:
    def test_several_row_files(self, workdir, tmp_path, capsys):
        zs, ft = tmp_path / "zs.csv", tmp_path / "ft.csv"
        common = ["--checkpoint", str(workdir / "ckpt"), "--dataset", str(workdir / "ds"),
                  "--shots", "1"]
        assert main(["zeroshot", *common, "--out", str(zs)]) == 0
        assert main(["finetune", *common, "--method", "lora", "--seeds", "0",
                     "--iters-per-shot", "1", "--out", str(ft)]) == 0
        out_json = tmp_path / "summary.json"
        assert main(["report", "--rows", str(zs), str(ft),
                     "--out-json", str(out_json)]) == 0
        summary = json.loads(out_json.read_text())
        assert summary["methods"] == ["lora", "zero-shot"]
        assert summary["shots"] == [1]


    def test_summary_and_json(self, workdir, tmp_path, capsys):
        ft = tmp_path / "ft.csv"
        main(["finetune", "--checkpoint", str(workdir / "ckpt"),
              "--dataset", str(workdir / "ds"), "--method", "lora",
              "--shots", "1", "--seeds", "0", "--iters-per-shot", "1",
              "--out", str(ft)])
        capsys.readouterr()
        out_json = tmp_path / "summary.json"
        assert main(["report", "--rows", str(ft),
                     "--out-json", str(out_json)]) == 0
        text = capsys.readouterr().out
        assert "lora" in text
        summary = json.loads(out_json.read_text())
        assert summary["methods"] == ["lora"]


def _config(**fields):
    """An edit of a checkpoint manifest that sets fields of its model config."""
    return lambda m: {**m, "config": {**m["config"], **fields}}


def _spec(**fields):
    """An edit of a dataset manifest that sets fields of its spec."""
    return lambda m: {**m, "spec": {**m["spec"], **fields}}


# name -> (artifact, edit of its manifest) that zeroshot must reject with exit 2
HOSTILE_MANIFESTS = {
    "dataset-not-object": ("ds", lambda m: [1, 2]),
    "checkpoint-not-object": ("ckpt", lambda m: [1, 2]),
    "dataset-float-n-images": ("ds", _spec(images_per_class=16.0)),
    "checkpoint-unknown-dtype": ("ckpt", _config(dtype="banana")),
    "dataset-int-class-names": ("ds", _spec(class_names=[1, 2, 3, 4])),
    "dataset-repeated-class-names": ("ds", _spec(class_names=["a"] * 4)),
    "dataset-string-class-names": ("ds", _spec(class_names="abcd")),
    "dataset-no-captions": ("ds", lambda m: {k: v for k, v in m.items() if k != "captions"}),
    "dataset-string-captions": ("ds", lambda m: {**m, "captions": "a photo of a dax"}),
    "dataset-short-captions": ("ds", lambda m: {**m, "captions": m["captions"][1:]}),
    "dataset-int-caption": ("ds", lambda m: {**m, "captions": [1] + m["captions"][1:]}),
    "dataset-version-1": ("ds", lambda m: {**m, "version": 1}),
    "dataset-no-version": ("ds", lambda m: {k: v for k, v in m.items() if k != "version"}),
    "checkpoint-zero-heads": ("ckpt", _config(heads=0)),
    "checkpoint-float-depth": ("ckpt", _config(depth=1.5)),
    "checkpoint-list-vocab-word": ("ckpt", _config(vocab_words=[["a"]])),
    "checkpoint-null-vocab": ("ckpt", _config(vocab_words=None)),
    "checkpoint-newline-config-key": ("ckpt", lambda m: {**m, "config": {"\n": 1}}),
    "checkpoint-version-1": ("ckpt", lambda m: {**m, "version": 1}),
    "dataset-zero-prototype-grid": ("ds", _spec(prototype_grid=0)),
    "checkpoint-nan-temperature": ("ckpt", _config(init_temperature=float("nan"))),
    "checkpoint-infinite-temperature": ("ckpt", _config(init_temperature=float("inf"))),
    "checkpoint-bool-temperature": ("ckpt", _config(init_temperature=True)),
    "checkpoint-huge-int-temperature": ("ckpt", _config(init_temperature=10 ** 400)),
    "checkpoint-repeated-vocab-word": ("ckpt", lambda m: _config(vocab_words=[
        m["config"]["vocab_words"][0], *m["config"]["vocab_words"][:-1]])(m)),
    "dataset-string-noise": ("ds", _spec(noise="loud")),
    "dataset-infinite-noise": ("ds", _spec(noise=float("inf"))),
    "dataset-negative-seed": ("ds", _spec(seed=-5)),
    "dataset-fractional-shift": ("ds", _spec(pixel_shift=1.5)),
    "dataset-nan-prototype-scale": ("ds", _spec(prototype_scale=float("nan"))),
    "dataset-negative-min-distance": ("ds", _spec(min_class_distance=-1.0)),
}


class TestExitCodes:
    def test_missing_dataset_is_runtime_error(self, workdir, tmp_path, capsys):
        code = main(["zeroshot", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(tmp_path / "missing")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_checkpoint_manifest_is_runtime_error(self, workdir, tmp_path,
                                                            capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        manifest = json.loads((workdir / "ckpt" / "manifest.json").read_text())
        del manifest["tensors"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        (ckpt / "weights.bin").write_bytes((workdir / "ckpt" / "weights.bin").read_bytes())
        code = main(["zeroshot", "--checkpoint", str(ckpt),
                     "--dataset", str(workdir / "ds")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "tensors" in err and "Traceback" not in err

    @pytest.mark.parametrize("artifact,edit", HOSTILE_MANIFESTS.values(),
                             ids=HOSTILE_MANIFESTS.keys())
    def test_hostile_manifest_is_runtime_error(self, artifact, edit, workdir,
                                               tmp_path, capsys):
        manifest = json.loads((workdir / artifact / "manifest.json").read_text())
        code = _zeroshot_with_manifest(workdir, artifact, edit(manifest), tmp_path)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("name", ["checkpoint-zero-heads", "checkpoint-repeated-vocab-word",
                                      "checkpoint-nan-temperature"])
    def test_config_error_names_the_checkpoint(self, name, workdir, tmp_path, capsys):
        artifact, edit = HOSTILE_MANIFESTS[name]
        manifest = json.loads((workdir / artifact / "manifest.json").read_text())
        assert _zeroshot_with_manifest(workdir, artifact, edit(manifest), tmp_path) == 2
        assert capsys.readouterr().err.startswith(
            f"error: malformed checkpoint config in {tmp_path / artifact} (DomainError: ")

    @pytest.mark.parametrize("artifact,name", [
        ("ckpt", "manifest.json"), ("ds", "manifest.json"), ("rows", "zs.csv")])
    def test_undecodable_text_file_is_runtime_error(self, artifact, name, workdir,
                                                     tmp_path, capsys):
        paths = {"ckpt": workdir / "ckpt", "ds": workdir / "ds", artifact: tmp_path / artifact}
        argv = ["zeroshot", "--checkpoint", str(paths["ckpt"]), "--dataset", str(paths["ds"])]
        if artifact == "rows":
            paths["rows"].mkdir()
            assert main([*argv, "--out", str(paths["rows"] / name)]) == 0
            argv = ["report", "--rows", str(paths["rows"] / name)]
        else:
            shutil.copytree(workdir / artifact, paths[artifact])
        text = (paths[artifact] / name).read_bytes()
        (paths[artifact] / name).write_bytes(text[:1] + b"\xff" + text[1:])
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "Traceback" not in err
        assert name in err and "UTF-8" in err

    def test_old_dataset_layout_names_its_version(self, workdir, tmp_path, capsys):
        """The layout before version 2: no version, labels and captions in
        files of their own, and sizes, names and vocabulary in the manifest."""
        ds = load_dataset(workdir / "ds")
        old = {"kind": "synthetic_dataset", "spec": asdict(ds.spec), "n_images": 64,
               "image_size": 16, "class_names": ds.class_names,
               "vocab_words": ds.vocab_words}
        shutil.copytree(workdir / "ds", tmp_path / "ds")
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(old))
        (tmp_path / "ds" / "labels.csv").write_text("index,label,class_name\n" + "".join(
            f"{i},{k},{ds.class_names[k]}\n" for i, k in enumerate(ds.labels)))
        (tmp_path / "ds" / "captions.txt").write_text("\n".join(ds.captions) + "\n")
        assert main(["zeroshot", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(tmp_path / "ds")]) == 2
        assert capsys.readouterr().err == \
            "error: unsupported dataset version None; this build reads version 3\n"

    @pytest.mark.parametrize("command", ["zeroshot", "finetune"])
    def test_dataset_without_classes_is_runtime_error(self, command, workdir,
                                                      tmp_path, capsys):
        ds = tmp_path / "ds"
        shutil.copytree(workdir / "ds", ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        (ds / "manifest.json").write_text(json.dumps(
            {**manifest, "spec": {**manifest["spec"], "n_classes": 0},
             "captions": []}))
        (ds / "images.bin").write_bytes(b"")
        code = main([command, "--checkpoint", str(workdir / "ckpt"), "--dataset", str(ds),
                     "--out", str(tmp_path / "rows.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err == (f"error: malformed dataset spec in {ds} (DomainError: "
                                     f"n_classes must be an integer >= 1, got 0)\n")

    def test_diverged_finetune_is_runtime_error(self, workdir, tmp_path, capsys):
        # lr 1e308 overflows the adapters in one step: their NaN scores are
        # an error, not an accuracy, and numpy's warnings about them are not
        # printed (test_diverged_run_prints_one_line runs it as a process)
        out = tmp_path / "x.csv"
        code = main(["finetune", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(workdir / "ds"), "--shots", "1",
                     "--iters-per-shot", "1", "--lr", "1e308", "--seeds", "0",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.splitlines()[-1].startswith("error: ")
        assert "not finite" in captured.err
        assert "Traceback" not in captured.err + captured.out and not out.exists()

    def test_diverged_run_prints_one_line(self, workdir, tmp_path):
        # numpy warns of the overflow in this thread and in the image-block
        # threads; a process prints none of it, only the error
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from lorabench.cli import main; sys.exit(main())",
             "finetune", "--checkpoint", str(workdir / "ckpt"), "--dataset", str(workdir / "ds"),
             "--shots", "1", "--iters-per-shot", "1", "--lr", "1e308", "--seeds", "0",
             "--out", str(tmp_path / "x.csv")],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr == "error: 240 of 240 scores are not finite\n"

    @pytest.mark.parametrize("target", ["ds", "ckpt"])
    def test_an_artifact_is_not_written_over_the_other_kind(self, target, workdir, tmp_path,
                                                            capsys):
        writes = {"ds": ["gen", "--classes", "4", "--images-per-class", "16"],
                  "ckpt": ["pretrain", "--dataset", str(workdir / "ds"), "--epochs", "1"]}
        other = writes["ckpt" if target == "ds" else "ds"]
        copy = tmp_path / target
        shutil.copytree(workdir / target, copy)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        capsys.readouterr()
        assert main([*other, "--out", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {copy} holds an artifact of kind ")
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before
        assert main([*writes[target], "--out", str(copy)]) == 0  # its own kind may overwrite

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"classes": 4, "images_per_class": 4,
                                   "noise": 0.4, "seed": 5}))
        assert main(["gen", "--out", str(tmp_path / "d1"),
                     "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "d1" / "manifest.json").read_text())
        assert manifest["spec"]["n_classes"] * manifest["spec"]["images_per_class"] == 16
        assert manifest["spec"]["noise"] == 0.4
        # explicit flag wins over the config file
        assert main(["gen", "--out", str(tmp_path / "d2"), "--config", str(cfg),
                     "--images-per-class", "8"]) == 0
        manifest2 = json.loads((tmp_path / "d2" / "manifest.json").read_text())
        assert manifest2["spec"]["n_classes"] * manifest2["spec"]["images_per_class"] == 32

    def test_config_int_stands_for_float(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"classes": 2, "images_per_class": 2, "noise": 1}))
        assert main(["gen", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["spec"]["noise"] == 1

    @pytest.mark.parametrize("command", ["gen", "pretrain", "zeroshot", "finetune",
                                         "ablate"])
    def test_config_not_utf8_is_usage_error(self, command, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff{}")
        paths = {"gen": ["--out"], "pretrain": ["--dataset", "--out"]}.get(
            command, ["--checkpoint", "--dataset", "--out"])
        argv = [command, *[a for flag in paths for a in (flag, str(tmp_path / "x"))],
                "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(cfg) in err and "UTF-8" in err
        assert not (tmp_path / "x").exists()

    def test_image_size_mismatch_is_runtime_error(self, workdir, tmp_path, capsys):
        # 8x8 images under a 16x16 checkpoint: the query images run as
        # several blocks, and the ShapeError of a block ends the command
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=4, images_per_class=40,
                                                   image_size=8, seed=0))
        save_dataset(ds, tmp_path / "ds")
        code = main(["zeroshot", "--checkpoint", str(workdir / "ckpt"),
                     "--dataset", str(tmp_path / "ds")])
        assert code == 2
        assert capsys.readouterr().err == "error: expected 16x16 images, got 8x8\n"


# ablate --config files, by name, whose grid has an invalid cell or no cell
BAD_GRIDS = {"groups": {"groups": ["qq"]}, "spans": {"spans": ["middle"]},
             "encoders": {"encoders": ["audio"]}, "ranks": {"ranks": [0]},
             "empty": {"groups": []}}
# name -> (command, its --config file) where a value has the wrong JSON type
BAD_TYPES = {"str-rank": ("ablate", {"ranks": ["2"]}),
             "bool-shots": ("zeroshot", {"shots": True}),
             "str-lr": ("finetune", {"lr": "1e-3"}),
             "int-seeds": ("finetune", {"seeds": 0})}


class TestUsageErrors:
    """Bad arguments exit 1 with one line on stderr and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "{tmp}/d", "--config", "{tmp}/bad.json"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--seeds=", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--shots", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--seeds", "0", "--out", "{tmp}/x.csv"],
        ["gen", "--out", "{tmp}/d", "--noise", "-1"],
        ["gen", "--out", "{tmp}/d", "--classes", "0"],
        ["gen", "--out", "{tmp}/d", "--images-per-class", "0"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--config", "{tmp}/typo.json", "--out", "{tmp}/x.csv"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--epochs", "0"],
        ["zeroshot", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--shots", "0", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--batch-size", "0", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--iters-per-shot", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--iters-per-shot", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--workers", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--workers", "-2", "--out", "{tmp}/x.csv"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--batch-size", "0"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--batch-size", "1"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--lr", "0"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--lr", "0", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--dropout", "1.5", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--rank", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--groups", "x", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--groups", "qq", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--spans", "middle", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--encoders", "audio", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--ranks", "0", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--groups", ",", "--out", "{tmp}/x.csv"],
        *[["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
           "--config", f"{{tmp}}/{name}.json", "--out", "{tmp}/x.csv"]
          for name in BAD_GRIDS],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--groups", "q,q", "--out", "{tmp}/x.csv"],
        ["ablate", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--ranks", "2,2", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--seeds", "0,0", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--method", "bias-only", "--merged-out", "{tmp}/d", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--config", "{tmp}/merged.json", "--out", "{tmp}/x.csv"],
        *[[cmd, "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
           "--config", f"{{tmp}}/{name}.json", "--out", "{tmp}/x.csv"]
          for name, (cmd, _) in BAD_TYPES.items()],
        ["gen", "--out", "{tmp}/d", "--noise", "nan"],
        ["gen", "--out", "{tmp}/d", "--noise", "inf"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--lr", "inf"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--lr", "inf", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--config", "{tmp}/inf-lr.json", "--out", "{tmp}/x.csv"],
        ["gen", "--out", "{tmp}/d", "--classes", "17"],
        ["gen", "--out", "{tmp}/d", "--seed", "-1"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d", "--seed", "-1"],
        ["zeroshot", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--seed", "-1", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--seeds", "0,-1", "--out", "{tmp}/x.csv"],
        ["finetune", "--checkpoint", "{work}/ckpt", "--dataset", "{work}/ds",
         "--config", "{tmp}/negative-seed.json", "--out", "{tmp}/x.csv"],
        ["pretrain", "--dataset", "{work}/ds", "--out", "{tmp}/d",
         "--config", "{tmp}/huge-int.json"],
        ["gen", "--out", "{tmp}/d", "--config", "{tmp}/huge-int.json"],
    ], ids=["malformed-config-json", "finetune-empty-seeds", "ablate-zero-shots",
            "ablate-zero-seeds", "gen-negative-noise", "gen-zero-classes",
            "gen-zero-images-per-class", "unknown-config-key", "pretrain-zero-epochs",
            "zeroshot-zero-shots", "finetune-zero-batch-size",
            "finetune-zero-iters-per-shot", "ablate-zero-iters-per-shot",
            "ablate-zero-workers", "ablate-negative-workers",
            "pretrain-zero-batch-size", "pretrain-one-batch-size", "pretrain-zero-lr",
            "finetune-zero-lr", "finetune-dropout-above-1", "finetune-zero-rank",
            "ablate-unknown-group", "ablate-duplicate-group", "ablate-unknown-span",
            "ablate-unknown-encoder", "ablate-zero-rank", "ablate-empty-grid",
            "ablate-config-duplicate-group", "ablate-config-unknown-span",
            "ablate-config-unknown-encoder", "ablate-config-zero-rank",
            "ablate-config-empty-grid", "ablate-repeated-group",
            "ablate-repeated-rank", "finetune-repeated-seed",
            "finetune-merged-out-not-lora", "finetune-config-merged-out-not-lora",
            *[f"{cmd}-config-{name}" for name, (cmd, _) in BAD_TYPES.items()],
            "gen-nan-noise", "gen-inf-noise", "pretrain-inf-lr", "finetune-inf-lr",
            "finetune-config-inf-lr", "gen-17-classes", "gen-negative-seed",
            "pretrain-negative-seed", "zeroshot-negative-seed",
            "finetune-negative-seed", "finetune-config-negative-seed",
            "pretrain-config-huge-int-lr", "gen-config-huge-int-noise"])
    def test_exit_1_with_one_line(self, argv, workdir, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"classes": 4,')
        (tmp_path / "typo.json").write_text('{"iters_per_shots": 1}')
        (tmp_path / "merged.json").write_text(json.dumps(
            {"method": "adapter", "merged_out": str(tmp_path / "d")}))
        (tmp_path / "inf-lr.json").write_text('{"lr": Infinity}')
        (tmp_path / "negative-seed.json").write_text('{"seeds": [-1]}')
        (tmp_path / "huge-int.json").write_text(json.dumps(
            {"lr": 10 ** 400} if argv[0] == "pretrain" else {"noise": 10 ** 400}))
        for name, grid in BAD_GRIDS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(grid))
        for name, (_, cfg) in BAD_TYPES.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        argv = [a.format(tmp=tmp_path, work=workdir) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.strip()
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "d").exists()

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_merged_out_is_refused(self, spelling, workdir, tmp_path, capsys,
                                         monkeypatch):
        # the merged checkpoint would be saved at /merged_seed0
        saved = []
        monkeypatch.setattr(bench, "save_checkpoint", lambda model, path: saved.append(path))
        (tmp_path / "c.json").write_text(json.dumps({"merged_out": ""}))
        merged_out = {"flag": ["--merged-out="], "config": ["--config", str(tmp_path / "c.json")]}
        code = main(["finetune", "--checkpoint", str(workdir / "ckpt"), "--dataset",
                     str(workdir / "ds"), "--shots", "1", "--iters-per-shot", "1", "--seeds",
                     "0", *merged_out[spelling], "--out", str(tmp_path / "x.csv")])
        assert (code, saved) == (1, [])
        assert capsys.readouterr().err == \
            "--merged-out must name a directory, got an empty path\n"
        assert not (tmp_path / "x.csv").exists()


# every command's defaults as they resolved before ablate's grid defaults
# were read from PlacementConfig, in flag order
RESOLVED_DEFAULTS = {
    "gen": {"classes": 8, "images_per_class": 64, "noise": 0.6, "shift": 0, "seed": 0},
    "pretrain": {"epochs": 40, "batch_size": 32, "lr": 0.001, "seed": 0},
    "zeroshot": {"shots": 4, "seed": 0},
    "finetune": {"method": "lora", "shots": 4, "seeds": [0, 1, 2], "merged_out": None,
                 "lr": 0.0002, "iters_per_shot": 500, "batch_size": 32, "rank": 2,
                 "dropout": 0.25},
    "ablate": {"groups": ["q", "k", "v", "o", "qk", "qkv", "qkvo"], "ranks": [2],
               "spans": ["all"], "encoders": ["both"], "shots": 4, "n_seeds": 3,
               "master_seed": 0, "workers": 1, "iters_per_shot": 500},
}
# the config dataclasses whose fields a command's keys stand for
KEY_SOURCES = {"gen": [SyntheticDatasetSpec], "pretrain": [PretrainConfig],
               "zeroshot": [TrainConfig], "finetune": [TrainConfig, PlacementConfig],
               "ablate": [PlacementConfig, TrainConfig]}


class TestDefaults:
    def test_every_command_resolves_its_defaults(self, tmp_path):
        paths = {"gen": ["--out"], "pretrain": ["--dataset", "--out"]}
        for command, expected in RESOLVED_DEFAULTS.items():
            args = build_parser().parse_args([command, *[
                a for flag in paths.get(command, ["--checkpoint", "--dataset", "--out"])
                for a in (flag, str(tmp_path / "x"))]])
            cli._apply_config(args, cli._KEYS[command])
            assert list(cli._KEYS[command]) == list(expected)
            assert {key: getattr(args, key) for key in expected} == expected, command

    def test_field_keys_default_to_their_field(self):
        checked = set()
        for command, sources in KEY_SOURCES.items():
            for cls in sources:
                defaults = {f.name: f.default for f in fields(cls)}
                for key, value in cli._KEYS[command].items():
                    name = cli._FIELD_NAMES.get(key, key)
                    if name in defaults:
                        grid_axis = isinstance(value, list) and command == "ablate"
                        assert value == ([defaults[name]] if grid_axis else defaults[name]), \
                            (command, key)
                        checked.add((command, key))
        assert {("ablate", "ranks"), ("ablate", "spans"), ("ablate", "encoders"),
                ("finetune", "rank"), ("gen", "shift")} <= checked
        assert {cli._KEYS[c]["shots"] for c in ("zeroshot", "finetune", "ablate")} == \
            {cli.DEFAULT_SHOTS}


class TestUsageErrorNames:
    """A repeated row, a config value of the wrong type or a config method
    that is not a trained method is a usage error that names it."""

    @pytest.mark.parametrize("argv,named", [
        (["ablate", "--groups", "q,q", "--ranks", "2"], "('q', 2, 'all', 'both')"),
        (["finetune", "--seeds", "1,0,1"], "seed 1"),
        (["ablate", "--config", "{tmp}/r.json"], "ranks"),
        (["finetune", "--config", "{tmp}/m.json"], "'zero-shot'"),
    ], ids=["repeated-cell", "repeated-seed", "config-type", "config-method"])
    def test_error_names_it(self, argv, named, workdir, tmp_path, capsys):
        (tmp_path / "r.json").write_text(json.dumps({"ranks": ["2"]}))
        (tmp_path / "m.json").write_text(json.dumps({"method": "zero-shot"}))
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main([*argv, "--checkpoint", str(workdir / "ckpt"), "--dataset",
                     str(workdir / "ds"), "--out", str(tmp_path / "x.csv")]) == 1
        assert named in capsys.readouterr().err


class TestAllocatorPolicy:
    def test_sets_both_glibc_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert cli._use_malloc_policy() is True
        # M_MMAP_THRESHOLD to glibc's 64-bit maximum, M_TRIM_THRESHOLD, then
        # M_ARENA_MAX: one arena for every thread
        assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]

    def test_a_refused_setting_is_reported(self, monkeypatch):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=lambda param, value: int(param == -1)))
        assert cli._use_malloc_policy() is False

    def test_other_libc_is_left_alone(self, monkeypatch):
        def unknown_name(name):
            raise ValueError("unrecognized configuration name")

        monkeypatch.setattr(os, "confstr", unknown_name)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: pytest.fail("loaded libc"))
        assert cli._use_malloc_policy() is False

    def test_starts_no_process_and_may_repeat(self, monkeypatch):
        try:
            glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
        except (ValueError, OSError):
            glibc = False
        everything = glibc and cli._openblas() is not None

        def no_process(*args, **kwargs):
            raise AssertionError("started a process")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        assert cli.use_process_policy() is everything
        assert cli.use_process_policy() is everything

    def test_main_applies_it_before_parsing(self, monkeypatch, capsys):
        order = []
        parser = cli.build_parser
        monkeypatch.setattr(cli, "use_process_policy", lambda: order.append("policy"))
        monkeypatch.setattr(cli, "build_parser", lambda: order.append("parse") or parser())
        assert main(["no-such-command"]) == 1
        assert order == ["policy", "parse"]


@pytest.fixture
def openblas():
    """numpy's bundled OpenBLAS; its thread count is put back afterwards."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy bundles no scipy-openblas library here")
    threads = blas.scipy_openblas_get_num_threads64_()
    yield blas
    blas.scipy_openblas_set_num_threads64_(threads)


class TestBlasPolicy:
    def test_main_leaves_one_blas_thread(self, openblas):
        openblas.scipy_openblas_set_num_threads64_(2)
        assert main(["no-such-command"]) == 1
        assert openblas.scipy_openblas_get_num_threads64_() == 1

    def test_without_openblas_nothing_changes(self, openblas, monkeypatch):
        openblas.scipy_openblas_set_num_threads64_(2)
        threads = openblas.scipy_openblas_get_num_threads64_()
        monkeypatch.setattr(cli, "_OPENBLAS_GLOB", "no-such-library*")
        assert cli._openblas() is None
        assert cli.use_process_policy() is False
        assert openblas.scipy_openblas_get_num_threads64_() == threads


class TestReadme:
    def test_walkthrough_commands_parse(self):
        # every command of the README's CLI walkthrough is accepted by the parser
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI walkthrough.*?```sh\n(.*?)```", readme, re.S).group(1)
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("lorabench ")]
        assert len(commands) >= 9
        parser = build_parser()
        for cmd in commands:
            parser.parse_args(shlex.split(cmd)[1:])
