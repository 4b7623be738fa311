"""Synthetic dataset generation and on-disk layout."""

import io
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from conftest import fail_writes_part_way
from lorabench import data
from lorabench.data import (DEFAULT_CLASS_NAMES, Dataset, SyntheticDatasetSpec,
                            check_prototypes, generate_dataset, load_dataset,
                            make_prototypes, save_dataset)
from lorabench.errors import DomainError, FormatError


class TestGenerate:
    def test_counts_and_manifest_names(self, tmp_path):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=8,
                                                   images_per_class=64, seed=0))
        assert ds.images.shape == (512, 16, 16)
        assert len(ds.class_names) == 8
        assert len(ds.captions) == 512
        save_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert len(manifest["spec"]["class_names"]) == 8

    def test_byte_identical_regeneration(self, tmp_path):
        spec = SyntheticDatasetSpec(n_classes=4, images_per_class=8, seed=7)
        save_dataset(generate_dataset(spec), tmp_path / "a")
        save_dataset(generate_dataset(spec), tmp_path / "b")
        for name in ("manifest.json", "images.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("failing", ["images.bin", "manifest.json"])
    def test_failed_overwrite_keeps_the_old_dataset(self, tmp_path, monkeypatch, failing):
        old = generate_dataset(SyntheticDatasetSpec(n_classes=4, images_per_class=8,
                                                    seed=7))
        new = generate_dataset(SyntheticDatasetSpec(
            n_classes=4, images_per_class=8, seed=8,
            class_names=("ant", "bee", "cow", "doe")))
        save_dataset(old, tmp_path / "ds")
        fail_writes_part_way(monkeypatch, failing)
        with pytest.raises(OSError, match="part-way"):
            save_dataset(new, tmp_path / "ds")
        monkeypatch.undo()
        loaded = load_dataset(tmp_path / "ds")
        assert (loaded.spec, loaded.class_names, loaded.vocab_words, loaded.captions) == \
            (old.spec, old.class_names, old.vocab_words, old.captions)
        assert np.array_equal(loaded.images, old.images)
        assert np.array_equal(loaded.labels, old.labels)
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == \
            ["images.bin", "manifest.json"]

    def test_equal_prototypes_rejected(self):
        spec = SyntheticDatasetSpec(n_classes=2, images_per_class=2, seed=0)
        proto = np.ones((2, 4, 4))
        with pytest.raises(DomainError, match="too close"):
            generate_dataset(spec, prototypes=proto)

    def test_check_prototypes_direct(self):
        ok = np.stack([np.zeros((4, 4)), np.full((4, 4), 2.0)])
        check_prototypes(ok, 2.0)
        with pytest.raises(DomainError):
            check_prototypes(ok, 50.0)

    def test_class_labels_match_names(self):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=3,
                                                   images_per_class=5, seed=1))
        assert ds.labels.tolist() == sorted(ds.labels.tolist())
        for k, name in enumerate(ds.class_names):
            idx = np.flatnonzero(ds.labels == k)
            assert all(name in ds.captions[i] for i in idx)

    def test_pixel_shift_is_cyclic_roll_of_clean(self):
        clean = generate_dataset(SyntheticDatasetSpec(n_classes=4,
                                                      images_per_class=4, seed=2))
        shifted = generate_dataset(SyntheticDatasetSpec(n_classes=4,
                                                        images_per_class=4,
                                                        pixel_shift=3, seed=2))
        rolled = np.roll(clean.images, (3, 3), axis=(1, 2))
        assert np.array_equal(shifted.images, rolled)
        assert shifted.captions == clean.captions

    def test_too_many_default_classes(self):
        with pytest.raises(DomainError):
            SyntheticDatasetSpec(n_classes=len(DEFAULT_CLASS_NAMES) + 1)

    def test_vocab_covers_captions_and_classes(self):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=4,
                                                   images_per_class=2, seed=3))
        words = set(ds.vocab_words)
        for c in ds.captions:
            assert set(c.split()) <= words
        assert set(ds.class_names) <= words

    @pytest.mark.parametrize("spec,match", [
        (dict(n_classes=-1), "integers"),
        (dict(image_size=0), "image_size"),
        (dict(noise="loud"), "noise must be a finite number"),
        (dict(noise=float("inf")), "noise must be a finite number"),
        (dict(noise=-0.1), "noise and min_class_distance must be >= 0"),
        (dict(prototype_scale=float("nan")), "prototype_scale must be a finite number"),
        (dict(prototype_scale=True), "prototype_scale must be a finite number"),
        (dict(min_class_distance=-1.0), "noise and min_class_distance must be >= 0"),
        (dict(pixel_shift=1.5), "pixel_shift must be an integer"),
        (dict(pixel_shift=True), "pixel_shift must be an integer"),
        (dict(seed=-5), "seed an integer >= 0"),
        (dict(seed=2.0), "seed an integer >= 0"),
    ], ids=["negative-size", "zero-image-size", "string-noise", "infinite-noise",
            "negative-noise", "nan-prototype-scale", "bool-prototype-scale",
            "negative-min-distance", "fractional-shift", "bool-shift", "negative-seed",
            "float-seed"])
    def test_spec_rejects_malformed_fields(self, spec, match):
        with pytest.raises(DomainError, match=match):
            SyntheticDatasetSpec(**spec)


class TestDiskLayout:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=4,
                                                   images_per_class=8, seed=4))
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert back.captions == ds.captions
        assert back.class_names == ds.class_names
        assert back.vocab_words == ds.vocab_words

    def test_round_trip_of_the_benchmark_rendering(self, tmp_path):
        """Prototypes of `gen --seed 0`, rendered at another seed with a
        pixel shift, as the benchmark renders its datasets."""
        protos = make_prototypes(SyntheticDatasetSpec(seed=0), np.random.default_rng(
            np.random.SeedSequence([0, 0xDA7A])))
        ds = generate_dataset(SyntheticDatasetSpec(images_per_class=8, pixel_shift=1,
                                                   seed=11), prototypes=protos)
        save_dataset(ds, tmp_path / "ds")
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == \
            ["images.bin", "manifest.json"]
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert sorted(manifest) == ["captions", "kind", "spec", "version"]
        assert manifest["version"] == 2
        back = load_dataset(tmp_path / "ds")
        for f in fields(Dataset):
            got, want = getattr(back, f.name), getattr(ds, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name
        assert back.labels.dtype == np.int64

    def test_images_bin_is_le_float32(self, tmp_path):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=2,
                                                   images_per_class=2, seed=5))
        save_dataset(ds, tmp_path / "ds")
        raw = (tmp_path / "ds" / "images.bin").read_bytes()
        arr = np.frombuffer(raw, dtype="<f4").reshape(ds.images.shape)
        assert np.array_equal(arr, ds.images)

    def test_truncated_images(self, tmp_path):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=2,
                                                   images_per_class=2, seed=5))
        save_dataset(ds, tmp_path / "ds")
        raw = (tmp_path / "ds" / "images.bin").read_bytes()
        (tmp_path / "ds" / "images.bin").write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="bytes"):
            load_dataset(tmp_path / "ds")

    def test_one_byte_too_many_images(self, tmp_path):
        save_dataset(generate_dataset(SyntheticDatasetSpec(n_classes=2, images_per_class=2,
                                                           seed=5)), tmp_path / "ds")
        with open(tmp_path / "ds" / "images.bin", "ab") as f:
            f.write(b"\0")
        with pytest.raises(FormatError, match="images.bin has 4097 bytes, the spec needs 4096"):
            load_dataset(tmp_path / "ds")

    def test_oversized_images_rejected_unread(self, tmp_path, monkeypatch):
        save_dataset(generate_dataset(SyntheticDatasetSpec(n_classes=2, images_per_class=2,
                                                           seed=5)), tmp_path / "ds")
        os.truncate(tmp_path / "ds" / "images.bin", 1 << 30)   # sparse: no blocks written
        reads = []

        class SpyFile(io.FileIO):
            def read(self, *args):
                reads.append(args)
                return super().read(*args)

            readall = read

        monkeypatch.setattr(data, "open", lambda path, mode: SpyFile(path, mode),
                            raising=False)
        with pytest.raises(FormatError, match=f"has {1 << 30} bytes"):
            load_dataset(tmp_path / "ds")
        assert reads == []

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "nope")

    def test_wrong_kind(self, tmp_path):
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text('{"kind": "other"}')
        with pytest.raises(FormatError, match="not a dataset"):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("edit,match", [
        (lambda m: m.pop("spec"), "spec"),
        (lambda m: m["spec"].update(colour="red"), "colour"),
        (lambda m: m.update(captions=m["captions"][:-1]), "3 captions for 4 images"),
    ], ids=["no-spec", "unknown-spec-key", "short-captions"])
    def test_malformed_manifest_rejected(self, tmp_path, edit, match):
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=2,
                                                   images_per_class=2, seed=5))
        save_dataset(ds, tmp_path / "ds")
        mpath = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=match):
            load_dataset(tmp_path / "ds")

