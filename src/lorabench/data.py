"""Synthetic image/caption corpus: each class is a coarse spatial prototype
rendered to a 16x16 float grid with pixel noise, captioned from a small
template vocabulary.  Generation is fully determined by (spec, seed)."""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

DEFAULT_CLASS_NAMES = ("dax", "wug", "blick", "zorp", "fep", "toma", "gazzer",
                       "lorp", "mipen", "kiki", "bouba", "tive", "sprock",
                       "quim", "norg", "velch")

CAPTION_TEMPLATES = ("a photo of a {}",
                     "a picture of a {}",
                     "an image of a {}",
                     "a small photo of a {}")


@dataclass
class SyntheticDatasetSpec:
    n_classes: int = 8
    images_per_class: int = 64
    image_size: int = 16
    prototype_grid: int = 4       # coarse cells per side, upsampled to image_size
    prototype_scale: float = 1.0
    noise: float = 0.6
    min_class_distance: float = 2.0
    pixel_shift: int = 0     # cyclic roll of rendered images on both axes
    seed: int = 0
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.class_names:
            if self.n_classes > len(DEFAULT_CLASS_NAMES):
                raise DomainError(f"at most {len(DEFAULT_CLASS_NAMES)} default class "
                                  f"names; pass class_names explicitly")
            self.class_names = DEFAULT_CLASS_NAMES[:self.n_classes]
        self.class_names = tuple(self.class_names)
        if len(self.class_names) != self.n_classes:
            raise DomainError(f"{len(self.class_names)} names for {self.n_classes} classes")
        if self.image_size % self.prototype_grid != 0:
            raise DomainError("image_size must be a multiple of prototype_grid")


@dataclass
class Dataset:
    spec: SyntheticDatasetSpec
    images: np.ndarray          # (n, size, size) float32
    labels: np.ndarray          # (n,) int64
    captions: list[str]
    class_names: list[str]
    vocab_words: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.vocab_words:
            self.vocab_words = build_vocab_words(self.captions, self.class_names)


def build_vocab_words(captions, class_names) -> list[str]:
    words = set()
    for c in captions:
        words.update(c.split())
    for tpl in CAPTION_TEMPLATES:
        words.update(tpl.format("").split())
    words.update(class_names)
    return sorted(words)


def make_prototypes(spec: SyntheticDatasetSpec, rng: np.random.Generator) -> np.ndarray:
    g = spec.prototype_grid
    protos = rng.uniform(-1.0, 1.0, size=(spec.n_classes, g, g)) * spec.prototype_scale
    check_prototypes(protos, spec.min_class_distance)
    return protos


def check_prototypes(protos: np.ndarray, min_distance: float) -> None:
    n = protos.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(protos[i] - protos[j]))
            if d < min_distance:
                raise DomainError(f"class prototypes {i} and {j} too close "
                                  f"(distance {d:.3f} < {min_distance})")


def generate_dataset(spec: SyntheticDatasetSpec,
                     prototypes: np.ndarray | None = None) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    if prototypes is None:
        prototypes = make_prototypes(spec, rng)
    else:
        prototypes = np.asarray(prototypes, dtype=np.float64)
        check_prototypes(prototypes, spec.min_class_distance)
    up = spec.image_size // spec.prototype_grid
    images, labels, captions = [], [], []
    for k, name in enumerate(spec.class_names):
        base = np.kron(prototypes[k], np.ones((up, up)))
        for _ in range(spec.images_per_class):
            img = base + spec.noise * rng.standard_normal((spec.image_size,
                                                           spec.image_size))
            if spec.pixel_shift:
                img = np.roll(img, (spec.pixel_shift, spec.pixel_shift), axis=(0, 1))
            images.append(img.astype(np.float32))
            labels.append(k)
            tpl = CAPTION_TEMPLATES[int(rng.integers(len(CAPTION_TEMPLATES)))]
            captions.append(tpl.format(name))
    return Dataset(spec=spec, images=np.stack(images),
                   labels=np.asarray(labels, dtype=np.int64),
                   captions=captions, class_names=list(spec.class_names))


# ---------------------------------------------------------------------------
# on-disk layout: manifest.json, images.bin, labels.csv, captions.txt


def replace_files(directory: Path, files: list[tuple[str, bytes]]) -> None:
    """Write each (name, bytes) pair into `directory`, last file last.

    Every file is first written in full to a temporary file beside its
    target; only then do the temporaries replace their targets, in order.
    So a write that fails or is cut off part-way leaves the old files as
    they were, and once the last file (a manifest) is new, so is every file
    before it."""
    directory.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, payload in files:
            staged.append((directory / f".{name}.tmp", directory / name))
            staged[-1][0].write_bytes(payload)
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def read_text(path: Path) -> str:
    """The UTF-8 text of file `path`; bytes that do not decode are a
    FormatError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def save_dataset(ds: Dataset, directory) -> None:
    manifest = {
        "kind": "synthetic_dataset",
        "spec": asdict(ds.spec),
        "n_images": int(ds.images.shape[0]),
        "image_size": int(ds.images.shape[1]),
        "class_names": ds.class_names,
        "vocab_words": ds.vocab_words,
    }
    labels = io.StringIO()
    w = csv.writer(labels)
    w.writerow(["index", "label", "class_name"])
    for i, lab in enumerate(ds.labels):
        w.writerow([i, int(lab), ds.class_names[int(lab)]])
    replace_files(Path(directory), [
        ("images.bin", np.ascontiguousarray(ds.images, dtype="<f4").tobytes()),
        ("labels.csv", labels.getvalue().encode()),
        ("captions.txt", ("\n".join(ds.captions) + "\n").encode()),
        ("manifest.json", json.dumps(manifest, indent=1, sort_keys=True).encode())])


def _read_labels(path: Path, n: int, n_classes: int) -> np.ndarray:
    """One label in [0, n_classes) for each image index in [0, n), each
    index given exactly once."""
    labels = np.full(n, -1, dtype=np.int64)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None or header[:2] != ["index", "label"]:
        raise FormatError(f"bad labels.csv header: {header}")
    for lineno, row in enumerate(reader, start=2):
        try:
            index, label = int(row[0]), int(row[1])
        except (IndexError, ValueError):
            raise FormatError(f"labels.csv:{lineno}: malformed row {row}") from None
        if not 0 <= index < n:
            raise FormatError(f"labels.csv:{lineno}: index {index} outside [0, {n})")
        if labels[index] != -1:
            raise FormatError(f"labels.csv:{lineno}: duplicate index {index}")
        if not 0 <= label < n_classes:
            raise FormatError(f"labels.csv:{lineno}: label {label} outside "
                              f"[0, {n_classes})")
        labels[index] = label
    missing = np.flatnonzero(labels == -1)
    if missing.size:
        raise FormatError(f"labels.csv: no label for {missing.size} of {n} images "
                          f"(first missing index {missing[0]})")
    return labels


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    try:
        manifest = json.loads(read_text(directory / "manifest.json"))
    except (OSError, ValueError) as e:
        raise FormatError(f"cannot read dataset manifest: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "synthetic_dataset":
        raise FormatError(f"not a dataset directory: {directory}")
    try:
        spec = SyntheticDatasetSpec(**dict(
            manifest["spec"], class_names=tuple(manifest["spec"]["class_names"])))
        n, size = manifest["n_images"], manifest["image_size"]
        class_names = manifest["class_names"]
        vocab_words = manifest["vocab_words"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise FormatError(f"malformed dataset manifest ({type(e).__name__}: {e})") from None
    if not all(type(v) is int and v >= 0 for v in (n, size)):
        raise FormatError(f"n_images and image_size must be integers >= 0, "
                          f"got {n!r} and {size!r}")
    if (not isinstance(class_names, list) or not all(isinstance(c, str) for c in class_names)
            or len(set(class_names)) != len(class_names)):
        raise FormatError(f"class_names must be a list of distinct strings, got {class_names!r}")
    if not isinstance(vocab_words, list) or not all(isinstance(w, str) for w in vocab_words):
        raise FormatError(f"vocab_words must be a list of strings, got {vocab_words!r}")
    raw = (directory / "images.bin").read_bytes()
    expect = n * size * size * 4
    if len(raw) != expect:
        raise FormatError(f"images.bin has {len(raw)} bytes, expected {expect}")
    images = np.frombuffer(raw, dtype="<f4").reshape(n, size, size).astype(np.float32)
    labels = _read_labels(directory / "labels.csv", n, len(class_names))
    captions = read_text(directory / "captions.txt").splitlines()
    if len(captions) != n:
        raise FormatError(f"{len(captions)} captions for {n} images")
    return Dataset(spec=spec, images=images, labels=labels, captions=captions,
                   class_names=class_names, vocab_words=vocab_words)
