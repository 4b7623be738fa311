"""Synthetic image/caption corpus: each class is a coarse spatial prototype
rendered to a 16x16 float grid with pixel noise, captioned from a small
template vocabulary.  Generation is fully determined by (spec, seed)."""

from __future__ import annotations

import json
import math
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


# coarse cells per side of a class prototype, upsampled to image_size
PROTOTYPE_GRID = 4
# least L2 distance between two class prototypes
MIN_CLASS_DISTANCE = 2.0


@dataclass
class SyntheticDatasetSpec:
    """The classes are named DEFAULT_CLASS_NAMES[:n_classes]."""
    n_classes: int = 8
    images_per_class: int = 64
    image_size: int = 16
    noise: float = 0.6
    pixel_shift: int = 0     # cyclic roll of rendered images on both axes
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "images_per_class", "image_size"):
            require_int(name, getattr(self, name), 1)
        if self.n_classes > len(DEFAULT_CLASS_NAMES):
            raise DomainError(f"n_classes {self.n_classes} is more than the "
                              f"{len(DEFAULT_CLASS_NAMES)} default class names")
        if self.image_size % PROTOTYPE_GRID != 0:
            raise DomainError(f"image_size must be a multiple of {PROTOTYPE_GRID}, "
                              f"got {self.image_size}")
        require_finite("noise", self.noise, least=0)
        require_int("pixel_shift", self.pixel_shift)
        require_int("seed", self.seed, 0)


def require_finite(name: str, value, least=None, above=None) -> None:
    """A DomainError unless `value` is a finite int or float, at least
    `least` and above `above` where given; a bool is neither, and an int
    beyond a float's range is not finite."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    if above is not None and value <= above:
        raise DomainError(f"{name} must be > {above}, got {value!r}")


def require_int(name: str, value, least=None) -> None:
    """A DomainError unless `value` is an int (not a bool), at least `least`
    where given."""
    if type(value) is not int or (least is not None and value < least):
        raise DomainError(f"{name} must be an integer"
                          f"{'' if least is None else f' >= {least}'}, got {value!r}")


@dataclass
class Dataset:
    """Images rendered from `spec`, one caption each.  The rest follows from
    those: generate_dataset renders images_per_class images of each class in
    class order, and the vocabulary holds every caption and class word."""
    spec: SyntheticDatasetSpec
    images: np.ndarray          # (n, size, size) float32
    captions: list[str]
    labels: np.ndarray = field(init=False)            # (n,) int64
    class_names: list[str] = field(init=False)
    vocab_words: list[str] = field(init=False)

    def __post_init__(self):
        self.labels = np.repeat(np.arange(self.spec.n_classes, dtype=np.int64),
                                self.spec.images_per_class)
        self.class_names = list(DEFAULT_CLASS_NAMES[:self.spec.n_classes])
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
    protos = rng.uniform(-1.0, 1.0, size=(spec.n_classes, PROTOTYPE_GRID, PROTOTYPE_GRID))
    check_prototypes(protos)
    return protos


def check_prototypes(protos: np.ndarray) -> None:
    n = protos.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(protos[i] - protos[j]))
            if d < MIN_CLASS_DISTANCE:
                raise DomainError(f"class prototypes {i} and {j} too close "
                                  f"(distance {d:.3f} < {MIN_CLASS_DISTANCE})")


def generate_dataset(spec: SyntheticDatasetSpec,
                     prototypes: np.ndarray | None = None) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xDA7A]))
    if prototypes is None:
        prototypes = make_prototypes(spec, rng)
    else:
        prototypes = np.asarray(prototypes, dtype=np.float64)
        check_prototypes(prototypes)
    up = spec.image_size // PROTOTYPE_GRID
    images, captions = [], []
    for k, name in enumerate(DEFAULT_CLASS_NAMES[:spec.n_classes]):
        base = np.kron(prototypes[k], np.ones((up, up)))
        for _ in range(spec.images_per_class):
            img = base + spec.noise * rng.standard_normal((spec.image_size,
                                                           spec.image_size))
            if spec.pixel_shift:
                img = np.roll(img, (spec.pixel_shift, spec.pixel_shift), axis=(0, 1))
            images.append(img.astype(np.float32))
            tpl = CAPTION_TEMPLATES[int(rng.integers(len(CAPTION_TEMPLATES)))]
            captions.append(tpl.format(name))
    return Dataset(spec=spec, images=np.stack(images), captions=captions)


# ---------------------------------------------------------------------------
# artifacts: a dataset or a checkpoint is a directory of one little-endian
# blob and a manifest.json of version, kind, a config and one list.


@dataclass(frozen=True)
class ArtifactFormat:
    """One kind of artifact: the noun its messages use, its manifest's kind
    and version, its config's key and type, its list's key, and its blob."""
    what: str
    kind: str
    version: int
    config_key: str
    config_type: type
    list_key: str
    blob_name: str


def refuse_other_kind(fmt: ArtifactFormat, directory) -> None:
    """Raise FormatError if `directory`'s manifest names a kind other than
    fmt's, so that writing a fmt artifact there would destroy another.  A
    missing manifest, or one that is not a JSON object, names no kind."""
    try:
        old = json.loads((Path(directory) / "manifest.json").read_bytes())
    except (OSError, ValueError):
        return
    kind = old.get("kind", fmt.kind) if isinstance(old, dict) else fmt.kind
    if kind != fmt.kind:
        raise FormatError(f"{directory} holds an artifact of kind {kind!r}; "
                          f"a {fmt.what} written there would replace it")


def write_artifact(fmt: ArtifactFormat, directory, config, names: list, blob: bytes) -> None:
    """Write both files in full to temporaries beside their targets, then
    rename the blob and last the manifest.  So a failed or cut-off write
    leaves the old files as they were, and a new manifest has a new blob.
    A directory whose manifest names another kind is refused untouched."""
    directory = Path(directory)
    refuse_other_kind(fmt, directory)
    manifest = {"version": fmt.version, "kind": fmt.kind,
                fmt.config_key: asdict(config), fmt.list_key: names}
    directory.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, payload in [(fmt.blob_name, blob), ("manifest.json", json.dumps(
                manifest, indent=1, sort_keys=True).encode())]:
            staged.append((directory / f".{name}.tmp", directory / name))
            staged[-1][0].write_bytes(payload)
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def read_artifact(fmt: ArtifactFormat, directory) -> tuple:
    """The config, the list and the blob's path of the artifact in
    `directory`.  Its manifest is checked in order: a JSON object of fmt's
    kind, its version, its config, its list.  No blob byte is read."""
    directory = Path(directory)
    try:
        manifest = json.loads(read_text(directory / "manifest.json"))
    except (OSError, ValueError) as e:
        raise FormatError(f"cannot read {fmt.what} manifest: {e}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != fmt.kind:
        raise FormatError(f"not a {fmt.what} directory: {directory}")
    if manifest.get("version") != fmt.version:
        raise FormatError(f"unsupported {fmt.what} version {manifest.get('version')!r}; "
                          f"this build reads version {fmt.version}")
    try:
        config = fmt.config_type(**manifest[fmt.config_key])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"malformed {fmt.what} {fmt.config_key} in {directory} "
                          f"({type(e).__name__}: {e})") from None
    names = manifest.get(fmt.list_key)
    if not isinstance(names, list):
        raise FormatError(f"{fmt.what} {fmt.list_key} must be a list, "
                          f"got {type(names).__name__}")
    return config, names, directory / fmt.blob_name


def read_text(path: Path) -> str:
    """The UTF-8 text of file `path`; bytes that do not decode are a
    FormatError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def read_sized(path: Path, need: int, what: str) -> bytes:
    """The bytes of file `path`, which must hold exactly `need` of them, as
    `what` needs.  The size is checked before a byte is read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != need:
            raise FormatError(f"{path.name} has {size} bytes, {what} needs {need}")
        return f.read()


# images.bin holds every image, little-endian float32, in label order; the
# list is one caption per image; the spec fixes the count, size and labels.
DATASET = ArtifactFormat("dataset", "synthetic_dataset", 3, "spec", SyntheticDatasetSpec,
                         "captions", "images.bin")


def save_dataset(ds: Dataset, directory) -> None:
    write_artifact(DATASET, directory, ds.spec, ds.captions,
                   np.ascontiguousarray(ds.images, dtype="<f4").tobytes())


def load_dataset(directory) -> Dataset:
    spec, captions, blob = read_artifact(DATASET, directory)
    if not all(isinstance(c, str) for c in captions):
        raise FormatError("dataset captions must be strings")
    n, size = spec.n_classes * spec.images_per_class, spec.image_size
    if len(captions) != n:
        raise FormatError(f"{len(captions)} captions for {n} images")
    raw = read_sized(blob, n * size * size * 4, "the spec")
    images = np.frombuffer(raw, dtype="<f4").reshape(n, size, size).astype(np.float32)
    return Dataset(spec=spec, images=images, captions=captions)
