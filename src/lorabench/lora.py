"""Low-rank adaptation engine: create, place, merge and count adapter modules.

A module holds the factored update delta = A @ B for one attention projection,
in the layout of the weight it adapts: input-major, A (d_in x rank) and
B (rank x d_out), so delta is (d_in x d_out) like the host weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, StateError
from .model import DualEncoderModel
from .tensor import Tensor

MATRICES = ("q", "k", "v", "o")
LAYER_SPANS = ("bottom", "up", "all")
ENCODER_CHOICES = ("vision", "text", "both")


@dataclass
class PlacementConfig:
    """Which attention matrices, layers and encoders receive adapter modules."""

    matrices: tuple[str, ...] = ("q", "k", "v")
    layer_span: str = "all"
    encoders: str = "both"
    rank: int = 2
    dropout: float = 0.25

    def __post_init__(self):
        self.matrices = tuple(self.matrices)
        if not self.matrices or any(m not in MATRICES for m in self.matrices):
            raise DomainError(f"matrices must be a non-empty subset of {MATRICES}, "
                              f"got {self.matrices}")
        if len(set(self.matrices)) != len(self.matrices):
            raise DomainError(f"duplicate matrices in {self.matrices}")
        if self.layer_span not in LAYER_SPANS:
            raise DomainError(f"layer_span must be one of {LAYER_SPANS}")
        if self.encoders not in ENCODER_CHOICES:
            raise DomainError(f"encoders must be one of {ENCODER_CHOICES}")
        if self.rank < 1:
            raise DomainError(f"rank must be >= 1, got {self.rank}")
        if not (0.0 <= self.dropout < 1.0):
            raise DomainError(f"dropout must be in [0, 1), got {self.dropout}")

    def digest(self) -> str:
        return f"{''.join(self.matrices)}-{self.layer_span}-{self.encoders}-r{self.rank}"

    def selected_layers(self, depth: int) -> range:
        # odd depth: bottom gets the extra layer
        split = (depth + 1) // 2
        if self.layer_span == "bottom":
            return range(0, split)
        if self.layer_span == "up":
            return range(split, depth)
        return range(0, depth)

    def selected_encoders(self) -> tuple[str, ...]:
        if self.encoders == "both":
            return ("vision", "text")
        return (self.encoders,)

    def targets(self, depth: int) -> list[tuple[str, int, str]]:
        """All (encoder, layer, matrix) triples selected by this placement."""
        return [(enc, layer, m)
                for enc in self.selected_encoders()
                for layer in self.selected_layers(depth)
                for m in self.matrices]


class LoRAModule:
    """One factored update: A is (d_in, rank) Kaiming-uniform, B is (rank, d_out) zeros."""

    def __init__(self, A: Tensor, B: Tensor, dropout: float):
        self.A = A
        self.B = B
        self.dropout = dropout

    def delta(self) -> np.ndarray:
        """Materialized dense update (d_in x d_out), i.e. A @ B."""
        return self.A.data @ self.B.data

    def param_count(self) -> int:
        return self.A.size + self.B.size


def init_lora(d_out: int, d_in: int, rank: int, dropout: float = 0.0,
              seed: int = 0, dtype=np.float32) -> LoRAModule:
    """Seeded module init: A ~ U(-sqrt(6/d_in), +sqrt(6/d_in)), drawn as A^T, B = 0."""
    if rank < 1 or rank > min(d_out, d_in):
        raise DomainError(f"rank {rank} outside [1, min({d_out}, {d_in})]")
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / d_in)
    A = Tensor(rng.uniform(-bound, bound, size=(rank, d_in)).T.astype(dtype, order="C"))
    B = Tensor(np.zeros((rank, d_out), dtype=dtype))
    return LoRAModule(A, B, dropout)


class AdaptedModel:
    """A frozen base model plus the adapter modules selected by a placement."""

    def __init__(self, base: DualEncoderModel,
                 modules: dict[tuple[str, int, str], LoRAModule]):
        self.base = base
        self.modules = modules
        self.merged = False
        self._snapshots: Optional[dict[tuple[str, int, str], np.ndarray]] = None

    def trainable_parameters(self) -> list[Tensor]:
        out = []
        for key in sorted(self.modules):
            out.append(self.modules[key].A)
            out.append(self.modules[key].B)
        return out

    def trainable_count(self) -> int:
        return sum(m.param_count() for m in self.modules.values())


def _encoder_of(model: DualEncoderModel, name: str):
    return model.visual if name == "vision" else model.textual


def inject(model: DualEncoderModel, cfg: PlacementConfig, seed: int = 0) -> AdaptedModel:
    """Attach one fresh module per selected target."""
    if model.has_lora():
        raise StateError("model already carries adapter modules; inject once only")
    d = model.cfg.width
    if cfg.rank > d:
        raise DomainError(f"rank {cfg.rank} exceeds matrix dimension {d}")
    ss = np.random.SeedSequence([seed, 0x10A7])
    modules: dict[tuple[str, int, str], LoRAModule] = {}
    targets = cfg.targets(model.cfg.depth)
    for child, target in zip(ss.spawn(len(targets)), targets):
        enc, layer, mat = target
        module = init_lora(d, d, cfg.rank, cfg.dropout, seed=child, dtype=model.cfg.np_dtype)
        _encoder_of(model, enc).blocks[layer].lora[mat] = module
        modules[target] = module
    return AdaptedModel(model, modules)


def merge(adapted: AdaptedModel) -> DualEncoderModel:
    """Fold A @ B into each host weight; detach modules for inference."""
    if adapted.merged:
        raise StateError("adapter modules already merged")
    snapshots = {}
    for target, module in adapted.modules.items():
        enc, layer, mat = target
        w = _encoder_of(adapted.base, enc).blocks[layer].weight(mat)
        snapshots[target] = w.data.copy()
        w.data = w.data + module.delta().astype(w.data.dtype)
        _encoder_of(adapted.base, enc).blocks[layer].lora.pop(mat)
    adapted._snapshots = snapshots
    adapted.merged = True
    return adapted.base


def unmerge(adapted: AdaptedModel) -> AdaptedModel:
    """Restore pre-merge weights bitwise and re-attach the modules."""
    if not adapted.merged or adapted._snapshots is None:
        raise StateError("unmerge without a prior merge")
    for target, module in adapted.modules.items():
        enc, layer, mat = target
        block = _encoder_of(adapted.base, enc).blocks[layer]
        block.weight(mat).data = adapted._snapshots[target]
        block.lora[mat] = module
    adapted._snapshots = None
    adapted.merged = False
    return adapted


def trainable_param_count(cfg: PlacementConfig, depth: int, width: int) -> int:
    """Sum of rank * (d_out + d_in) over every selected target matrix."""
    return len(cfg.targets(depth)) * cfg.rank * (width + width)

