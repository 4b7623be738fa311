"""Miniature CLIP-style dual encoder: a patch ViT and a token transformer
projecting into one unit-hypersphere embedding space with a temperature.

Both encoders are stacks of pre-norm residual blocks around multi-head
attention and a GELU MLP.  Attention projections can carry low-rank adapter
modules (see lora.py); the block needs A (d_in x rank), B (rank x d_out) and dropout.
A forward given an rng draws the adapters' dropout masks from it; without
one, dropout is off.  The text tower pools each prompt at its first EOS token.

A block is built from the fused ops of tensor.py, so a taped block records
at most ten nodes: the two layer norms and residual adds, a `linear` or
`lora_linear` per projection, one `attention` and one `mlp`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .data import (ArtifactFormat, read_artifact, read_sized, require_finite,
                   require_int, write_artifact)
from .errors import DomainError, FormatError, InputError, ShapeError
from .tensor import (Tape, Tensor, add, attention, broadcast_to, concat, l2_normalize,
                     layer_norm, linear, lora_linear, matmul, mlp, narrow, select_positions,
                     take_rows)

PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
_N_SPECIAL = 3
PROMPT_TEMPLATE = ("a", "photo", "of", "a")

_MASK_NEG = -1e9  # large finite negative; exp underflows to exactly 0

# Images per forward block of the vision tower.  At the default width one
# block's widest activation, the (64, 17, 256) MLP hidden state, is 1.1 MB in
# float32 and stays inside a 2 MB L2 cache; a 480-image block spills it.
IMAGE_BLOCK = 64


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _block_pool() -> Optional[ThreadPoolExecutor]:
    """A new pool for one forward's image blocks, one thread per usable CPU;
    None where one CPU is usable."""
    cpus = usable_cpus()
    return ThreadPoolExecutor(cpus, thread_name_prefix="lorabench-images") if cpus > 1 else None


# ---------------------------------------------------------------------------
# vocabulary and prompts


class Vocabulary:
    """Word-level vocabulary with reserved PAD/BOS/EOS ids."""

    def __init__(self, words: list[str]):
        self.words = list(words)
        self._ids = {w: i + _N_SPECIAL for i, w in enumerate(self.words)}
        if len(self._ids) != len(self.words):
            raise InputError("duplicate words in vocabulary")

    def id_of(self, word: str) -> int:
        try:
            return self._ids[word]
        except KeyError:
            raise InputError(f"word not in vocabulary: {word!r}") from None

    def encode_words(self, words) -> list[int]:
        return [self.id_of(w) for w in words]


def tokenize_prompt(class_name: str, vocab: Vocabulary, max_len: int,
                    template: tuple[str, ...] = PROMPT_TEMPLATE) -> np.ndarray:
    """Build the (max_len,) int64 row [BOS, <template>, <class words>, EOS, PAD...]."""
    words = class_name.strip().split()
    if not words:
        raise InputError("empty class name")
    seq = [BOS_ID] + vocab.encode_words(template) + vocab.encode_words(words) + [EOS_ID]
    if len(seq) > max_len:
        raise InputError(
            f"prompt for {class_name!r} needs {len(seq)} tokens, max is {max_len}")
    tokens = np.full(max_len, PAD_ID, dtype=np.int64)
    tokens[:len(seq)] = seq
    return tokens


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ModelConfig:
    width: int = 64
    heads: int = 4
    depth: int = 4
    embed_dim: int = 32
    image_size: int = 16
    patch_size: int = 4
    max_text_len: int = 16
    vocab_words: list[str] = field(default_factory=list)
    dtype: str = "float32"
    init_temperature: float = 0.07

    def __post_init__(self):
        for name in ("width", "heads", "depth", "embed_dim", "image_size", "patch_size",
                     "max_text_len"):
            require_int(name, getattr(self, name), 1)
        if self.width % self.heads != 0:
            raise ShapeError(f"width {self.width} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise ShapeError("image size not divisible by patch size")
        if self.embed_dim > self.width:
            raise DomainError("need embed_dim <= width")
        require_finite("init_temperature", self.init_temperature, above=0)
        if self.dtype not in ("float32", "float64"):
            raise DomainError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not (isinstance(self.vocab_words, list)
                and all(isinstance(w, str) for w in self.vocab_words)):
            raise DomainError("vocab_words must be a list of strings")
        if len(set(self.vocab_words)) != len(self.vocab_words):
            raise DomainError("vocab_words must be distinct")

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def param_count(self) -> int:
        """How many numbers a DualEncoderModel of this config holds, counted
        from the sizes without building one."""
        d = self.width
        block = 12 * d * d + 13 * d  # four (d, d) projections, a 4d MLP, two norms
        encoder = self.depth * block + 2 * d + d * self.embed_dim
        # patch_w, patch_b, cls_token, pos_embed; token_embed, pos_embed
        vision = (self.patch_dim + 1 + 1 + self.n_patches + 1) * d
        text = (len(self.vocab_words) + _N_SPECIAL + self.max_text_len) * d
        return 2 * encoder + vision + text + 1  # and the temperature


# ---------------------------------------------------------------------------
# parameter containers


def _normal(rng: Optional[np.random.Generator], shape, std: float, dt) -> Tensor:
    """Draws from N(0, std^2) at dtype dt; without an rng, an unset array of
    that shape, for load_checkpoint to fill."""
    if rng is None:
        return Tensor(np.empty(shape, dtype=dt))
    return Tensor((rng.standard_normal(shape) * std).astype(dt))


class AttentionBlock:
    """Pre-norm transformer block; q/k/v/o projections accept LoRA modules."""

    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        d, dt = cfg.width, cfg.np_dtype
        self.heads = cfg.heads
        self.head_dim = d // cfg.heads

        def w(*shape):
            return _normal(rng, shape, 0.02, dt)

        def zeros(*shape):
            return Tensor(np.zeros(shape, dtype=dt))

        def ones(*shape):
            return Tensor(np.ones(shape, dtype=dt))

        self.ln1_g, self.ln1_b = ones(d), zeros(d)
        self.wq, self.bq = w(d, d), zeros(d)
        self.wk, self.bk = w(d, d), zeros(d)
        self.wv, self.bv = w(d, d), zeros(d)
        self.wo, self.bo = w(d, d), zeros(d)
        self.ln2_g, self.ln2_b = ones(d), zeros(d)
        self.w1, self.b1 = w(d, 4 * d), zeros(4 * d)
        self.w2, self.b2 = w(4 * d, d), zeros(d)
        self.lora: dict[str, object] = {}

    def weight(self, matrix: str) -> Tensor:
        return getattr(self, "w" + matrix)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
                     "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"):
            yield name, getattr(self, name)


def _lora_linear(x: Tensor, w: Tensor, b: Tensor, module, rng) -> Tensor:
    """x @ w + b, plus the low-rank delta drop(x) @ A @ B when a module is attached."""
    if module is None:
        return linear(x, w, b)
    return lora_linear(x, w, b, module.A, module.B, module.dropout, rng)


def block_forward(block: AttentionBlock, x: Tensor, mask: Optional[np.ndarray],
                  rng=None) -> Tensor:
    h = add(x, attention_forward(block, layer_norm(x, block.ln1_g, block.ln1_b),
                                 mask, rng))
    z = mlp(layer_norm(h, block.ln2_g, block.ln2_b), block.w1, block.b1, block.w2, block.b2)
    return add(h, z)


def attention_forward(block: AttentionBlock, x: Tensor, mask: Optional[np.ndarray],
                      rng=None) -> Tensor:
    """Batched multi-head self-attention on x of shape (batch, seq, width)."""
    q = _lora_linear(x, block.wq, block.bq, block.lora.get("q"), rng)
    k = _lora_linear(x, block.wk, block.bk, block.lora.get("k"), rng)
    v = _lora_linear(x, block.wv, block.bv, block.lora.get("v"), rng)
    ctx = attention(q, k, v, mask, block.heads)
    return _lora_linear(ctx, block.wo, block.bo, block.lora.get("o"), rng)


class _Encoder:
    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        self.cfg = cfg
        self.blocks = [AttentionBlock(cfg, rng) for _ in range(cfg.depth)]
        dt = cfg.np_dtype
        self.ln_f_g = Tensor(np.ones(cfg.width, dtype=dt))
        self.ln_f_b = Tensor(np.zeros(cfg.width, dtype=dt))
        self.proj = _normal(rng, (cfg.width, cfg.embed_dim), 0.02, dt)

    def named_parameters(self):
        yield from self.embedding_parameters()
        yield "ln_f_g", self.ln_f_g
        yield "ln_f_b", self.ln_f_b
        yield "proj", self.proj
        for i, blk in enumerate(self.blocks):
            for n, p in blk.named_parameters():
                yield f"blocks.{i}.{n}", p

    def frozen_prefix(self, params) -> int:
        """k: how many leading blocks carry no adapter and hold none of the
        trained tensors `params`, the embedding's included.  Dropout lives
        only in adapters, so their training forward is their eval forward and
        can run once."""
        trained = {id(p) for p in params}
        if any(id(p) in trained for _, p in self.embedding_parameters()):
            return 0
        live = (i for i, blk in enumerate(self.blocks)
                if blk.lora or any(id(p) in trained for _, p in blk.named_parameters()))
        return next(live, len(self.blocks))

    def forward(self, x: Tensor, mask: Optional[np.ndarray], rng, start: int,
                stop: Optional[int], pool_at: np.ndarray) -> Tensor:
        """Run hidden state `x` through blocks start..stop-1; without `stop`,
        the head then gives the (batch, embed_dim) unit features, row i
        pooled at position pool_at[i]."""
        for blk in self.blocks[start:stop]:
            x = block_forward(blk, x, mask, rng=rng)
        if stop is not None:
            return x
        x = layer_norm(x, self.ln_f_g, self.ln_f_b)
        return l2_normalize(matmul(select_positions(x, pool_at), self.proj))


class VisionEncoder(_Encoder):
    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        super().__init__(cfg, rng)
        dt = cfg.np_dtype
        self.patch_w = _normal(rng, (cfg.patch_dim, cfg.width), 0.02, dt)
        self.patch_b = Tensor(np.zeros(cfg.width, dtype=dt))
        self.cls_token = _normal(rng, cfg.width, 0.02, dt)
        self.pos_embed = _normal(rng, (cfg.n_patches + 1, cfg.width), 0.01, dt)

    def embedding_parameters(self):
        yield "patch_w", self.patch_w
        yield "patch_b", self.patch_b
        yield "cls_token", self.cls_token
        yield "pos_embed", self.pos_embed


class TextEncoder(_Encoder):
    def __init__(self, cfg: ModelConfig, rng: Optional[np.random.Generator]):
        super().__init__(cfg, rng)
        dt = cfg.np_dtype
        vocab_size = len(cfg.vocab_words) + _N_SPECIAL
        self.token_embed = _normal(rng, (vocab_size, cfg.width), 0.02, dt)
        self.pos_embed = _normal(rng, (cfg.max_text_len, cfg.width), 0.01, dt)

    def embedding_parameters(self):
        yield "token_embed", self.token_embed
        yield "pos_embed", self.pos_embed


class DualEncoderModel:
    """Vision and text encoders plus the softmax temperature.  Seed None
    draws nothing and leaves the random parameters unset, for
    load_checkpoint to fill."""

    def __init__(self, cfg: ModelConfig, seed: Optional[int] = 0):
        self.cfg = cfg
        rng = (None if seed is None
               else np.random.default_rng(np.random.SeedSequence([seed, 0xD0A1])))
        self.visual = VisionEncoder(cfg, rng)
        self.textual = TextEncoder(cfg, rng)
        self.temperature = Tensor(np.asarray(cfg.init_temperature, dtype=cfg.np_dtype))
        self.vocab = Vocabulary(cfg.vocab_words)

    @property
    def tau(self) -> float:
        return float(self.temperature.data)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for n, p in self.visual.named_parameters():
            yield f"visual.{n}", p
        for n, p in self.textual.named_parameters():
            yield f"textual.{n}", p
        yield "temperature", self.temperature

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def has_lora(self) -> bool:
        return any(blk.lora for enc in (self.visual, self.textual) for blk in enc.blocks)


# ---------------------------------------------------------------------------
# forward passes


def patchify(images: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """(batch, H, W) pixels -> (batch, n_patches, patch_dim), row-major patches."""
    b, h, w = images.shape
    if (h, w) != (cfg.image_size, cfg.image_size):
        raise ShapeError(f"expected {cfg.image_size}x{cfg.image_size} images, got {h}x{w}")
    p = cfg.patch_size
    g = h // p
    x = images.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4)
    return x.reshape(b, g * g, p * p)


def encode_images(model: DualEncoderModel, images: np.ndarray, rng=None,
                  start: int = 0, stop: Optional[int] = None) -> Tensor:
    """Encode a (batch, H, W) pixel array to (batch, embed_dim) unit vectors.

    The batch runs through the tower in blocks of IMAGE_BLOCK images, so a
    large evaluation batch never builds activations that overflow the cache.
    Images do not interact, so blocking changes no image's features.  A batch
    of at most IMAGE_BLOCK images is one block, and no batch of two or more
    ends in a block of one image: numpy would multiply that image with a
    matrix-vector kernel, whose sums round differently.

    An untaped forward without an rng, on the main thread, runs its blocks
    on a pool of one thread per usable CPU, made for this call and shut down
    before it returns.  Each block makes the same numpy calls on the same
    shapes either way, so the features are bitwise those of a serial run.  A
    taped forward, which records on this thread's tape, a forward given an
    rng, whose masks must be drawn in block order, and a forward on any other
    thread run their blocks in order here.

    For start > 0, `images` is the hidden state entering block `start`; given
    `stop`, the hidden state leaving block stop-1 replaces the features.
    """
    cfg = model.cfg
    enc = model.visual
    inputs = np.asarray(images)
    n = inputs.shape[0]
    # an empty batch runs as one empty block and gives (0, embed_dim)
    bounds = [*range(0, max(n, 1), IMAGE_BLOCK), n]
    if n > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1

    def block(lo, hi):
        x = Tensor(patchify(inputs[lo:hi], cfg).astype(cfg.np_dtype) if start == 0
                   else inputs[lo:hi])
        b = x.shape[0]
        if start == 0:
            x = linear(x, enc.patch_w, enc.patch_b)
            cls_rows = broadcast_to(enc.cls_token, (b, 1, cfg.width))
            x = add(concat([cls_rows, x], axis=1), enc.pos_embed)
        return enc.forward(x, None, rng, start, stop, np.zeros(b, dtype=np.int64))

    # a pool thread records on no tape, only this thread may draw from rng, and
    # a forward off the main thread, such as a row of `ablate --workers`,
    # leaves the cores to the other rows
    pool = (_block_pool() if len(bounds) > 2 and rng is None and Tape.current() is None
            and threading.current_thread() is threading.main_thread() else None)
    with pool or nullcontext():
        feats = list((pool.map if pool else map)(block, bounds[:-1], bounds[1:]))
    return feats[0] if len(feats) == 1 else concat(feats, axis=0)


class _FullWidthDraws:
    """The rng of a text forward cut to fewer positions than `width`: each
    (batch, n, d) dropout mask is the first n positions of one drawn at
    (batch, width, d), so the stream advances as for a forward over all."""

    def __init__(self, rng: np.random.Generator, width: int):
        self.rng, self.width = rng, width

    def random(self, shape, dtype):
        b, n, d = shape
        return self.rng.random((b, self.width, d), dtype=dtype)[:, :n]


def encode_tokens(model: DualEncoderModel, tokens: np.ndarray, rng=None,
                  start: int = 0, stop: Optional[int] = None,
                  x: Optional[Tensor] = None) -> Tensor:
    """Encode (batch, max_len) token ids to (batch, embed_dim) unit vectors,
    each row pooled at its first EOS token.

    `x`, the hidden state entering block `start`, replaces the embeddings
    (soft prompts, frozen prefixes); `start` and `stop` as in encode_images.

    The tower runs over the first n positions only, n being 1 plus the last
    position any row fills: every later one is PAD in every row, masked as a
    key and never pooled, so it cannot reach a feature.  An `x` is cut to n
    too, and the hidden state given back for `stop` has width n.
    """
    enc = model.textual
    tokens = np.asarray(tokens)
    if tokens.min() < 0 or tokens.max() >= enc.token_embed.shape[0]:
        raise InputError(f"token id out of range [0, {enc.token_embed.shape[0]})")
    is_eos = tokens == EOS_ID
    if not is_eos.any(axis=1).all():
        raise InputError("token row without an EOS token")
    n = int((tokens != PAD_ID).any(axis=0).nonzero()[0][-1]) + 1
    if rng is not None:
        rng = _FullWidthDraws(rng, tokens.shape[1])
    tokens = tokens[:, :n]
    x = (add(take_rows(enc.token_embed, tokens), narrow(enc.pos_embed, n)) if x is None
         else narrow(x, n, axis=1))
    mask = np.where((tokens == PAD_ID)[:, None, None, :], _MASK_NEG, 0.0)
    return enc.forward(x, mask, rng, start, stop, is_eos.argmax(axis=1))


# ---------------------------------------------------------------------------
# checkpoints: weights.bin holds every parameter in named_parameters() order,
# little-endian at the config's dtype; the list is the parameter names.  The
# config fixes every shape and offset.
CHECKPOINT = ArtifactFormat("checkpoint", "dual_encoder", 2, "config", ModelConfig,
                            "tensors", "weights.bin")


def save_checkpoint(model: DualEncoderModel, path) -> None:
    named = list(model.named_parameters())
    dt = np.dtype(model.cfg.np_dtype).newbyteorder("<")
    write_artifact(CHECKPOINT, path, model.cfg, [name for name, _ in named],
                   b"".join(np.ascontiguousarray(p.data, dtype=dt).tobytes() for _, p in named))


def load_checkpoint(path) -> DualEncoderModel:
    cfg, tensors, blob_path = read_artifact(CHECKPOINT, path)
    # the blob must hold what the config asks for before any of it is made
    dt = np.dtype(cfg.np_dtype).newbyteorder("<")
    need = cfg.param_count() * dt.itemsize
    blob = read_sized(blob_path, need, f"the {cfg.dtype} config")
    model = DualEncoderModel(cfg, seed=None)
    params = list(model.named_parameters())
    names = [name for name, _ in params]
    if tensors != names:
        i = next((i for i, (a, b) in enumerate(zip(tensors, names)) if a != b),
                 min(len(tensors), len(names)))
        raise FormatError(f"checkpoint tensors ({len(tensors)} names) differ from the "
                          f"model's {len(names)} parameter names at position {i}: "
                          f"{tensors[i:i + 1]} vs {names[i:i + 1]}")
    offset = 0
    for _, p in params:
        p.data[...] = np.frombuffer(blob, dtype=dt, count=p.size, offset=offset).reshape(p.shape)
        offset += p.data.nbytes
    return model
