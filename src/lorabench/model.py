"""Miniature CLIP-style dual encoder: a patch ViT and a token transformer
projecting into one unit-hypersphere embedding space with a temperature.

Both encoders are stacks of pre-norm residual blocks around multi-head
attention and a GELU MLP.  Attention projections can carry low-rank adapter
modules (see lora.py); the block needs A (d_in x rank), B (rank x d_out) and dropout.
A forward given an rng draws the adapters' dropout masks from it; without
one, dropout is off.  The text tower pools each prompt at its first EOS token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, FormatError, InputError, ShapeError
from .tensor import (Tensor, add, concat, dropout, gelu, l2_normalize, layer_norm,
                     matmul, reshape, row_softmax, select_positions, take_rows,
                     transpose)

PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
_N_SPECIAL = 3
PROMPT_TEMPLATE = ("a", "photo", "of", "a")

CHECKPOINT_VERSION = 1
_MASK_NEG = -1e9  # large finite negative; exp underflows to exactly 0

# Images per forward block of the vision tower.  At the default width one
# block's widest activation, the (64, 17, 256) MLP hidden state, is 1.1 MB in
# float32 and stays inside a 2 MB L2 cache; a 480-image block spills it.
IMAGE_BLOCK = 64


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
        sizes = (self.width, self.heads, self.depth, self.embed_dim, self.image_size,
                 self.patch_size, self.max_text_len)
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise DomainError(f"model sizes must be integers >= 1, got {sizes}")
        if self.width % self.heads != 0:
            raise ShapeError(f"width {self.width} not divisible by heads {self.heads}")
        if self.image_size % self.patch_size != 0:
            raise ShapeError("image size not divisible by patch size")
        if self.embed_dim > self.width:
            raise DomainError("need embed_dim <= width")
        if self.init_temperature <= 0:
            raise DomainError("temperature must be > 0")
        if self.dtype not in ("float32", "float64"):
            raise DomainError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not (isinstance(self.vocab_words, list)
                and all(isinstance(w, str) for w in self.vocab_words)):
            raise DomainError("vocab_words must be a list of strings")

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


# ---------------------------------------------------------------------------
# parameter containers


class AttentionBlock:
    """Pre-norm transformer block; q/k/v/o projections accept LoRA modules."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d, dt = cfg.width, cfg.np_dtype
        self.heads = cfg.heads
        self.head_dim = d // cfg.heads

        def w(*shape, std=0.02):
            return Tensor((rng.standard_normal(shape) * std).astype(dt))

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

    _MATRIX_ATTRS = {"q": ("wq", "bq"), "k": ("wk", "bk"),
                     "v": ("wv", "bv"), "o": ("wo", "bo")}

    def weight(self, matrix: str) -> Tensor:
        return getattr(self, self._MATRIX_ATTRS[matrix][0])

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for name in ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
                     "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"):
            yield name, getattr(self, name)


def _lora_linear(x: Tensor, w: Tensor, b: Tensor, module, rng) -> Tensor:
    """x @ w + b, plus the low-rank delta drop(x) @ A @ B when a module is attached."""
    out = add(matmul(x, w), b)
    if module is not None:
        xd = dropout(x, module.dropout, rng)
        out = add(out, matmul(matmul(xd, module.A), module.B))
    return out


def block_forward(block: AttentionBlock, x: Tensor, mask: Optional[np.ndarray],
                  rng=None) -> Tensor:
    h = add(x, attention_forward(block, layer_norm(x, block.ln1_g, block.ln1_b),
                                 mask, rng))
    z = layer_norm(h, block.ln2_g, block.ln2_b)
    z = gelu(add(matmul(z, block.w1), block.b1))
    z = add(matmul(z, block.w2), block.b2)
    return add(h, z)


def attention_forward(block: AttentionBlock, x: Tensor, mask: Optional[np.ndarray],
                      rng=None) -> Tensor:
    """Batched multi-head self-attention on x of shape (batch, seq, width)."""
    bsz, seq, d = x.shape
    H, dh = block.heads, block.head_dim

    def split_heads(t):
        return transpose(reshape(t, (bsz, seq, H, dh)), (0, 2, 1, 3))

    q = split_heads(_lora_linear(x, block.wq, block.bq, block.lora.get("q"), rng))
    k = split_heads(_lora_linear(x, block.wk, block.bk, block.lora.get("k"), rng))
    v = split_heads(_lora_linear(x, block.wv, block.bv, block.lora.get("v"), rng))

    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if mask is not None:
        scores = add(scores, Tensor(mask.astype(x.dtype)))
    weights = row_softmax(scores)
    ctx = matmul(weights, v)
    ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (bsz, seq, d))
    return _lora_linear(ctx, block.wo, block.bo, block.lora.get("o"), rng)


class _Encoder:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.blocks = [AttentionBlock(cfg, rng) for _ in range(cfg.depth)]
        dt = cfg.np_dtype
        self.ln_f_g = Tensor(np.ones(cfg.width, dtype=dt))
        self.ln_f_b = Tensor(np.zeros(cfg.width, dtype=dt))
        self.proj = Tensor((rng.standard_normal((cfg.width, cfg.embed_dim)) * 0.02).astype(dt))

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


class VisionEncoder(_Encoder):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        dt = cfg.np_dtype
        self.patch_w = Tensor((rng.standard_normal((cfg.patch_dim, cfg.width)) * 0.02).astype(dt))
        self.patch_b = Tensor(np.zeros(cfg.width, dtype=dt))
        self.cls_token = Tensor((rng.standard_normal(cfg.width) * 0.02).astype(dt))
        self.pos_embed = Tensor((rng.standard_normal((cfg.n_patches + 1, cfg.width)) * 0.01).astype(dt))

    def embedding_parameters(self):
        yield "patch_w", self.patch_w
        yield "patch_b", self.patch_b
        yield "cls_token", self.cls_token
        yield "pos_embed", self.pos_embed


class TextEncoder(_Encoder):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__(cfg, rng)
        dt = cfg.np_dtype
        vocab_size = len(cfg.vocab_words) + _N_SPECIAL
        self.token_embed = Tensor((rng.standard_normal((vocab_size, cfg.width)) * 0.02).astype(dt))
        self.pos_embed = Tensor((rng.standard_normal((cfg.max_text_len, cfg.width)) * 0.01).astype(dt))

    def embedding_parameters(self):
        yield "token_embed", self.token_embed
        yield "pos_embed", self.pos_embed


class DualEncoderModel:
    """Vision and text encoders plus the softmax temperature."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0A1]))
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

    For start > 0, `images` is the hidden state entering block `start`; given
    `stop`, the hidden state leaving block stop-1 replaces the features.
    """
    cfg = model.cfg
    enc = model.visual
    inputs = np.asarray(images)
    n = inputs.shape[0]
    feats = []
    # an empty batch runs as one empty block and gives (0, embed_dim)
    bounds = [*range(0, max(n, 1), IMAGE_BLOCK), n]
    if n > 1 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1
    for lo, hi in zip(bounds, bounds[1:]):
        x = Tensor(patchify(inputs[lo:hi], cfg).astype(cfg.np_dtype) if start == 0
                   else inputs[lo:hi])
        b = x.shape[0]
        if start == 0:
            x = add(matmul(x, enc.patch_w), enc.patch_b)
            cls_rows = add(reshape(enc.cls_token, (1, 1, cfg.width)),
                           Tensor(np.zeros((b, 1, cfg.width), dtype=cfg.np_dtype)))
            x = add(concat([cls_rows, x], axis=1), enc.pos_embed)
        for blk in enc.blocks[start:stop]:
            x = block_forward(blk, x, mask=None, rng=rng)
        if stop is None:
            x = layer_norm(x, enc.ln_f_g, enc.ln_f_b)
            pooled = select_positions(x, np.zeros(b, dtype=np.int64))
            x = l2_normalize(matmul(pooled, enc.proj))
        feats.append(x)
    return feats[0] if len(feats) == 1 else concat(feats, axis=0)


def encode_tokens(model: DualEncoderModel, tokens: np.ndarray, rng=None,
                  start: int = 0, stop: Optional[int] = None,
                  x: Optional[Tensor] = None) -> Tensor:
    """Encode (batch, max_len) token ids to (batch, embed_dim) unit vectors,
    each row pooled at its first EOS token.

    `x`, the hidden state entering block `start`, replaces the embeddings
    (soft prompts, frozen prefixes); `start` and `stop` as in encode_images.
    """
    enc = model.textual
    tokens = np.asarray(tokens)
    if tokens.min() < 0 or tokens.max() >= enc.token_embed.shape[0]:
        raise InputError(f"token id out of range [0, {enc.token_embed.shape[0]})")
    is_eos = tokens == EOS_ID
    if not is_eos.any(axis=1).all():
        raise InputError("token row without an EOS token")
    if x is None:
        x = add(take_rows(enc.token_embed, tokens), enc.pos_embed)
    pad = (tokens == PAD_ID)
    mask = np.where(pad[:, None, None, :], _MASK_NEG, 0.0)
    for blk in enc.blocks[start:stop]:
        x = block_forward(blk, x, mask, rng=rng)
    if stop is not None:
        return x
    x = layer_norm(x, enc.ln_f_g, enc.ln_f_b)
    pooled = select_positions(x, is_eos.argmax(axis=1))
    return l2_normalize(matmul(pooled, enc.proj))


def encode_prompts(model: DualEncoderModel, prompts: list[np.ndarray],
                   **kwargs) -> Tensor:
    return encode_tokens(model, np.stack(prompts), **kwargs)


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + little-endian raw blob


def _blob_dtype(dtype_name: str):
    if dtype_name == "float32":
        return np.dtype("<f4")
    if dtype_name == "float64":
        return np.dtype("<f8")
    raise FormatError(f"unsupported tensor dtype {dtype_name!r}")


def write_tensor_blob(named: list[tuple[str, Tensor]], directory: Path,
                      extra_manifest: dict) -> None:
    """Write manifest.json + weights.bin for an ordered list of named tensors."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = {}
    offset = 0
    chunks = []
    for name, t in named:
        dtype_name = "float32" if t.data.dtype == np.float32 else "float64"
        raw = np.ascontiguousarray(t.data, dtype=_blob_dtype(dtype_name)).tobytes()
        tensors[name] = {"shape": list(t.data.shape), "dtype": dtype_name,
                         "offset": offset, "nbytes": len(raw)}
        chunks.append(raw)
        offset += len(raw)
    manifest = {"version": CHECKPOINT_VERSION, "tensors": tensors}
    manifest.update(extra_manifest)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    (directory / "weights.bin").write_bytes(b"".join(chunks))


def read_tensor_blob(directory: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read manifest + blob, returning (manifest, name -> array)."""
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise FormatError(f"cannot read checkpoint manifest: {e}") from None
    if not isinstance(manifest, dict):
        raise FormatError("checkpoint manifest is not a JSON object")
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {manifest.get('version')!r}")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, dict):
        raise FormatError("checkpoint manifest has no tensors table")
    blob = (directory / "weights.bin").read_bytes()
    arrays = {}
    for name, meta in tensors.items():
        if not isinstance(meta, dict) or not {"shape", "dtype", "offset", "nbytes"} <= set(meta):
            raise FormatError(f"tensor {name}: manifest entry needs shape, dtype, offset, nbytes")
        dims = meta["shape"] if isinstance(meta["shape"], list) else [None]
        if not all(type(c) is int and c >= 0 for c in [meta["offset"], meta["nbytes"], *dims]):
            raise FormatError(f"tensor {name}: offset, nbytes and shape must be integers >= 0")
        dt = _blob_dtype(meta["dtype"])
        end = meta["offset"] + meta["nbytes"]
        if end > len(blob):
            raise FormatError(f"weights blob truncated: tensor {name} needs bytes up to {end}, "
                              f"blob has {len(blob)}")
        n_elem = int(np.prod(meta["shape"], dtype=np.int64))
        if n_elem * dt.itemsize != meta["nbytes"]:
            raise FormatError(f"manifest shape {meta['shape']} inconsistent with byte count "
                              f"for tensor {name}")
        arr = np.frombuffer(blob, dtype=dt, count=n_elem, offset=meta["offset"])
        arrays[name] = arr.reshape(meta["shape"]).astype(dt.newbyteorder("="))
    return manifest, arrays


def save_checkpoint(model: DualEncoderModel, path) -> None:
    write_tensor_blob(list(model.named_parameters()), Path(path),
                      {"kind": "dual_encoder", "config": asdict(model.cfg)})


def load_checkpoint(path) -> DualEncoderModel:
    manifest, arrays = read_tensor_blob(Path(path))
    if manifest.get("kind") != "dual_encoder":
        raise FormatError(f"not a model checkpoint: kind={manifest.get('kind')!r}")
    try:
        cfg = ModelConfig(**manifest["config"])
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed checkpoint config ({type(e).__name__}: {e})") from None
    model = DualEncoderModel(cfg, seed=0)
    for name, p in model.named_parameters():
        if name not in arrays:
            raise FormatError(f"checkpoint missing tensor {name}")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise FormatError(f"tensor {name}: checkpoint shape {arr.shape} vs "
                              f"model shape {p.data.shape}")
        p.data = arr.astype(cfg.np_dtype)
    return model
