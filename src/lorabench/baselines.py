"""Competing parameter-efficient strategies at desk scale: continuous-context
prompt tuning, a residual bottleneck feature adapter, and bias-only tuning.

These are generic instantiations of the three mechanism families, wired to
the same optimizer, schedule and CE loss as the low-rank method so parameter
counts and accuracy trends are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .fewshot import (FINETUNE_WEIGHT_DECAY, FewShotTask, TrainConfig, TrainingHistory,
                      _BatchSampler, accuracy, class_prompts, cross_entropy_loss,
                      evaluate, run_training_loop, train_on_support)
from .model import (DualEncoderModel, PROMPT_TEMPLATE, encode_images,
                    encode_tokens)
from .tensor import (Tensor, add, concat, l2_normalize, matmul, mlp, take_rows,
                     transpose)


@dataclass
class BaselineResult:
    accuracy: float
    trainable_count: int
    history: TrainingHistory


# ---------------------------------------------------------------------------
# continuous-context prompt tuning


def _soft_prompt_features(model: DualEncoderModel, context: Tensor,
                          tokens: np.ndarray):
    """Text features of the class prompts `tokens` with their template words,
    positions 1..m, embedded by the shared trainable context: the m context
    rows extend the token table as ids V..V+m-1, and those positions look
    them up."""
    table = model.textual.token_embed
    m = context.shape[0]
    ids = tokens.copy()
    ids[:, 1:1 + m] = table.shape[0] + np.arange(m)
    emb = take_rows(concat([table, context]), ids)
    return encode_tokens(model, tokens, x=add(emb, model.textual.pos_embed))


def soft_prompt_finetune(model: DualEncoderModel, task: FewShotTask,
                         train_cfg: TrainConfig = TrainConfig(),
                         query_feats: Optional[np.ndarray] = None) -> BaselineResult:
    """Optimize the embeddings of the template words "a photo of a", shared
    by every class prompt (Eq.4-style).

    The context starts as the embeddings of those words, so step-0
    predictions match template zero-shot predictions exactly.  The vision
    tower does not train, so the queries are scored by `query_feats`, their
    features under `model`, when given.
    """
    tokens = class_prompts(model, task.class_names)
    m = len(PROMPT_TEMPLATE)
    context = Tensor(model.textual.token_embed.data[tokens[0, 1:1 + m]].copy())
    encode_text_fn = lambda: _soft_prompt_features(model, context, tokens)

    history = train_on_support(model, [context], task, train_cfg,
                               encode_text_fn=encode_text_fn)
    acc, _ = evaluate(model, task, _soft_prompt_features(model, context, tokens),
                      query_feats)
    return BaselineResult(accuracy=acc, trainable_count=context.size,
                          history=history)


# ---------------------------------------------------------------------------
# residual bottleneck adapter on image features


class LinearAdapter:
    """Two-layer bottleneck on image features with residual blend alpha."""

    def __init__(self, embed_dim: int, bottleneck: int, seed: int = 0,
                 dtype=np.float32):
        if bottleneck >= embed_dim:
            raise DomainError(f"bottleneck {bottleneck} must be < width {embed_dim}")
        rng = np.random.default_rng(seed)
        bound = np.sqrt(6.0 / embed_dim)
        self.w1 = Tensor(rng.uniform(-bound, bound, (embed_dim, bottleneck)).astype(dtype))
        self.b1 = Tensor(np.zeros(bottleneck, dtype=dtype))
        # zero-output init: adapted features start as the plain features
        self.w2 = Tensor(np.zeros((bottleneck, embed_dim), dtype=dtype))
        self.b2 = Tensor(np.zeros(embed_dim, dtype=dtype))

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, feats: Tensor) -> Tensor:
        return mlp(feats, self.w1, self.b1, self.w2, self.b2)


def adapter_logits(adapter: LinearAdapter, alpha: float, feats: Tensor,
                   text_feats: Tensor) -> Tensor:
    if alpha == 0.0:
        # residual bypass: normalizing (1-alpha) * f recovers f exactly
        return matmul(feats, transpose(text_feats, (1, 0)))
    blended = add(adapter.forward(feats) * alpha, feats * (1.0 - alpha))
    return matmul(l2_normalize(blended), transpose(text_feats, (1, 0)))


def adapter_finetune(model: DualEncoderModel, task: FewShotTask,
                     adapter: LinearAdapter, alpha: float,
                     train_cfg: TrainConfig = TrainConfig(),
                     query_feats: Optional[np.ndarray] = None) -> BaselineResult:
    """Train only the adapter on frozen, precomputed embeddings (Eq.5-style).
    `query_feats`, the queries' features under `model`, are encoded when
    not given."""
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must be in [0, 1], got {alpha}")
    sup_feats = encode_images(model, task.support_images).data
    if query_feats is None:
        query_feats = encode_images(model, task.query_images).data
    texts = encode_tokens(model, class_prompts(model, task.class_names))
    tau = model.tau

    def loss_fn(idx):
        logits = adapter_logits(adapter, alpha, Tensor(sup_feats[idx]), texts)
        return cross_entropy_loss(logits, task.support_labels[idx], tau)

    sampler = _BatchSampler(sup_feats.shape[0], train_cfg.batch_size,
                            train_cfg.seed, 0xADA7)
    history = run_training_loop(adapter.parameters(), loss_fn, sampler,
                                train_cfg.iterations(task.shots), train_cfg.lr,
                                FINETUNE_WEIGHT_DECAY)
    acc = accuracy(adapter_logits(adapter, alpha, Tensor(query_feats), texts),
                   task.query_labels)
    return BaselineResult(accuracy=acc, trainable_count=adapter.param_count(),
                          history=history)


# ---------------------------------------------------------------------------
# bias-only tuning


def bias_parameters(model: DualEncoderModel) -> list[Tensor]:
    """Biases of the attention projections and MLPs of both encoders."""
    out = []
    for enc in (model.visual, model.textual):
        for blk in enc.blocks:
            out.extend([blk.bq, blk.bk, blk.bv, blk.bo, blk.b1, blk.b2])
    return out


def bias_only_finetune(model: DualEncoderModel, task: FewShotTask,
                       train_cfg: TrainConfig = TrainConfig()) -> BaselineResult:
    """Train only attention/MLP bias vectors; all weight matrices stay frozen."""
    params = bias_parameters(model)
    history = train_on_support(model, params, task, train_cfg)
    acc, _ = evaluate(model, task)
    return BaselineResult(accuracy=acc, trainable_count=sum(p.size for p in params),
                          history=history)
