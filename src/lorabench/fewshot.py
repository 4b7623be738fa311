"""Zero-shot prediction, few-shot fine-tuning and the desk-scale contrastive
pretrainer for the dual encoder.

The fine-tuning loop keeps every hyper-parameter fixed across tasks:
lr 2e-4 with cosine annealing, batch size 32, 500 * shots iterations,
rank-2 adapters with dropout 0.25 on query/key/value of every layer of both
encoders.  Class prompts are re-encoded through the (adapting) text encoder
at every step; the frozen leading blocks of each tower run once per run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .data import require_finite, require_int
from .errors import DomainError, LorabenchError, ShapeError
from .lora import AdaptedModel
from .model import (DualEncoderModel, encode_images, encode_tokens,
                    tokenize_prompt)
from .optim import AdamW, cosine_lr
from .tensor import (Tape, Tensor, div, log_softmax, matmul, mean,
                     select_positions, transpose)


# ---------------------------------------------------------------------------
# task construction


@dataclass
class FewShotTask:
    class_names: list[str]
    support_images: np.ndarray   # (N, H, W)
    support_labels: np.ndarray   # (N,)
    query_images: np.ndarray
    query_labels: np.ndarray
    query_indices: np.ndarray    # rows of the sampled dataset

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def shots(self) -> int:
        return self.support_images.shape[0] // self.num_classes


def sample_support_set(images: np.ndarray, labels: np.ndarray,
                       class_names: Sequence[str], shots: int, seed: int) -> FewShotTask:
    """Draw `shots` support images per class without replacement; the rest,
    at least one image per class, is query."""
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A3F]))
    sup_idx, qry_idx = [], []
    for k, name in enumerate(class_names):
        pool = np.flatnonzero(labels == k)
        if len(pool) <= shots:
            raise DomainError(f"class {name!r} has {len(pool)} images, "
                              f"needs {shots + 1}")
        perm = rng.permutation(pool)
        sup_idx.extend(perm[:shots])
        qry_idx.extend(perm[shots:])
    sup_idx = np.asarray(sup_idx, dtype=np.int64)
    qry_idx = np.asarray(qry_idx, dtype=np.int64)
    return FewShotTask(class_names=list(class_names),
                       support_images=images[sup_idx], support_labels=labels[sup_idx],
                       query_images=images[qry_idx], query_labels=labels[qry_idx],
                       query_indices=qry_idx)


# ---------------------------------------------------------------------------
# prediction


def predict(scores: Tensor) -> np.ndarray:
    """Per-row argmax; ties resolve to the lowest class index.  A NaN or
    infinite score has no rank, so it is an error, not a prediction."""
    data = np.asarray(scores.data if isinstance(scores, Tensor) else scores)
    if data.ndim != 2 or data.shape[1] == 0:
        raise ShapeError(f"expected (n, K) scores, got shape {data.shape}")
    finite = np.isfinite(data)
    if not finite.all():
        raise DomainError(f"{finite.size - finite.sum()} of {finite.size} scores "
                          f"are not finite")
    return data.argmax(axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose top-1 prediction is the label."""
    return float((predict(logits) == labels).mean())


def class_prompts(model: DualEncoderModel,
                  class_names: Sequence[str]) -> np.ndarray:
    """The (K, max_text_len) int64 template prompt tokens, one row per class."""
    return np.stack([tokenize_prompt(n, model.vocab, model.cfg.max_text_len)
                     for n in class_names])


def cross_entropy_loss(logits: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Mean negative log posterior of the true classes, via stable log-softmax."""
    labels = np.asarray(labels)
    if logits.data.shape[0] != labels.shape[0]:
        raise ShapeError(f"{logits.data.shape[0]} logit rows vs {labels.shape[0]} labels")
    logp = log_softmax(logits, temperature=tau)
    return -mean(select_positions(logp, labels))


def evaluate(model: DualEncoderModel, task: FewShotTask,
             text_feats: Optional[Tensor] = None,
             image_feats: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
    """Top-1 accuracy on the query set, and the (n_query, K) logits it was
    read from.  `text_feats` are the class features the queries are scored
    against; by default the encoded class prompts.  `image_feats` are the
    queries' features; by default the query images encoded by `model`."""
    if task.query_images.shape[0] == 0:
        raise DomainError("empty query set")
    if task.num_classes < 2:
        raise DomainError(f"need at least 2 classes, got {task.num_classes}")
    if text_feats is None:
        text_feats = encode_tokens(model, class_prompts(model, task.class_names))
    feats = (encode_images(model, task.query_images) if image_feats is None
             else Tensor(image_feats))
    logits = matmul(feats, transpose(text_feats, (1, 0))).data
    return accuracy(logits, task.query_labels), logits


# ---------------------------------------------------------------------------
# few-shot fine-tuning


FINETUNE_WEIGHT_DECAY = 1e-2  # AdamW's, for every few-shot method


@dataclass
class TrainConfig:
    lr: float = 2e-4
    batch_size: int = 32
    iters_per_shot: int = 500
    seed: int = 0

    def __post_init__(self):
        require_finite("lr", self.lr, above=0)
        require_int("batch_size", self.batch_size, 1)
        require_int("iters_per_shot", self.iters_per_shot, 0)
        require_int("seed", self.seed, 0)

    def iterations(self, shots: int) -> int:
        return self.iters_per_shot * shots


@dataclass
class TrainingHistory:
    """The lr and loss of each step, in step order from step 0."""
    lrs: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    def append(self, lr: float, loss: float):
        self.lrs.append(lr)
        self.losses.append(loss)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["step", "lr", "loss"])
            for s, (lr, loss) in enumerate(zip(self.lrs, self.losses)):
                w.writerow([s, f"{lr:.10g}", f"{loss:.8g}"])


class _BatchSampler:
    """Uniform batches drawn from stream `stream` of `seed`: with replacement
    when the pool is smaller than the batch, otherwise epoch-wise shuffles
    without replacement."""

    def __init__(self, n: int, batch_size: int, seed: int, stream: int):
        self.n = n
        self.batch_size = batch_size
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
        self._order = np.empty(0, dtype=np.int64)

    def next(self) -> np.ndarray:
        if self.n < self.batch_size:
            return self.rng.integers(0, self.n, size=self.batch_size)
        if len(self._order) < self.batch_size:
            self._order = self.rng.permutation(self.n)
        batch, self._order = self._order[:self.batch_size], self._order[self.batch_size:]
        return batch


def run_training_loop(params, loss_fn: Callable[[np.ndarray], Tensor],
                      sampler: _BatchSampler, iterations: int, lr: float,
                      weight_decay: float,
                      after_step: Optional[Callable[[], None]] = None
                      ) -> TrainingHistory:
    """The one training loop: each step draws a batch of indices, records
    `loss_fn(idx)` on a tape, backpropagates and steps AdamW under cosine lr;
    `after_step` runs after every update.

    `params` alone says what trains: the loop marks exactly those tensors as
    requiring grad for its steps, and unmarks them when it returns or raises.
    """
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    history = TrainingHistory()
    for p in opt.params:
        p.requires_grad = True
    try:
        for step in range(iterations):
            step_lr = cosine_lr(step, iterations, lr)
            idx = sampler.next()
            with Tape() as tape:
                loss = loss_fn(idx)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise LorabenchError(f"non-finite loss at step {step}; "
                                         f"last good step: {step - 1 if step else None}")
                tape.backward(loss)
            opt.step(lr=step_lr)
            opt.zero_grad()
            if after_step is not None:
                after_step()
            history.append(step_lr, loss_val)
    finally:
        for p in opt.params:
            p.requires_grad = False
    return history


def train_on_support(model: DualEncoderModel, params, task: FewShotTask,
                     cfg: TrainConfig, encode_text_fn=None) -> TrainingHistory:
    """CE training on the support set, shared by the adapter-module method
    and the trainable-subset baselines: each step encodes a support batch and
    the class prompts and scores them against the labels.

    The first k blocks of each tower (`_Encoder.frozen_prefix`) run once,
    outside the tape, over the whole support set or the class prompts; each
    step runs the rest from there.  They draw no dropout mask, so the losses
    are those of running every block at every step.
    """
    # adapter dropout is the only draw from this stream
    train_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD209]))
    kv = model.visual.frozen_prefix(params)
    support = (task.support_images if kv == 0 else
               encode_images(model, task.support_images, stop=kv).data)
    if encode_text_fn is None:
        prompts = class_prompts(model, task.class_names)
        kt = model.textual.frozen_prefix(params)
        prefix = None if kt == 0 else encode_tokens(model, prompts, stop=kt)
        encode_text_fn = lambda: encode_tokens(model, prompts, rng=train_rng,
                                               start=kt, x=prefix)
    tau = model.tau

    def loss_fn(idx):
        feats = encode_images(model, support[idx], rng=train_rng, start=kv)
        text_feats = encode_text_fn()
        logits = matmul(feats, transpose(text_feats, (1, 0)))
        return cross_entropy_loss(logits, task.support_labels[idx], tau)

    sampler = _BatchSampler(task.support_images.shape[0], cfg.batch_size,
                            cfg.seed, 0xBA7C)
    return run_training_loop(params, loss_fn, sampler, cfg.iterations(task.shots),
                             cfg.lr, FINETUNE_WEIGHT_DECAY)


def finetune_lora(adapted: AdaptedModel, task: FewShotTask,
                  cfg: TrainConfig) -> TrainingHistory:
    """Fine-tune only the adapter tensors on the support set."""
    return train_on_support(adapted.base, adapted.trainable_parameters(), task, cfg)


# ---------------------------------------------------------------------------
# desk-scale contrastive pretraining


PRETRAIN_WEIGHT_DECAY = 0.0
MIN_TAU = 0.01  # keeps logits / tau bounded by 100


@dataclass
class PretrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        require_int("epochs", self.epochs, 1)
        require_int("batch_size", self.batch_size, 2)  # contrastive pairs
        require_finite("lr", self.lr, above=0)
        require_int("seed", self.seed, 0)


def contrastive_pretrain(model: DualEncoderModel, images: np.ndarray,
                         captions: list[str], cfg: PretrainConfig) -> TrainingHistory:
    """Symmetric in-batch contrastive training of the full model.  Each
    epoch visits the pairs in a fresh shuffle and leaves out the
    n mod batch_size pairs that cannot fill a batch.

    The temperature is trainable here (and only here), clamped from below.
    """
    n = images.shape[0]
    if n < cfg.batch_size:
        raise DomainError(f"pretraining needs at least batch size {cfg.batch_size} "
                          f"images, got {n}")
    tokens = np.stack([tokenize_prompt(c, model.vocab, model.cfg.max_text_len,
                                       template=()) for c in captions])
    targets = np.arange(cfg.batch_size)

    def loss_fn(idx):
        f = encode_images(model, images[idx])
        t = encode_tokens(model, tokens[idx])
        # divide by the temperature tensor so tau receives gradient
        scaled = div(matmul(f, transpose(t, (1, 0))), model.temperature)
        li = cross_entropy_loss(scaled, targets, tau=1.0)
        lt = cross_entropy_loss(transpose(scaled, (1, 0)), targets, tau=1.0)
        return (li + lt) * 0.5

    def clamp_tau():
        if model.tau < MIN_TAU:
            model.temperature.data = np.asarray(MIN_TAU, dtype=model.cfg.np_dtype)

    sampler = _BatchSampler(n, cfg.batch_size, cfg.seed, 0xC0DE)
    return run_training_loop(model.parameters(), loss_fn, sampler,
                             cfg.epochs * (n // cfg.batch_size), cfg.lr,
                             PRETRAIN_WEIGHT_DECAY, after_step=clamp_tau)
