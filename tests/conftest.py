"""Shared fixtures and finite-difference helpers for the test suite."""

import numpy as np
import pytest

from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.model import DualEncoderModel, ModelConfig
from lorabench.tensor import Tape

TINY_WORDS = sorted({"a", "an", "photo", "picture", "image", "of", "small",
                     "dog", "cat", "bird", "fish"})


def tiny_config(dtype="float64", depth=1, width=8, heads=2, embed_dim=4,
                image_size=8, patch_size=4, max_text_len=8, **kw):
    return ModelConfig(width=width, heads=heads, depth=depth,
                       embed_dim=embed_dim, image_size=image_size,
                       patch_size=patch_size, max_text_len=max_text_len,
                       vocab_words=TINY_WORDS, dtype=dtype, **kw)


@pytest.fixture
def tiny_model():
    """Depth-1, width-8 dual encoder at 64-bit for gradient checks."""
    return DualEncoderModel(tiny_config(), seed=0)


@pytest.fixture
def small_dataset():
    """4 classes x 8 images of 8x8 pixels, enough for quick few-shot tasks."""
    spec = SyntheticDatasetSpec(n_classes=4, images_per_class=8, image_size=8,
                                noise=0.5, seed=3)
    return generate_dataset(spec)


def small_model_for(ds, dtype="float32", depth=2, width=16, heads=2,
                    embed_dim=8, seed=0, **kw):
    cfg = ModelConfig(width=width, heads=heads, depth=depth, embed_dim=embed_dim,
                      image_size=ds.spec.image_size, patch_size=4,
                      max_text_len=12, vocab_words=ds.vocab_words,
                      dtype=dtype, **kw)
    return DualEncoderModel(cfg, seed=seed)


def analytic_grads(loss_fn, params):
    """Backward through one tape with `params` marked as requiring grad, as
    the training loop marks what it trains; returns copies of the gradients."""
    for p in params:
        p.requires_grad = True
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    grads = [None if p.grad is None else np.array(p.grad, copy=True)
             for p in params]
    for p in params:
        p.zero_grad()
    return grads


def numeric_grad(loss_fn, param, h=1e-5):
    """Central finite differences of a scalar-valued closure wrt one tensor.
    Each entry is perturbed in `param.data` itself, so any memory layout
    (a transposed view, say) is checked."""
    g = np.zeros_like(param.data)
    for i in np.ndindex(param.data.shape):
        orig = param.data[i]
        param.data[i] = orig + h
        fp = loss_fn().item()
        param.data[i] = orig - h
        fm = loss_fn().item()
        param.data[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck(loss_fn, params, h=1e-5, tol=1e-4):
    """Assert analytic gradients match finite differences for every param."""
    grads = analytic_grads(loss_fn, params)
    for p, ag in zip(params, grads):
        assert ag is not None, f"no gradient reached tensor of shape {p.shape}"
        ng = numeric_grad(loss_fn, p, h=h)
        err = max_rel_err(ag, ng)
        assert err < tol, f"gradient mismatch {err:.3e} on shape {p.shape}"
