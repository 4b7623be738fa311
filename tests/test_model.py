"""Dual-encoder model: tokenization, attention oracle, scripted forward
oracles, padding masking, checkpoints and full-stack gradients."""

import dataclasses
import json
import multiprocessing
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import unfused
from conftest import (analytic_grads, fail_writes_part_way, gradcheck, small_model_for,
                      tiny_config)
from lorabench import model as model_module
from lorabench.data import SyntheticDatasetSpec, generate_dataset
from lorabench.errors import FormatError, InputError, ShapeError
from lorabench.fewshot import class_prompts, cross_entropy_loss
from lorabench.lora import PlacementConfig, inject
from lorabench.model import (BOS_ID, EOS_ID, IMAGE_BLOCK, PAD_ID,
                             DualEncoderModel, ModelConfig, Vocabulary,
                             attention_forward, block_forward, encode_images,
                             encode_tokens, load_checkpoint, patchify,
                             save_checkpoint, tokenize_prompt)
from lorabench.tensor import (Tape, Tensor, add, l2_normalize, layer_norm, matmul, mul,
                              select_positions, take_rows, transpose, tsum)


# ---------------------------------------------------------------------------
# naive numpy reference implementations

def naive_ln(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def naive_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def naive_attention(x, blk, mask=None):
    """Per-head loop over a (seq, d) input; mask is additive (seq, seq)."""
    H, dh = blk.heads, blk.head_dim
    q = x @ blk.wq.data + blk.bq.data
    k = x @ blk.wk.data + blk.bk.data
    v = x @ blk.wv.data + blk.bv.data
    heads = []
    for h in range(H):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        if mask is not None:
            s = s + mask
        s = s - s.max(-1, keepdims=True)
        e = np.exp(s)
        heads.append((e / e.sum(-1, keepdims=True)) @ v[:, sl])
    return np.concatenate(heads, axis=1) @ blk.wo.data + blk.bo.data


def naive_block(x, blk, mask=None):
    h = x + naive_attention(naive_ln(x, blk.ln1_g.data, blk.ln1_b.data), blk, mask)
    z = naive_ln(h, blk.ln2_g.data, blk.ln2_b.data)
    z = naive_gelu(z @ blk.w1.data + blk.b1.data)
    return h + z @ blk.w2.data + blk.b2.data


def naive_encode_image(model, image):
    cfg, enc = model.cfg, model.visual
    x = patchify(image[None], cfg)[0] @ enc.patch_w.data + enc.patch_b.data
    x = np.concatenate([enc.cls_token.data[None], x], axis=0) + enc.pos_embed.data
    for blk in enc.blocks:
        x = naive_block(x, blk)
    f = naive_ln(x, enc.ln_f_g.data, enc.ln_f_b.data)[0] @ enc.proj.data
    return f / np.sqrt((f * f).sum())


def naive_encode_trimmed_text(model, tokens, eos_index):
    """Oracle that physically drops the padding instead of masking it."""
    enc = model.textual
    L = eos_index + 1
    x = enc.token_embed.data[tokens[:L]] + enc.pos_embed.data[:L]
    for blk in enc.blocks:
        x = naive_block(x, blk)
    f = naive_ln(x, enc.ln_f_g.data, enc.ln_f_b.data)[eos_index] @ enc.proj.data
    return f / np.sqrt((f * f).sum())


# ---------------------------------------------------------------------------
# tokenization

class TestTokenize:
    def test_template_layout(self, tiny_model):
        v = tiny_model.vocab
        p = tokenize_prompt("dog", v, 8)
        want = [BOS_ID, v.id_of("a"), v.id_of("photo"), v.id_of("of"),
                v.id_of("a"), v.id_of("dog"), EOS_ID, PAD_ID]
        assert p.tolist() == want

    def test_empty_name(self, tiny_model):
        with pytest.raises(InputError):
            tokenize_prompt("   ", tiny_model.vocab, 8)

    def test_unknown_word_named(self, tiny_model):
        with pytest.raises(InputError, match="zebra"):
            tokenize_prompt("zebra", tiny_model.vocab, 8)

    def test_overflow(self, tiny_model):
        with pytest.raises(InputError):
            tokenize_prompt("dog cat bird", tiny_model.vocab, 8)

    def test_distinct_classes_differ_only_in_class_slot(self, tiny_model):
        a = tokenize_prompt("dog", tiny_model.vocab, 8)
        b = tokenize_prompt("cat", tiny_model.vocab, 8)
        diff = np.flatnonzero(a != b)
        assert diff.tolist() == [5]

    def test_caption_has_no_template(self, tiny_model):
        v = tiny_model.vocab
        p = tokenize_prompt("a photo of a dog", v, 8, template=())
        assert p.tolist()[:7] == [BOS_ID, v.id_of("a"), v.id_of("photo"),
                                  v.id_of("of"), v.id_of("a"),
                                  v.id_of("dog"), EOS_ID]

    def test_duplicate_vocab_words(self):
        with pytest.raises(InputError):
            Vocabulary(["dog", "dog"])


# ---------------------------------------------------------------------------
# attention

def _attend(blk, x):
    """`attention_forward` on the single sequence x, as a (1, seq, d) batch."""
    return attention_forward(blk, Tensor(x[None]), mask=None).data[0]


class TestAttention:
    def test_naive_oracle(self, tiny_model):
        blk = tiny_model.visual.blocks[0]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 8))
        assert np.abs(_attend(blk, x) - naive_attention(x, blk)).max() < 1e-12

    def test_seq1_weights_are_one(self, tiny_model):
        # single-key softmax is 1, so the output is (x Wv + bv) Wo + bo
        blk = tiny_model.visual.blocks[0]
        x = np.random.default_rng(1).standard_normal((1, 8))
        want = (x @ blk.wv.data + blk.bv.data) @ blk.wo.data + blk.bo.data
        assert np.abs(_attend(blk, x) - want).max() < 1e-12

    def test_zero_wv_gives_output_bias(self, tiny_model):
        blk = tiny_model.visual.blocks[0]
        blk.wv.data = np.zeros_like(blk.wv.data)
        blk.bo.data = np.arange(8.0)
        x = np.random.default_rng(2).standard_normal((4, 8))
        assert np.abs(_attend(blk, x) - np.arange(8.0)).max() < 1e-12


# ---------------------------------------------------------------------------
# encoders

class TestEncodeImage:
    def test_unit_norm(self, tiny_model):
        imgs = np.random.default_rng(3).standard_normal((5, 8, 8))
        feats = encode_images(tiny_model, imgs).data
        assert np.abs(np.linalg.norm(feats, axis=-1) - 1.0).max() < 1e-6

    def test_identical_images_identical_embeddings(self, tiny_model):
        img = np.random.default_rng(4).standard_normal((8, 8))
        feats = encode_images(tiny_model, np.stack([img, img])).data
        assert np.array_equal(feats[0], feats[1])

    def test_eval_forward_deterministic(self, tiny_model):
        imgs = np.random.default_rng(5).standard_normal((2, 8, 8))
        a = encode_images(tiny_model, imgs).data
        b = encode_images(tiny_model, imgs).data
        assert np.array_equal(a, b)

    def test_scripted_forward_oracle(self, tiny_model):
        imgs = np.random.default_rng(6).standard_normal((3, 8, 8))
        got = encode_images(tiny_model, imgs).data
        for row, img in zip(got, imgs):
            assert np.abs(row - naive_encode_image(tiny_model, img)).max() < 1e-10

    def test_wrong_image_size(self, tiny_model):
        with pytest.raises(ShapeError):
            encode_images(tiny_model, np.ones((2, 7, 7)))

    def test_class_token_rows_are_a_broadcast(self, tiny_model):
        # the class token reaches each image of a block as a view, with no
        # zeros array to add it to
        for _, p in tiny_model.visual.embedding_parameters():
            p.requires_grad = True
        with Tape() as tape:
            encode_images(tiny_model, np.random.default_rng(9).standard_normal((3, 8, 8)))
        ops = [backward.__qualname__.split(".", 1)[0] for _, _, backward in tape._nodes]
        assert ops[:ops.index("layer_norm")] == ["linear", "broadcast_to", "concat", "add"]

    def test_patchify_layout(self):
        cfg = tiny_config()
        img = np.arange(64.0).reshape(8, 8)
        patches = patchify(img[None], cfg)[0]
        assert patches.shape == (4, 16)
        assert np.array_equal(patches[0], img[:4, :4].reshape(-1))
        assert np.array_equal(patches[1], img[:4, 4:].reshape(-1))
        assert np.array_equal(patches[2], img[4:, :4].reshape(-1))

    @staticmethod
    def _blocked_and_paired(dtype, n):
        """Features of n images encoded as one batch, and the reference that
        encodes two at a time, an odd last image beside its neighbour: numpy
        multiplies a lone row by a matrix with a matrix-vector kernel, whose
        sums round differently."""
        model = DualEncoderModel(tiny_config(dtype=dtype, width=64, heads=4,
                                             depth=2, embed_dim=32), seed=0)
        imgs = np.random.default_rng(7).standard_normal((n, 8, 8))
        want = [encode_images(model, imgs[i:i + 2]).data for i in range(0, n - 1, 2)]
        if n % 2:
            want.append(encode_images(model, imgs[-2:]).data[1:])
        return encode_images(model, imgs).data, np.concatenate(want)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocked_forward_matches_small_batches(self, dtype):
        # 150 images run as blocks of 64, 64 and 22
        n = 150
        assert n % IMAGE_BLOCK and n > 2 * IMAGE_BLOCK
        got, want = self._blocked_and_paired(dtype, n)
        assert got.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_no_block_of_one_image(self, dtype, n):
        # one image past whole blocks: the last block takes two images
        assert n % IMAGE_BLOCK == 1
        got, want = self._blocked_and_paired(dtype, n)
        assert np.array_equal(got, want)


def _fail_on_pool():
    raise AssertionError("the forward asked for the image-block pool")


def _forward_in_fork(conn):
    """Encode three blocks of images and send the features back."""
    model = DualEncoderModel(tiny_config(), seed=0)
    imgs = np.random.default_rng(8).standard_normal((130, 8, 8))
    conn.send(encode_images(model, imgs).data)


class TestThreadedBlocks:
    """An untaped forward without an rng, on the main thread, runs its
    blocks on a pool of its own."""

    @staticmethod
    def _model(dtype):
        return DualEncoderModel(tiny_config(dtype=dtype, width=64, heads=4, depth=2,
                                            embed_dim=32), seed=0)

    @pytest.mark.parametrize("n", [2, 64, 65, 129, 150, 480])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_threaded_features_equal_serial(self, monkeypatch, dtype, n):
        model = self._model(dtype)
        imgs = np.random.default_rng(8).standard_normal((n, 8, 8))
        # a pool of its own, so the threaded path runs on one CPU as well
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_block_pool", lambda: pool)
            threaded = encode_images(model, imgs).data
        monkeypatch.setattr(model_module, "_block_pool", lambda: None)
        serial = encode_images(model, imgs).data
        assert threaded.dtype == np.dtype(dtype) and threaded.shape == (n, 32)
        assert np.array_equal(threaded, serial)

    @pytest.mark.parametrize("n,asks", [(64, False), (65, True), (480, True)])
    def test_only_a_batch_of_several_blocks_asks_for_the_pool(self, monkeypatch, n, asks):
        calls = []
        monkeypatch.setattr(model_module, "_block_pool", lambda: calls.append(n))
        encode_images(self._model("float32"), np.zeros((n, 8, 8)))
        assert calls == ([n] if asks else [])

    @staticmethod
    def _adapted_tower():
        """A depth-1 model with q, k and v adapters whose B factors are not
        zero, so the features depend on the dropout masks; 130 images make
        blocks of 64, 64 and 2."""
        model = DualEncoderModel(tiny_config(), seed=0)
        adapted = inject(model, PlacementConfig(), seed=0)
        for module in adapted.modules.values():
            module.B.data = np.random.default_rng(1).standard_normal(module.B.shape)
        return model, adapted, np.random.default_rng(9).standard_normal((130, 8, 8))

    @pytest.mark.parametrize("rng", [None, 0])
    def test_taped_forward_stays_serial(self, monkeypatch, rng):
        model, adapted, imgs = self._adapted_tower()
        for p in adapted.trainable_parameters():
            p.requires_grad = True
        monkeypatch.setattr(model_module, "_block_pool", _fail_on_pool)
        with Tape() as tape:
            encode_images(model, imgs, rng=None if rng is None else np.random.default_rng(rng))
        # the nodes of the three image blocks run in order on this thread:
        # each records 9 in the tower's one transformer block (whose first
        # layer norm sees no trained tensor) and 7 in the pooling head, and
        # the concat of the three adds one
        assert len(tape) == 49

    def test_rng_forward_stays_serial(self, monkeypatch):
        model, _, imgs = self._adapted_tower()
        without_dropout = encode_images(model, imgs).data
        monkeypatch.setattr(model_module, "_block_pool", _fail_on_pool)
        got = encode_images(model, imgs, rng=np.random.default_rng(0)).data
        # the masks are drawn block after block from the one stream
        rng = np.random.default_rng(0)
        want = [encode_images(model, imgs[lo:hi], rng=rng).data
                for lo, hi in ((0, 64), (64, 128), (128, 130))]
        assert np.array_equal(got, np.concatenate(want))
        assert not np.array_equal(got, without_dropout)

    def test_shape_error_in_a_block_reaches_the_caller(self, monkeypatch):
        model = self._model("float32")
        imgs = np.ones((130, 7, 7))
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_block_pool", lambda: pool)
            with pytest.raises(ShapeError) as threaded:
                encode_images(model, imgs)
        monkeypatch.setattr(model_module, "_block_pool", lambda: None)
        with pytest.raises(ShapeError) as serial:
            encode_images(model, imgs)
        assert str(threaded.value) == str(serial.value) == "expected 8x8 images, got 7x7"

    def test_each_forward_makes_and_shuts_down_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert model_module._block_pool() is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pools, make = [], model_module._block_pool
        monkeypatch.setattr(model_module, "_block_pool",
                            lambda: pools.append(make()) or pools[-1])
        model, imgs = self._model("float32"), np.zeros((130, 8, 8))
        encode_images(model, imgs)
        encode_images(model, imgs)
        assert len(pools) == 2 and pools[0] is not pools[1]
        assert all(p._max_workers == 3 and p._threads for p in pools)
        assert not any(t.name.startswith("lorabench-images") for t in threading.enumerate())

    def test_forward_off_the_main_thread_runs_its_blocks_in_order(self, monkeypatch):
        # a row of `ablate --workers` leaves the cores to the other rows
        model = self._model("float32")
        imgs = np.random.default_rng(8).standard_normal((150, 8, 8))
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_block_pool", lambda: pool)
            threaded = encode_images(model, imgs).data
        monkeypatch.setattr(model_module, "_block_pool", _fail_on_pool)
        with ThreadPoolExecutor(1) as row:
            off_main = row.submit(encode_images, model, imgs).result().data
        assert np.array_equal(off_main, threaded)

    def test_forked_child_makes_its_own_pool(self):
        # the child of a fork has none of the parent pool's threads
        model = DualEncoderModel(tiny_config(), seed=0)
        imgs = np.random.default_rng(8).standard_normal((130, 8, 8))
        want = encode_images(model, imgs).data
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forward_in_fork, args=(send,))
        child.start()
        try:
            assert receive.poll(30), "the forked child did not finish its forward"
            assert np.array_equal(receive.recv(), want)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0


class TestEncodeText:
    def test_unit_norm_and_determinism(self, tiny_model):
        prompts = [tokenize_prompt(n, tiny_model.vocab, 8) for n in ("cat", "dog")]
        a = encode_tokens(tiny_model, np.stack(prompts)).data
        b = encode_tokens(tiny_model, np.stack(prompts)).data
        assert np.abs(np.linalg.norm(a, axis=-1) - 1.0).max() < 1e-6
        assert np.array_equal(a, b)

    def test_padding_masked_matches_trimmed_oracle(self, tiny_model):
        # "dog" and "cat" leave one PAD slot at max_len 8; the masked padded
        # forward must match an oracle that never sees the padding at all
        prompts = [tokenize_prompt(n, tiny_model.vocab, 8) for n in ("dog", "cat")]
        got = encode_tokens(tiny_model, np.stack(prompts)).data
        for row, p in zip(got, prompts):
            assert (p == PAD_ID).sum() == 1
            want = naive_encode_trimmed_text(tiny_model, p, p.tolist().index(EOS_ID))
            assert np.abs(row - want).max() < 1e-10

    def test_more_padding_same_embedding(self):
        # same prompt under a longer max_len: extra PAD positions beyond the
        # text must not change the embedding (pos embeds agree on the prefix)
        model = DualEncoderModel(tiny_config(max_text_len=8), seed=0)
        short = tokenize_prompt("dog", model.vocab, 7)
        long = tokenize_prompt("dog", model.vocab, 8)
        # encode the 7-token layout through the 8-position model by padding
        padded = np.full(8, PAD_ID, dtype=np.int64)
        padded[:7] = short
        a = encode_tokens(model, padded[None]).data
        b = encode_tokens(model, long[None]).data
        assert np.abs(a - b).max() < 1e-10

    def test_token_out_of_range(self, tiny_model):
        bad = np.zeros((1, 8), dtype=np.int64)
        bad[0, 0] = 10_000
        with pytest.raises(InputError, match="out of range"):
            encode_tokens(tiny_model, bad)

    def test_row_without_eos(self, tiny_model):
        # the text tower pools at a row's EOS token, so a row must have one
        rows = np.stack([tokenize_prompt(n, tiny_model.vocab, 8) for n in ("dog", "cat")])
        rows[1][rows[1] == EOS_ID] = PAD_ID
        with pytest.raises(InputError, match="EOS"):
            encode_tokens(tiny_model, rows)

    def test_batch_row_independence(self, tiny_model):
        # a prompt's row does not depend on the other prompts of its batch
        pa, pb, pc = (tokenize_prompt(n, tiny_model.vocab, 8)
                      for n in ("dog", "cat", "bird"))
        with_b = encode_tokens(tiny_model, np.stack([pa, pb])).data
        with_c = encode_tokens(tiny_model, np.stack([pc, pa])).data
        assert np.abs(with_b[0] - with_c[1]).max() < 1e-10


def _full_width_text(model, tokens, rng=None):
    """The text forward over all max_text_len positions, PAD keys masked:
    the reference for a forward cut to the positions the rows fill."""
    enc = model.textual
    x = add(take_rows(enc.token_embed, tokens), enc.pos_embed)
    mask = np.where((tokens == PAD_ID)[:, None, None, :], -1e9, 0.0)
    for blk in enc.blocks:
        x = block_forward(blk, x, mask, rng=rng)
    x = layer_norm(x, enc.ln_f_g, enc.ln_f_b)
    pooled = select_positions(x, (tokens == EOS_ID).argmax(axis=1))
    return l2_normalize(matmul(pooled, enc.proj))


class TestTextWidth:
    """The text tower runs over the first n positions, n = 1 + the last
    position any row fills."""

    MAX_LEN = 16

    @classmethod
    def _model(cls, ds):
        # no size but max_text_len is 16, so a shape holding 16 is full width
        cfg = ModelConfig(width=24, heads=2, depth=2, embed_dim=8, image_size=8,
                          patch_size=4, max_text_len=cls.MAX_LEN,
                          vocab_words=ds.vocab_words, dtype="float64")
        return DualEncoderModel(cfg, seed=0)

    @classmethod
    def _captions(cls, model, ds):
        """Pretraining captions of 7 and 8 tokens, as the pretraining loop
        tokenizes them; returns the token rows and n."""
        rows = np.stack([tokenize_prompt(c, model.vocab, cls.MAX_LEN, template=())
                         for c in ds.captions[:6]])
        lengths = (rows != PAD_ID).sum(axis=1)
        assert lengths.min() < lengths.max() < cls.MAX_LEN
        return rows, int(lengths.max())

    @staticmethod
    def _ops(tape):
        return [backward.__qualname__.split(".", 1)[0] for _, _, backward in tape._nodes]

    def test_mixed_lengths_match_the_full_width_forward(self, small_dataset):
        model = self._model(small_dataset)
        tokens, _ = self._captions(model, small_dataset)
        enc = model.textual
        weights = Tensor(np.random.default_rng(10).standard_normal((len(tokens), 8)))
        got = encode_tokens(model, tokens).data
        want = _full_width_text(model, tokens).data
        assert np.abs(got - want).max() < 1e-12
        params = [enc.pos_embed, enc.token_embed, enc.blocks[0].wq, enc.blocks[1].b1,
                  enc.ln_f_g, enc.proj]
        got = analytic_grads(lambda: tsum(mul(encode_tokens(model, tokens), weights)),
                             params)
        want = analytic_grads(lambda: tsum(mul(_full_width_text(model, tokens), weights)),
                              params)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_masks_are_drawn_at_full_width(self, small_dataset):
        model = self._model(small_dataset)
        tokens, n = self._captions(model, small_dataset)
        adapted = inject(model, PlacementConfig(encoders="text", dropout=0.25))
        for p in adapted.trainable_parameters():
            p.requires_grad = True
        rng = np.random.default_rng(11)
        with Tape() as tape:
            got = encode_tokens(model, tokens, rng=rng).data
        masked = [out.shape for (out, _, _), op in zip(tape._nodes, self._ops(tape))
                  if op == "lora_linear"]
        assert masked and set(masked) == {(len(tokens), n, 24)}
        # one mask per module, each drawn as a full-width forward draws it
        twin = np.random.default_rng(11)
        for _ in adapted.modules:
            twin.random((len(tokens), self.MAX_LEN, 24))
        assert rng.bit_generator.state == twin.bit_generator.state
        want = _full_width_text(model, tokens, rng=np.random.default_rng(11)).data
        assert np.abs(got - want).max() < 1e-12

    def test_taped_activations_have_the_filled_width(self, small_dataset):
        model = self._model(small_dataset)
        tokens, n = self._captions(model, small_dataset)
        for _, p in model.textual.named_parameters():
            p.requires_grad = True
        with Tape() as tape:
            encode_tokens(model, tokens)
        shapes = [out.shape for out, _, _ in tape._nodes]
        assert not [s for s in shapes if self.MAX_LEN in s]
        b = len(tokens)
        assert {(n, 24), (b, n, 24)} <= set(shapes)
        assert self._ops(tape)[:3] == ["take_rows", "narrow", "add"]

    def test_frozen_prefix_has_the_filled_width(self, small_dataset):
        model = self._model(small_dataset)
        tokens, n = self._captions(model, small_dataset)
        prefix = encode_tokens(model, tokens, stop=1)
        assert prefix.shape == (len(tokens), n, 24)
        got = encode_tokens(model, tokens, start=1, x=prefix).data
        assert np.array_equal(got, encode_tokens(model, tokens).data)

    def test_rows_without_a_pad_column_run_as_before(self, small_dataset):
        model = self._model(small_dataset)
        tokens, _ = self._captions(model, small_dataset)
        words = np.random.default_rng(12).integers(3, model.textual.token_embed.shape[0],
                                                   self.MAX_LEN - 2)
        tokens[0] = [BOS_ID, *words, EOS_ID]
        adapted = inject(model, PlacementConfig(encoders="text", dropout=0.25))
        params = [model.textual.pos_embed, *adapted.trainable_parameters()]
        for p in params:
            p.requires_grad = True
        runs = []
        for forward in (encode_tokens, _full_width_text):
            with Tape() as tape:
                feats = forward(model, tokens, rng=np.random.default_rng(13))
                ops = self._ops(tape)
                tape.backward(tsum(feats))
            runs.append((feats.data, ops, [p.grad for p in params]))
            for p in params:
                p.zero_grad()
        (got, got_ops, got_grads), (want, want_ops, want_grads) = runs
        assert np.array_equal(got, want) and got_ops == want_ops
        assert all(np.array_equal(g, w) for g, w in zip(got_grads, want_grads))


# ---------------------------------------------------------------------------
# full-stack gradients

class TestFullStackGradients:
    @staticmethod
    def _loss_fn(model, ds):
        """CE of two images against the prompts "dog" and "cat", through both towers."""
        imgs = ds.images[:2, :8, :8].astype(np.float64)
        prompts = [tokenize_prompt(n, model.vocab, 8) for n in ("dog", "cat")]
        labels = np.array([0, 1])

        def loss_fn():
            feats = encode_images(model, imgs)
            texts = encode_tokens(model, np.stack(prompts))
            logits = matmul(feats, transpose(texts, (1, 0)))
            return cross_entropy_loss(logits, labels, model.tau)

        return loss_fn

    def test_base_parameters_pass_fd_check(self, tiny_model, small_dataset):
        model = tiny_model
        params = [model.visual.patch_w, model.visual.cls_token,
                  model.visual.blocks[0].wq, model.visual.blocks[0].ln1_g,
                  model.visual.proj, model.textual.token_embed,
                  model.textual.blocks[0].w1, model.textual.blocks[0].b2]
        for p in params:
            p.requires_grad = True
        gradcheck(self._loss_fn(model, small_dataset), params, h=1e-5, tol=1e-4)

    def test_adapter_factors_pass_fd_check(self, tiny_model, small_dataset):
        adapted = inject(tiny_model, PlacementConfig(matrices=("q", "v", "o"), dropout=0.0))
        rng = np.random.default_rng(0)
        for m in adapted.modules.values():
            m.B.data = rng.standard_normal(m.B.shape)
        gradcheck(self._loss_fn(tiny_model, small_dataset),
                  adapted.trainable_parameters(), h=1e-5, tol=1e-4)


# ---------------------------------------------------------------------------
# what a step costs

class TestStepCounts:
    """One taped default LoRA step (default model size and placement, 32
    images and 8 prompts) against the unfused compositions on a tape that
    keeps every node until the step ends, as the tape did before the
    fusion.  Counts, not timings, so they cannot flake."""

    @staticmethod
    def _step(model, images, labels, prompts, params, keep_nodes):
        for p in params:
            p.requires_grad = True
        tracemalloc.start()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            with Tape() as tape:
                rng = np.random.default_rng(3)
                feats = encode_images(model, images, rng=rng)
                texts = encode_tokens(model, prompts, rng=rng)
                loss = cross_entropy_loss(matmul(feats, transpose(texts, (1, 0))), labels,
                                          model.tau)
                nodes = len(tape)
                kept = list(tape._nodes) if keep_nodes else []
                tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        del kept
        grads = [p.grad for p in params]
        for p in params:
            p.requires_grad, p.grad = False, None
        return nodes, peak, loss.data, grads

    def test_fewer_nodes_and_a_lower_peak_than_the_unfused_step(self, monkeypatch):
        ds = generate_dataset(SyntheticDatasetSpec(images_per_class=4, seed=5))
        model = DualEncoderModel(ModelConfig(vocab_words=ds.vocab_words), seed=0)
        adapted = inject(model, PlacementConfig(), seed=1)
        rng = np.random.default_rng(2)
        for module in adapted.modules.values():
            module.B.data = (rng.standard_normal(module.B.shape) * 0.1).astype(np.float32)
        args = (model, ds.images, ds.labels, class_prompts(model, ds.class_names),
                adapted.trainable_parameters())
        assert len(args[1]) == 32 and len(args[3]) == 8
        nodes, peak, loss, grads = self._step(*args, keep_nodes=False)
        unfused.use_unfused(monkeypatch, model_module)
        want_nodes, want_peak, want_loss, want_grads = self._step(*args, keep_nodes=True)
        assert want_nodes == 340 and nodes <= 120
        assert peak <= 0.6 * want_peak
        assert loss == want_loss
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


# ---------------------------------------------------------------------------
# checkpoints

class TestCheckpoints:
    def test_round_trip_bitwise(self, small_dataset, tmp_path):
        model = small_model_for(small_dataset, seed=7)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na
        assert loaded.cfg == model.cfg

    def test_save_of_a_load_is_byte_identical(self, small_dataset, tmp_path):
        save_checkpoint(small_model_for(small_dataset, seed=7), tmp_path / "a")
        save_checkpoint(load_checkpoint(tmp_path / "a"), tmp_path / "b")
        for name in ("weights.bin", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_load_draws_no_random_init(self, small_dataset, tmp_path, monkeypatch):
        save_checkpoint(small_model_for(small_dataset, seed=7), tmp_path / "ckpt")

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert all(p.data.flags.writeable and p.data.flags.owndata
                   for p in loaded.parameters())

    def test_float64_round_trip_keeps_dtype(self, small_dataset, tmp_path):
        model = small_model_for(small_dataset, dtype="float64", seed=7)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for (name, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert b.data.dtype == np.float64 and np.array_equal(a.data, b.data), name

    @pytest.mark.parametrize("failing", ["weights.bin", "manifest.json"])
    def test_failed_overwrite_keeps_the_old_checkpoint(self, small_dataset, tmp_path,
                                                       monkeypatch, failing):
        # same sizes, so a new manifest would also load over the old blob
        old = small_model_for(small_dataset, seed=7)
        new = DualEncoderModel(dataclasses.replace(
            old.cfg, vocab_words=[w + "x" for w in old.cfg.vocab_words]), seed=8)
        save_checkpoint(old, tmp_path / "ckpt")
        fail_writes_part_way(monkeypatch, failing)
        with pytest.raises(OSError, match="part-way"):
            save_checkpoint(new, tmp_path / "ckpt")
        monkeypatch.undo()
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.cfg == old.cfg
        for (name, a), (_, b) in zip(old.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == \
            ["manifest.json", "weights.bin"]

    def test_format_is_config_plus_parameters_in_order(self, small_dataset, tmp_path):
        model = small_model_for(small_dataset, seed=7)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert sorted(manifest) == ["config", "kind", "tensors", "version"]
        assert manifest["version"] == 2 and manifest["kind"] == "dual_encoder"
        assert manifest["config"] == dataclasses.asdict(model.cfg)
        assert manifest["tensors"] == [name for name, _ in model.named_parameters()]
        assert (tmp_path / "ckpt" / "weights.bin").read_bytes() == b"".join(
            p.data.astype("<f4").tobytes() for _, p in model.named_parameters())

    @pytest.mark.parametrize("cut,match", [(-4, "has 56896 bytes"),
                                           (4, "has 56904 bytes")],
                             ids=["one-value-short", "one-value-long"])
    def test_blob_of_another_length(self, small_dataset, tmp_path, cut, match):
        save_checkpoint(small_model_for(small_dataset), tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "weights.bin"
        blob = path.read_bytes()
        path.write_bytes(blob[:cut] if cut < 0 else blob + bytes(cut))
        with pytest.raises(FormatError, match=f"weights.bin {match}, the float32 "
                                              f"config needs 56900"):
            load_checkpoint(tmp_path / "ckpt")

    def test_truncated_blob(self, small_dataset, tmp_path):
        model = small_model_for(small_dataset)
        save_checkpoint(model, tmp_path / "ckpt")
        blob = (tmp_path / "ckpt" / "weights.bin").read_bytes()
        (tmp_path / "ckpt" / "weights.bin").write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="has 56884 bytes"):
            load_checkpoint(tmp_path / "ckpt")

    def test_unknown_version(self, small_dataset, tmp_path):
        import json
        model = small_model_for(small_dataset)
        save_checkpoint(model, tmp_path / "ckpt")
        mpath = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(tmp_path / "ckpt")

    def test_hostile_depth_is_rejected_before_any_array(self, tmp_path):
        # a depth of 2**20 over a depth-4 blob asks for 4e11 bytes
        save_checkpoint(DualEncoderModel(ModelConfig(vocab_words=["dog"])), tmp_path / "ckpt")
        mpath = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"]["depth"] = 2 ** 20
        mpath.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="weights.bin has 1630980 bytes, the "
                                                  "float32 config needs 419296213764"):
                load_checkpoint(tmp_path / "ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("edit,match", [
        (lambda m: m.pop("tensors"), "tensors must be a list, got NoneType"),
        (lambda m: m["config"].update(colour="red"), "colour"),
        (lambda m: m.pop("config"), "config"),
        (lambda m: m.update(kind="lora"), "not a checkpoint directory"),
        (lambda m: m["tensors"].append("visual.blocks.9.wq"),
         r"\(78 names\) .* 77 .* position 77: \['visual.blocks.9.wq'\] vs \[\]"),
        (lambda m: m["config"].update(dtype="float64"),
         "weights.bin has 56900 bytes, the float64 config needs 113800"),
        (lambda m: m["tensors"].remove("visual.proj"),
         r"\(76 names\) .* position 6: \['visual.blocks.0.ln1_g'\] vs \['visual.proj'\]"),
        (lambda m: m["tensors"].pop(), r"position 76: \[\] vs \['temperature'\]"),
        (lambda m: m["tensors"].insert(0, m["tensors"][0]),
         r"position 1: \['visual.patch_w'\] vs \['visual.patch_b'\]"),
        (lambda m: m["tensors"].__setitem__(slice(4, 6), m["tensors"][5:3:-1]),
         r"\(77 names\) .* position 4: \['visual.ln_f_b'\] vs \['visual.ln_f_g'\]"),
        (lambda m: m["tensors"].__setitem__(3, 7), r"position 3: \[7\] vs \['visual.pos_embed'\]"),
        (lambda m: m.update(tensors={n: {} for n in m["tensors"]}),
         "tensors must be a list, got dict"),
        (lambda m: m.update(tensors="visual.patch_w"),
         "tensors must be a list, got str"),
        (lambda m: m.update(version=1), "unsupported checkpoint version 1; this build "
                                        "reads version 2"),
    ], ids=["no-tensors", "unknown-config-key", "no-config", "wrong-kind",
            "unknown-tensor", "dtype-differs", "missing-name", "missing-last-name",
            "duplicated-name", "swapped-names", "name-not-string", "tensors-table",
            "tensors-string", "version-1"])
    def test_malformed_manifest_rejected(self, small_dataset, tmp_path, edit, match):
        save_checkpoint(small_model_for(small_dataset), tmp_path / "ckpt")
        mpath = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=match):
            load_checkpoint(tmp_path / "ckpt")


# ---------------------------------------------------------------------------
# config validation

class TestModelConfig:
    def test_width_heads_divisibility(self):
        with pytest.raises(ShapeError):
            ModelConfig(width=10, heads=4, vocab_words=["a"])

    @pytest.mark.parametrize("fields,match", [
        (dict(init_temperature=float("inf")), "init_temperature must be a finite number"),
        (dict(init_temperature=float("nan")), "init_temperature must be a finite number"),
        (dict(init_temperature=True), "init_temperature must be a finite number"),
        (dict(init_temperature="0.07"), "init_temperature must be a finite number"),
        (dict(init_temperature=0), "temperature must be > 0"),
        (dict(vocab_words=["a", "b", "a"]), "vocab_words must be distinct"),
    ], ids=["infinite-temperature", "nan-temperature", "bool-temperature",
            "string-temperature", "zero-temperature", "repeated-word"])
    def test_rejects_malformed_fields(self, fields, match):
        from lorabench.errors import DomainError
        with pytest.raises(DomainError, match=match):
            ModelConfig(**{"vocab_words": ["a"], **fields})

    def test_embed_dim_bound(self):
        from lorabench.errors import DomainError
        with pytest.raises(DomainError):
            ModelConfig(width=8, heads=2, embed_dim=16, vocab_words=["a"])

    @pytest.mark.parametrize("sizes", [
        {}, dict(width=8, heads=2, depth=1, embed_dim=4, image_size=8, max_text_len=8),
        dict(width=24, heads=3, depth=7, embed_dim=5, patch_size=2, max_text_len=3),
        dict(width=1, heads=1, depth=2, embed_dim=1, image_size=4, patch_size=4,
             max_text_len=1)], ids=["default", "tiny", "deep", "smallest"])
    @pytest.mark.parametrize("words", [[], ["a", "photo", "of"]], ids=["no-words", "words"])
    def test_param_count_from_the_sizes(self, sizes, words):
        cfg = ModelConfig(vocab_words=words, **sizes)
        assert cfg.param_count() == DualEncoderModel(cfg).param_count()

    def test_param_count_matches_enumeration(self, tiny_model):
        total = sum(p.size for _, p in tiny_model.named_parameters())
        assert tiny_model.param_count() == total
