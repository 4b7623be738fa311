"""Zero-shot prediction, task sampling, the fine-tuning loop and the
desk-scale contrastive pretrainer."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import small_model_for, zero_shot_logits
from lorabench import model as model_module
from lorabench.baselines import (bias_only_finetune, bias_parameters,
                                 soft_prompt_finetune)
from lorabench.errors import DomainError, LorabenchError, ShapeError
from lorabench.fewshot import (FINETUNE_WEIGHT_DECAY, MIN_TAU, FewShotTask,
                               PretrainConfig, TrainConfig, _BatchSampler, class_prompts, contrastive_pretrain,
                               cross_entropy_loss, evaluate, finetune_lora,
                               predict, run_training_loop, sample_support_set)
from lorabench.lora import ENCODER_CHOICES, LAYER_SPANS, PlacementConfig, inject
from lorabench.model import (block_forward, encode_images, encode_tokens,
                             tokenize_prompt)
from lorabench.tensor import Tape, Tensor, matmul, mean, row_softmax, transpose


# ---------------------------------------------------------------------------
# logits / posterior / predict / loss (pure pieces)

class TestPrediction:
    def test_unit_self_dot(self, small_dataset):
        model = small_model_for(small_dataset)
        prompts = [tokenize_prompt(n, model.vocab, 12)
                   for n in small_dataset.class_names]
        logits = zero_shot_logits(model, small_dataset.images[:10], prompts).data
        assert logits.shape == (10, 4)
        assert np.abs(logits).max() <= 1.0 + 1e-6  # cosines of unit vectors

    def test_hand_dot_product(self):
        f = np.array([[0.6, 0.8]])
        t = np.array([[0.8, 0.6], [0.6, 0.8]])
        logits = f @ t.T
        assert abs(logits[0, 0] - 0.96) < 1e-12
        assert abs(logits[0, 1] - 1.0) < 1e-12

    def test_class_prompts_are_one_token_array(self, small_dataset):
        model = small_model_for(small_dataset)
        names = small_dataset.class_names
        prompts = class_prompts(model, names)
        assert isinstance(prompts, np.ndarray) and prompts.dtype == np.int64
        assert prompts.shape == (len(names), model.cfg.max_text_len)
        assert np.array_equal(prompts[1], tokenize_prompt(names[1], model.vocab,
                                                          model.cfg.max_text_len))

    def test_posterior_uniform(self):
        p = row_softmax(Tensor(np.zeros((3, 4))), temperature=1.0).data
        assert np.abs(p - 0.25).max() < 1e-12

    def test_posterior_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        l = Tensor(rng.uniform(-1, 1, (100, 8)))
        for tau in (0.01, 0.07, 1.0):
            p = row_softmax(l, temperature=tau).data
            assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6
            assert np.array_equal(p.argmax(axis=1), l.data.argmax(axis=1))

    def test_small_tau_concentrates(self):
        p = row_softmax(Tensor(np.array([[0.1, 0.0]])), temperature=0.01).data
        assert p[0, 0] > 0.99

    def test_posterior_bad_tau(self):
        with pytest.raises(DomainError):
            row_softmax(Tensor(np.zeros((1, 2))), temperature=0.0)

    def test_predict_and_tie_break(self):
        scores = Tensor(np.array([[0.1, 0.9], [0.5, 0.5], [0.3, 0.2]]))
        assert predict(scores).tolist() == [1, 0, 0]

    def test_predict_bad_shape(self):
        with pytest.raises(ShapeError):
            predict(Tensor(np.zeros(3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_predict_rejects_non_finite_scores(self, bad):
        # a NaN row would otherwise argmax to class 0 and score as a guess
        with pytest.raises(DomainError, match="1 of 4 scores are not finite"):
            predict(Tensor(np.array([[0.1, 0.9], [bad, 0.5]])))


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[50.0, 0.0], [0.0, 50.0]]))
        loss = cross_entropy_loss(logits, np.array([0, 1]), tau=1.0)
        assert loss.item() < 1e-12

    def test_uniform_is_ln_k(self):
        logits = Tensor(np.zeros((5, 8)))
        loss = cross_entropy_loss(logits, np.zeros(5, dtype=int), tau=0.07)
        assert abs(loss.item() - np.log(8.0)) < 1e-9

    def test_half_probability_is_ln2(self):
        logits = Tensor(np.zeros((4, 2)))
        loss = cross_entropy_loss(logits, np.array([0, 1, 0, 1]), tau=1.0)
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy_loss(Tensor(np.zeros((3, 2))), np.zeros(2, dtype=int),
                               tau=1.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.standard_normal((20, 5)))
        labels = rng.integers(0, 5, 20)
        assert cross_entropy_loss(logits, labels, tau=0.07).item() >= 0.0


# ---------------------------------------------------------------------------
# task sampling

class TestSampleSupportSet:
    def test_counts_and_disjointness(self, small_dataset):
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, shots=4, seed=0)
        assert task.shots == 4
        assert task.support_images.shape[0] == 16  # 4 classes x 4 shots
        for k in range(4):
            assert (task.support_labels == k).sum() == 4
        # disjoint support and query (compare pixel content)
        sup = {img.tobytes() for img in task.support_images}
        qry = {img.tobytes() for img in task.query_images}
        assert not (sup & qry)
        assert len(qry) == small_dataset.images.shape[0] - 16

    def test_same_seed_same_task(self, small_dataset):
        a = sample_support_set(small_dataset.images, small_dataset.labels,
                               small_dataset.class_names, 2, seed=9)
        b = sample_support_set(small_dataset.images, small_dataset.labels,
                               small_dataset.class_names, 2, seed=9)
        assert np.array_equal(a.support_images, b.support_images)
        assert np.array_equal(a.query_images, b.query_images)

    def test_insufficient_pool_names_class(self, small_dataset):
        with pytest.raises(DomainError, match=small_dataset.class_names[0]):
            sample_support_set(small_dataset.images, small_dataset.labels,
                               small_dataset.class_names, shots=8, seed=0)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_below_one(self, small_dataset, shots):
        with pytest.raises(DomainError, match="shots"):
            sample_support_set(small_dataset.images, small_dataset.labels,
                               small_dataset.class_names, shots, seed=0)


class TestEvaluate:
    def test_chance_level_for_random_model(self, small_dataset):
        model = small_model_for(small_dataset, seed=11)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 1, seed=0)
        acc, _ = evaluate(model, task)
        assert 0.0 <= acc <= 1.0

    def test_chance_level_many_queries(self):
        # K=8 random embeddings -> accuracy near 1/8 over many queries
        from lorabench.data import SyntheticDatasetSpec, generate_dataset
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=8,
                                                   images_per_class=64,
                                                   image_size=8, seed=1))
        model = small_model_for(ds, seed=23)
        task = sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed=0)
        acc, _ = evaluate(model, task)  # 504 queries
        assert abs(acc - 0.125) < 0.06

    def test_empty_query_raises(self, small_dataset):
        task = FewShotTask(class_names=list(small_dataset.class_names),
                           support_images=small_dataset.images[:4],
                           support_labels=np.arange(4),
                           query_images=small_dataset.images[:0],
                           query_labels=np.zeros(0, dtype=np.int64))
        model = small_model_for(small_dataset)
        with pytest.raises(DomainError):
            evaluate(model, task)

    def test_given_text_feats_score_the_queries(self, small_dataset):
        model = small_model_for(small_dataset)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 1, seed=0)
        acc, logits = evaluate(model, task)
        texts = encode_tokens(model, class_prompts(model, task.class_names))
        assert np.array_equal(logits, zero_shot_logits(
            model, task.query_images, class_prompts(model, task.class_names)).data)
        acc2, logits2 = evaluate(model, task, texts)
        assert acc2 == acc and np.array_equal(logits2, logits)
        # reversed class features score every query against the other order
        _, flipped = evaluate(model, task, Tensor(texts.data[::-1].copy()))
        np.testing.assert_allclose(flipped, logits[:, ::-1], rtol=0, atol=1e-6)

    def test_needs_two_classes(self, small_dataset):
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names[:1], 1, seed=0)
        with pytest.raises(DomainError, match="2 classes"):
            evaluate(small_model_for(small_dataset), task)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_same_with_and_without_the_block_pool(self, monkeypatch, dtype):
        from lorabench.data import SyntheticDatasetSpec, generate_dataset
        ds = generate_dataset(SyntheticDatasetSpec(n_classes=4, images_per_class=40,
                                                   image_size=8, seed=2))
        model = small_model_for(ds, dtype=dtype)
        task = sample_support_set(ds.images, ds.labels, ds.class_names, 1, seed=0)
        assert task.query_images.shape[0] == 156       # blocks of 64, 64 and 28
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(model_module, "_block_pool", lambda: pool)
            acc, logits = evaluate(model, task)
        monkeypatch.setattr(model_module, "_block_pool", lambda: None)
        serial_acc, serial_logits = evaluate(model, task)
        assert acc == serial_acc and np.array_equal(logits, serial_logits)


# ---------------------------------------------------------------------------
# training loop

class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.batch_size, cfg.iters_per_shot) == (2e-4, 32, 500)

    def test_iteration_counts(self):
        assert TrainConfig().iterations(1) == 500
        assert TrainConfig().iterations(4) == 2000
        assert TrainConfig().iterations(16) == 8000


# name -> (a training config, one field it rejects)
BAD_CONFIGS = {
    "train-infinite-lr": (TrainConfig, dict(lr=float("inf"))),
    "train-nan-lr": (TrainConfig, dict(lr=float("nan"))),
    "train-zero-lr": (TrainConfig, dict(lr=0)),
    "train-huge-int-lr": (TrainConfig, dict(lr=10 ** 400)),
    "train-zero-batch-size": (TrainConfig, dict(batch_size=0)),
    "train-fractional-batch-size": (TrainConfig, dict(batch_size=2.5)),
    "train-bool-batch-size": (TrainConfig, dict(batch_size=True)),
    "train-negative-iters-per-shot": (TrainConfig, dict(iters_per_shot=-1)),
    "train-negative-seed": (TrainConfig, dict(seed=-1)),
    "pretrain-one-batch-size": (PretrainConfig, dict(batch_size=1)),
    "pretrain-zero-epochs": (PretrainConfig, dict(epochs=0)),
    "pretrain-negative-seed": (PretrainConfig, dict(seed=-1)),
    "pretrain-infinite-lr": (PretrainConfig, dict(lr=float("inf"))),
}


@pytest.mark.parametrize("cls,fields", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_config_rejects_field(cls, fields):
    [name] = fields
    with pytest.raises(DomainError, match=f"^{name} must be "):
        cls(**fields)


class TestFinetune:
    def test_short_run_history_and_lr_trace(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 2, seed=0)
        cfg = TrainConfig(iters_per_shot=5, seed=0)
        hist = finetune_lora(adapted, task, cfg)
        assert len(hist.losses) == 10
        assert hist.lrs[0] == cfg.lr
        assert all(np.isfinite(hist.losses))
        assert all(a >= b for a, b in zip(hist.lrs, hist.lrs[1:]))

    def test_tau_and_base_frozen(self, small_dataset):
        model = small_model_for(small_dataset)
        tau_before = model.tau
        adapted = inject(model, PlacementConfig(), seed=0)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 1, seed=0)
        finetune_lora(adapted, task, TrainConfig(iters_per_shot=3, seed=0))
        assert model.tau == tau_before

    def test_deterministic_lora_tensors(self, small_dataset):
        def run():
            model = small_model_for(small_dataset)
            adapted = inject(model, PlacementConfig(), seed=1)
            task = sample_support_set(small_dataset.images, small_dataset.labels,
                                      small_dataset.class_names, 1, seed=1)
            finetune_lora(adapted, task, TrainConfig(iters_per_shot=4, seed=1))
            return [t.data.copy() for t in adapted.trainable_parameters()]

        a, b = run(), run()
        assert len(a) == len(b)
        for i, (ta, tb) in enumerate(zip(a, b)):
            assert np.array_equal(ta, tb), i

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_last_good_step(self, small_dataset):
        model = small_model_for(small_dataset)
        adapted = inject(model, PlacementConfig(), seed=0)
        mod = adapted.modules[("vision", 0, "q")]
        mod.B.data = np.full_like(mod.B.data, np.inf)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 1, seed=0)
        with pytest.raises(LorabenchError, match="step 0"):
            finetune_lora(adapted, task, TrainConfig(iters_per_shot=2, seed=0))


    def test_threads_train_as_if_serial(self, small_dataset):
        # each thread records onto its own tape: two concurrent 20-step runs
        # give the adapter bytes and losses of the same runs made one by one
        def run(seed, out):
            model = small_model_for(small_dataset)
            adapted = inject(model, PlacementConfig(), seed=seed)
            task = sample_support_set(small_dataset.images, small_dataset.labels,
                                      small_dataset.class_names, 2, seed=seed)
            hist = finetune_lora(adapted, task, TrainConfig(iters_per_shot=10,
                                                            seed=seed))
            out[seed] = ([t.data.tobytes() for t in adapted.trainable_parameters()],
                         hist.losses)

        seeds = (1, 2)
        serial, threaded = {}, {}
        for seed in seeds:
            run(seed, serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed, threaded))
                       for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(serial[s][1]) == 20 for s in seeds)
        assert threaded == serial


class TestTrainingLoop:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_params_alone_decide_what_trains(self):
        # the loop marks exactly the tensors it is given for its steps, and
        # none of them stays marked once it returns or raises
        unmarked = Tensor(np.ones(3))
        marked = Tensor(np.ones(3), requires_grad=True)
        sampler = _BatchSampler(4, 2, seed=0, stream=0)
        seen = []

        def loss_fn(idx):
            seen.append((unmarked.requires_grad, marked.requires_grad))
            return mean(unmarked * marked) * next(scales)

        scales = iter([1.0, 1.0])
        run_training_loop([unmarked, marked], loss_fn, sampler, 2, 0.1, 0.0)
        assert seen == [(True, True)] * 2
        assert not np.array_equal(unmarked.data, np.ones(3))
        assert not unmarked.requires_grad and not marked.requires_grad

        marked.requires_grad = True
        scales = iter([1.0, np.inf])
        with pytest.raises(LorabenchError, match="step 1"):
            run_training_loop([unmarked, marked], loss_fn, sampler, 2, 0.1, 0.0)
        assert not unmarked.requires_grad and not marked.requires_grad

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad_step,last", [(0, "None"), (2, "1")])
    def test_non_finite_loss_names_the_last_good_step(self, bad_step, last):
        w = Tensor(np.ones(3))
        steps = []

        def loss_fn(idx):
            steps.append(len(steps))
            return mean(w * w) * (np.nan if steps[-1] == bad_step else 1.0)

        with pytest.raises(LorabenchError, match=f"non-finite loss at step {bad_step}; "
                                                 f"last good step: {last}$"):
            run_training_loop([w], loss_fn, _BatchSampler(4, 2, seed=0, stream=0), 4,
                              0.1, 0.0)


# ---------------------------------------------------------------------------
# frozen prefixes: the leading frozen blocks of each tower run once per run

# every layer_span-encoders placement
GRID = {f"{span}-{enc}": PlacementConfig(layer_span=span, encoders=enc)
        for span in LAYER_SPANS for enc in ENCODER_CHOICES}
# run -> the placement of its adapters; bias-only and soft-prompt carry none
PLACEMENTS = {"default": GRID["all-both"], "up": GRID["up-both"],
              "bottom": GRID["bottom-both"], "text": GRID["all-text"],
              "vision": GRID["all-vision"], **GRID}


def _frozen_run_model(ds, run, depth=2):
    """The model `run` trains, and its adapters (None for the baselines)."""
    model = small_model_for(ds, dtype="float64", depth=depth)
    if run in PLACEMENTS:
        return model, inject(model, PLACEMENTS[run], seed=0)
    return model, None


def _reference_losses(model, params, task, cfg):
    """The loss history of `train_on_support` with both towers encoded in
    full at every step, from the same dropout and batch streams."""
    train_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xD209]))
    prompts = class_prompts(model, task.class_names)

    def loss_fn(idx):
        feats = encode_images(model, task.support_images[idx], rng=train_rng)
        texts = encode_tokens(model, prompts, rng=train_rng)
        return cross_entropy_loss(matmul(feats, transpose(texts, (1, 0))),
                                  task.support_labels[idx], model.tau)

    sampler = _BatchSampler(task.support_images.shape[0], cfg.batch_size,
                            cfg.seed, 0xBA7C)
    return run_training_loop(params, loss_fn, sampler, cfg.iterations(task.shots),
                             cfg.lr, FINETUNE_WEIGHT_DECAY).losses


# loss histories of these runs (float64), recorded while each of them still
# encoded every block of both towers at every step; the default placement
# (q, k and v of every layer of both towers) always does, and its history
# is the portable byte-identity gate of the paper's protocol
FROZEN_RUN_LOSSES = {
    "default": [1.439372275603373, 1.419663033425085, 1.3876647475754296,
                1.3785455560690085, 1.3891738903943656, 1.4118986618674991,
                1.4658825133456208, 1.4246786973204162, 1.4496556487887544,
                1.3867927708290915],
    "text": [1.439372275603373, 1.420765343166474, 1.3866871188267003,
             1.3783080445362716, 1.3886373558563059, 1.4137931719368078,
             1.4599915628556055, 1.4274866362091652, 1.4467931838748427,
             1.3860801868835573],
    "vision": [1.439372275603373, 1.4207645547114431, 1.3868042299215761,
               1.3777042238464663, 1.3893722916585736, 1.414674303527737,
               1.4570310397891517, 1.4287930825171968, 1.4465849781990667,
               1.3824389122865308],
    "soft-prompt": [1.439372275603373, 1.4208262500016071, 1.3872085036292088,
                    1.377891241348753, 1.3896767150682692, 1.4153519986426533,
                    1.4566492062852148, 1.4291439769682819, 1.447143331450134,
                    1.3825899466968252],
    "up": [1.439372275603373, 1.4207176629752236, 1.3868145209197305,
           1.3795467457885864, 1.3901853316130781, 1.4142068373134913,
           1.4576882068412291, 1.4273500339011096, 1.4446982378703093,
           1.3826604364451045],
    "bias-only": [1.439372275603373, 1.4185615646595857, 1.3835160637744524,
                  1.375343394198667, 1.382231326857359, 1.4063617663750136,
                  1.4323038454042765, 1.4139833962514516, 1.4285640928211785,
                  1.3727014291256423],
}


class TestFrozenTowers:
    # the vision and text k of each run at depth 3
    @pytest.mark.parametrize("run,kv,kt", [
        ("default", 0, 0), ("up", 2, 2), ("bottom", 0, 0),
        ("text", 3, 0),                  # adapters on the text tower only
        ("vision", 0, 3), ("bias-only", 0, 0),
        ("soft-prompt", 3, 3),           # the context is not in a tower
        ("embedding", 0, 0),             # no block trains, the embeddings do
    ])
    def test_frozen_forward_is_untaped_eval_forward(self, small_dataset, run,
                                                   kv, kt):
        model, adapted = _frozen_run_model(
            small_dataset, "soft-prompt" if run == "embedding" else run, depth=3)
        if run == "embedding":
            params = [model.visual.pos_embed, model.textual.token_embed]
        elif run == "bias-only":
            params = bias_parameters(model)
        else:   # soft prompt's context is no tensor of the model
            params = [] if adapted is None else adapted.trainable_parameters()
        # marked as the training loop marks them, so a prefix that ran a
        # trained tensor would record onto the tape
        for p in params:
            p.requires_grad = True
        assert model.visual.frozen_prefix(params) == kv
        assert model.textual.frozen_prefix(params) == kt
        prompts = class_prompts(model, small_dataset.class_names)
        prefixes = [(kv, lambda **kw: encode_images(model, small_dataset.images,
                                                    stop=kv, **kw)),
                    (kt, lambda **kw: encode_tokens(model, prompts, stop=kt, **kw))]
        for k, encode in prefixes:
            if k == 0:
                continue
            with Tape() as tape:
                taped = encode(rng=np.random.default_rng(0))
            assert len(tape) == 0 and not taped.requires_grad
            assert np.array_equal(taped.data, encode().data)

    def test_prefix_runs_once_per_run(self, small_dataset, monkeypatch):
        # span=up at depth 3: blocks 0 and 1 of each tower run once for the
        # whole support set or the class prompts, block 2 at every step
        calls = {}

        def spy(block, *args, **kwargs):
            calls[id(block)] = calls.get(id(block), 0) + 1
            return block_forward(block, *args, **kwargs)

        model, adapted = _frozen_run_model(small_dataset, "up", depth=3)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 2, seed=0)
        monkeypatch.setattr(model_module, "block_forward", spy)
        hist = finetune_lora(adapted, task, TrainConfig(iters_per_shot=3, seed=0))
        steps = len(hist.losses)
        assert steps == 6
        for enc in (model.visual, model.textual):
            assert [calls.get(id(blk), 0) for blk in enc.blocks] == [1, 1, steps]

    @pytest.mark.parametrize("run", [*GRID, "bias-only"])
    def test_losses_equal_full_forward_every_step(self, small_dataset, run):
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 2, seed=0)
        cfg = TrainConfig(iters_per_shot=5, seed=0)
        model, adapted = _frozen_run_model(small_dataset, run, depth=3)
        if run == "bias-only":
            hist = bias_only_finetune(model, task, train_cfg=cfg).history
        else:
            hist = finetune_lora(adapted, task, cfg)
        ref, ref_adapted = _frozen_run_model(small_dataset, run, depth=3)
        params = (bias_parameters(ref) if ref_adapted is None
                  else ref_adapted.trainable_parameters())
        np.testing.assert_array_equal(hist.losses,
                                      _reference_losses(ref, params, task, cfg))

    @pytest.mark.parametrize("run", sorted(FROZEN_RUN_LOSSES))
    def test_loss_history_unchanged(self, small_dataset, run):
        model, adapted = _frozen_run_model(small_dataset, run)
        task = sample_support_set(small_dataset.images, small_dataset.labels,
                                  small_dataset.class_names, 2, seed=0)
        cfg = TrainConfig(iters_per_shot=5, seed=0)
        if run == "soft-prompt":
            hist = soft_prompt_finetune(model, task, train_cfg=cfg).history
        elif run == "bias-only":
            hist = bias_only_finetune(model, task, train_cfg=cfg).history
        else:
            hist = finetune_lora(adapted, task, cfg)
        np.testing.assert_allclose(hist.losses, FROZEN_RUN_LOSSES[run],
                                   rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# contrastive pretraining

# a float64 pretraining run recorded before pretraining shared the few-shot
# training loop: its losses, final temperature and parameter bytes
PRETRAIN_LOSSES = [2.4173186360293104, 2.7459241015319664, 2.4017513284491656,
                   2.3002440456739706, 2.3008517194251747, 2.298852536508818]
PRETRAIN_TAU = 0.07311629631904674
PRETRAIN_PARAMS_SHA256 = \
    "36c6e6509cabacbdcfc73254af5c181bf9cd73195b2e7fea607ca4ba6990f4db"


class TestPretrain:
    def test_init_loss_near_ln_batch(self, small_dataset):
        # at tau=1 a random model gives near-uniform in-batch similarities,
        # so the first symmetric CE reading sits near ln(batch)
        model = small_model_for(small_dataset, init_temperature=1.0, seed=5)
        hist = contrastive_pretrain(model, small_dataset.images,
                                    small_dataset.captions,
                                    PretrainConfig(epochs=1, batch_size=32))
        assert abs(hist.losses[0] - np.log(32.0)) < 0.35

    def test_batch_too_small(self, small_dataset):
        model = small_model_for(small_dataset)
        with pytest.raises(DomainError):
            contrastive_pretrain(model, small_dataset.images,
                                 small_dataset.captions,
                                 PretrainConfig(epochs=1, batch_size=1))

    def test_dataset_smaller_than_batch(self, small_dataset):
        # 32 pairs cannot fill one batch of 33: fail before any step
        model = small_model_for(small_dataset)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        with pytest.raises(DomainError, match="33"):
            contrastive_pretrain(model, small_dataset.images,
                                 small_dataset.captions,
                                 PretrainConfig(epochs=1, batch_size=33))
        for n, p in model.named_parameters():
            assert np.array_equal(p.data, before[n]) and not p.requires_grad, n

    def test_loss_history_unchanged(self, small_dataset):
        # batch 10 over 32 pairs: 3 steps per epoch, 2 pairs left out of each
        model = small_model_for(small_dataset, dtype="float64", seed=1)
        hist = contrastive_pretrain(model, small_dataset.images,
                                    small_dataset.captions,
                                    PretrainConfig(epochs=2, batch_size=10, seed=1))
        np.testing.assert_allclose(hist.losses, PRETRAIN_LOSSES, rtol=1e-12, atol=0)
        assert model.tau == PRETRAIN_TAU
        params = b"".join(p.data.tobytes() for p in model.parameters())
        assert hashlib.sha256(params).hexdigest() == PRETRAIN_PARAMS_SHA256

    def test_deterministic_checkpoints(self, small_dataset):
        def run():
            model = small_model_for(small_dataset, seed=2)
            contrastive_pretrain(model, small_dataset.images,
                                 small_dataset.captions,
                                 PretrainConfig(epochs=1, seed=2))
            return {n: p.data.copy() for n, p in model.named_parameters()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_tau_trains_and_stays_clamped(self, small_dataset):
        model = small_model_for(small_dataset, seed=3)
        tau0 = model.tau
        contrastive_pretrain(model, small_dataset.images, small_dataset.captions,
                             PretrainConfig(epochs=2, seed=3))
        assert model.tau != tau0  # temperature received gradient
        assert model.tau >= MIN_TAU
        # pretraining must hand back a frozen model
        assert all(not p.requires_grad for p in model.parameters())
