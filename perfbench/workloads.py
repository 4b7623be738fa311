"""The benchmark's workloads, written as the lorabench CLI commands a
researcher runs, with a check of each command's outputs.

One pass of a workload is its list of commands.  Every input is made from
the workload seed: datasets are fresh renderings of one fixed set of class
prototypes (the "world"), so that one base checkpoint, pretrained on that
world, is a meaningful starting point for every seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from lorabench import data as lb_data
from lorabench import model as lb_model

BATCH = 32     # the CLI's default batch size for fine-tuning and pretraining
SHOTS = 4      # the paper's few-shot protocol
N_CLASSES = 8  # SyntheticDatasetSpec default
BASE_SEED = 0
PRETRAIN_EPOCHS = 2  # pretrain-zeroshot: ends on the contrastive plateau


@dataclass(frozen=True)
class Size:
    """How much work a pass does; FULL is the committed benchmark."""
    images_per_class: int      # every dataset, the base model's included
    base_epochs: int           # pretraining of the shared base checkpoint
    lora_seeds: int
    lora_iters_per_shot: int
    ablate_iters_per_shot: int  # ablation rows and baselines


FULL = Size(images_per_class=64, base_epochs=40, lora_seeds=3,
            lora_iters_per_shot=3, ablate_iters_per_shot=2)
TINY = Size(images_per_class=8, base_epochs=2, lora_seeds=2,
            lora_iters_per_shot=1, ablate_iters_per_shot=1)


class CheckError(Exception):
    """A command's outputs are wrong."""


@dataclass
class Command:
    kind: str                   # "train", "eval" or "other"
    argv: list[str]
    check: Callable[[], list[float]]   # raises on bad output; returns row accuracies
    samples: int = 0            # training examples processed (steps x batch)
    images: int = 0             # query images classified


@dataclass
class Context:
    seed: int
    size: Size
    data: Path                  # set-up directory: datasets and base checkpoint
    out: Path                   # this pass's output directory
    digests: dict = field(default_factory=dict)   # output name -> sha256

    @property
    def base(self) -> Path:
        return self.data / "base"

    @property
    def n_query(self) -> int:
        return N_CLASSES * (self.size.images_per_class - SHOTS)


# ---------------------------------------------------------------------------
# inputs


def world_prototypes() -> np.ndarray:
    """The class prototypes of `lorabench gen --seed 0`: its generator is
    seeded with SeedSequence([seed, 0xDA7A]) and draws the prototypes first."""
    spec = lb_data.SyntheticDatasetSpec(seed=BASE_SEED)
    rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 0xDA7A]))
    return lb_data.make_prototypes(spec, rng)


def render(directory: Path, prototypes, images_per_class: int, shift: int,
           seed: int) -> None:
    """Generate and save one rendering of the world's classes."""
    spec = lb_data.SyntheticDatasetSpec(images_per_class=images_per_class,
                                        pixel_shift=shift, seed=seed)
    lb_data.save_dataset(lb_data.generate_dataset(spec, prototypes=prototypes),
                         directory)


def base_commands(size: Size, work: Path) -> list[Command]:
    """The README walkthrough's base model: `gen --seed 0`, then `pretrain`
    on it with the default 40-epoch schedule.  Writes work/ckpt."""
    data, ckpt = work / "data", work / "ckpt"
    steps = size.base_epochs * (N_CLASSES * size.images_per_class // BATCH)
    return [
        Command("other", ["gen", "--out", str(data), "--images-per-class",
                          str(size.images_per_class), "--seed", str(BASE_SEED)],
                check=lambda: []),
        Command("train", ["pretrain", "--dataset", str(data), "--out", str(ckpt),
                          "--epochs", str(size.base_epochs), "--seed", str(BASE_SEED)],
                check=lambda: _check_pretrain_log(ckpt, steps)),
    ]


def setup(name: str, seed: int, size: Size, base: Path, directory: Path) -> None:
    """Render the datasets a workload reads and write its base checkpoint."""
    prototypes = world_prototypes()
    for ds_name, shift in DATASETS[name]:
        render(directory / ds_name, prototypes, size.images_per_class, shift, seed)
    if name in ADAPTS_BASE:
        lb_model.save_checkpoint(lb_model.load_checkpoint(base), directory / "base")


# ---------------------------------------------------------------------------
# output checks


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_rows(path: Path, expected: int) -> list[dict]:
    """Rows of a report CSV; every accuracy finite and in [0, 1]."""
    rows = read_rows(path)
    if len(rows) != expected:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {expected}")
    for r in rows:
        for key in ("zs_acc", "acc"):
            v = float(r[key])
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise CheckError(f"{path.name}: {key}={r[key]} outside [0, 1]")
    return rows


def seed_accs(rows) -> list[float]:
    return [float(r["acc"]) for r in rows if r["seed"] != "mean"]


def _check_pretrain_log(ckpt: Path, steps: int) -> list[float]:
    if not (ckpt / "manifest.json").is_file():
        raise CheckError("pretrain wrote no checkpoint")
    losses = [float(r["loss"]) for r in read_rows(ckpt / "pretrain_log.csv")]
    if len(losses) != steps:
        raise CheckError(f"pretrain logged {len(losses)} steps, expected {steps}")
    if not all(math.isfinite(x) for x in losses) or not losses[-1] < losses[0]:
        raise CheckError(f"pretrain loss {losses[0]} -> {losses[-1]}: "
                         f"not finite or not decreasing")
    return []


def _check_summary(path: Path, method: str, expected: Callable[[], float]):
    def check() -> list[float]:
        got = json.loads(path.read_text())["cells"][method][str(SHOTS)]
        want = expected()
        if abs(got - want) > 1e-9:
            raise CheckError(f"report: {method} acc {got}, rows give {want}")
        return []
    return check


def _digest(ctx: Context, path: Path) -> None:
    ctx.digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()


def _finetune(ctx: Context, method: str, seeds: list[int], iters_per_shot: int,
              csv_path: Path, extra=()) -> list[str]:
    return ["finetune", "--checkpoint", str(ctx.base), "--dataset",
            str(ctx.data / "shifted"), "--method", method, "--shots", str(SHOTS),
            "--seeds", ",".join(map(str, seeds)), "--iters-per-shot",
            str(iters_per_shot), "--out", str(csv_path), *extra]


def _zeroshot(ckpt: Path, dataset: Path, seed: int, csv_path: Path) -> list[str]:
    return ["zeroshot", "--checkpoint", str(ckpt), "--dataset", str(dataset),
            "--shots", str(SHOTS), "--seed", str(seed), "--out", str(csv_path)]


# ---------------------------------------------------------------------------
# workloads


def fewshot_lora(ctx: Context) -> list[Command]:
    """4-shot LoRA at the default placement over several seeds, each merged
    and saved; zero-shot on every merged checkpoint; then the report."""
    seeds = [ctx.seed * 1000 + i for i in range(ctx.size.lora_seeds)]
    ips = ctx.size.lora_iters_per_shot
    rows_csv, merged = ctx.out / "lora.csv", ctx.out / "merged"
    finetuned: dict[str, float] = {}    # seed (or "mean") -> finetune acc

    def check_finetune():
        rows = check_rows(rows_csv, len(seeds) + 1)
        if [r["seed"] for r in rows] != [*map(str, seeds), "mean"]:
            raise CheckError(f"lora.csv seeds {[r['seed'] for r in rows]}")
        for r in rows:
            if r["method"] != "lora" or int(r["iters"]) != SHOTS * ips \
                    or int(r["trainable"]) <= 0:
                raise CheckError(f"lora.csv row {r}")
        finetuned.update((r["seed"], float(r["acc"])) for r in rows)
        return seed_accs(rows)

    cmds = [Command("train", _finetune(ctx, "lora", seeds, ips, rows_csv,
                                       ("--merged-out", str(merged))),
                    check=check_finetune,
                    samples=len(seeds) * SHOTS * ips * BATCH)]
    for s in seeds:
        zs_csv = ctx.out / f"zs_merged_{s}.csv"

        def check_merged(s=s, zs_csv=zs_csv):
            acc = float(check_rows(zs_csv, 1)[0]["acc"])
            # merged logits agree to 1e-5, so at most a near-tie may flip
            if abs(acc - finetuned[str(s)]) > 1.0 / ctx.n_query + 1e-9:
                raise CheckError(f"merged seed {s}: zero-shot acc {acc}, "
                                 f"finetune acc {finetuned[str(s)]}")
            return [acc]

        cmds.append(Command("eval", _zeroshot(merged / f"merged_seed{s}",
                                              ctx.data / "shifted", s, zs_csv),
                            check=check_merged, images=ctx.n_query))
    summary = ctx.out / "summary.json"
    cmds.append(Command("other", ["report", "--rows", str(rows_csv),
                                  "--out-json", str(summary)],
                        check=_check_summary(summary, "lora", lambda: finetuned["mean"])))
    return cmds


# Each ablate command leaves most of the graph frozen: one encoder only, or
# half of the layers.  Cells are listed in the order the grid emits them.
ABLATIONS = (
    ("ablate_encoders.csv", ["--groups", "q,v", "--ranks", "2",
                             "--encoders", "text,vision"],
     [(g, "2", "all", e) for g in ("q", "v") for e in ("text", "vision")]),
    ("ablate_spans.csv", ["--groups", "qkv", "--ranks", "4",
                          "--spans", "up,bottom"],
     [("qkv", "4", s, "both") for s in ("up", "bottom")]),
)
BASELINES = ("soft-prompt", "bias-only", "adapter")


def ablate_frozen(ctx: Context) -> list[Command]:
    """Zero-shot reference, two serial ablations over frozen-heavy cells,
    the three baselines, then the report of the first ablation."""
    shifted = ctx.data / "shifted"
    ips = ctx.size.ablate_iters_per_shot
    zs_csv = ctx.out / "zs.csv"
    cmds = [Command("eval", _zeroshot(ctx.base, shifted, ctx.seed, zs_csv),
                    check=lambda: seed_accs(check_rows(zs_csv, 1)),
                    images=ctx.n_query)]
    for csv_name, flags, cells in ABLATIONS:
        path = ctx.out / csv_name

        def check_ablation(path=path, cells=cells):
            rows = check_rows(path, len(cells))
            got = [(r["group"], r["rank"], r["span"], r["encoders"]) for r in rows]
            if got != cells:
                raise CheckError(f"{path.name}: cells {got}, expected {cells}")
            if any(r["seconds"] != "" or int(r["iters"]) != SHOTS * ips for r in rows):
                raise CheckError(f"{path.name}: bad seconds or iters column")
            _digest(ctx, path)
            return seed_accs(rows)

        cmds.append(Command(
            "train", ["ablate", "--checkpoint", str(ctx.base), "--dataset", str(shifted),
                      *flags, "--shots", str(SHOTS), "--seeds", "1", "--master-seed",
                      str(ctx.seed), "--iters-per-shot", str(ips), "--out", str(path)],
            check=check_ablation, samples=len(cells) * SHOTS * ips * BATCH))
    for method in BASELINES:
        path = ctx.out / f"{method}.csv"

        def check_baseline(path=path, method=method):
            rows = check_rows(path, 2)
            if any(r["method"] != method or int(r["trainable"]) <= 0 for r in rows):
                raise CheckError(f"{path.name}: rows {rows}")
            return seed_accs(rows)

        cmds.append(Command("train", _finetune(ctx, method, [ctx.seed * 1000], ips, path),
                            check=check_baseline, samples=SHOTS * ips * BATCH))
    first = ctx.out / ABLATIONS[0][0]
    summary = ctx.out / "summary.json"
    cmds.append(Command(
        "other", ["report", "--rows", str(first), "--out-json", str(summary)],
        check=_check_summary(summary, "lora", lambda: sum(seed_accs(read_rows(first)))
                             / len(ABLATIONS[0][2]))))
    return cmds


def pretrain_zeroshot(ctx: Context) -> list[Command]:
    """Contrastive pretraining from scratch on the clean rendering, zero-shot
    of the result on the shifted one, then the report.

    Pretraining initialises from the README's `--seed 0` for every workload
    seed: two epochs end on the contrastive plateau (accuracy at chance) for
    that init, while some other inits are just past it (accuracy about 0.25),
    which would make acc_mean bimodal across workload seeds.  So acc_mean
    cannot catch a change in results here; the digests of the loss log and
    the checkpoint weights can."""
    ckpt, zs_csv, summary = ctx.out / "ckpt", ctx.out / "zs.csv", ctx.out / "summary.json"
    steps = PRETRAIN_EPOCHS * (N_CLASSES * ctx.size.images_per_class // BATCH)

    def check_pretrain():
        _check_pretrain_log(ckpt, steps)
        _digest(ctx, ckpt / "pretrain_log.csv")
        _digest(ctx, ckpt / "weights.bin")
        return []

    return [
        Command("train", ["pretrain", "--dataset", str(ctx.data / "clean"),
                          "--out", str(ckpt), "--epochs", str(PRETRAIN_EPOCHS),
                          "--seed", str(BASE_SEED)],
                check=check_pretrain, samples=steps * BATCH),
        Command("eval", _zeroshot(ckpt, ctx.data / "shifted", ctx.seed, zs_csv),
                check=lambda: seed_accs(check_rows(zs_csv, 1)), images=ctx.n_query),
        Command("other", ["report", "--rows", str(zs_csv), "--out-json", str(summary)],
                check=_check_summary(summary, "zero-shot",
                                     lambda: float(read_rows(zs_csv)[0]["acc"]))),
    ]


WORKLOADS = {"fewshot-lora": fewshot_lora, "ablate-frozen": ablate_frozen,
             "pretrain-zeroshot": pretrain_zeroshot}
# (dataset name, pixel shift) each workload renders in set-up
DATASETS = {"fewshot-lora": [("shifted", 1)], "ablate-frozen": [("shifted", 1)],
            "pretrain-zeroshot": [("clean", 0), ("shifted", 1)]}
ADAPTS_BASE = ("fewshot-lora", "ablate-frozen")
