"""Command-line harness.

Subcommands: gen, pretrain, zeroshot, finetune, ablate, report.
Flags override keys of an optional JSON config file.  Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np

from .bench import (DEFAULT_GROUPS, SHOT_GRID, METHODS, PlannedRow,
                    default_ablation_cells, pretrain_model, run_ablation, run_plan)
from .data import (DATASET, SyntheticDatasetSpec, generate_dataset, load_dataset,
                   refuse_other_kind, save_dataset)
from .errors import DomainError, LorabenchError
from .fewshot import PretrainConfig, TrainConfig
from .lora import PlacementConfig
from .model import CHECKPOINT, load_checkpoint, save_checkpoint, usable_cpus
from .report import (format_summary, mean_report, read_report_csv, summarize,
                     write_report_csv)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# CLI keys whose config dataclass field has another name
_FIELD_NAMES = {"classes": "n_classes", "shift": "pixel_shift", "ranks": "rank",
                "spans": "layer_span"}

# support images per class: the paper's 4-shot protocol
DEFAULT_SHOTS = 4


def _defaults(cls, *keys) -> dict:
    """The defaults of the named fields of dataclass `cls`, keyed by CLI key."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: fields[_FIELD_NAMES.get(key, key)] for key in keys}


# Per command, every key a flag (see _flag) or a --config file sets, and its default
_KEYS = {
    "gen": _defaults(SyntheticDatasetSpec, "classes", "images_per_class", "noise",
                     "shift", "seed"),
    "pretrain": _defaults(PretrainConfig, "epochs", "batch_size", "lr", "seed"),
    "zeroshot": {"shots": DEFAULT_SHOTS, **_defaults(TrainConfig, "seed")},
    "finetune": {"method": "lora", "shots": DEFAULT_SHOTS, "seeds": [0, 1, 2],
                 "merged_out": None,
                 **_defaults(TrainConfig, "lr", "iters_per_shot", "batch_size"),
                 **_defaults(PlacementConfig, "rank", "dropout")},
    "ablate": {"groups": list(DEFAULT_GROUPS),
               **{key: [value] for key, value in
                  _defaults(PlacementConfig, "ranks", "spans", "encoders").items()},
               "shots": DEFAULT_SHOTS, "n_seeds": 3, "master_seed": 0, "workers": 1,
               **_defaults(TrainConfig, "iters_per_shot")},
}
_HELP = {"shift": "cyclic pixel roll; same seed + shift gives a shifted rendering "
                  "of the same classes",
         "shots": "support images per class, left out of the query split",
         "method": f"one of {', '.join(METHODS[1:])}",
         "seeds": "comma-separated seed list", "n_seeds": "seeds per cell",
         "merged_out": "directory for merged checkpoints (lora only)",
         "groups": "e.g. q,v,qkv"}


def _flag(key: str) -> str:
    return "--seeds" if key == "n_seeds" else "--" + key.replace("_", "-")


def _flag_type(default):
    """A flag's value parses as its default's type; a list default takes a
    comma-separated list."""
    if isinstance(default, list):
        return lambda text: [type(default[0])(x) for x in text.split(",") if x != ""]
    return str if default is None else type(default)


def _type_ok(value, default) -> bool:
    """Whether a config-file value has the JSON type of its default: a bool
    is not a number, an int may stand for a float, a list's items are checked
    and a null default takes a string."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_type_ok(v, default[0]) for v in value)
    types = {float: (int, float), type(None): (str, type(None))}.get(type(default), type(default))
    return isinstance(value, types) and isinstance(value, bool) == isinstance(default, bool)


def _apply_config(args: argparse.Namespace, defaults: dict) -> None:
    """Resolution order: explicit flag > config-file key > default.  The
    config file may only set keys of `defaults`, each to a value of its
    default's type."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise UsageError(f"--config {args.config}: not valid UTF-8 JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise UsageError(f"--config {args.config}: unknown key(s) "
                             f"{', '.join(unknown)}")
        for key, value in file_cfg.items():
            if not _type_ok(value, defaults[key]):
                raise UsageError(f"--config {args.config}: {key} has the wrong type "
                                 f"({json.dumps(value)}; default {json.dumps(defaults[key])})")
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_cfg.get(key, default))


def _require_positive(args: argparse.Namespace, *keys) -> None:
    for key in keys:
        if getattr(args, key) < 1:
            raise UsageError(f"{_flag(key)} must be >= 1, got {getattr(args, key)}")


def _reject_repeats(label: str, values: list) -> None:
    """A repeated value would train an identical row twice."""
    repeats = [value for i, value in enumerate(values) if value in values[:i]]
    if repeats:
        raise UsageError(f"{label} {repeats[0]} is repeated")


def _config(label: str, cls, **fields):
    """cls(**fields), where a field the config rejects is a usage error that
    names `label`."""
    try:
        return cls(**fields)
    except DomainError as e:
        raise UsageError(f"{label}: {e}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="lorabench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset directory")
    g.add_argument("--out", required=True)

    t = sub.add_parser("pretrain", help="contrastive-pretrain a dual encoder")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)

    z = sub.add_parser("zeroshot", help="zero-shot evaluation on the query split")
    f = sub.add_parser("finetune", help="few-shot fine-tune and evaluate one method")
    a = sub.add_parser("ablate", help="run the placement/rank ablation grid")
    for sp in (z, f, a):
        sp.add_argument("--checkpoint", required=True)
        sp.add_argument("--dataset", required=True)
        sp.add_argument("--out", required=sp is not z, help="CSV path for report rows")
    a.add_argument("--default-grid", action="store_true",
                   help="use the documented 49-cell default grid")
    for command, keys in _KEYS.items():
        sp = sub.choices[command]
        sp.add_argument("--config")
        for key, default in keys.items():
            sp.add_argument(_flag(key), dest=key, type=_flag_type(default),
                            help=_HELP.get(key))

    r = sub.add_parser("report", help="summarize report rows as a table + JSON")
    r.add_argument("--rows", required=True, nargs="+",
                   help="input CSVs of report rows, summarized together")
    r.add_argument("--out-json", dest="out_json")

    return p


def cmd_gen(args) -> int:
    spec = _config("gen", SyntheticDatasetSpec, n_classes=args.classes,
                   images_per_class=args.images_per_class, noise=args.noise,
                   pixel_shift=args.shift, seed=args.seed)
    refuse_other_kind(DATASET, args.out)
    ds = generate_dataset(spec)
    save_dataset(ds, args.out)
    print(f"wrote {ds.images.shape[0]} images, {len(ds.class_names)} classes "
          f"to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _config("pretrain", PretrainConfig, epochs=args.epochs,
                  batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    refuse_other_kind(CHECKPOINT, args.out)
    ds = load_dataset(args.dataset)
    model, history = pretrain_model(ds, cfg)
    out = Path(args.out)
    save_checkpoint(model, out)
    history.write_csv(out / "pretrain_log.csv")
    print(f"pretrained {model.param_count()} parameters for {len(history.losses)} "
          f"steps; final loss {history.losses[-1]:.4f}; checkpoint at {out}")
    return 0


def cmd_zeroshot(args) -> int:
    _require_positive(args, "shots")
    train_cfg = _config("zeroshot", TrainConfig, seed=args.seed)
    ds = load_dataset(args.dataset)
    base = load_checkpoint(args.checkpoint)
    # a zero-shot row trains nothing, so it scores the model of the shared pass
    row = run_plan(lambda: base, base, ds, [PlannedRow("zero-shot", train_cfg)],
                   args.shots)[0]
    print(f"zero-shot accuracy: {row.acc:.4f} "
          f"({ds.images.shape[0]} images, {len(ds.class_names)} classes)")
    if args.out:
        write_report_csv(args.out, [row])
    return 0


def cmd_finetune(args) -> int:
    if args.method not in METHODS[1:]:
        raise UsageError(f"method must be one of {METHODS[1:]}, got {args.method!r}")
    if args.merged_out is not None and args.method != "lora":
        raise UsageError(f"--merged-out needs --method lora, got {args.method!r}")
    if args.merged_out == "":
        raise UsageError("--merged-out must name a directory, got an empty path")
    if args.shots not in SHOT_GRID:
        raise UsageError(f"shots must be one of {SHOT_GRID}, got {args.shots}")
    if not args.seeds:
        raise UsageError("--seeds needs at least one seed")
    _reject_repeats("finetune: seed", args.seeds)
    _require_positive(args, "iters_per_shot")
    placement = _config("finetune", PlacementConfig, rank=args.rank, dropout=args.dropout)
    plan = [PlannedRow(args.method, _config("finetune", TrainConfig, lr=args.lr,
                                            batch_size=args.batch_size,
                                            iters_per_shot=args.iters_per_shot, seed=seed),
                       placement, merged_checkpoint=None if args.merged_out is None
                       else Path(args.merged_out) / f"merged_seed{seed}")
            for seed in args.seeds]
    for row in plan:
        if row.merged_checkpoint is not None:
            refuse_other_kind(CHECKPOINT, row.merged_checkpoint)
    ds = load_dataset(args.dataset)
    factory = lambda: load_checkpoint(args.checkpoint)
    rows = run_plan(factory, factory(), ds, plan, args.shots)
    mean = mean_report(rows)
    write_report_csv(args.out, rows + [mean])
    print(f"{args.method} shots={args.shots}: mean acc {mean.acc:.4f} "
          f"(zero-shot {mean.zs_acc:.4f}), {mean.trainable} trainable / "
          f"{mean.total} total params")
    return 0


def cmd_ablate(args) -> int:
    _require_positive(args, "shots", "iters_per_shot", "workers", "n_seeds")
    cpus = usable_cpus()
    if args.workers > cpus:
        raise UsageError(f"--workers must be at most the {cpus} usable CPUs, "
                         f"got {args.workers}")
    cells = (default_ablation_cells() if args.default_grid else
             list(product(args.groups, args.ranks, args.spans, args.encoders)))
    if not cells:
        raise UsageError("the ablation grid has no cell: --groups, --ranks, "
                         "--spans and --encoders each need a value")
    placements = [_config(f"ablation cell {(group, rank, span, encoders)}", PlacementConfig,
                          matrices=tuple(group), rank=rank, layer_span=span,
                          encoders=encoders)
                  for group, rank, span, encoders in cells]
    _reject_repeats("ablation cell", cells)
    train_cfg = _config("ablate", TrainConfig, iters_per_shot=args.iters_per_shot)
    ds = load_dataset(args.dataset)
    factory = lambda: load_checkpoint(args.checkpoint)
    rows, skipped = run_ablation(factory, ds, placements, args.shots, args.n_seeds,
                                 master_seed=args.master_seed,
                                 workers=args.workers, train_cfg=train_cfg)
    write_report_csv(args.out, rows, ablation=True)
    print(f"ablation: {len(rows)} rows over {len(cells) - len(skipped)} cells "
          f"written to {args.out}")
    for cell, err in skipped:
        print(f"skipped cell {cell}: {err}", file=sys.stderr)
    return 0


def cmd_report(args) -> int:
    rows = [row for path in args.rows for row in read_report_csv(path)]
    summary = summarize(rows)
    print(format_summary(summary))
    if args.out_json:
        Path(args.out_json).write_text(json.dumps(summary, indent=1, sort_keys=True))
    return 0


# glibc's mallopt parameters and this process's values for them: a chunk of
# up to 32 MiB (glibc's 64-bit maximum) comes from the heap, not a fresh
# mmap, the heap is trimmed only once 256 MiB at its top are free, and every
# thread allocates from that one heap: an arena per image-block thread would
# keep its own freed chunks
_MALLOC_POLICY = ((-3, 32 << 20),    # M_MMAP_THRESHOLD
                  (-1, 256 << 20),   # M_TRIM_THRESHOLD
                  (-8, 1))           # M_ARENA_MAX

# numpy's bundled OpenBLAS, in the numpy.libs directory beside the package
_OPENBLAS_GLOB = "libscipy_openblas*.so*"


def _openblas():
    """numpy's bundled OpenBLAS library, or None if numpy bundles none."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob(_OPENBLAS_GLOB)):
        try:
            blas = ctypes.CDLL(str(lib))
            blas.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            blas.scipy_openblas_set_num_threads64_.restype = None
            blas.scipy_openblas_get_num_threads64_.argtypes = []
            blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        except (OSError, AttributeError):
            continue
        return blas
    return None


def _use_malloc_policy() -> bool:
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):
        glibc = None
    if not glibc:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _MALLOC_POLICY])


def _use_one_blas_thread() -> bool:
    blas = _openblas()
    if blas is None:
        return False
    blas.scipy_openblas_set_num_threads64_(1)
    return blas.scipy_openblas_get_num_threads64_() == 1


def use_process_policy() -> bool:
    """Set this process's allocator and BLAS threads for lorabench's work.

    A training step allocates and frees the same numpy temporaries, many
    above glibc's default 128 KiB mmap threshold, so by default each step
    faults in fresh pages for them.  On glibc this sets _MALLOC_POLICY; on
    any other libc it leaves the allocator alone.  It also pins numpy's
    bundled OpenBLAS to one thread: the blocks of an image forward run on
    a thread per CPU (model.encode_images), and a second BLAS thread per
    block would oversubscribe the cores; without that library it leaves
    BLAS alone.  Returns whether every setting took.  It starts no process
    and may be called again."""
    return all([_use_malloc_policy(), _use_one_blas_thread()])


_COMMANDS = {"gen": cmd_gen, "pretrain": cmd_pretrain, "zeroshot": cmd_zeroshot,
             "finetune": cmd_finetune, "ablate": cmd_ablate, "report": cmd_report}


def main(argv=None) -> int:
    use_process_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _KEYS:
            _apply_config(args, _KEYS[args.command])
        with warnings.catch_warnings():
            # numpy's floating-point warnings ("overflow encountered in cast"):
            # the loss, gradient and score checks report non-finite values in
            # one line.  A filter, unlike np.errstate, covers every thread.
            warnings.filterwarnings("ignore", ".* encountered in ", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except UsageError as e:
        message, code = str(e), 1
    except (LorabenchError, OSError) as e:
        message, code = f"error: {e}", 2
    # one line, whatever key or path the message quotes
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
