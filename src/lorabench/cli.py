"""Command-line harness.

Subcommands: gen, pretrain, zeroshot, finetune, ablate, report.
Flags override keys of an optional JSON config file.  Exit codes: 0 success,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from itertools import product
from pathlib import Path

from .bench import (DEFAULT_GROUPS, SHOT_GRID, METHODS, default_ablation_cells,
                    pretrain_model, run_ablation, run_method_over_seeds)
from .data import SyntheticDatasetSpec, generate_dataset, load_dataset, save_dataset
from .errors import DomainError, LorabenchError
from .fewshot import PretrainConfig, TrainConfig
from .lora import PlacementConfig
from .model import load_checkpoint, save_checkpoint
from .report import format_summary, read_report_csv, summarize, write_report_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _str_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x != ""]


# CLI keys whose config dataclass field has another name
_FIELD_NAMES = {"classes": "n_classes", "shift": "pixel_shift"}


def _defaults(cls, *keys) -> dict:
    """The defaults of the named fields of dataclass `cls`, keyed by CLI key."""
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    return {key: fields[_FIELD_NAMES.get(key, key)] for key in keys}


def _apply_config(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Resolution order: explicit flag > config-file key > default.  The
    config file may only set keys of `defaults`."""
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            raise UsageError(f"--config {args.config}: not valid JSON: {e}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        unknown = sorted(set(file_cfg) - set(defaults))
        if unknown:
            raise UsageError(f"--config {args.config}: unknown key(s) "
                             f"{', '.join(unknown)}")
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_cfg.get(key, default))
    return args


def _require_positive(args: argparse.Namespace, *keys) -> None:
    for key in keys:
        if not getattr(args, key) > 0:
            raise UsageError(f"--{key.replace('_', '-')} must be > 0, "
                             f"got {getattr(args, key)}")


def _placement(label: str, **fields) -> PlacementConfig:
    """PlacementConfig(**fields), where an invalid field is a usage error
    that names `label`."""
    try:
        return PlacementConfig(**fields)
    except DomainError as e:
        raise UsageError(f"{label}: {e}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="lorabench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset directory")
    g.add_argument("--out", required=True)
    g.add_argument("--config")
    g.add_argument("--classes", type=int)
    g.add_argument("--images-per-class", dest="images_per_class", type=int)
    g.add_argument("--noise", type=float)
    g.add_argument("--shift", type=int,
                   help="cyclic pixel roll; same seed + shift gives a shifted "
                        "rendering of the same classes")
    g.add_argument("--seed", type=int)

    t = sub.add_parser("pretrain", help="contrastive-pretrain a dual encoder")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)

    z = sub.add_parser("zeroshot", help="zero-shot evaluation on the query split")
    z.add_argument("--checkpoint", required=True)
    z.add_argument("--dataset", required=True)
    z.add_argument("--out", help="CSV path for the report row")
    z.add_argument("--config")
    z.add_argument("--shots", type=int, help="support size excluded from the query split")
    z.add_argument("--seed", type=int)

    f = sub.add_parser("finetune", help="few-shot fine-tune and evaluate one method")
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--dataset", required=True)
    f.add_argument("--method", choices=METHODS[1:])
    f.add_argument("--out", required=True, help="CSV path for report rows")
    f.add_argument("--config")
    f.add_argument("--shots", type=int)
    f.add_argument("--seeds", type=_int_list, help="comma-separated seed list")
    f.add_argument("--merged-out", dest="merged_out",
                   help="directory for merged checkpoints (lora only)")
    f.add_argument("--lr", type=float)
    f.add_argument("--iters-per-shot", dest="iters_per_shot", type=int)
    f.add_argument("--batch-size", dest="batch_size", type=int)
    f.add_argument("--rank", type=int)
    f.add_argument("--dropout", type=float)

    a = sub.add_parser("ablate", help="run the placement/rank ablation grid")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--dataset", required=True)
    a.add_argument("--out", required=True)
    a.add_argument("--config")
    a.add_argument("--groups", type=_str_list, help="e.g. q,v,qkv")
    a.add_argument("--ranks", type=_int_list)
    a.add_argument("--spans", type=_str_list)
    a.add_argument("--encoders", type=_str_list)
    a.add_argument("--shots", type=int)
    a.add_argument("--seeds", dest="n_seeds", type=int, help="seeds per cell")
    a.add_argument("--master-seed", dest="master_seed", type=int)
    a.add_argument("--workers", type=int)
    a.add_argument("--default-grid", action="store_true",
                   help="use the documented 49-cell default grid")
    a.add_argument("--iters-per-shot", dest="iters_per_shot", type=int)

    r = sub.add_parser("report", help="summarize report rows as a table + JSON")
    r.add_argument("--rows", required=True, nargs="+",
                   help="input CSVs of report rows, summarized together")
    r.add_argument("--out-json", dest="out_json")

    return p


def cmd_gen(args) -> int:
    _apply_config(args, _defaults(SyntheticDatasetSpec, "classes",
                                  "images_per_class", "noise", "shift", "seed"))
    _require_positive(args, "classes", "images_per_class")
    if args.noise < 0:
        raise UsageError(f"noise must be >= 0, got {args.noise}")
    spec = SyntheticDatasetSpec(n_classes=args.classes,
                                images_per_class=args.images_per_class,
                                noise=args.noise, pixel_shift=args.shift,
                                seed=args.seed)
    ds = generate_dataset(spec)
    save_dataset(ds, args.out)
    print(f"wrote {ds.images.shape[0]} images, {len(ds.class_names)} classes "
          f"to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    _apply_config(args, _defaults(PretrainConfig, "epochs", "batch_size", "lr", "seed"))
    _require_positive(args, "epochs", "lr")
    if args.batch_size < 2:
        raise UsageError(f"--batch-size must be >= 2 (contrastive pairs), "
                         f"got {args.batch_size}")
    ds = load_dataset(args.dataset)
    cfg = PretrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, seed=args.seed)
    model, history = pretrain_model(ds, cfg)
    out = Path(args.out)
    save_checkpoint(model, out)
    history.write_csv(out / "pretrain_log.csv")
    print(f"pretrained {model.param_count()} parameters for {len(history.steps)} "
          f"steps; final loss {history.losses[-1]:.4f}; checkpoint at {out}")
    return 0


def cmd_zeroshot(args) -> int:
    _apply_config(args, {"shots": 4, **_defaults(TrainConfig, "seed")})
    _require_positive(args, "shots")
    ds = load_dataset(args.dataset)
    factory = lambda: load_checkpoint(args.checkpoint)
    row = run_method_over_seeds(factory, ds, "zero-shot", args.shots, [args.seed])[0]
    print(f"zero-shot accuracy: {row.acc:.4f} "
          f"({ds.images.shape[0]} images, {len(ds.class_names)} classes)")
    if args.out:
        write_report_csv(args.out, [row])
    return 0


def cmd_finetune(args) -> int:
    _apply_config(args, {"method": "lora", "shots": 4, "seeds": [0, 1, 2],
                         "merged_out": None,
                         **_defaults(TrainConfig, "lr", "iters_per_shot", "batch_size"),
                         **_defaults(PlacementConfig, "rank", "dropout")})
    if args.shots not in SHOT_GRID:
        raise UsageError(f"shots must be one of {SHOT_GRID}, got {args.shots}")
    if not args.seeds:
        raise UsageError("--seeds needs at least one seed")
    _require_positive(args, "iters_per_shot", "batch_size", "lr")
    placement = _placement("finetune", rank=args.rank, dropout=args.dropout)
    ds = load_dataset(args.dataset)
    factory = lambda: load_checkpoint(args.checkpoint)
    train_cfg = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                            iters_per_shot=args.iters_per_shot)
    rows = run_method_over_seeds(factory, ds, args.method, args.shots,
                                 args.seeds, placement=placement,
                                 train_cfg=train_cfg,
                                 merged_checkpoint_dir=args.merged_out)
    write_report_csv(args.out, rows)
    mean = rows[-1]
    print(f"{args.method} shots={args.shots}: mean acc {mean.acc:.4f} "
          f"(zero-shot {mean.zs_acc:.4f}), {mean.trainable} trainable / "
          f"{mean.total} total params")
    return 0


def cmd_ablate(args) -> int:
    _apply_config(args, {"groups": list(DEFAULT_GROUPS), "ranks": [2],
                         "spans": ["all"], "encoders": ["both"], "shots": 4,
                         "n_seeds": 3, "master_seed": 0, "workers": 1,
                         **_defaults(TrainConfig, "iters_per_shot")})
    _require_positive(args, "shots", "iters_per_shot", "workers")
    if args.n_seeds < 1:
        raise UsageError(f"--seeds (seeds per cell) must be >= 1, got {args.n_seeds}")
    cells = (default_ablation_cells() if args.default_grid else
             list(product(args.groups, args.ranks, args.spans, args.encoders)))
    if not cells:
        raise UsageError("the ablation grid has no cell: --groups, --ranks, "
                         "--spans and --encoders each need a value")
    placements = [_placement(f"ablation cell {(group, rank, span, encoders)}",
                             matrices=tuple(group), rank=rank, layer_span=span,
                             encoders=encoders)
                  for group, rank, span, encoders in cells]
    ds = load_dataset(args.dataset)
    factory = lambda: load_checkpoint(args.checkpoint)
    train_cfg = TrainConfig(iters_per_shot=args.iters_per_shot)
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


_COMMANDS = {"gen": cmd_gen, "pretrain": cmd_pretrain, "zeroshot": cmd_zeroshot,
             "finetune": cmd_finetune, "ablate": cmd_ablate, "report": cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (LorabenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
