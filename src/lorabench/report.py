"""Run-report rows, CSV emission and the method-by-shots summary table."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

from .data import read_text
from .errors import FormatError

RUN_REPORT_HEADER = ["method", "config", "shots", "seed", "zs_acc", "acc",
                     "trainable", "total", "iters", "seconds"]
ABLATION_EXTRA = ["group", "rank", "span", "encoders"]


@dataclass
class RunReport:
    method: str
    config: str
    shots: int
    seed: object               # int seed or the string "mean"
    zs_acc: float
    acc: float
    trainable: int
    total: int
    iters: int
    seconds: float
    extra: dict = field(default_factory=dict)   # ablation coordinates

    def to_row(self, ablation: bool = False) -> list[str]:
        """The CSV fields.  An ablation row leaves `seconds` blank, so that
        the grid's CSV is the same bytes on every run, serial or threaded."""
        row = [self.method, self.config, str(self.shots), str(self.seed),
               f"{self.zs_acc:.6f}", f"{self.acc:.6f}", str(self.trainable),
               str(self.total), str(self.iters),
               "" if ablation else f"{self.seconds:.3f}"]
        if ablation:
            row += [str(self.extra.get(k, "")) for k in ABLATION_EXTRA]
        return row


def mean_report(rows: Sequence[RunReport]) -> RunReport:
    """Aggregate per-seed rows into one row with seed='mean'."""
    first = rows[0]
    return RunReport(
        method=first.method, config=first.config, shots=first.shots, seed="mean",
        zs_acc=sum(r.zs_acc for r in rows) / len(rows),
        acc=sum(r.acc for r in rows) / len(rows),
        trainable=first.trainable, total=first.total, iters=first.iters,
        seconds=sum(r.seconds for r in rows) / len(rows),
        extra=dict(first.extra))


def write_report_csv(path, rows: Sequence[RunReport], ablation: bool = False) -> None:
    header = RUN_REPORT_HEADER + (ABLATION_EXTRA if ablation else [])
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow(r.to_row(ablation))


def read_report_csv(path) -> list[dict]:
    rows = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty CSV") from None
    if header[:len(RUN_REPORT_HEADER)] != RUN_REPORT_HEADER:
        raise FormatError(f"{path}: unexpected header {header}")
    for lineno, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) != len(header):
            raise FormatError(f"{path}:{lineno}: {len(raw)} fields, "
                              f"expected {len(header)}")
        row = dict(zip(header, raw))
        try:
            row["shots"] = int(row["shots"])
            for key in ("zs_acc", "acc"):
                row[key] = float(row[key])
                if not 0.0 <= row[key] <= 1.0:  # also false for nan
                    raise ValueError(f"{key} {row[key]} is not an accuracy in [0, 1]")
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
        rows.append(row)
    return rows


def summarize(rows: list[dict]) -> dict:
    """Pivot to method x shots mean accuracy, marking best and second best
    per shots column (ties share the mark)."""
    methods = sorted({r["method"] for r in rows})
    shots = sorted({r["shots"] for r in rows})
    cells: dict[str, dict[int, float]] = {m: {} for m in methods}
    for m in methods:
        for s in shots:
            mean_rows = [r for r in rows if r["method"] == m and r["shots"] == s
                         and r["seed"] == "mean"]
            pool = mean_rows or [r for r in rows
                                 if r["method"] == m and r["shots"] == s]
            if pool:
                cells[m][s] = sum(r["acc"] for r in pool) / len(pool)
    best, second = {}, {}
    for s in shots:
        col = sorted({v for m in methods if s in cells[m] for v in [cells[m][s]]},
                     reverse=True)
        if col:
            best[s] = col[0]
        if len(col) > 1:
            second[s] = col[1]
    return {"methods": methods, "shots": shots,
            "cells": {m: {str(s): v for s, v in cells[m].items()} for m in methods},
            "best": {str(s): v for s, v in best.items()},
            "second_best": {str(s): v for s, v in second.items()}}


def format_summary(summary: dict) -> str:
    shots = summary["shots"]
    lines = ["method".ljust(14) + "".join(f"{s:>10}" for s in shots)]
    for m in summary["methods"]:
        parts = [m.ljust(14)]
        for s in shots:
            v = summary["cells"][m].get(str(s))
            if v is None:
                parts.append(" " * 10)
                continue
            mark = ""
            if summary["best"].get(str(s)) == v:
                mark = "*"
            elif summary["second_best"].get(str(s)) == v:
                mark = "+"
            parts.append(f"{v:.4f}{mark}".rjust(10))
        lines.append("".join(parts))
    lines.append("(* best per column, + second best; ties share the mark)")
    return "\n".join(lines)
