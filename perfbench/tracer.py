"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each lorabench layer from the
outside: every module of the package that binds one of them gets a timing
wrapper in its place, so calls are caught in the module that makes them.
`Tape.record` is wrapped too, to count tape nodes per op and to time each
node's backward closure.  Spans stay in memory; `restore` puts every original
back, so an untraced pass runs the program untouched.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped function; the span is named
# "<layer>.<attribute>" after the module that defines it.
FUNCTIONS = [
    ("cli", "main"),
    ("bench", "run_single"), ("bench", "run_ablation"),
    ("fewshot", "evaluate"), ("fewshot", "finetune_lora"),
    ("fewshot", "run_training_loop"), ("fewshot", "contrastive_pretrain"),
    ("model", "encode_images"), ("model", "encode_tokens"),
    ("model", "load_checkpoint"), ("model", "save_checkpoint"),
    ("lora", "inject"), ("lora", "merge"), ("lora", "unmerge"),
    ("baselines", "soft_prompt_finetune"), ("baselines", "bias_only_finetune"),
    ("baselines", "adapter_finetune"),
    ("data", "generate_dataset"), ("data", "save_dataset"), ("data", "load_dataset"),
    ("report", "write_report_csv"),
]
# (module, class, method) of every wrapped method
METHODS = [("optim", "AdamW", "step"), ("tensor", "Tape", "backward")]

OPS = ("matmul", "add", "mul", "transpose", "reshape", "layer_norm",
       "row_softmax", "gelu", "dropout", "concat")

# Spans whose AdamW steps make up a training loop.
TRAIN_LOOPS = ("fewshot.run_training_loop", "fewshot.contrastive_pretrain",
               "baselines.adapter_finetune")

# name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = {
    "tensor.nodes_per_step": ("count", "lower"),
    "tensor.backward_ms_per_step": ("ms", "lower"),
    **{f"tensor.nodes.{op}": ("count", "lower") for op in OPS},
    **{f"tensor.bwd_ms.{op}": ("ms", "lower") for op in OPS},
    "model.image_fwd_ms_per_step": ("ms", "lower"),
    "model.text_fwd_ms_per_step": ("ms", "lower"),
    "model.frozen_fwd_ms_per_step": ("ms", "lower"),
    "model.eval_fwd_us_per_image": ("us", "lower"),
    "model.load_checkpoint_ms": ("ms", "lower"),
    "model.save_checkpoint_ms": ("ms", "lower"),
    "lora.inject_ms": ("ms", "lower"),
    "lora.merge_ms": ("ms", "lower"),
    "lora.unmerge_ms": ("ms", "lower"),
    "lora.trainable_params": ("count", "lower"),
    "optim.adamw_ms_per_step": ("ms", "lower"),
    "optim.params_per_step": ("count", "lower"),
    "fewshot.step_ms_p50": ("ms", "lower"),
    "fewshot.step_ms_p90": ("ms", "lower"),
    "fewshot.loop_self_ms_per_step": ("ms", "lower"),
    "fewshot.train_s_per_row": ("s", "lower"),
    "fewshot.evaluate_ms": ("ms", "lower"),
    "fewshot.steps": ("count", "lower"),
    "baselines.soft_prompt_s": ("s", "lower"),
    "baselines.bias_only_s": ("s", "lower"),
    "baselines.adapter_s": ("s", "lower"),
    "data.generate_ms": ("ms", "lower"),
    "data.save_ms": ("ms", "lower"),
    "data.load_ms": ("ms", "lower"),
    "bench.run_single_self_ms": ("ms", "lower"),
    "bench.rows": ("count", "higher"),
    "bench.cells_skipped": ("count", "lower"),
    "report.write_ms": ("ms", "lower"),
    "cli.self_ms_per_op": ("ms", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


class Span:
    """One call of a wrapped entry point.  `parent` is the index of the
    enclosing span in the recorder's list, `run` the id shared by every span
    under one top-level call (one CLI command)."""

    __slots__ = ("name", "start", "end", "parent", "run", "info")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end = name, start, start
        self.parent, self.run, self.info = parent, run, None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run, "info": self.info}


def _info_encode_images(args, kwargs, out, tape_cls):
    images = args[1] if len(args) > 1 else kwargs["images"]
    return {"n": len(images), "tape": tape_cls.current() is not None,
            "grad": out.requires_grad}


def _info_encode_tokens(args, kwargs, out, tape_cls):
    return {"tape": tape_cls.current() is not None, "grad": out.requires_grad}


def _info_adamw(args, kwargs, out, tape_cls):
    opt = args[0]
    return {"opt": id(opt), "n": sum(p.data.size for p in opt.params)}


# span name -> function of (args, kwargs, result, Tape class) giving span.info
_INFO = {
    "model.encode_images": _info_encode_images,
    "model.encode_tokens": _info_encode_tokens,
    "optim.AdamW.step": _info_adamw,
    "lora.inject": lambda args, kwargs, out, tape_cls: {"n": out.trainable_count()},
    "bench.run_ablation": lambda args, kwargs, out, tape_cls: {"skipped": len(out[1])},
}


class Recorder:
    """In-memory spans plus per-op tape counters, installed by `install` and
    removed by `restore` (also usable as a context manager)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.nodes: dict[str, int] = defaultdict(int)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._runs = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop recorded spans and counters; wrappers stay installed."""
        self.spans = []
        self.nodes = defaultdict(int)
        self.bwd_s = defaultdict(float)
        self._stack = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, tape_cls):
        info_fn = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._runs += 1
                run = self._runs
            else:
                run = self.spans[parent].run
            span = Span(name, 0.0, parent, run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info_fn is not None:
                span.info = info_fn(args, kwargs, out, tape_cls)
            return out

        return wrapper

    def _wrap_record(self, record):
        @functools.wraps(record)
        def wrapper(tape, out, inputs, backward):
            # ops define their backward closure inside the op function, so
            # "matmul.<locals>.backward" names the op "matmul"
            op = backward.__qualname__.split(".", 1)[0]
            self.nodes[op] += 1

            def timed_backward(g):
                t = time.perf_counter()
                grads = backward(g)
                self.bwd_s[op] += time.perf_counter() - t
                return grads

            return record(tape, out, inputs, timed_backward)

        return wrapper

    # -- install / restore -----------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("recorder already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lorabench" or n.startswith("lorabench."))]
        tape_cls = sys.modules["lorabench.tensor"].Tape
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"lorabench.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, tape_cls)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"lorabench.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{mod_name}.{cls_name}.{attr}",
                                          original, tape_cls))
        original = tape_cls.__dict__["record"]
        self._patches.append((tape_cls, "record", original))
        tape_cls.record = self._wrap_record(original)
        return self

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# derivation


def self_time(start: float, end: float, children) -> float:
    """Length of [start, end] not covered by any of the (start, end) child
    intervals; overlapping children are counted once."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    return kids


def step_intervals(spans) -> list[tuple[float, float]]:
    """(duration, self time) of each training step, in seconds.

    A step runs from the end of one AdamW step to the end of the next one of
    the same optimizer inside the same loop span; the first step of each loop
    has no start mark and is left out.  Its self time excludes the spans of
    the loop's direct children (forward passes, backward, AdamW) inside it.
    """
    kids = _children(spans)
    last_end: dict[tuple, float] = {}
    out = []
    for s in spans:
        if s.name != "optim.AdamW.step":
            continue
        key = (s.parent, s.info["opt"])
        if key in last_end:
            a, b = last_end[key], s.end
            inner = [(c.start, c.end) for c in kids[s.parent]
                     if c.start >= a and c.end <= b]
            out.append((b - a, self_time(a, b, inner)))
        last_end[key] = s.end
    return out


def pass_metrics(spans, nodes, bwd_s) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the step-time
    percentiles and the tracing overhead, which need several passes."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    kids = _children(spans)
    index = {id(s): i for i, s in enumerate(spans)}

    def total(name, pred=lambda s: True):
        return sum(s.duration for s in by_name[name] if pred(s))

    def mean_ms(name):
        return _mean_ms(by_name[name])

    def mean_self_ms(name):
        calls = by_name[name]
        if not calls:
            return 0.0
        return 1e3 * statistics.fmean(
            self_time(s.start, s.end, [(c.start, c.end) for c in kids[index[id(s)]]])
            for s in calls)

    adamw = by_name["optim.AdamW.step"]
    steps = len(adamw)

    def per_step(x):
        return x / steps if steps else 0.0

    under_tape = lambda grad: (lambda s: s.info["tape"] and s.info["grad"] == grad)
    frozen = (total("model.encode_images", under_tape(False))
              + total("model.encode_tokens", under_tape(False)))
    eval_calls = [s for s in by_name["model.encode_images"] if not s.info["tape"]]
    eval_images = sum(s.info["n"] for s in eval_calls)
    injects = by_name["lora.inject"]
    loops = [s for name in TRAIN_LOOPS for s in by_name[name]]
    intervals = step_intervals(spans)

    return {
        "tensor.nodes_per_step": per_step(sum(nodes.values())),
        "tensor.backward_ms_per_step": per_step(1e3 * total("tensor.Tape.backward")),
        **{f"tensor.nodes.{op}": per_step(nodes.get(op, 0)) for op in OPS},
        **{f"tensor.bwd_ms.{op}": per_step(1e3 * bwd_s.get(op, 0.0)) for op in OPS},
        "model.image_fwd_ms_per_step":
            per_step(1e3 * total("model.encode_images", under_tape(True))),
        "model.text_fwd_ms_per_step":
            per_step(1e3 * total("model.encode_tokens", under_tape(True))),
        "model.frozen_fwd_ms_per_step": per_step(1e3 * frozen),
        "model.eval_fwd_us_per_image":
            1e6 * sum(s.duration for s in eval_calls) / eval_images if eval_images else 0.0,
        "model.load_checkpoint_ms": mean_ms("model.load_checkpoint"),
        "model.save_checkpoint_ms": mean_ms("model.save_checkpoint"),
        "lora.inject_ms": mean_ms("lora.inject"),
        "lora.merge_ms": mean_ms("lora.merge"),
        "lora.unmerge_ms": mean_ms("lora.unmerge"),
        "lora.trainable_params":
            statistics.fmean(s.info["n"] for s in injects) if injects else 0,
        "optim.adamw_ms_per_step": per_step(1e3 * total("optim.AdamW.step")),
        "optim.params_per_step": per_step(sum(s.info["n"] for s in adamw)),
        "fewshot.loop_self_ms_per_step":
            1e3 * statistics.fmean(x for _, x in intervals) if intervals else 0.0,
        "fewshot.train_s_per_row":
            sum(s.duration for s in loops) / len(loops) if loops else 0.0,
        "fewshot.evaluate_ms": mean_ms("fewshot.evaluate"),
        "fewshot.steps": steps,
        "baselines.soft_prompt_s": total("baselines.soft_prompt_finetune"),
        "baselines.bias_only_s": total("baselines.bias_only_finetune"),
        "baselines.adapter_s": total("baselines.adapter_finetune"),
        "data.load_ms": mean_ms("data.load_dataset"),
        "bench.run_single_self_ms": mean_self_ms("bench.run_single"),
        "bench.rows": len(by_name["bench.run_single"]),
        "bench.cells_skipped": sum(s.info["skipped"] for s in by_name["bench.run_ablation"]),
        "report.write_ms": mean_ms("report.write_report_csv"),
        "cli.self_ms_per_op": mean_self_ms("cli.main"),
    }


def _mean_ms(calls) -> float:
    return 1e3 * sum(s.duration for s in calls) / len(calls) if calls else 0.0


def setup_metrics(spans) -> dict[str, float]:
    """Mean per-call time of dataset generation and saving during set-up."""
    return {"data.generate_ms": _mean_ms([s for s in spans if s.name == "data.generate_dataset"]),
            "data.save_ms": _mean_ms([s for s in spans if s.name == "data.save_dataset"])}
