"""Benchmark of lorabench, driven through its CLI.

    python3 perfbench/run.py --workload fewshot-lora --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; it imports `src/lorabench` from
there.  Set-up, repeated and timed, starts a fresh interpreter that imports
the CLI, renders the workload's datasets from the seed and writes the base
checkpoint the fine-tune workloads adapt.  Then passes of the workload's
commands repeat, in this process and one at a time, until one more pass
would overrun --seconds.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, from passes run
under the span recorder, alternated with untraced passes to give the
tracing overhead.  Outputs go to .perfbench-work/ in the checkout.  See
perfbench/README.md for the metrics.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPS = 11

# name -> (unit, better) of every end-to-end metric
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "eval_images_per_s": ("images/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "acc_mean": ("fraction", "higher"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fewshot-lora", "ablate-frozen", "pretrain-zeroshot"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads():
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():     # not a git checkout
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _git_commit(ROOT), "src_sha256": source_digest(ROOT / "src"),
            "seed": seed}


# ---------------------------------------------------------------------------
# running commands


class PassStats:
    """Timings, counts and failures of one pass of a workload's commands."""

    def __init__(self):
        self.wall = self.train_s = self.eval_s = 0.0
        self.samples = self.images = self.attempted = 0
        self.accs: list[float] = []
        self.failures: list[str] = []


def run_commands(cli, commands) -> PassStats:
    st = PassStats()
    for cmd in commands:
        st.attempted += 1
        out = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(cmd.argv)
        except Exception:
            code = "exception"
            out.write(traceback.format_exc())
        dt = time.perf_counter() - t
        st.wall += dt
        if cmd.kind == "train":
            st.train_s += dt
            st.samples += cmd.samples
        elif cmd.kind == "eval":
            st.eval_s += dt
            st.images += cmd.images
        if code != 0:
            st.failures.append(f"{cmd.argv[0]} exited {code}: "
                               f"{out.getvalue().strip()[-500:]}")
            continue
        try:
            st.accs.extend(cmd.check())
        except Exception as e:  # any bad or missing output fails the command
            st.failures.append(f"{cmd.argv[0]} check failed: {e!r}")
    return st


def _program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def ensure_base(wl, size, work: Path) -> Path:
    """The base checkpoint, pretrained once per source tree and size and
    reused by later runs; returns its directory.  The CLI runs in a child
    process, so pretraining does not count in this process's peak RSS."""
    key = hashlib.sha256(f"{source_digest(ROOT / 'src')} {size}".encode()).hexdigest()[:16]
    base = work / f"base-{key}"
    if (base / "ckpt" / "manifest.json").is_file():
        return base / "ckpt"
    tmp = work / f"base-{key}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    t = time.perf_counter()
    for cmd in wl.base_commands(size, tmp):
        proc = subprocess.run([sys.executable, "-m", "lorabench.cli", *cmd.argv],
                              env=_program_env(), capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            raise RuntimeError(f"building the base checkpoint: {cmd.argv[0]} exited "
                               f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
        cmd.check()
    tmp.rename(base)
    print(f"built base checkpoint in {time.perf_counter() - t:.1f} s "
          f"(not part of setup_s)", file=sys.stderr)
    return base / "ckpt"


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size=None,
                  work: Path = WORK) -> dict:
    """Set up, run passes for `seconds`, check outputs; returns the result
    object plus a "details" entry that is written to disk, not printed."""
    import lorabench.cli as cli
    import tracer
    import workloads as wl
    size = size or wl.FULL

    work.mkdir(parents=True, exist_ok=True)
    base_cache = ensure_base(wl, size, work)
    run_dir = work / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    rec = tracer.Recorder()

    # one set-up: a fresh interpreter imports the CLI (as every command
    # starts), then this process renders the datasets and writes the base
    setup_times = []
    for r in range(SETUP_REPS):
        with rec if trace else contextlib.nullcontext():
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import lorabench.cli"],
                           env=_program_env(), check=True, timeout=120)
            wl.setup(name, seed, size, base_cache, run_dir / f"setup{r}")
            setup_times.append(time.perf_counter() - t)
    layer_setup = tracer.setup_metrics(rec.spans)
    data_dir = run_dir / f"setup{SETUP_REPS - 1}"

    plain, traced, warmup = [], [], []      # PassStats by kind of pass
    layer, intervals, spans_out = [], [], []
    failures, digests, accs = [], None, None
    t_start = time.perf_counter()
    i = 0
    while True:
        # a traced run warms up with pass 0, then alternates traced and
        # untraced passes, so the overhead ratio compares like with like
        traced_pass = trace and i % 2 == 1
        out = run_dir / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        ctx = wl.Context(seed=seed, size=size, data=data_dir, out=out)
        commands = wl.WORKLOADS[name](ctx)
        t_pass = time.perf_counter()
        if traced_pass:
            rec.reset()
            with rec:
                st = run_commands(cli, commands)
            layer.append(tracer.pass_metrics(rec.spans, rec.nodes, rec.bwd_s))
            intervals += tracer.step_intervals(rec.spans)
            spans_out.append([s.to_dict() for s in rec.spans])
            traced.append(st)
        else:
            st = run_commands(cli, commands)
            (warmup if trace and i == 0 else plain).append(st)
        pass_s = time.perf_counter() - t_pass
        failures += st.failures
        if not st.failures:
            if accs is None:
                accs, digests = st.accs, ctx.digests
            elif (st.accs, ctx.digests) != (accs, digests):
                failures.append(f"pass {i} differs from the first: accuracies "
                                f"{st.accs} vs {accs}, digests {ctx.digests} vs {digests}")
        i += 1
        if i >= (3 if trace else 1) and \
                time.perf_counter() - t_start + pass_s > seconds:
            break

    attempted = sum(st.attempted for st in plain + traced + warmup)
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted)}
    wall = _median([st.wall for st in plain])
    if trace:
        metrics = {k: _median([m[k] for m in layer]) for k in layer[0]}
        metrics.update(layer_setup)
        steps_ms = sorted(1e3 * d for d, _ in intervals)
        metrics["fewshot.step_ms_p50"] = _median(steps_ms)
        metrics["fewshot.step_ms_p90"] = \
            statistics.quantiles(steps_ms, n=10)[8] if len(steps_ms) > 1 else 0.0
        metrics["trace.overhead"] = _median([st.wall for st in traced]) / wall
        units = tracer.PER_LAYER
    else:
        metrics = {
            "setup_s": _median(setup_times),
            "wall_s": wall,
            "train_samples_per_s": _median([st.samples / st.train_s for st in plain]),
            "eval_images_per_s": _median([st.images / st.eval_s for st in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "acc_mean": statistics.fmean(accs) if accs else 0.0,
        }
        units = END_TO_END
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k][0]} for k in units}
    result["details"] = {
        "passes": len(plain) + len(traced) + len(warmup), "traced_passes": len(traced),
        "failed_frac": result["failed"] / attempted,
        "failures": failures, "output_sha256": digests or {},
        "step_samples": len(intervals), "setup_reps_s": setup_times,
        "pass_wall_s": [st.wall for st in plain],
        "traced_pass_wall_s": [st.wall for st in traced], "spans": spans_out,
    }
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lorabench" / "cli.py").is_file():
        print(f"error: no lorabench sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    env = environment(args.seed)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    spans = details.pop("spans")
    run_dir = WORK / args.workload
    (run_dir / "result.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "trace": args.trace,
         "details": details, **result}, indent=1))
    if spans:
        (run_dir / "spans.json").write_text(json.dumps(spans))

    print("env " + json.dumps(env))
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':34s} {details['failed_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} commands)")
    for name, digest in details["output_sha256"].items():
        print(f"sha256 {name} {digest}")
    print(f"passes {details['passes']} (traced {details['traced_passes']}), "
          f"step intervals {details['step_samples']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
