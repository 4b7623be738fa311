"""Tests of the benchmark itself: a tiny smoke run of each workload, the
self-time arithmetic, and that a traced run leaves no wrapper installed.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One work directory per module, so the tiny base checkpoint is built once."""
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_each_workload(name, work):
    result = run.run_benchmark(name, seed=3, seconds=0.1, trace=False,
                               size=wl.TINY, work=work)
    details = result.pop("details")
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    for m in result["metrics"].values():
        assert m["value"] > 0
    digests = {"ablate-frozen": {a[0] for a in wl.ABLATIONS},
               "pretrain-zeroshot": {"pretrain_log.csv", "weights.bin"}}
    assert set(details["output_sha256"]) == digests.get(name, set())


def test_self_time_of_nested_spans():
    # children overlap each other and one runs past the parent's end
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
    assert tracer.self_time(0.0, 10.0, children) == pytest.approx(5.0)
    assert tracer.self_time(0.0, 10.0, []) == pytest.approx(10.0)
    assert tracer.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(0.0)


def _span(name, start, end, parent, info=None):
    s = tracer.Span(name, start, parent, run=1)
    s.end, s.info = end, info
    return s


def test_step_intervals_and_self_time_metrics():
    loop = "fewshot.run_training_loop"
    opt = {"opt": 1, "n": 10}
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span(loop, 1.0, 9.0, 0),
        _span("tensor.Tape.backward", 1.0, 2.0, 1),
        _span("optim.AdamW.step", 2.0, 3.0, 1, opt),     # first step: no start mark
        _span("tensor.Tape.backward", 4.0, 5.0, 1),
        _span("optim.AdamW.step", 5.0, 6.0, 1, opt),     # step [3, 6]: 1 s self
        _span("tensor.Tape.backward", 6.5, 8.0, 1),
        _span("optim.AdamW.step", 8.0, 8.5, 1, opt),     # step [6, 8.5]: 0.5 s self
    ]
    assert tracer.step_intervals(spans) == [(3.0, 1.0), (2.5, 0.5)]
    m = tracer.pass_metrics(spans, {"matmul": 6}, {"matmul": 0.3})
    assert m["fewshot.steps"] == 3
    assert m["tensor.nodes.matmul"] == 2
    assert m["tensor.bwd_ms.matmul"] == pytest.approx(100.0)
    assert m["optim.params_per_step"] == 10
    assert m["cli.self_ms_per_op"] == pytest.approx(2000.0)   # 10 s minus the 8 s loop
    assert m["fewshot.train_s_per_row"] == pytest.approx(8.0)
    assert m["fewshot.loop_self_ms_per_step"] == pytest.approx(750.0)


def _bindings():
    """Identity of every attribute of the package's modules and classes."""
    import lorabench  # noqa: F401
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and mod_name.startswith("lorabench"):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        out[(mod_name, key, attr)] = id(member)
    return out


def test_traced_run_reports_layers_and_restores_program(work):
    before = _bindings()
    result = run.run_benchmark("fewshot-lora", seed=3, seconds=0.1, trace=True,
                               size=wl.TINY, work=work)
    assert _bindings() == before
    details = result.pop("details")
    assert result["correct"], details["failures"]
    assert details["traced_passes"] >= 1 and len(details["pass_wall_s"]) >= 1
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == list(tracer.PER_LAYER)
    steps = wl.TINY.lora_seeds * wl.SHOTS * wl.TINY.lora_iters_per_shot
    assert metrics["fewshot.steps"] == steps
    assert metrics["tensor.nodes_per_step"] == 412
    assert metrics["optim.params_per_step"] == metrics["lora.trainable_params"] == 6144
    assert metrics["bench.rows"] == 2 * wl.TINY.lora_seeds   # finetune + zeroshot rows
    assert metrics["trace.overhead"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [(k, *v) for k, v in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(k, *v) for k, v in tracer.PER_LAYER.items()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fewshot-lora", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_world_prototypes_are_those_of_the_base_dataset():
    """The base checkpoint is pretrained on `gen --seed 0`; the workloads'
    renderings must show it the same classes."""
    import numpy as np
    ds = wl.lb_data.generate_dataset(wl.lb_data.SyntheticDatasetSpec(seed=wl.BASE_SEED))
    world = wl.world_prototypes()
    for k in range(wl.N_CLASSES):
        cells = ds.images[ds.labels == k].mean(axis=0).reshape(4, 4, 4, 4).mean(axis=(1, 3))
        assert np.abs(cells - world[k]).max() < 0.1
