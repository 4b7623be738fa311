"""Every name a module of the package or a test file imports is used there,
outside the tape only the training loop marks what trains, every entry
point the benchmark's span recorder wraps exists, and importing the package
leaves the process alone."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import tiny_config
from lorabench.lora import PlacementConfig, inject
from lorabench.model import DualEncoderModel
from lorabench.optim import AdamW

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in (ROOT / "src" / "lorabench").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import except `from __future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [getattr(n, attr) for n in ast.walk(tree)
                   for attr in ("annotation", "returns") if getattr(n, attr, None)]
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used(ast.parse(c.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.stem for p in MODULES + TESTS])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _sets_grad_flag(node: ast.AST) -> bool:
    """Whether `node` sets a tensor's requires_grad: an attribute store, a
    setattr or a constructor keyword."""
    if isinstance(node, ast.Attribute):
        return node.attr == "requires_grad" and isinstance(node.ctx, ast.Store)
    if isinstance(node, ast.Call):
        is_setattr = isinstance(node.func, ast.Name) and node.func.id == "setattr"
        return (any(k.arg == "requires_grad" for k in node.keywords)
                or is_setattr and any(isinstance(a, ast.Constant)
                                      and a.value == "requires_grad" for a in node.args))
    return False


def test_only_the_training_loop_marks_what_trains():
    # what trains is the list a method hands fewshot.run_training_loop, which
    # marks it for the steps; tensor.py marks the outputs it records
    writers = []
    for path in MODULES:
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text())
        loop = [n for n in tree.body if path.name == "fewshot.py"
                and isinstance(n, ast.FunctionDef) and n.name == "run_training_loop"]
        inside = {i for n in loop for i in range(n.lineno, n.end_lineno + 1)}
        writers += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                    if _sets_grad_flag(n) and n.lineno not in inside]
    assert not writers, f"requires_grad set outside run_training_loop: {writers}"


def test_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {"tensor", "model", "lora", "fewshot",
                                         "baselines", "bench", "cli"}
    assert {p.stem for p in TESTS} >= {"conftest", "test_cli", "test_imports"}


def test_traced_entry_points_exist():
    # perfbench/tracer.py wraps these names; a rename must fail here too
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{attr}" for mod, attr in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(f"lorabench.{mod}"), attr)]
    missing += [f"{mod}.{cls}.{attr}" for mod, cls, attr in tracer.METHODS
                if not hasattr(getattr(importlib.import_module(f"lorabench.{mod}"),
                                       cls, None), attr)]
    assert tracer.FUNCTIONS and tracer.METHODS
    assert not missing, f"traced names missing from lorabench: {missing}"
    # the recorder reads encode_images' image count from args[1] or kwargs["images"]
    encode_images = importlib.import_module("lorabench.model").encode_images
    assert list(inspect.signature(encode_images).parameters)[1] == "images"
    # ...counts lora.inject's trainable tensors with .trainable_count() and
    # AdamW's from its .params
    adapted = inject(DualEncoderModel(tiny_config(), seed=0), PlacementConfig())
    opt = AdamW(adapted.trainable_parameters())
    assert adapted.trainable_count() == sum(p.size for p in opt.params) > 0


# A fresh interpreter reads OpenBLAS's thread count after numpy loads, imports
# every lorabench module, and prints its thread count and OpenBLAS's again.
_IMPORT_EVERYTHING = """
import ctypes, importlib, pathlib, sys, threading
import numpy
libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
blas = [ctypes.CDLL(str(lib)) for lib in sorted(libs.glob("libscipy_openblas*.so*"))]
def blas_threads():
    return [b.scipy_openblas_get_num_threads64_() for b in blas]
before = blas_threads()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(threading.active_count(), before == blas_threads())
"""


def test_importing_starts_no_thread_and_leaves_blas_alone():
    # the policy is the CLI's to set, and the image-block pool starts on use
    names = ["lorabench", *[f"lorabench.{p.stem}" for p in MODULES]]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EVERYTHING, *names],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True"]
