"""Mutation check: which hand-written bugs the quick suite catches once its
value pins (sha256 digests and pinned float64 histories) are left out.

Each mutant is one text edit (file, old, new) of the source.  The script
copies the repository to a temporary directory, first runs the suite there
unmutated, then applies one mutant at a time, runs

    pytest -m "not slow" -k "not unchanged and not Pinned"

and puts the file back.  A mutant is killed when that run fails.  The
working tree is never edited.  pytest does not collect this file.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py sampler gelu    # mutants whose name has a word

It prints one line per mutant and exits 1 if any mutant survives, and 2 if
the unmutated suite fails or a mutant's `old` text is not found exactly once
(the source moved under it).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUICK = ["-m", "not slow", "-k", "not unchanged and not Pinned"]

TENSOR, MODEL = "src/lorabench/tensor.py", "src/lorabench/model.py"

# (name, file, old, new); each `old` occurs exactly once in its file
MUTANTS = [
    # fused backwards
    ("linear-grad-w-transposed", TENSOR,
     "                x2.T @ g2 if w.requires_grad else None,\n"
     "                _unbroadcast(g, b.data.shape) if b.requires_grad else None)\n\n"
     "    return _record(out, (x, w, b), backward)",
     "                (x2.T @ g2)[::-1] if w.requires_grad else None,\n"
     "                _unbroadcast(g, b.data.shape) if b.requires_grad else None)\n\n"
     "    return _record(out, (x, w, b), backward)"),
    ("lora-grad-x-unmasked", TENSOR,
     "                if mask is not None:\n                    low *= mask\n", ""),
    ("lora-grad-A-undropped", TENSOR,
     "gA = dropped().T @ gu2", "gA = x2.T @ gu2"),
    ("mlp-grad-no-slope", TENSOR, "            gh *= slope\n", ""),
    ("attention-grad-unscaled", TENSOR, "            gs *= scale\n", ""),
    ("layer-norm-grad-no-centring", TENSOR,
     "                        - gxhat.mean(axis=-1, keepdims=True)\n", ""),
    # GELU
    ("gelu-slope-cubic-term", TENSOR, "dinner *= 3 * 0.044715", "dinner *= 0.044715"),
    # dropout
    ("dropout-not-inverted", TENSOR,
     "        mask *= np.asarray(1.0 / (1.0 - p), dtype=dt)\n", ""),
    ("dropout-keeps-below-p", TENSOR,
     "keep = rng.random(xd.shape, dtype=dt) >= p", "keep = rng.random(xd.shape, dtype=dt) < p"),
    # AdamW and the schedule
    ("adamw-no-second-moment-correction", "src/lorabench/optim.py",
     "vhat = self._v[i] / bc2", "vhat = self._v[i]"),
    ("adamw-decay-sign", "src/lorabench/optim.py",
     "update = update + self.weight_decay * p.data",
     "update = update - self.weight_decay * p.data"),
    ("cosine-full-period", "src/lorabench/optim.py",
     "math.cos(math.pi * step / total_steps)", "math.cos(2 * math.pi * step / total_steps)"),
    # batches
    ("sampler-reshuffles-a-batch-early", "src/lorabench/fewshot.py",
     "if len(self._order) < self.batch_size:", "if len(self._order) <= self.batch_size:"),
    # frozen prefixes and the shared features
    ("frozen-prefix-one-too-deep", MODEL,
     "live = (i for i, blk in enumerate(self.blocks)",
     "live = (i + 1 for i, blk in enumerate(self.blocks)"),
    ("frozen-prefix-ignores-embedding", MODEL,
     "        if any(id(p) in trained for _, p in self.embedding_parameters()):\n"
     "            return 0\n", ""),
    ("shared-features-for-a-trained-tower", "src/lorabench/bench.py",
     "frozen = model.visual.frozen_prefix(adapted.trainable_parameters()) == model.cfg.depth",
     "frozen = True"),
    # merge
    ("merge-folds-twice", "src/lorabench/lora.py",
     "w.data = w.data + module.delta()", "w.data = w.data + 2 * module.delta()"),
    # the image-block pool
    ("pool-off-the-main-thread", MODEL,
     "\n            and threading.current_thread() is threading.main_thread() else None)",
     " else None)"),
    # the pooled last block
    ("vision-pools-row-1", MODEL,
     "return enc.forward(x, None, rng, start, stop, np.zeros(b, dtype=np.int64))",
     "return enc.forward(x, None, rng, start, stop, np.ones(b, dtype=np.int64))"),
    ("text-pools-position-0-not-eos", MODEL,
     "return enc.forward(x, mask, rng, start, stop, is_eos.argmax(axis=1))",
     "return enc.forward(x, mask, rng, start, stop, np.zeros(len(tokens), dtype=np.int64))"),
    ("residual-pooled-at-position-0", MODEL,
     "h = add(x if pool_at is None else select_positions(x, pool_at), h)",
     "h = add(x if pool_at is None else select_positions(x, 0 * pool_at), h)"),
    ("o-mask-drawn-at-the-pooled-shape", MODEL,
     "return self.rng.random((b, self.seq, d), dtype=dtype)[np.arange(b), self.pool_at]",
     "return self.rng.random((b, d), dtype=dtype)"),
    ("whole-tower-text-prefix-narrowed", MODEL,
     "    elif start < len(enc.blocks):\n", "    else:\n"),
]


def run_suite(tree: Path) -> tuple[bool, float]:
    """Whether the quick suite passes in `tree`, and its seconds."""
    # no bytecode cache: a restored file may keep the size and mtime second of
    # its mutant, whose cached bytecode would then run in its place
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *QUICK], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode == 0, time.perf_counter() - t0


def main(words: list[str]) -> int:
    chosen = [m for m in MUTANTS if not words or any(w in m[0] for w in words)]
    with tempfile.TemporaryDirectory(prefix="lorabench-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".perfbench-work", "__pycache__", ".hypothesis", ".pytest_cache"))
        for name, rel, old, _ in chosen:
            if (ROOT / rel).read_text().count(old) != 1:
                print(f"{name}: its text is not found exactly once in {rel}")
                return 2
        ok, secs = run_suite(tree)
        print(f"{'unmutated':40} {'passes' if ok else 'FAILS':9} {secs:6.1f} s", flush=True)
        if not ok:
            return 2
        survived = 0
        for name, rel, old, new in chosen:
            path = tree / rel
            source = path.read_text()
            path.write_text(source.replace(old, new))
            passed, secs = run_suite(tree)
            path.write_text(source)
            survived += passed
            print(f"{name:40} {'SURVIVED' if passed else 'killed':9} {secs:6.1f} s", flush=True)
        print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
