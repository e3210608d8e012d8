"""Every name a demo imports from the package must exist, and demos 01-06
run end to end in a subprocess: each must exit 0 without a traceback.
Demo 07 trains for minutes, so it runs only a short two-seed sweep."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
LONG_RUNNING = {"07_train_toy.py"}


def package_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "sparsepose":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 7


def run_demo(path, tmp_path, *args):
    # outputs land in tmp_path: the demos write under a temp dir
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(path), *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name not in LONG_RUNNING], ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    run_demo(path, tmp_path)


def test_train_toy_demo_seed_sweep(tmp_path):
    # 2 steps, seeds 0 and 1: one line per seed, then the spread summary
    out = run_demo(ROOT / "demos" / "07_train_toy.py", tmp_path, "2", "2")
    assert "seed 0:" in out and "seed 1:" in out
    assert "/2 seeds pass" in out and "OPENBLAS_NUM_THREADS=" in out and "networks in float32" in out


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [f"{module}.{name}" for module, name in package_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names the package no longer has: {missing}"
