"""The demos are not run by the suite; this checks that every name they
import from the package still exists, without executing them."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def package_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "sparsepose":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    missing = [f"{module}.{name}" for module, name in package_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{path.name} imports names the package no longer has: {missing}"
