"""The package holds only what its commands and the bench run: every
top-level function and class, and every method that is not a dunder, under
`src/sparsepose` is named somewhere in `src/` or `perfbench/`. A name counts
when it appears as a `Name`, an `Attribute` or an import alias; string
constants in `perfbench/` count too, because its layer hooks patch functions
by name. Oracles that only tests and demos call live in `tests/oracles.py`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsepose"


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(module:qualified name, bare name) of each function, class and
    non-dunder method defined at the top of a package module."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            yield f"{path.stem}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{path.stem}:{node.name}.{item.name}", item.name


def _used_names():
    used = set()
    for directory in (PACKAGE, ROOT / "perfbench"):
        strings = directory.name == "perfbench"
        for _, tree in _trees(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.split(".")[-1])
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def test_every_package_definition_is_used_by_the_package_or_the_bench():
    used = _used_names()
    unused = [qualified for qualified, name in _definitions() if name not in used]
    assert not unused, "defined under src/sparsepose but named nowhere in src/ or perfbench/: " + ", ".join(unused)
