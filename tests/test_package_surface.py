"""The package holds only what its commands and the bench run: every
top-level function and class, and every method that is not a dunder, under
`src/sparsepose` is named somewhere in `src/` or `perfbench/`. A top-level
function or class counts only when it appears as a bare `Name`, as an import
alias or as an attribute of a package-module alias (`ad.gather_rows` for
`autodiff:gather_rows`), so a method of the same name on another object, such
as numpy's `.transpose`, does not hide it. A method counts under any
`Attribute` as well. String constants in `perfbench/` count too, because
its layer hooks patch functions by name. Oracles that only tests and demos
call live in `tests/oracles.py`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsepose"


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(module:qualified name, bare name, whether it is top-level) of each
    function, class and non-dunder method defined at the top of a package
    module."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            yield f"{path.stem}:{node.name}", node.name, True
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{path.stem}:{node.name}.{item.name}", item.name, False


def _module_aliases(tree):
    """Local name -> package module, for each `from . import m [as a]` and
    `from sparsepose import m [as a]` in one file."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 and not node.module
                                                 or node.module == "sparsepose"):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases


def _used_names():
    """(bare names, attribute names, module:name of each attribute of a
    package-module alias)."""
    bare, attributes, qualified = set(), set(), set()
    for directory in (PACKAGE, ROOT / "perfbench"):
        strings = directory.name == "perfbench"
        for _, tree in _trees(directory):
            modules = _module_aliases(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    bare.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in modules:
                        qualified.add(f"{modules[node.value.id]}:{node.attr}")
                elif isinstance(node, ast.alias):
                    bare.add(node.name.split(".")[-1])
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    bare.add(node.value)
    return bare, attributes, qualified


def test_every_package_definition_is_used_by_the_package_or_the_bench():
    bare, attributes, qualified = _used_names()
    unused = [name for name, short, top_level in _definitions()
              if short not in bare and (name not in qualified if top_level else short not in attributes)]
    assert not unused, "defined under src/sparsepose but named nowhere in src/ or perfbench/: " + ", ".join(unused)
