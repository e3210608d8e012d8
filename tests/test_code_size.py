"""The package stays within its line budget: `cat src/sparsepose/*.py | wc -l`
at most 4,750 (ROADMAP item 1, any new module included)."""

from pathlib import Path

BUDGET = 4750


def test_package_within_line_budget():
    files = sorted((Path(__file__).resolve().parent.parent / "src" / "sparsepose").glob("*.py"))
    assert files
    lines = sum(path.read_bytes().count(b"\n") for path in files)  # what wc -l counts
    assert lines <= BUDGET, f"src/sparsepose/*.py has {lines} lines, over the {BUDGET}-line budget"
