"""Ideal arithmetic has one home: the additive span and the proven sum of two
ideals are used only inside `zdgraph/ideals.py`; every other module reaches
them through the ideal layer's helpers."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zdgraph").glob("*.py"))
PRIVATE = {"_known_sum", "_additive_span"}


def _uses(path: Path) -> list[str]:
    """Names in PRIVATE that `path` references, calls or imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in PRIVATE and not isinstance(node, ast.FunctionDef):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_spans_and_sums_stay_in_the_ideal_layer():
    outside = [use for path in SOURCES if path.name != "ideals.py" for use in _uses(path)]
    assert outside == []
