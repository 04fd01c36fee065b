"""Ideal arithmetic has one home: the additive span and the proven sum of two
ideals are used only inside `zdgraph/ideals.py`; every other module reaches
them through the ideal layer's helpers.  The span itself has one caller, the
sum that no known ideal matches."""

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


def test_the_only_span_is_a_missed_sum():
    # additive generators come from the ideals' own generators, and every
    # pool-pair product from the lattice, so the one span left is in _Sums.add
    spans = [use for path in SOURCES for use in _uses(path) if use.endswith(" _additive_span")]
    tree = ast.parse((SOURCES[0].parent / "ideals.py").read_text())
    sums = next(node for node in tree.body if getattr(node, "name", None) == "_Sums")
    add = next(node for node in sums.body if getattr(node, "name", None) == "add")
    inside_add = [f"ideals.py:{line} _additive_span" for line in range(add.lineno, add.end_lineno + 1)]
    assert len(spans) == 1 and spans[0] in inside_add, spans
