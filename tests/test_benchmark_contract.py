"""The benchmark under perfbench/ wraps zdgraph functions by module and name
and reads some of their arguments; these tests keep an API change from
breaking it unnoticed.  perfbench/spans.py is only read, never imported."""

import ast
import importlib
import inspect
from pathlib import Path

import zdgraph as z

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions() -> list[tuple[str, str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS assignment in {SPANS}")


def test_every_layer_function_resolves():
    layers = _layer_functions()
    assert layers
    for module, name in layers:
        fn = getattr(importlib.import_module(f"zdgraph.{module}"), name, None)
        assert callable(fn), f"zdgraph.{module}.{name}"


def test_arguments_and_result_the_benchmark_reads():
    # spans.install keys build_ipo by r and enumeration by (r, side), by
    # position or keyword, and sums sizes from run_all's report
    assert list(inspect.signature(z.build_ipo).parameters) == ["r", "left", "right"]
    assert list(inspect.signature(z.enumerate_one_sided_ideals).parameters) == ["r", "side"]
    assert isinstance(z.run_all(z.make_cyclic_ring(6)), z.AnalysisReport)
