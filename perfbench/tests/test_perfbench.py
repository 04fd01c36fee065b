"""Tests of the benchmark's own code: table relabelling, span arithmetic,
tracing installation and the correctness gate.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import zdgraph  # noqa: E402
import zdgraph.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _as_expected(report: dict) -> dict:
    return {
        "fields": {k: v for k, v in report.items() if k not in ("expr", "checks")},
        "checks": [(c["check_name"], c["status"]) for c in report["checks"]],
    }


def _report(ring) -> dict:
    return json.loads(zdgraph.write_report_json(zdgraph.run_all(ring)))


def _load(path: Path, moduli, seed: int):
    workloads.write_relabelled_table(path, moduli, seed)
    return zdgraph.load_table_ring(path.read_text())


# -- relabelled table rings ------------------------------------------------------


def test_cyclic_product_tables_match_the_constructor():
    add, mul = workloads.cyclic_product_tables((2, 6))
    ring = zdgraph.make_product_ring(zdgraph.make_cyclic_ring(2), zdgraph.make_cyclic_ring(6))
    assert np.array_equal(add, ring.add_table)
    assert np.array_equal(mul, ring.mul_table)


def test_permutation_is_seeded_and_fixes_zero():
    p = workloads.draw_permutation(50, 7)
    assert p[0] == 0 and sorted(p) == list(range(50))
    assert p == workloads.draw_permutation(50, 7)
    assert p != workloads.draw_permutation(50, 8)


def test_relabelled_ring_validates_and_gives_an_equal_report(tmp_path):
    ring = _load(tmp_path / "t.txt", (2, 6), seed=5)  # load_table_ring validates
    zdgraph.validate_ring(ring)
    add, _ = workloads.cyclic_product_tables((2, 6))
    assert not np.array_equal(ring.add_table, add)  # really relabelled
    constructed = zdgraph.make_product_ring(zdgraph.make_cyclic_ring(2), zdgraph.make_cyclic_ring(6))
    assert workloads.compare_report(_report(ring), _as_expected(_report(constructed))) == []


def test_another_seed_gives_another_file_with_the_same_sizes(tmp_path):
    a = _load(tmp_path / "a.txt", (2, 2, 3), seed=1)
    b = _load(tmp_path / "b.txt", (2, 2, 3), seed=2)
    assert (tmp_path / "a.txt").read_text() != (tmp_path / "b.txt").read_text()
    sizes = ("ring_order", "left_ideal_count", "right_ideal_count", "ipo_size", "vertex_count")
    ra, rb = _report(a), _report(b)
    assert [ra[k] for k in sizes] == [rb[k] for k in sizes]


# -- span arithmetic -------------------------------------------------------------


def _span(name, parent, start, end, attrs=None):
    return spans.Span(name, start, parent, start, end, attrs)


def test_covered_time_merges_overlaps():
    assert spans.covered_ns([]) == 0
    assert spans.covered_ns([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26


def test_self_time_of_nested_spans():
    s = [
        _span("cli.main", None, 0, 100),
        _span("theorems.run_all", 0, 10, 40),
        _span("semigroups.build_ipo", 1, 20, 30, {"key": "ring"}),
        _span("theorems.run_all", 0, 50, 70),
        _span("expr.build_ring", None, 200, 260),
        _span("expr.build_ring", 4, 210, 250),  # recursion
        _span("expr.build_ring", 5, 220, 230),
    ]
    assert spans.self_times_ns(s) == [50, 20, 10, 20, 20, 30, 10]
    m = spans.layer_metrics(s)
    assert m["cli.main.self_s"] == pytest.approx(50e-9)
    assert m["theorems.run_all.s"] == pytest.approx(50e-9)
    assert m["theorems.run_all.self_s"] == pytest.approx(40e-9)
    assert m["expr.build_ring.s"] == pytest.approx(60e-9)  # recursion counted once
    assert m["expr.build_ring.self_s"] == pytest.approx(60e-9)
    assert m["expr.build_ring.calls"] == 3
    assert m["rings.validate_ring.calls"] == 0
    assert m["semigroups.build_ipo.useful_ratio"] == 1


def test_generator_is_timed_while_consumed():
    tracer = spans.Tracer()

    def items():
        for i in range(3):
            time.sleep(0.01)
            yield i

    gen = tracer.wrap(items, "semigroups.enumerate_semigroups_with_zero")()
    time.sleep(0.2)  # neither the call nor this wait is inside a span
    assert tracer.spans == []
    assert list(gen) == [0, 1, 2]
    m = spans.layer_metrics(tracer.spans)
    assert len(tracer.spans) == 4  # three items and the final resume
    assert m["semigroups.enumerate_semigroups_with_zero.calls"] == 1
    assert 0.03 <= m["semigroups.enumerate_semigroups_with_zero.s"] < 0.2


def test_install_traces_every_binding_and_counts_rebuilds():
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        modules = {m.__name__ for m, _, _ in replaced}
        assert {"zdgraph", "zdgraph.cli", "zdgraph.theorems", "zdgraph.semigroups"} <= modules
        with redirect_stdout(io.StringIO()):
            assert zdgraph.cli.main(["analyze", "M2(Z2)", "--json", "-"]) == 0
    finally:
        for mod, attr, orig in replaced:
            setattr(mod, attr, orig)
    assert zdgraph.build_ipo is zdgraph.semigroups.build_ipo
    m = spans.layer_metrics(tracer.spans)
    assert m["cli.main.calls"] == 1
    assert m["semigroups.build_ipo.calls"] == 5
    assert m["semigroups.build_ipo.useful_ratio"] == pytest.approx(2 / 5)
    assert m["ideals.enumerate_one_sided_ideals.calls"] == 13
    assert m["semigroups.validate_semigroup.calls"] == 5
    assert m["size.ring_order"] == 16
    assert m["cli.main.self_s"] < m["cli.main.s"]


# -- correctness gate --------------------------------------------------------------


def test_gate_rejects_a_changed_report():
    report = {
        "expr": "M2(Z7)",
        **workloads.EXPECTED_REPORTS["wide"]["fields"],
        "checks": [{"check_name": n, "status": s, "witness": {}}
                   for n, s in workloads.EXPECTED_REPORTS["wide"]["checks"]],
    }
    assert workloads.gate("wide", [json.dumps(report)], [0]) == (1, 0, [])
    report["ipo_size"] = 81
    assert workloads.gate("wide", [json.dumps(report)], [0])[:2] == (1, 1)
    assert workloads.gate("wide", [""], [-1])[:2] == (1, 1)


def test_gate_counts_sweep_instances():
    zn = "".join(f"Z{n}: 3 passed, 0 failed, 3 n/a\n" for n in range(2, 201))
    sg = "order 4: 442 semigroups with zero, 0 failing checks\n"
    good = zn + "199 instances, 0 failing checks\n"
    assert workloads.gate("sweep", [good, sg], [0, 0]) == (641, 0, [])
    bad = good.replace("Z60: 3 passed, 0 failed", "Z60: 2 passed, 1 failed")
    assert workloads.gate("sweep", [bad, sg], [2, 0])[:2] == (641, 1)
    short = "order 4: 440 semigroups with zero, 0 failing checks\n"
    assert workloads.gate("sweep", [good, short], [0, 0])[:2] == (641, 2)


# -- the benchmark as a whole ------------------------------------------------------


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["ipo", "table", "sweep"]
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in run.PER_LAYER
    }


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "ipo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
