"""Each artifact is built once per ring, and reports match the committed
golden bytes (generated before the build-once refactor)."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import zdgraph as z
from zdgraph import graphs
from zdgraph.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def _count_calls(monkeypatch, name: str, key, home=z) -> Counter:
    """Wrap `name` (as bound in `home`) in every zdgraph module that binds it;
    count calls by key(args)."""
    orig = getattr(home, name)
    calls: Counter = Counter()

    def wrapper(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "zdgraph" and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def _count_pipeline(monkeypatch) -> tuple[Counter, Counter]:
    ipo = _count_calls(monkeypatch, "build_ipo", lambda r, *a, **k: r.name)
    enum = _count_calls(
        monkeypatch, "enumerate_one_sided_ideals", lambda r, side: (r.name, side)
    )
    return ipo, enum


def test_run_all_builds_each_artifact_once(rings, monkeypatch):
    ipo, enum = _count_pipeline(monkeypatch)
    report = z.run_all(rings["M2(Z2)"], matrix=(rings["Z2"], 2))
    assert [c.status for c in report.checks[-3:]] == ["pass"] * 3
    assert ipo == {"M2(Z2)": 1, "Z2": 1}
    # Z2 is commutative: one enumeration serves both sides
    assert enum == {("M2(Z2)", "left"): 1, ("M2(Z2)", "right"): 1, ("Z2", "left"): 1}


def test_analyze_matrix_of_table_file_builds_inner_ring_once(rings, tmp_path, monkeypatch, capsys):
    r = rings["Z2"]
    rows = [str(r.order)] + [" ".join(map(str, row)) for row in r.add_table.tolist()]
    rows += [" ".join(map(str, row)) for row in r.mul_table.tolist()]
    path = tmp_path / "z2.txt"
    path.write_text("\n".join(rows) + "\n")
    loads = _count_calls(monkeypatch, "load_table_ring", lambda text, cap=None: "file")
    ipo, enum = _count_pipeline(monkeypatch)
    assert main(["analyze", f"M2(T({path}))"]) == 0
    capsys.readouterr()
    assert loads == {"file": 1}
    assert sorted(ipo.values()) == [1, 1]
    assert sorted(enum.values()) == [1, 1, 1]


def test_each_graph_is_measured_once(rings, monkeypatch):
    ann = _count_calls(monkeypatch, "ann_sets", lambda s: s.order)
    metrics = _count_calls(monkeypatch, "compute_graph_metrics", id)
    girths = _count_calls(monkeypatch, "girth_with_cycle", id, home=graphs)
    levels = _count_calls(monkeypatch, "_matrix_levels", lambda adj: len(adj), home=graphs)
    report = z.run_all(rings["M2(Z2)"], matrix=(rings["Z2"], 2))
    assert [c.status for c in report.checks[-3:]] == ["pass"] * 3
    # one IPO each for M2(Z2) and Z2
    assert list(ann.values()) == [1, 1]
    # three graphs: both IPO graphs and Z2's annihilating-ideal graph
    assert list(metrics.values()) == [1, 1, 1]
    assert girths == metrics
    # only the M2(Z2) graph has two vertices: one expansion per view
    assert levels == {report.vertex_count: 2}


def test_verify_semigroups_computes_ann_sets_once_each(monkeypatch, capsys):
    ann = _count_calls(monkeypatch, "ann_sets", lambda s: s.table.tobytes())
    assert main(["verify", "semigroups", "--order", "3"]) == 0
    capsys.readouterr()
    assert len(ann) == len(list(z.enumerate_semigroups_with_zero(3)))
    assert set(ann.values()) == {1}


@pytest.mark.parametrize(
    "stem, expr",
    [("Z12", "Z12"), ("Z2xZ3", "Z2 x Z3"), ("M2_Z2", "M2(Z2)"), ("M2_Z4", "M2(Z4)")],
)
def test_analyze_matches_golden_bytes(stem, expr, tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["analyze", expr, "--json", "-", "--dot", str(dot)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{stem}.json").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"{stem}.dot").read_bytes()
