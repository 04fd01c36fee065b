"""Each artifact is built once per ring, and reports match the committed
golden bytes (each generated by the code before the refactor it guards)."""

import hashlib
import os
import sys
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import zdgraph as z
from table_rings import draw_permutation, f2_xy, relabelled_table_text, upper_triangular
from zdgraph import graphs
from zdgraph.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
STRETCH = pytest.mark.skipif(
    os.environ.get("ZDGRAPH_STRETCH") != "1",
    reason="order above the default cap, 1-12 s each; set ZDGRAPH_STRETCH=1 to run",
)


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


def _count_cyclic(monkeypatch) -> Counter:
    return _count_calls(monkeypatch, "cyclic_ideals_and_ipo", lambda r: r.name, home=z.semigroups)


def test_run_all_builds_each_artifact_once(rings, monkeypatch):
    ipo, enum = _count_pipeline(monkeypatch)
    cyclic = _count_cyclic(monkeypatch)
    report = z.run_all(rings["M2(Z2)"])
    assert [c.status for c in report.checks[-3:]] == ["pass"] * 3
    assert ipo == {"M2(Z2)": 1}
    assert enum == {("M2(Z2)", "left"): 1, ("M2(Z2)", "right"): 1}
    # the base Z2, which the matrix checks read, takes the divisor builder once
    assert cyclic == {"Z2": 1}


def test_a_ring_that_splits_is_composed_from_its_factors(monkeypatch):
    # M2(Z6) = M2(3Z6) x M2(4Z6), with 3Z6 ~ Z2 and 4Z6 ~ Z3 the corners of
    # Z6 at its central idempotent 3 and at 1 - 3 = 4: only the two factors
    # are enumerated and get an IPO, never the ring of order 1296 itself, and
    # the base Z6 (for the matrix checks) takes the divisor builder
    ipo, enum = _count_pipeline(monkeypatch)
    cyclic = _count_cyclic(monkeypatch)
    report = z.run_all(z.build_ring(z.parse_ring_expr("M2(Z6)")))
    assert (report.ring_order, report.ipo_size) == (1296, 442)
    factors = ("M2(3*(Z6))", "M2(4*(Z6))")
    assert ipo == {f: 1 for f in factors}
    assert enum == {(f, side): 1 for f in factors for side in ("left", "right")}
    assert cyclic == {"Z6": 1}


def test_a_table_ring_is_composed_from_its_blocks(monkeypatch):
    # a relabelled Z2^3 x Z7 splits again and again, down to its four fields;
    # only they are enumerated (one side each) and get an IPO
    ring = z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z2 x Z7"))
    table = z.load_table_ring(relabelled_table_text(ring, draw_permutation(ring.order, 3)))
    ipo = _count_calls(monkeypatch, "build_ipo", lambda r, *a, **k: (r.order, r.name))
    enum = _count_calls(monkeypatch, "enumerate_one_sided_ideals", lambda r, side: (r.order, r.name, side))
    report = z.run_all(table)
    assert (report.left_ideal_count, report.ipo_size) == (16, 16)
    assert sorted(order for order, _ in ipo.elements()) == [2, 2, 2, 7]
    assert sorted(order for order, _, _ in enum.elements()) == [2, 2, 2, 7]
    assert {side for _, _, side in enum} == {"left"}


def test_a_table_ring_is_validated_through_its_split(monkeypatch):
    # the `table` benchmark ring, a relabelled Z2^6 x Z7 (seed 5): Light's
    # test runs once on each of its seven fields and never on a larger
    # table, and each ring's split is computed once, for the validation and
    # the analysis together
    lights = _count_calls(monkeypatch, "_first_non_associative", lambda t, middles: t.shape[0], home=z.rings)
    computed: Counter = Counter()
    split = z.FiniteRing.__dict__["split"]

    def counting_split(ring):
        computed[id(ring)] += 1
        return split.func(ring)

    counted = cached_property(counting_split)
    counted.__set_name__(z.FiniteRing, "split")
    monkeypatch.setattr(z.FiniteRing, "split", counted)
    ring = z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z7"))
    table = z.load_table_ring(relabelled_table_text(ring, draw_permutation(ring.order, 5)))
    assert lights == {2: 6, 7: 1}
    # six splits and seven fields
    assert len(computed) == 13 and set(computed.values()) == {1}
    z.run_all(table)
    assert len(computed) == 13 and set(computed.values()) == {1}
    # a table copy of M2(Z2) does not split: the whole ring takes Light's test
    lights.clear()
    m2z2 = z.make_matrix_ring(z.make_cyclic_ring(2), 2)
    z.load_table_ring(relabelled_table_text(m2z2, draw_permutation(m2z2.order, 1)))
    assert set(lights) == {16}


def test_verify_zn_builds_no_factor_ring(monkeypatch, capsys):
    # Z_n splits like every ring with tables, but `verify zn` analyses each
    # Z_n directly: one divisor build and one validated IPO, on Z_n itself,
    # never on a factor ring, and no enumeration
    ipo, enum = _count_pipeline(monkeypatch)
    cyclic = _count_cyclic(monkeypatch)
    validated = _count_calls(monkeypatch, "validate_semigroup", lambda s, *gens: s.order)
    assert main(["verify", "zn", "--max", "30"]) == 0
    capsys.readouterr()
    assert ipo == enum == {}
    assert cyclic == {f"Z{n}": 1 for n in range(2, 31)}
    # Z_n's IPO has one element per divisor of n
    orders = Counter(sum(n % d == 0 for d in range(1, n + 1)) for n in range(2, 31))
    assert validated == orders


def test_analyze_matrix_of_table_file_builds_inner_ring_once(rings, tmp_path, monkeypatch, capsys):
    r = rings["Z2"]
    rows = [str(r.order)] + [" ".join(map(str, row)) for row in r.add_table.tolist()]
    rows += [" ".join(map(str, row)) for row in r.mul_table.tolist()]
    path = tmp_path / "z2.txt"
    path.write_text("\n".join(rows) + "\n")
    loads = _count_calls(monkeypatch, "load_table_ring", lambda text, cap=None: "file")
    ipo, enum = _count_pipeline(monkeypatch)
    reads = Counter()
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads[self] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    # IPOs and enumerations: Z2 is commutative, so one enumeration serves it,
    # and M2(T(...)) also analyses its base ring for the matrix checks
    for template, ipos, enums in (("M2(T({}))", 2, 3), ("T({})", 1, 1)):
        for counter in (loads, ipo, enum, reads):
            counter.clear()
        assert main(["analyze", template.format(path)]) == 0
        capsys.readouterr()
        assert loads == {"file": 1}
        # one read serves the cap check on the declared order and the tables
        assert reads == {path: 1}
        assert list(ipo.values()) == [1] * ipos
        assert list(enum.values()) == [1] * enums


def test_each_graph_is_measured_once(rings, monkeypatch):
    ann = _count_calls(monkeypatch, "ann_sets", lambda s: s.order)
    metrics = _count_calls(monkeypatch, "compute_graph_metrics", id)
    girths = _count_calls(monkeypatch, "_girth", lambda g, *walks: g.n_vertices, home=graphs)
    levels = _count_calls(monkeypatch, "_diameter", lambda arcs, *view: len(arcs), home=graphs)
    report = z.run_all(rings["M2(Z2)"])
    assert [c.status for c in report.checks[-3:]] == ["pass"] * 3
    # one IPO each for M2(Z2) and Z2
    assert list(ann.values()) == [1, 1]
    # three graphs: both IPO graphs and Z2's annihilating-ideal graph
    assert list(metrics.values()) == [1, 1, 1]
    # a girth search for each graph with an edge: only the M2(Z2) graph has one
    assert girths == {report.vertex_count: 1}
    # one diameter per view of each graph; only the M2(Z2) graph has two
    # vertices, so only its two views are expanded
    assert sum(levels.values()) == 2 * sum(metrics.values())
    assert {n: c for n, c in levels.items() if n >= 2} == {report.vertex_count: 2}


def test_principal_ideals_take_no_span(monkeypatch):
    # every one-sided ideal of these rings is principal, so each sum is read
    # off the known ideals by the product formula, each pool-pair product
    # off the ideal lattice, xR*B = x*(RB) and Rx*B = R*(xB), and the
    # additive generators of each ideal off its generator; an additive span
    # is computed only for a sum no known ideal matches, as in
    # F2[x,y]/(x,y)^2, or a partial sum of images for a first factor with
    # several generators, as in U2(Z4)
    exprs = ("M2(Z4)", "M2(Z6)", "M3(Z2)", "M2(Z9)", "Z8 x M2(Z2)", "Z60", "Z2 x Z2 x Z2 x Z2")
    cases = {e: z.build_ring(z.parse_ring_expr(e)) for e in exprs}
    z2_6xz7 = z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z7"))
    cases["table"] = z.load_table_ring(relabelled_table_text(z2_6xz7, draw_permutation(448, 7)))
    spans = _count_calls(monkeypatch, "_additive_span", lambda *a: "span", home=z.ideals)
    for name, ring in cases.items():
        spans.clear()
        left, right = (z.enumerate_one_sided_ideals(ring, side) for side in ("left", "right"))
        assert spans["span"] == 0, name
        z.build_ipo(ring, left, right)
        assert spans["span"] == 0, name
    spans.clear()
    z.enumerate_one_sided_ideals(f2_xy(), "left")
    assert spans["span"] >= 1
    u2z4 = upper_triangular(4)
    left, right = (z.enumerate_one_sided_ideals(u2z4, side) for side in ("left", "right"))
    spans.clear()
    z.build_ipo(u2z4, left, right)
    # fewer spans than pool members: none for additive generators
    assert spans["span"] < len({i.bits for i in left + right})


def test_verify_semigroups_computes_ann_sets_once_each(monkeypatch, capsys):
    ann = _count_calls(monkeypatch, "ann_sets", lambda s: s.table.tobytes())
    assert main(["verify", "semigroups", "--order", "3"]) == 0
    capsys.readouterr()
    assert len(ann) == len(list(z.enumerate_semigroups_with_zero(3)))
    assert set(ann.values()) == {1}


@pytest.mark.parametrize(
    "stem, expr",
    [
        ("Z12", "Z12"),
        # local with m^2 = 0: both the zero-divisor and the chain branches fire
        ("Z9", "Z9"),
        ("Z2xZ3", "Z2 x Z3"),
        ("M2_Z2", "M2(Z2)"),
        ("M2_Z4", "M2(Z4)"),
        # the three reasons the matrix checks do not apply
        ("M1_Z6", "M1(Z6)"),
        ("M1_M2_Z2", "M1(M2(Z2))"),
        ("M2_Z1", "M2(Z1)"),
        # a product with a matrix factor gets no matrix checks
        ("M2_Z2xZ3", "M2(Z2) x Z3"),
        # a product whose second factor is noncommutative
        ("Z8xM2_Z2", "Z8 x M2(Z2)"),
    ],
)
def test_analyze_matches_golden_bytes(stem, expr, tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["analyze", expr, "--json", "-", "--dot", str(dot)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{stem}.json").read_bytes()
    assert dot.read_bytes() == (GOLDEN / f"{stem}.dot").read_bytes()


def test_z720_and_verify_zn_match_golden_bytes(capsys):
    # Z720 has 30 ideals (d(720) = 30); both pins were written by enumeration
    # and build_ipo, before Z_n took its ideals from the divisors of n
    assert main(["analyze", "Z720", "--json", "-"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "Z720.json").read_bytes()
    assert main(["verify", "zn", "--max", "200"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "verify_zn_200.txt").read_bytes()


@pytest.mark.parametrize(
    "stem, expr, dot_sha256",
    [
        # their DOT files (0.39 MB and up) are pinned by hash only
        ("M2_Z6", "M2(Z6)", "564096aaa18785c25277d8ae393fe3180f30a6db1052d1e1a54deae6518f557b"),
        ("M3_Z2", "M3(Z2)", "a3c9ecc297102d517004e53c8c373d633927bc7f17b1792ff73ee725c62db9ab"),
        # a matrix ring over a product base
        ("M2_of_Z2xZ3", "M2(Z2 x Z3)", "3e3474fb113b3b97225f851f7bea4d7649e8c6ea0f96af8c9ddf7ee55ab3d321"),
        # orders 20,736, 50,625 and 65,536, past the default cap; M2(Z12) is
        # composed from M2(Z4) and M2(Z3), and runs in a few seconds
        ("M2_Z12", "M2(Z12)", "62c64150ba602e5d80bb093833c7b686f43c681dfcd64983e5e1bcd203971d20"),
        pytest.param(
            "M2_Z15", "M2(Z15)", "499a55585152bb4c06f77a8b98d3761c459fdb6827ee9df9cf94727294308e67", marks=STRETCH
        ),
        # the first k = 4 instance of the matrix checks; its DOT text is 400 MB
        pytest.param(
            "M4_Z2", "M4(Z2)", "65613541a8e61090968d1c829317e31740415381160e35b904328393f956a675", marks=STRETCH
        ),
    ],
)
def test_analyze_matches_golden_json_and_dot_hash(stem, expr, dot_sha256, tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["analyze", expr, "--cap", "70000", "--json", "-", "--dot", str(dot)]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{stem}.json").read_bytes()
    # hashed in chunks: the M4(Z2) DOT text is 400 MB
    with dot.open("rb") as f:
        assert hashlib.file_digest(f, "sha256").hexdigest() == dot_sha256
