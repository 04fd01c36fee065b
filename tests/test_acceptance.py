"""Acceptance suite: every release criterion, one test per criterion.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured output); failures surface as ordinary assertion errors.
Criterion 7's large instance (base ring Z12) is feature-flagged behind
ZDGRAPH_STRETCH=1 because it is past the default cap; it takes about 1.5 s
and 122 MiB of memory (on a 2-core host).
"""

import json
import math
import os
import time

import pytest

import zdgraph as z
from zdgraph.cli import main as cli_main

from oracles import neighbours, subset_scan_ideals

INF = math.inf

ORACLE_FAMILY = [f"Z{n}" for n in range(2, 17)] + ["Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "M2(Z2)"]


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_01_ideal_oracle_equivalence(rings):
    started = time.monotonic()
    for name in ORACLE_FAMILY:
        ring = rings[name]
        assert ring.order <= 64
        for side in ("left", "right"):
            enumerated = [i.set for i in z.enumerate_one_sided_ideals(ring, side)]
            assert enumerated == subset_scan_ideals(ring, side), (name, side)
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"oracle sweep took {elapsed:.1f}s"
    _report("1 ideal enumeration matches subset scan")


def test_criterion_02_ipo_closure(rings):
    family = {name: rings[name] for name in ORACLE_FAMILY}
    for n in range(2, 61):
        family.setdefault(f"Z{n}", z.make_cyclic_ring(n))
    family["M2(Z3)"] = rings["M2(Z3)"]
    for name, ring in family.items():
        z.prepare_ring_analysis(ring).ipo  # raises ClosureViolationError on any escape
    _report("2 ideal-product semigroups close multiplicatively")


@pytest.fixture(scope="module")
def semigroup_corpus(rings):
    """IPO-derived semigroups plus every order <= 4 semigroup with zero."""
    ring_derived = [z.prepare_ring_analysis(ring).ipo for ring in rings.values()]
    exhaustive = []
    for order in (2, 3, 4):
        exhaustive.extend(z.enumerate_semigroups_with_zero(order))
    return ring_derived, exhaustive


def test_criterion_03_directed_connectivity_iff(semigroup_corpus):
    started = time.monotonic()
    ring_derived, exhaustive = semigroup_corpus
    for s in ring_derived + exhaustive:
        ann = z.ann_sets(s)
        res = z.check_directed_connectivity_iff(z.directed_zd_graph(s, ann), ann)
        assert res.status == "pass", res.witness
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    _report("3 directed connectivity iff annihilator sides match, diameter <= 3")


def test_criterion_04_undirected_connectivity_and_girth(semigroup_corpus):
    ring_derived, exhaustive = semigroup_corpus
    for s in ring_derived + exhaustive:
        g = z.directed_zd_graph(s, z.ann_sets(s))
        res = z.check_undirected_connectivity(g)
        assert res.status == "pass", res.witness
        res = z.check_girth_bound(g)
        assert res.status == "pass", res.witness
    _report("4 undirected graphs connected with diameter <= 3 and girth in {3,4,inf}")


def test_criterion_05_duo_ann_sets(rings):
    checked = 0
    for name, ring in rings.items():
        if ring.is_zero_ring() or not ring.is_commutative():
            continue
        res = z.check_duo_ann_sets(z.prepare_ring_analysis(ring))
        assert res.status == "pass", (name, res.witness)
        checked += 1
    assert checked >= 18
    _report("5 commutative rings: annihilator sides equal everything but {0} and R")


COMPLETENESS_FAMILY = (
    [f"Z{n}" for n in range(2, 31)]
    + ["Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "M2(Z2)"]
)


def test_criterion_06_completeness_trichotomy(rings):
    pool = dict(rings)
    for n in range(17, 31):
        pool[f"Z{n}"] = z.make_cyclic_ring(n)
    seen_complete = {}
    for name in COMPLETENESS_FAMILY:
        ring = pool[name]
        res = z.classify_completeness(z.prepare_ring_analysis(ring))
        assert res.status == "pass", (name, res.witness)
        seen_complete[name] = res.witness["complete"]
        if name == "Z6":
            assert "two_division_rings" in res.witness["branches"]
        if name == "Z8":
            assert "local_ideal_chain" in res.witness["branches"]
    for name in ("Z4", "Z6", "Z8", "Z9"):
        assert seen_complete[name] is True
    assert seen_complete["Z12"] is False
    _report("6 completeness classifier agrees with the built graph on every ring")


MATRIX_BASES = ("Z2", "Z3", "Z4", "Z6")


def test_criterion_07_matrix_diameter_and_girth(rings):
    for name in MATRIX_BASES:
        started = time.monotonic()
        ring = rings[name]
        a = z.prepare_ring_analysis(z.make_matrix_ring(ring, 2))
        lower = z.check_matrix_diam_lower(a)
        monotone = z.check_matrix_diam_monotone(a, z.prepare_ring_analysis(ring))
        girth_res = z.check_matrix_girth(a)
        elapsed = time.monotonic() - started
        assert lower.status == "pass", (name, lower.witness)
        assert monotone.status == "pass", (name, monotone.witness)
        assert girth_res.status == "pass", (name, girth_res.witness)
        assert elapsed < 60, f"M2({name}) took {elapsed:.1f}s"
    _report("7 matrix rings: diameter >= 2, monotone over the base, girth = 3")


@pytest.mark.skipif(
    os.environ.get("ZDGRAPH_STRETCH") != "1",
    reason="1.5 s, 122 MiB stretch instance; set ZDGRAPH_STRETCH=1 to run",
)
def test_criterion_07_stretch_m2_z12(rings):
    started = time.monotonic()
    r12 = rings["Z12"]
    base = z.prepare_ring_analysis(r12)
    ag_diam = z.annihilating_ideal_graph(base).metrics.undirected_diameter
    assert ag_diam == 3
    monotone = z.check_matrix_diam_monotone(
        z.prepare_ring_analysis(z.make_matrix_ring(r12, 2)), base
    )
    assert monotone.status == "pass", monotone.witness
    assert monotone.witness["matrix_diameter"] == 3
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"stretch instance took {elapsed:.1f}s"
    _report("7s matrix ring over Z12 reaches diameter exactly 3")


def test_criterion_08_constructive_paths(rings, semigroup_corpus):
    ring_derived, exhaustive = semigroup_corpus
    for s in ring_derived + exhaustive:
        ann = z.ann_sets(s)
        g = z.directed_zd_graph(s, ann)
        directed_ok = ann.a_left == ann.a_right
        for a in sorted(ann.d_star):
            dist_d = _bfs(neighbours(g, "directed"), a)
            dist_u = _bfs(neighbours(g, "undirected"), a)
            for b in sorted(ann.d_star):
                if a == b:
                    continue
                if directed_ok:
                    path = z.constructive_path(s, a, b, "directed")
                    assert len(path) - 1 <= 3
                    assert dist_d[b] <= len(path) - 1
                path = z.constructive_path(s, a, b, "undirected")
                assert len(path) - 1 <= 3
                assert dist_u[b] <= len(path) - 1
    _report("8 constructive paths valid, length <= 3, dominated by BFS distance")


def _bfs(adj, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_criterion_09_not_tournament(rings):
    applicable = []
    for name, ring in rings.items():
        if ring.is_zero_ring():
            continue
        res = z.check_not_tournament(z.prepare_ring_analysis(ring))
        if res.status != "not-applicable":
            assert res.status == "pass", (name, res.witness)
            applicable.append(name)
    assert "Z6" in applicable
    _report("9 no applicable instance is a tournament")


def test_criterion_10_determinism(tmp_path):
    blobs = []
    for i in range(2):
        json_path = tmp_path / f"r{i}.json"
        dot_path = tmp_path / f"g{i}.dot"
        code = cli_main(
            ["analyze", "M2(Z2)", "--json", str(json_path), "--dot", str(dot_path)]
        )
        assert code == 0
        blobs.append((json_path.read_bytes(), dot_path.read_bytes()))
    assert blobs[0] == blobs[1]
    json.loads(blobs[0][0])  # the report is well-formed JSON
    _report("10 repeated runs produce byte-identical JSON and DOT")
