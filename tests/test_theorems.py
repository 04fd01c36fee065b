import dataclasses
import json
import math

import numpy as np
import pytest

import zdgraph as z
from zdgraph import theorems

from oracles import (
    additive_closure,
    naive_annihilating_ideal_graph,
    naive_ideal_product,
    neighbours,
    table_completeness_branches,
)
from table_rings import draw_permutation, nonprincipal_rings, relabelled_table_text, upper_triangular

INF = math.inf


def _directed_iff(s):
    ann = z.ann_sets(s)
    return z.check_directed_connectivity_iff(z.directed_zd_graph(s, ann), ann)


def test_directed_iff_on_rings(rings):
    for name in ("Z4", "Z5", "Z6", "Z8", "Z12", "Z2xZ2", "M2(Z2)", "M2(Z3)"):
        res = _directed_iff(z.prepare_ring_analysis(rings[name]).ipo)
        assert res.status == "pass", (name, res.witness)


def test_directed_iff_z12_detail(rings):
    res = _directed_iff(z.prepare_ring_analysis(rings["Z12"]).ipo)
    assert res.witness == {"ann_sides_equal": True, "connected": True, "diameter": 3}


def test_directed_iff_vacuous_on_fields(rings):
    res = _directed_iff(z.prepare_ring_analysis(rings["Z5"]).ipo)
    assert res.status == "pass"
    assert res.witness["diameter"] is None


def test_undirected_and_girth_on_rings(rings):
    for name, ring in rings.items():
        ipo = z.prepare_ring_analysis(ring).ipo
        g = z.directed_zd_graph(ipo, z.ann_sets(ipo))
        assert z.check_undirected_connectivity(g).status == "pass", name
        assert z.check_girth_bound(g).status == "pass", name


# no semigroup fails a check, so the FAIL branches run on hand-built graphs
# and annihilator sets: a directed 5-cycle (strongly connected, diameter 4)
# and an undirected 5-path (diameter 4)
def _graph(arcs, n=5) -> z.ZdGraph:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in arcs:
        adj[i, j] = True
    return z.ZdGraph(range(1, n + 1), [f"v{v}" for v in range(1, n + 1)], adj)


CYCLE5 = [(i, (i + 1) % 5) for i in range(5)]
PATH5 = [(i, i + 1) for i in range(4)]


def test_directed_connectivity_fails_past_diameter_three():
    g = _graph(CYCLE5)
    assert g.metrics.directed_connected and g.metrics.directed_diameter == 4
    everyone = frozenset(range(1, 6))
    res = z.check_directed_connectivity_iff(g, z.AnnSets(everyone, everyone, everyone))
    assert res.status == "fail"
    assert res.witness == {"ann_sides_equal": True, "connected": True, "diameter": 4}


def test_directed_connectivity_fails_when_connectivity_and_ann_sides_disagree():
    g = _graph(CYCLE5)
    ann = z.AnnSets(frozenset(range(1, 6)), frozenset({1, 2, 3}), frozenset({3, 4, 5}))
    res = z.check_directed_connectivity_iff(g, ann)
    assert res.status == "fail"
    assert res.witness["ann_sides_equal"] is False and res.witness["connected"] is True
    assert res.witness["left_only"] == ["v1", "v2"] and res.witness["right_only"] == ["v4", "v5"]


def test_undirected_connectivity_fails_past_diameter_three():
    res = z.check_undirected_connectivity(_graph(PATH5))
    assert res.status == "fail" and res.witness == {"diameter": 4}


def test_duo_ann_sets_fails_with_both_sides_named(rings):
    a = z.prepare_ring_analysis(rings["Z6"])
    v, w = a.graph.vertices
    res = z.check_duo_ann_sets(dataclasses.replace(a, ann=z.AnnSets(frozenset({v, w}), frozenset({v}), frozenset({w}))))
    assert res.status == "fail"
    assert res.witness["expected_vertices"] == [a.graph.label_of(v), a.graph.label_of(w)]
    assert res.witness["a_left"] == [a.graph.label_of(v)] and res.witness["a_right"] == [a.graph.label_of(w)]


def test_not_tournament_fails_on_a_tournament(rings):
    # Z6 meets the hypotheses (the check passes on it); a directed 3-cycle
    # has exactly one arc per pair
    a = z.prepare_ring_analysis(rings["Z6"])
    tournament = _graph([(0, 1), (1, 2), (2, 0)], n=3)
    assert tournament.metrics.tournament
    res = z.check_not_tournament(dataclasses.replace(a, graph=tournament))
    assert res.status == "fail" and res.witness == {"tournament": True}


def test_checks_on_exhaustive_small_semigroups():
    for order in (2, 3):
        for s in z.enumerate_semigroups_with_zero(order):
            g = z.directed_zd_graph(s, z.ann_sets(s))
            assert _directed_iff(s).status == "pass"
            assert z.check_undirected_connectivity(g).status == "pass"
            assert z.check_girth_bound(g).status == "pass"


def test_duo_check(rings):
    assert z.check_duo_ann_sets(z.prepare_ring_analysis(rings["Z12"])).status == "pass"

    res = z.check_duo_ann_sets(z.prepare_ring_analysis(rings["Z2xZ2"]))
    assert res.status == "pass"
    assert res.witness["expected_vertices"] == ["{0,2}", "{0,1}"]

    res = z.check_duo_ann_sets(z.prepare_ring_analysis(rings["M2(Z2)"]))
    assert res.status == "not-applicable"
    assert "not Duo" in res.witness["unmet"]

    res = z.check_duo_ann_sets(z.prepare_ring_analysis(rings["Z1"]))
    assert res.status == "not-applicable"


def test_completeness_classifier(rings):
    expectations = {
        "Z4": (True, {"zero_divisor_products_vanish", "local_ideal_chain"}),
        "Z6": (True, {"two_division_rings"}),
        "Z8": (True, {"local_ideal_chain"}),
        "Z9": (True, {"zero_divisor_products_vanish", "local_ideal_chain"}),
        "Z12": (False, set()),
        "Z16": (False, set()),
        "Z3xZ3": (True, {"two_division_rings"}),
        "Z2xZ4": (False, set()),
        "M2(Z2)": (False, set()),
    }
    for name, (complete, branches) in expectations.items():
        res = z.classify_completeness(z.prepare_ring_analysis(rings[name]))
        assert res.status == "pass", (name, res.witness)
        assert res.witness["complete"] == complete, name
        assert set(res.witness["branches"]) == branches, name


def test_completeness_z8_chain_detail(rings):
    res = z.classify_completeness(z.prepare_ring_analysis(rings["Z8"]))
    assert res.witness["maximal_ideal"] == "{0,2,4,6}"
    assert res.witness["maximal_ideal_squared"] == "{0,4}"


def _lattice_corpus(rings) -> dict:
    pool = dict(rings)
    pool.update({f"Z{n}": z.make_cyclic_ring(n) for n in range(2, 101)})
    pool.update(nonprincipal_rings())
    pool.update({f"U2(Z{n})": upper_triangular(n) for n in (2, 3)})
    z2_6xz7 = z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z2 x Z2 x Z2 x Z2 x Z7"))
    pool["table"] = z.load_table_ring(relabelled_table_text(z2_6xz7, draw_permutation(448, 7)))
    return pool


def test_lattice_checks_match_the_table_form(rings):
    # the classifier's branches read off the ideal lattice and the IPO agree
    # with element-level scans of the tables, witness bytes included
    fired = set()
    for name, ring in _lattice_corpus(rings).items():
        if ring.is_zero_ring():
            continue
        a = z.prepare_ring_analysis(ring)
        res = z.classify_completeness(a)
        branches, detail = table_completeness_branches(a)
        complete = a.graph.metrics.complete
        expected = {"complete": complete, "branches": branches, **detail}
        assert res.status == ("pass" if bool(branches) == complete else "fail"), name
        assert json.dumps(res.witness).encode() == json.dumps(expected).encode(), name
        fired.update(branches)
        if ring.matrix_of is not None and theorems._matrix_unmet(*ring.matrix_of) is None:
            base, k = ring.matrix_of
            e11 = base.one * base.order ** (k * k - 1)
            col, row = theorems._corner_pair(a)
            assert col.bits == additive_closure(ring, np.unique(ring.mul_table[:, e11])).bits
            assert row.bits == additive_closure(ring, np.unique(ring.mul_table[e11, :])).bits
            product = theorems._ipo_product(a, col, row)
            assert product.bits == naive_ideal_product(ring, col.set, row.set).bits, name
    assert fired == {"zero_divisor_products_vanish", "two_division_rings", "local_ideal_chain"}


@pytest.mark.parametrize("name", ["Z6", "Z8", "Z9", "Z3xZ3", "M2(Z2)", "M2(Z3)"])
def test_checks_never_read_the_multiplication_table(rings, name):
    ring = rings[name]
    a = z.prepare_ring_analysis(ring)
    blind = z.FiniteRing(
        ring.add_table, np.zeros_like(ring.mul_table), ring.one, name=ring.name,
        matrix_of=ring.matrix_of,
    )
    b = dataclasses.replace(a, ring=blind)
    assert z.classify_completeness(b) == z.classify_completeness(a)
    if ring.matrix_of is not None:
        assert z.check_matrix_diam_lower(b) == z.check_matrix_diam_lower(a)


def test_not_tournament(rings):
    res = z.check_not_tournament(z.prepare_ring_analysis(rings["Z6"]))
    assert res.status == "pass"
    assert "mutual_pair" in res.witness or "non_adjacent_pair" in res.witness

    res = z.check_not_tournament(z.prepare_ring_analysis(rings["Z4"]))
    assert res.status == "not-applicable"
    assert res.witness["witness_element"] == "{0,2}"

    res = z.check_not_tournament(z.prepare_ring_analysis(rings["Z5"]))
    assert res.status == "not-applicable"
    assert "disjoint" in res.witness["unmet"]


def test_not_tournament_applicable_family(rings):
    applicable = []
    for name, ring in rings.items():
        if ring.is_zero_ring():
            continue
        res = z.check_not_tournament(z.prepare_ring_analysis(ring))
        if res.status != "not-applicable":
            assert res.status == "pass", name
            applicable.append(name)
    assert "Z6" in applicable


def test_matrix_checks(rings):
    for base in ("Z2", "Z3", "Z4"):
        r = rings[base]
        a = z.prepare_ring_analysis(z.make_matrix_ring(r, 2))
        assert z.check_matrix_diam_lower(a).status == "pass"
        assert z.check_matrix_diam_monotone(a, z.prepare_ring_analysis(r)).status == "pass"
        assert z.check_matrix_girth(a).status == "pass"


def test_matrix_checks_witnesses(rings):
    a = z.prepare_ring_analysis(rings["M2(Z2)"])
    res = z.check_matrix_diam_lower(a)
    assert res.witness["corner_pair_present"] and res.witness["corner_product_nonzero"]
    assert res.witness["diameter"] >= 2

    res = z.check_matrix_girth(a)
    assert res.witness["girth"] == 3 and len(res.witness["cycle"]) == 3


def test_matrix_checks_reject_bad_args(rings):
    z6 = z.prepare_ring_analysis(rings["Z6"])
    for check in (z.check_matrix_diam_lower, z.check_matrix_girth):
        with pytest.raises(ValueError, match="not built by make_matrix_ring"):
            check(z6)
    with pytest.raises(ValueError, match="not built by make_matrix_ring"):
        z.check_matrix_diam_monotone(z6, z6)
    noncommutative = z.prepare_ring_analysis(z.make_matrix_ring(rings["M2(Z2)"], 1))
    with pytest.raises(ValueError, match="not commutative"):
        z.check_matrix_diam_lower(noncommutative)
    m1 = z.prepare_ring_analysis(z.make_matrix_ring(rings["Z6"], 1))
    with pytest.raises(ValueError, match="dimension below 2"):
        z.check_matrix_girth(m1)
    m2 = z.prepare_ring_analysis(rings["M2(Z2)"])
    with pytest.raises(ValueError, match="base"):
        z.check_matrix_diam_monotone(m2, z.prepare_ring_analysis(rings["Z3"]))


def test_matrix_checks_over_the_zero_ring(rings):
    z1 = rings["Z1"]
    m = z.make_matrix_ring(z1, 2)
    report = z.run_all(m)
    assert [(c.check_name, c.status, c.witness) for c in report.checks[-3:]] == [
        (name, "not-applicable", {"unmet": "ring has one == zero"})
        for name in ("matrix_diam_lower", "matrix_diam_monotone", "matrix_girth")
    ]
    a = z.prepare_ring_analysis(m)
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_diam_lower(a)
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_diam_monotone(a, z.prepare_ring_analysis(z1))
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_girth(a)


def test_ag_graph_matches_ipo_graph(rings):
    # commutative rings: the directly built annihilating-ideal graph has the
    # same vertex labels and edges as the ideal-product-semigroup graph
    for name in ("Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ4", "Z2xZ2xZ2"):
        ring = rings[name]
        ag = z.annihilating_ideal_graph(z.prepare_ring_analysis(ring))
        ipo = z.prepare_ring_analysis(ring).ipo
        apog = z.directed_zd_graph(ipo, z.ann_sets(ipo))
        ag_vertices = {str(label) for label in ag.labels}
        apog_vertices = {str(label) for label in apog.labels}
        assert ag_vertices == apog_vertices, name
        ag_edges = {
            frozenset((ag.label_of(a), ag.label_of(b))) for a, b in ag.undirected_edges()
        }
        apog_edges = {
            frozenset((apog.label_of(a), apog.label_of(b)))
            for a, b in apog.undirected_edges()
        }
        assert ag_edges == apog_edges, name



def test_ag_graph_matches_the_element_oracle():
    # the table form (generator products) against Ann(I) by elements and
    # adjacency by literal ideal products, on Z2..Z200 and 36 products
    bases = [z.make_cyclic_ring(n) for n in (2, 3, 4, 6, 8, 9)]
    cases = [z.make_cyclic_ring(n) for n in range(2, 201)]
    cases += [z.make_product_ring(a, b) for a in bases for b in bases]
    assert len(cases) == 235
    for ring in cases:
        analysis = z.prepare_ring_analysis(ring)
        ag = z.annihilating_ideal_graph(analysis)
        bits, adj = naive_annihilating_ideal_graph(ring, analysis.left)
        assert [x.bits for x in ag.labels] == bits, ring.name
        assert np.array_equal(ag.adj, adj), ring.name

def test_ag_rejects_noncommutative(rings):
    with pytest.raises(ValueError):
        z.annihilating_ideal_graph(z.prepare_ring_analysis(rings["M2(Z2)"]))


def test_ag_z12_diameter(rings):
    ag = z.annihilating_ideal_graph(z.prepare_ring_analysis(rings["Z12"]))
    assert ag.metrics.undirected_diameter == 3


def test_constructive_path_z12(rings):
    ipo = z.prepare_ring_analysis(rings["Z12"]).ipo
    g = z.directed_zd_graph(ipo, z.ann_sets(ipo))
    by_label = {g.label_of(v): v for v in g.vertices}
    a, b = by_label["{0,2,4,6,8,10}"], by_label["{0,3,6,9}"]
    path = z.constructive_path(ipo, a, b, "directed")
    assert [g.label_of(v) for v in path] == [
        "{0,2,4,6,8,10}",
        "{0,6}",
        "{0,4,8}",
        "{0,3,6,9}",
    ]


def test_constructive_path_adjacent_is_length_one(rings):
    ipo = z.prepare_ring_analysis(rings["Z6"]).ipo
    ann = z.ann_sets(ipo)
    a, b = sorted(ann.d_star)
    assert z.constructive_path(ipo, a, b, "directed") == [a, b]
    assert z.constructive_path(ipo, a, b, "undirected") == [a, b]


def test_constructive_path_requires_hypothesis():
    # 1*1=1, 1*2=2, 2*x=0: element 1 is left-annihilated (2*1=0) but
    # annihilates nothing on the right, so the annihilator sides differ
    t = [[0, 0, 0], [0, 1, 2], [0, 0, 0]]
    s = z.FiniteSemigroupWithZero(t)
    z.validate_semigroup(s)
    ann = z.ann_sets(s)
    assert ann.a_left == {1, 2} and ann.a_right == {2}
    with pytest.raises(ValueError):
        z.constructive_path(s, 1, 2, "directed")
    assert z.constructive_path(s, 1, 2, "undirected") == [1, 2]


def test_constructive_path_rejects_non_vertices(rings):
    ipo = z.prepare_ring_analysis(rings["Z12"]).ipo
    with pytest.raises(ValueError):
        z.constructive_path(ipo, 0, 1)
    with pytest.raises(ValueError):
        z.constructive_path(ipo, 1, 1)


def _bfs_distance(g, a, b, mode):
    adj = neighbours(g, mode)
    frontier, dist, seen = [a], 0, {a}
    while frontier:
        if b in frontier:
            return dist
        dist += 1
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    return None


def test_constructive_path_always_valid_and_short(rings):
    corpus = [z.prepare_ring_analysis(ring).ipo for ring in rings.values()]
    corpus += list(z.enumerate_semigroups_with_zero(3))
    for s in corpus:
        ann = z.ann_sets(s)
        g = z.directed_zd_graph(s, ann)
        directed_ok = ann.a_left == ann.a_right
        for a in sorted(ann.d_star):
            for b in sorted(ann.d_star):
                if a == b:
                    continue
                modes = ["undirected"] + (["directed"] if directed_ok else [])
                for mode in modes:
                    path = z.constructive_path(s, a, b, mode)
                    assert len(path) <= 4
                    bfs = _bfs_distance(g, a, b, mode)
                    assert bfs is not None and bfs <= len(path) - 1


def test_run_all_reports(rings):
    rep = z.run_all(rings["Z8"])
    assert rep.ipo_size == 4 and rep.complete
    assert all(c.status != "fail" for c in rep.checks)

    rep = z.run_all(rings["Z5"])
    assert rep.vertex_count == 0
    assert rep.directed_diameter is None and rep.undirected_diameter is None
    assert all(c.status != "fail" for c in rep.checks)

    rep = z.run_all(rings["Z12"])
    assert rep.directed_diameter == 3 and rep.girth == INF
    assert rep.left_ideal_count == rep.right_ideal_count == 6

    # a matrix ring knows its base: no argument turns the matrix checks on
    rep = z.run_all(z.make_matrix_ring(z.make_cyclic_ring(2), 2))
    names = [c.check_name for c in rep.checks]
    assert names[-3:] == ["matrix_diam_lower", "matrix_diam_monotone", "matrix_girth"]
    assert all(c.status == "pass" for c in rep.checks[-3:])

    # and no other ring gets them, a product with a matrix factor included
    for ring in (rings["Z12"], z.make_product_ring(rings["M2(Z2)"], rings["Z3"])):
        assert not any(c.check_name.startswith("matrix_") for c in z.run_all(ring).checks)


def test_run_all_rejects_the_analysis_of_another_ring(rings):
    z12 = z.prepare_ring_analysis(rings["Z12"])
    with pytest.raises(ValueError, match="analysis given to run_all is of Z12, not Z6"):
        z.run_all(rings["Z6"], analysis=z12)
    with pytest.raises(ValueError):  # equal tables, but another ring object
        z.run_all(z.make_cyclic_ring(12), analysis=z12)
    assert z.run_all(rings["Z12"], analysis=z12).ipo_size == 6


def test_run_all_noncommutative_matrix_base(rings):
    rep = z.run_all(z.make_matrix_ring(rings["M2(Z2)"], 1))
    assert {c.status for c in rep.checks[-3:]} == {"not-applicable"}
