import math

import pytest

import zdgraph as z

INF = math.inf


def _directed_iff(s):
    ann = z.ann_sets(s)
    return z.check_directed_connectivity_iff(z.directed_zd_graph(s, ann), ann)


def test_directed_iff_on_rings(rings):
    for name in ("Z4", "Z5", "Z6", "Z8", "Z12", "Z2xZ2", "M2(Z2)", "M2(Z3)"):
        res = _directed_iff(z.build_ipo(rings[name]))
        assert res.status == "pass", (name, res.witness)


def test_directed_iff_z12_detail(rings):
    res = _directed_iff(z.build_ipo(rings["Z12"]))
    assert res.witness == {"ann_sides_equal": True, "connected": True, "diameter": 3}


def test_directed_iff_vacuous_on_fields(rings):
    res = _directed_iff(z.build_ipo(rings["Z5"]))
    assert res.status == "pass"
    assert res.witness["diameter"] is None


def test_undirected_and_girth_on_rings(rings):
    for name, ring in rings.items():
        ipo = z.build_ipo(ring)
        g = z.directed_zd_graph(ipo, z.ann_sets(ipo))
        assert z.check_undirected_connectivity(g).status == "pass", name
        assert z.check_girth_bound(g).status == "pass", name


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
        assert z.check_matrix_diam_lower(a, r, 2).status == "pass"
        assert z.check_matrix_diam_monotone(a, z.prepare_ring_analysis(r), 2).status == "pass"
        assert z.check_matrix_girth(a, r, 2).status == "pass"


def test_matrix_checks_witnesses(rings):
    a = z.prepare_ring_analysis(rings["M2(Z2)"])
    res = z.check_matrix_diam_lower(a, rings["Z2"], 2)
    assert res.witness["corner_pair_present"] and res.witness["corner_product_nonzero"]
    assert res.witness["diameter"] >= 2

    res = z.check_matrix_girth(a, rings["Z2"], 2)
    assert res.witness["girth"] == 3 and len(res.witness["cycle"]) == 3


def test_matrix_checks_reject_bad_args(rings):
    # (base, k) is rejected before the analysis is read: M2(M2(Z2)) is over
    # the size cap, so the analysis of M2(Z2) stands in for it
    m2 = z.prepare_ring_analysis(rings["M2(Z2)"])
    with pytest.raises(ValueError):
        z.check_matrix_diam_lower(m2, rings["M2(Z2)"], 2)
    m1 = z.prepare_ring_analysis(z.make_matrix_ring(rings["Z6"], 1))
    with pytest.raises(ValueError):
        z.check_matrix_girth(m1, rings["Z6"], 1)


def test_matrix_checks_over_the_zero_ring(rings):
    z1 = rings["Z1"]
    m = z.make_matrix_ring(z1, 2)
    report = z.run_all(m, matrix=(z1, 2))
    assert [(c.check_name, c.status, c.witness) for c in report.checks[-3:]] == [
        (name, "not-applicable", {"unmet": "ring has one == zero"})
        for name in ("matrix_diam_lower", "matrix_diam_monotone", "matrix_girth")
    ]
    a = z.prepare_ring_analysis(m)
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_diam_lower(a, z1, 2)
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_diam_monotone(a, z.prepare_ring_analysis(z1), 2)
    with pytest.raises(ValueError, match="one == zero"):
        z.check_matrix_girth(a, z1, 2)


def test_ag_graph_matches_ipo_graph(rings):
    # commutative rings: the directly built annihilating-ideal graph has the
    # same vertex labels and edges as the ideal-product-semigroup graph
    for name in ("Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ4", "Z2xZ2xZ2"):
        ring = rings[name]
        ag = z.annihilating_ideal_graph(z.prepare_ring_analysis(ring))
        ipo = z.build_ipo(ring)
        apog = z.directed_zd_graph(ipo, z.ann_sets(ipo))
        ag_vertices = {str(ag.label_value(v)) for v in ag.vertices}
        apog_vertices = {str(apog.label_value(v)) for v in apog.vertices}
        assert ag_vertices == apog_vertices, name
        ag_edges = {
            frozenset((ag.label_of(a), ag.label_of(b))) for a, b in ag.undirected_edges()
        }
        apog_edges = {
            frozenset((apog.label_of(a), apog.label_of(b)))
            for a, b in apog.undirected_edges()
        }
        assert ag_edges == apog_edges, name


def test_ag_rejects_noncommutative(rings):
    with pytest.raises(ValueError):
        z.annihilating_ideal_graph(z.prepare_ring_analysis(rings["M2(Z2)"]))


def test_ag_z12_diameter(rings):
    ag = z.annihilating_ideal_graph(z.prepare_ring_analysis(rings["Z12"]))
    assert z.undirected_diameter(ag) == 3


def test_constructive_path_z12(rings):
    ipo = z.build_ipo(rings["Z12"])
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
    ipo = z.build_ipo(rings["Z6"])
    ann = z.ann_sets(ipo)
    a, b = sorted(ann.d_star)
    assert z.constructive_path(ipo, a, b, "directed") == [a, b]
    assert z.constructive_path(ipo, a, b, "undirected") == [a, b]


def test_constructive_path_requires_hypothesis():
    # 1*1=1, 1*2=2, 2*x=0: element 1 is left-annihilated (2*1=0) but
    # annihilates nothing on the right, so the annihilator sides differ
    t = [[0, 0, 0], [0, 1, 2], [0, 0, 0]]
    s = z.semigroup_from_table(t, zero_index=0)
    ann = z.ann_sets(s)
    assert ann.a_left == {1, 2} and ann.a_right == {2}
    with pytest.raises(ValueError):
        z.constructive_path(s, 1, 2, "directed")
    assert z.constructive_path(s, 1, 2, "undirected") == [1, 2]


def test_constructive_path_rejects_non_vertices(rings):
    ipo = z.build_ipo(rings["Z12"])
    with pytest.raises(ValueError):
        z.constructive_path(ipo, 0, 1)
    with pytest.raises(ValueError):
        z.constructive_path(ipo, 1, 1)


def _bfs_distance(g, a, b, mode):
    adj = g.out_adj if mode == "directed" else g.und_adj
    frontier, dist, seen = [a], 0, {a}
    while frontier:
        if b in frontier:
            return dist
        dist += 1
        frontier = [w for v in frontier for w in adj[v] if w not in seen]
        seen.update(frontier)
    return None


def test_constructive_path_always_valid_and_short(rings):
    corpus = [z.build_ipo(ring) for ring in rings.values()]
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

    rep = z.run_all(rings["M2(Z2)"], matrix=(rings["Z2"], 2))
    names = [c.check_name for c in rep.checks]
    assert names[-3:] == ["matrix_diam_lower", "matrix_diam_monotone", "matrix_girth"]
    assert all(c.status == "pass" for c in rep.checks[-3:])


def test_run_all_noncommutative_matrix_base(rings):
    rep = z.run_all(z.make_matrix_ring(rings["M2(Z2)"], 1), matrix=(rings["M2(Z2)"], 1))
    assert {c.status for c in rep.checks[-3:]} == {"not-applicable"}
