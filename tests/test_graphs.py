import math

import numpy as np
import pytest

import zdgraph as z

from oracles import floyd_warshall, naive_girth

INF = math.inf


def _ipo_graph(rings, name):
    ipo = z.build_ipo(rings[name])
    return z.directed_zd_graph(ipo, z.ann_sets(ipo))


def _element_graph(r):
    """Element-level graph of a ring, on its nonzero one-sided zero-divisors."""
    verts = [v for v in z.element_zero_divisors(r).indices() if v != 0]
    return z.ZdGraph(verts, map(str, verts), r.mul_table[np.ix_(verts, verts)] == 0)


def test_directed_graph_z12(rings):
    g = _ipo_graph(rings, "Z12")
    assert g.n_vertices == 4
    named = {(g.label_of(a), g.label_of(b)) for a, b in g.directed_edges()}
    assert named == {
        ("{0,2,4,6,8,10}", "{0,6}"),
        ("{0,6}", "{0,2,4,6,8,10}"),
        ("{0,3,6,9}", "{0,4,8}"),
        ("{0,4,8}", "{0,3,6,9}"),
        ("{0,4,8}", "{0,6}"),
        ("{0,6}", "{0,4,8}"),
    }


def test_directed_graph_empty_for_fields(rings):
    assert _ipo_graph(rings, "Z5").n_vertices == 0
    assert _ipo_graph(rings, "Z7").n_vertices == 0


def test_null_semigroup_graph():
    null3 = z.semigroup_from_table(np.zeros((3, 3), dtype=int), zero_index=0)
    g = z.directed_zd_graph(null3, z.ann_sets(null3))
    assert g.n_vertices == 2
    assert set(g.directed_edges()) == {(1, 2), (2, 1)}


def test_element_graphs(rings):
    g4 = _element_graph(rings["Z4"])
    assert g4.vertices == (2,) and g4.directed_edges() == []
    g6 = _element_graph(rings["Z6"])
    assert g6.vertices == (2, 3, 4)
    assert set(g6.undirected_edges()) == {(2, 3), (3, 4)}
    assert _element_graph(rings["Z5"]).n_vertices == 0


def test_directed_connectivity(rings):
    g = _ipo_graph(rings, "Z12")
    connected, diam = z.directed_connectivity(g)
    assert connected and diam == 3

    single = z.ZdGraph([1], ["1"], np.zeros((1, 1), bool))
    assert z.directed_connectivity(single) == (True, None)

    one_way = z.ZdGraph([1, 2], ["1", "2"], np.array([[False, True], [False, False]]))
    connected, diam = z.directed_connectivity(one_way)
    assert not connected and diam == INF


def test_undirected_metrics_z12(rings):
    g = _ipo_graph(rings, "Z12")
    assert z.undirected_diameter(g) == 3
    assert g.metrics.girth == INF
    assert not z.is_complete(g)


def test_girth_three_on_triple_product(rings):
    g = _ipo_graph(rings, "Z2xZ2xZ2")
    assert g.metrics.girth == 3


def test_complete_two_vertices(rings):
    g = _ipo_graph(rings, "Z6")
    assert g.n_vertices == 2
    assert z.is_complete(g)
    assert z.undirected_diameter(g) == 1


def test_is_tournament(rings):
    assert not z.is_tournament(_ipo_graph(rings, "Z6"))
    single = z.ZdGraph([1], ["1"], np.zeros((1, 1), bool))
    assert z.is_tournament(single)
    one_way = z.ZdGraph([1, 2], ["1", "2"], np.array([[False, True], [False, False]]))
    assert z.is_tournament(one_way)


def _all_test_graphs(rings):
    graphs = []
    for name in ("Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "M2(Z2)"):
        graphs.append(_ipo_graph(rings, name))
        graphs.append(_element_graph(rings[name]))
    for s in z.enumerate_semigroups_with_zero(3):
        graphs.append(z.directed_zd_graph(s, z.ann_sets(s)))
    return graphs


def test_symmetrization_law(rings):
    for g in _all_test_graphs(rings):
        directed = set(g.directed_edges())
        for a in g.vertices:
            for b in g.vertices:
                if a == b:
                    continue
                expected = (a, b) in directed or (b, a) in directed
                assert (b in g.und_adj[a]) == expected


def test_connectivity_matches_floyd_warshall(rings):
    for g in _all_test_graphs(rings):
        if g.n_vertices > 12:
            continue
        dist = floyd_warshall(g.vertices, g.directed_edges())
        pairs = [(a, b) for a in g.vertices for b in g.vertices if a != b]
        naive_connected = all(dist[p] is not None for p in pairs)
        naive_diam = (
            None
            if not pairs
            else (INF if not naive_connected else max(dist[p] for p in pairs))
        )
        connected, diam = z.directed_connectivity(g)
        assert connected == naive_connected
        if g.n_vertices >= 2:
            assert diam == naive_diam


def test_girth_matches_naive_enumeration(rings):
    for g in _all_test_graphs(rings):
        if g.n_vertices > 8:
            continue
        assert g.metrics.girth == naive_girth(g.vertices, g.undirected_edges())


def test_complete_implies_diameter_at_most_one(rings):
    for g in _all_test_graphs(rings):
        if z.is_complete(g) and g.n_vertices >= 2:
            assert z.undirected_diameter(g) <= 1


def test_export_dot(rings):
    empty = z.export_dot(_ipo_graph(rings, "Z5"))
    assert empty == "digraph zd {\n}\n"

    g6 = _ipo_graph(rings, "Z6")
    directed = z.export_dot(g6, "directed")
    assert directed == (
        'digraph zd {\n  "{0,2,4}";\n  "{0,3}";\n'
        '  "{0,2,4}" -> "{0,3}";\n  "{0,3}" -> "{0,2,4}";\n}\n'
    )
    undirected = z.export_dot(g6, "undirected")
    assert undirected == 'graph zd {\n  "{0,2,4}";\n  "{0,3}";\n  "{0,2,4}" -- "{0,3}";\n}\n'

    assert z.export_dot(g6, "directed") == directed  # byte-identical on repeat
    with pytest.raises(ValueError):
        z.export_dot(g6, "sideways")
