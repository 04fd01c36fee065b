import math

import numpy as np
import pytest

import zdgraph as z

from oracles import element_zero_divisors, floyd_warshall, naive_girth, neighbours

INF = math.inf


def _ipo_graph(rings, name):
    ipo = z.prepare_ring_analysis(rings[name]).ipo
    return z.directed_zd_graph(ipo, z.ann_sets(ipo))


def _element_graph(r):
    """Element-level graph of a ring, on its nonzero one-sided zero-divisors."""
    verts = [v for v in element_zero_divisors(r).indices() if v != 0]
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
    null3 = z.FiniteSemigroupWithZero(np.zeros((3, 3), dtype=int))
    z.validate_semigroup(null3)
    g = z.directed_zd_graph(null3, z.ann_sets(null3))
    assert g.n_vertices == 2
    assert set(g.directed_edges()) == {(1, 2), (2, 1)}


@pytest.mark.parametrize("table", [[[0]], [[0, 0], [0, 1]]], ids=["zero", "no-zero-divisors"])
def test_semigroup_without_zero_divisors_has_an_empty_graph(table):
    s = z.FiniteSemigroupWithZero(table)
    z.validate_semigroup(s)
    ann = z.ann_sets(s)
    assert ann == z.AnnSets(frozenset(), frozenset(), frozenset())
    g = z.directed_zd_graph(s, ann)
    assert (g.vertices, g.labels, g.adj.shape) == ((), (), (0, 0))
    assert g.metrics == z.GraphMetrics(True, None, None, INF, None, True, True, None)


def test_element_graphs(rings):
    g4 = _element_graph(rings["Z4"])
    assert g4.vertices == (2,) and g4.directed_edges() == []
    g6 = _element_graph(rings["Z6"])
    assert g6.vertices == (2, 3, 4)
    assert set(g6.undirected_edges()) == {(2, 3), (3, 4)}
    assert _element_graph(rings["Z5"]).n_vertices == 0


def _directed(g):
    return g.metrics.directed_connected, g.metrics.directed_diameter


def test_directed_connectivity(rings):
    g = _ipo_graph(rings, "Z12")
    connected, diam = _directed(g)
    assert connected and diam == 3

    single = z.ZdGraph([1], ["1"], np.zeros((1, 1), bool))
    assert _directed(single) == (True, None)

    one_way = z.ZdGraph([1, 2], ["1", "2"], np.array([[False, True], [False, False]]))
    connected, diam = _directed(one_way)
    assert not connected and diam == INF


def test_undirected_metrics_z12(rings):
    g = _ipo_graph(rings, "Z12")
    assert g.metrics.undirected_diameter == 3
    assert g.metrics.girth == INF
    assert not g.metrics.complete


def test_girth_three_on_triple_product(rings):
    g = _ipo_graph(rings, "Z2xZ2xZ2")
    assert g.metrics.girth == 3


def test_complete_two_vertices(rings):
    g = _ipo_graph(rings, "Z6")
    assert g.n_vertices == 2
    assert g.metrics.complete
    assert g.metrics.undirected_diameter == 1


def test_is_tournament(rings):
    assert not _ipo_graph(rings, "Z6").metrics.tournament
    single = z.ZdGraph([1], ["1"], np.zeros((1, 1), bool))
    assert single.metrics.tournament
    one_way = z.ZdGraph([1, 2], ["1", "2"], np.array([[False, True], [False, False]]))
    assert one_way.metrics.tournament


def _naive_symmetric_pair(g):
    """The first pair i < j, row-major over vertex positions, with both arcs or neither."""
    n = g.n_vertices
    return next(((i, j) for i in range(n) for j in range(i + 1, n) if g.adj[i, j] == g.adj[j, i]), None)


def test_symmetric_pair_matches_a_naive_scan(rings):
    graphs = _all_test_graphs(rings)
    graphs += [z.directed_zd_graph(s, z.ann_sets(s)) for s in z.enumerate_semigroups_with_zero(4)]
    tournaments = 0
    for g in graphs:
        pair = g.metrics.symmetric_pair
        assert pair == _naive_symmetric_pair(g)
        assert (pair is None) == g.metrics.tournament
        tournaments += g.metrics.tournament
    assert 0 < tournaments < len(graphs)


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
        und_adj = neighbours(g, "undirected")
        for a in g.vertices:
            for b in g.vertices:
                if a == b:
                    continue
                expected = (a, b) in directed or (b, a) in directed
                assert (b in und_adj[a]) == expected


def _naive_connectivity(vertices, edges):
    """(connected, diameter) over directed edges, from floyd_warshall."""
    dist = floyd_warshall(vertices, edges)
    pairs = [(a, b) for a in vertices for b in vertices if a != b]
    connected = all(dist[p] is not None for p in pairs)
    return connected, (None if not pairs else (INF if not connected else max(dist[p] for p in pairs)))


def test_connectivity_matches_floyd_warshall(rings):
    for g in _all_test_graphs(rings):
        if g.n_vertices > 12:
            continue
        naive_connected, naive_diam = _naive_connectivity(g.vertices, g.directed_edges())
        connected, diam = _directed(g)
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
        if g.metrics.complete and g.n_vertices >= 2:
            assert g.metrics.undirected_diameter <= 1


def _symmetric(n, edges):
    adj = np.zeros((n, n), bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


def _hand_made_graphs():
    """Graphs no ring in the corpus gives: a directed diameter above 3, finite
    girths above 4 (found only by the BFS fallback), a path, a triangle-free
    4-cycle, and two vertices with no edge."""
    c6 = np.zeros((6, 6), bool)
    c6[range(6), [1, 2, 3, 4, 5, 0]] = True
    c5 = _symmetric(5, [(i, (i + 1) % 5) for i in range(5)])
    petersen = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen += [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
    order = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]  # vertices listed out of order
    at = {v: i for i, v in enumerate(order)}
    return {
        "C6": z.ZdGraph(range(6), map(str, range(6)), c6),
        "C5": z.ZdGraph(range(5), map(str, range(5)), c5),
        "Petersen": z.ZdGraph(order, map(str, order), _symmetric(10, [(at[a], at[b]) for a, b in petersen])),
        "P4": z.ZdGraph(range(4), map(str, range(4)), _symmetric(4, [(0, 1), (1, 2), (2, 3)])),
        "C4": z.ZdGraph(range(4), map(str, range(4)), _symmetric(4, [(0, 1), (1, 2), (2, 3), (3, 0)])),
        "edgeless": z.ZdGraph(range(2), map(str, range(2)), np.zeros((2, 2), bool)),
    }


# every field, witness cycles included, as recorded before the metrics were
# read off the two boolean matrices alone
HAND_MADE_METRICS = {
    "C6": z.GraphMetrics(True, 5, 3, 6, (1, 2, 3, 4, 5, 0), False, False, (0, 2)),
    "C5": z.GraphMetrics(True, 2, 2, 5, (1, 2, 3, 4, 0), False, False, (0, 1)),
    "Petersen": z.GraphMetrics(True, 2, 2, 5, (9, 4, 0, 5, 7), False, False, (0, 1)),
    "P4": z.GraphMetrics(True, 3, 3, INF, None, False, False, (0, 1)),
    "C4": z.GraphMetrics(True, 2, 2, 4, (0, 1, 2, 3), False, False, (0, 1)),
    "edgeless": z.GraphMetrics(False, INF, INF, INF, None, False, False, (0, 1)),
}


@pytest.mark.parametrize("name", list(HAND_MADE_METRICS))
def test_hand_made_graphs(name):
    g = _hand_made_graphs()[name]
    m = g.metrics
    assert m == HAND_MADE_METRICS[name]
    assert (m.directed_connected, m.directed_diameter) == _naive_connectivity(
        g.vertices, g.directed_edges()
    )
    both_ways = [(a, b) for e in g.undirected_edges() for a, b in (e, e[::-1])]
    assert m.undirected_diameter == _naive_connectivity(g.vertices, both_ways)[1]
    assert m.girth == naive_girth(g.vertices, g.undirected_edges())
    if m.girth_cycle is not None:
        at = [g.vertices.index(v) for v in m.girth_cycle]
        assert len(set(at)) == len(at) == m.girth
        assert all(g.und[a, b] for a, b in zip(at, at[1:] + at[:1]))


def test_diameter_in_row_blocks_matches_floyd_warshall(monkeypatch, rings):
    # 8-entry blocks: every level of the expansion runs in several row blocks
    monkeypatch.setattr(z.rings, "_BLOCK_ELEMS", 8)
    for g in _all_test_graphs(rings) + list(_hand_made_graphs().values()):
        if not 2 <= g.n_vertices <= 12:
            continue
        both_ways = [(a, b) for e in g.undirected_edges() for a, b in (e, e[::-1])]
        assert _directed(g) == _naive_connectivity(g.vertices, g.directed_edges())
        assert g.metrics.undirected_diameter == _naive_connectivity(g.vertices, both_ways)[1]


def _diameters_match_floyd_warshall(g):
    both_ways = [(a, b) for e in g.undirected_edges() for a, b in (e, e[::-1])]
    assert _directed(g) == _naive_connectivity(g.vertices, g.directed_edges())
    assert g.metrics.undirected_diameter == _naive_connectivity(g.vertices, both_ways)[1]


def _has_dead_end(adj):
    """Some vertex has no out-arc or no in-arc."""
    return not (adj.any(axis=1).all() and adj.any(axis=0).all())


@pytest.mark.parametrize("dead", ["sink", "source", "isolated"])
@pytest.mark.parametrize("seed", range(8))
def test_diameter_with_a_sink_or_source_matches_floyd_warshall(seed, dead):
    # a vertex with no out-arc (sink) or no in-arc (source) makes the directed
    # diameter INF before any expansion; an isolated one the undirected too
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    adj = rng.random((n, n)) < 0.6
    k = int(rng.integers(n))
    if dead != "source":
        adj[k] = False
    if dead != "sink":
        adj[:, k] = False
    g = z.ZdGraph(range(n), map(str, range(n)), adj)
    assert g.metrics.directed_diameter == INF
    _diameters_match_floyd_warshall(g)


def test_diameter_short_cut_on_rings_matches_floyd_warshall(rings, nonprincipal):
    graphs = _all_test_graphs(rings) + [_ipo_graph(rings, "M2(Z3)")]
    ipo = z.prepare_ring_analysis(nonprincipal["U2(Z4)"]).ipo
    graphs.append(z.directed_zd_graph(ipo, z.ann_sets(ipo)))
    graphs = [g for g in graphs if 2 <= g.n_vertices <= 40]
    assert any(_has_dead_end(g.adj) for g in graphs)
    for g in graphs:
        _diameters_match_floyd_warshall(g)


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
