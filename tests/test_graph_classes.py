"""The graph metrics read off vertex classes against the dense V x V float32
level expansion and common-neighbour count they replaced (`oracles`), on the
rings corpus, every semigroup with zero of order 4, relabelled rings and
random factored zero-product matrices with loops, sinks and sources."""

import numpy as np
import pytest

import zdgraph as z
from zdgraph.graphs import ZeroProducts

from oracles import dense_diameter, dense_girth_with_cycle
from table_rings import draw_permutation, f2_xy, relabelled_table_text, upper_triangular


def _dense_metrics(g):
    """The fields the dense code derived, from g's two boolean matrices."""
    girth, cycle = dense_girth_with_cycle(g)
    return (
        dense_diameter(g.adj),
        dense_diameter(g.und),
        girth,
        None if cycle is None else tuple(cycle),
        bool((g.und.sum(axis=1) == g.n_vertices - 1).all()),
    )


def _metrics(g):
    m = g.metrics
    return m.directed_diameter, m.undirected_diameter, m.girth, m.girth_cycle, m.complete


def _ipo_graph(ring):
    return z.prepare_ring_analysis(ring).graph


def test_class_metrics_match_dense_on_the_rings_corpus(rings, nonprincipal):
    pool = list(rings.values()) + list(nonprincipal.values())
    pool += [z.build_ring(z.parse_ring_expr(e)) for e in ("M2(Z4)", "M3(Z2)", "M2(Z6)", "M2(Z2) x Z3")]
    graphs = [_ipo_graph(r) for r in pool]
    # the matrix rings and the noncommutative ones take fewer classes than vertices
    assert sum(g.classes is not None for g in graphs) >= 6
    for g in graphs:
        assert _metrics(g) == _dense_metrics(g)


def test_metrics_match_dense_on_every_semigroup_of_order_four():
    count = 0
    for s in z.enumerate_semigroups_with_zero(4):
        g = z.directed_zd_graph(s, z.ann_sets(s))
        assert g.classes is None  # no whole ring to read classes from
        assert _metrics(g) == _dense_metrics(g)
        count += 1
    assert count == 442


@pytest.mark.parametrize("name", ["M2(Z2)", "F2[x,y]/(x,y)^2", "M2(Z2) x Z2", "U2(Z3)"])
@pytest.mark.parametrize("seed", [1, 2])
def test_class_metrics_match_dense_on_relabelled_rings(name, seed):
    if name.startswith("F2"):
        ring = f2_xy()
    elif name.startswith("U2"):
        ring = upper_triangular(3)
    else:
        ring = z.build_ring(z.parse_ring_expr(name))
    moved = z.load_table_ring(relabelled_table_text(ring, draw_permutation(ring.order, seed)))
    g = _ipo_graph(moved)
    assert _metrics(g) == _dense_metrics(g)
    assert _metrics(g)[:3] == _metrics(_ipo_graph(ring))[:3]


def _random_factored(rng, dead: str | None):
    """A zero-product matrix on V vertices factored over a few row and column
    classes, with loops; `dead` empties one row class of M (its vertices
    have no out-arc), one column class (no in-arc), or both for one vertex."""
    nr, nc = (int(x) for x in rng.integers(1, 8, size=2))
    v = int(rng.integers(2, 13))
    row, col = rng.integers(0, nr, size=v), rng.integers(0, nc, size=v)
    m = rng.random((nr, nc)) < rng.uniform(0.2, 0.8)
    if dead in ("sink", "isolated"):
        m[row[0]] = False
    if dead in ("source", "isolated"):
        m[:, col[0]] = False
    return ZeroProducts(row, col, m)


@pytest.mark.parametrize("dead", [None, "sink", "source", "isolated"])
def test_class_metrics_match_dense_on_random_factorisations(dead):
    rng = np.random.default_rng(7)
    singles = loops = 0
    for _ in range(300):
        zp = _random_factored(rng, dead)
        v = len(zp.row)
        factored = z.ZdGraph(range(v), map(str, range(v)), zp)
        plain = z.ZdGraph(range(v), map(str, range(v)), zp.m[np.ix_(zp.row, zp.col)])
        assert np.array_equal(factored.adj, plain.adj)
        assert _metrics(factored) == _dense_metrics(factored) == _metrics(plain)
        assert factored.metrics == plain.metrics
        # a class pair that only one vertex realises, and a vertex with a loop
        sizes = np.bincount(zp.row, minlength=len(zp.m)), np.bincount(zp.col, minlength=zp.m.shape[1])
        singles += bool(((sizes[0][zp.row] == 1) & (sizes[1][zp.col] == 1)).any())
        loops += bool(zp.m[zp.row, zp.col].any())
    assert singles > 30 and loops > 100
