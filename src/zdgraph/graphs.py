"""Directed/undirected zero-divisor graphs and their invariants.

Conventions: graphs are simple (no loops); diameters report None for
graphs with fewer than two vertices and math.inf when some ordered pair
is unreachable; girth is math.inf for acyclic graphs.  "Connected" for
the directed view means a directed path exists between every ordered
pair of distinct vertices.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rings import ElementSet, _blocks, _freeze
from .semigroups import AnnSets, FiniteSemigroupWithZero

INF = math.inf


@dataclass(frozen=True)
class ZeroProducts:
    """The zero-product matrix Z[a, b] = [a*b = 0] of a vertex list, loops
    kept, factored over vertex classes: Z[a, b] = m[row[a], col[b]], that is
    Z = E_r·m·E_cᵀ with E_r[a, i] = [row[a] = i] and E_c[b, j] = [col[b] = j].
    `directed_zd_graph` builds it for an IPO; see `compute_graph_metrics`."""

    row: np.ndarray  # each vertex's row class, an index into m's rows
    col: np.ndarray  # each vertex's column class, an index into m's columns
    m: np.ndarray  # bool, row classes x column classes


class ZdGraph:
    """Zero-divisor graph: vertex a points at b when a*b = 0 (a != b),
    measured once when built (`metrics`); nothing re-measures it.

    The graph is its vertex labels and two frozen boolean matrices over the
    vertex list: `adj` (directed) and its symmetrization `und`.  It is given
    the zero-product matrix over the vertex list (its diagonal is dropped),
    or that matrix factored over vertex classes (`ZeroProducts`, kept as
    `classes`), which `adj` expands and the metrics read.  `common`, frozen
    too, is und·und as float32, the common neighbours of each vertex pair,
    computed when a metric first reads it and kept for the next one."""

    def __init__(self, vertices, labels, adj_matrix):
        self.vertices = tuple(int(v) for v in vertices)
        self.labels = tuple(labels)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if isinstance(adj_matrix, ZeroProducts):
            self.classes = adj_matrix
            self.adj = adj_matrix.m[adj_matrix.row].take(adj_matrix.col, axis=1)
        else:
            self.classes = None
            self.adj = np.asarray(adj_matrix, dtype=bool).copy()
        np.fill_diagonal(self.adj, False)
        self.und = self.adj | self.adj.T
        for frozen in (self.adj, self.und):
            frozen.flags.writeable = False
        self.metrics = compute_graph_metrics(self)

    @cached_property
    def common(self) -> np.ndarray:
        und_f = self.und.astype(np.float32)
        return _freeze(und_f @ und_f)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def label_of(self, v: int) -> str:
        return str(self.labels[self._index[v]])

    def directed_edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[j]) for i, j in np.argwhere(self.adj).tolist()]

    def undirected_edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[j]) for i, j in np.argwhere(self.und).tolist() if vs[i] < vs[j]]

    def __repr__(self) -> str:
        return f"ZdGraph({self.n_vertices} vertices, {int(self.adj.sum())} arcs)"


def directed_zd_graph(s: FiniteSemigroupWithZero, ann: AnnSets) -> ZdGraph:
    """Graph on the nonzero zero-divisors `ann.d_star` of s, ascending order.

    When s is an IPO (its last element is the whole ring R) the zero
    products are factored over the classes of the left ideals RA and the
    right ideals AR of the vertices A: a*b = 0 exactly when
    (R*a)*(b*R) = R(ab)R = 0, since ab lies in R(ab)R (R has a 1).  That is done only when it takes fewer
    classes, rows and columns together, than there are vertices; otherwise,
    as for every commutative IPO (where RA = A), the graph gets the V x V
    matrix, at no more cost than two reads of R's row and column."""
    verts = sorted(ann.d_star)
    labels = [s.labels[v] if s.labels is not None else str(v) for v in verts]
    whole = s.labels[-1] if s.labels is not None else None
    if isinstance(whole, ElementSet) and len(whole) == whole.ring.order:
        left = s.table[-1, verts]  # RA, for each vertex A
        nr = len(set(left.tolist()))
        if nr + 1 < len(verts):  # else there is no room for a column class
            right = s.table[verts, -1]  # AR
            if nr + len(set(right.tolist())) < len(verts):
                left, row = np.unique(left, return_inverse=True)
                right, col = np.unique(right, return_inverse=True)
                return ZdGraph(verts, labels, ZeroProducts(row, col, s.table[np.ix_(left, right)] == 0))
    return ZdGraph(verts, labels, s.table[np.ix_(verts, verts)] == 0)


# -- invariants ---------------------------------------------------------------


def _hits(reached: np.ndarray, step: np.ndarray) -> np.ndarray:
    """reached·step > 0 for a boolean `reached` and a float32 count matrix
    `step`, in row blocks (`_blocks`), so only a block is ever cast."""
    out = np.empty((reached.shape[0], step.shape[1]), dtype=bool)
    for s in _blocks(*out.shape):
        np.greater(reached[s].astype(np.float32) @ step, 0, out=out[s])
    return out


def _at_vertices(x: np.ndarray, ports, rows: slice) -> np.ndarray:
    """The rows `rows` of F·x·Fᵀ, a vertex-pair matrix read off a port-pair
    one.  A vertex's ports are the columns where its row of F is 1: one
    (`ports` None, F the identity) or two (`ports` = (p, q), its entries in
    p and q).  A boolean x gives the OR over port pairs, a count matrix the
    sum; either way a gather, no product."""
    if ports is None:
        return x[rows]
    p, q = ports
    half = x[p[rows]] + x[q[rows]]
    return half[:, p] + half[:, q]


def _diameter(arcs: np.ndarray, first, second, step, covered):
    """Largest distance over ordered pairs of distinct vertices of the graph
    with the (loopless) arcs `arcs`, by levels of walk reach: R_1 = first,
    R_2 = second(), R_(L+1) = first | R_L·step > 0, with covered(R_L) when
    every pair is within L (see `compute_graph_metrics`).  None below two
    vertices; INF when some pair is unreachable: at once when a vertex has
    no out-arc or no in-arc, else when a level adds nothing."""
    v = len(arcs)
    if v < 2:
        return None
    if not (arcs.any(axis=0) & arcs.any(axis=1)).all():
        return INF
    if np.count_nonzero(arcs) == v * (v - 1):
        return 1
    reached, level = second(), 2
    while not covered(reached):
        new = first | _hits(reached, step)
        if np.array_equal(new, reached):
            return INF
        reached, level = new, level + 1
    return level


def _row_scan(v: int):
    """Row slices over v vertices: first rows of about 4096 entries (below
    that a block costs more in numpy calls than in entries), then `_blocks`
    blocks, so a scan that stops at an early hit reads few rows."""
    if v == 0:
        return
    head = min(v, max(1, 4096 // v))
    yield slice(0, head)
    for rows in _blocks(v - head, v):
        yield slice(head + rows.start, head + rows.stop)


def _first_pair(hits, v: int):
    """The first pair (a, b), row-major over vertex positions, that the
    boolean blocks hits(rows) (rows x all vertices, `_row_scan`) mark; None
    if none."""
    for rows in _row_scan(v):
        hit = hits(rows)
        if hit.any():
            a, b = divmod(int(hit.argmax()), v)
            return rows.start + a, b
    return None


def _girth(g: ZdGraph, triangles):
    """(girth, witness cycle as a vertex list) on the undirected view.

    A triangle is the first pair, row-major, that triangles(rows) marks
    (adjacent, with a common neighbour; see `compute_graph_metrics`), closed
    by their first common neighbour.  Failing that, a 4-cycle is the first
    pair with two common neighbours and the first two of them, counted on
    the graph itself (`g.common`, which the walks of identity classes have
    already computed; with classes a walk count counts a mutual pair twice,
    so only the graph's own counts neighbours).  A graph with neither falls
    back to shortest-cycle-through-each-edge BFS.
    """
    v, und = g.n_vertices, g.und
    pair = _first_pair(triangles, v)
    if pair is not None:
        a, b = pair
        x = int(np.nonzero(und[a] & und[b])[0][0])
        return 3, [g.vertices[a], g.vertices[x], g.vertices[b]]
    quad = (g.common >= 2) & ~np.eye(v, dtype=bool)
    if quad.any():
        a, b = divmod(int(quad.argmax()), v)  # first pair, row-major
        x, y = (int(i) for i in np.nonzero(und[a] & und[b])[0][:2])
        return 4, [g.vertices[a], g.vertices[x], g.vertices[b], g.vertices[y]]
    return _girth_bfs(g)


def _girth_bfs(g: ZdGraph):
    """Shortest cycle through each edge (u, v), u the smaller vertex, edges in
    vertex-list order: a BFS from u that never takes the edge itself."""
    vs = g.vertices
    nbrs = [np.nonzero(row)[0].tolist() for row in g.und]
    best = INF
    best_cycle = None
    for u in range(len(vs)):
        for v in nbrs[u]:
            if vs[u] > vs[v]:
                continue
            dist = {u: 0}
            queue = deque([u])
            while queue:
                here = queue.popleft()
                for w in nbrs[here]:
                    if w not in dist and (here, w) != (u, v):
                        dist[w] = dist[here] + 1
                        queue.append(w)
            if v in dist and dist[v] + 1 < best:
                best = dist[v] + 1
                path = [v]
                while path[-1] != u:
                    here = path[-1]
                    path.append(next(w for w in nbrs[here] if dist.get(w) == dist[here] - 1))
                best_cycle = [vs[i] for i in path]
    return best, best_cycle


@dataclass(frozen=True)
class GraphMetrics:
    directed_connected: bool
    directed_diameter: float | int | None
    undirected_diameter: float | int | None
    girth: float | int
    girth_cycle: tuple[int, ...] | None  # a shortest cycle, None when acyclic
    complete: bool
    tournament: bool  # exactly one arc per vertex pair; vacuous below 2 vertices
    # the first pair i < j (vertex positions, row-major) with both arcs or
    # neither, None exactly when the graph is a tournament
    symmetric_pair: tuple[int, int] | None


def _graph_walks(g: ZdGraph):
    """The walk data of `compute_graph_metrics` for identity classes: the
    levels run on `adj` and on `und` itself, and the 2-walk counts are
    those of `und`, so they count common neighbours."""
    v, adj, und = g.n_vertices, g.adj, g.und
    adj_f, und_f, two = adj.astype(np.float32), und.astype(np.float32), g.common
    directed = (adj, lambda: adj | _hits(adj, adj_f), adj_f, lambda r: (r | np.eye(v, dtype=bool)).all())
    undirected = (und, lambda: und | (two > 0), und_f)
    return directed, undirected, None, lambda rows: und[rows] & (two[rows] >= 1)


def _class_walks(g: ZdGraph):
    """The walk data of `compute_graph_metrics` for g's classes: class-sized
    level matrices, each vertex's two ports, and a triangle test that reads
    the 2-walk counts at vertex pairs by a gather."""
    row, col, m = g.classes.row, g.classes.col, g.classes.m
    nr, nc = m.shape
    n = np.bincount(row * nc + col, minlength=nr * nc).reshape(nr, nc)
    sizes = np.concatenate((n.sum(axis=1), n.sum(axis=0)))
    ports, loops = (row, nr + col), m[row, col].astype(np.uint8)
    g_u = np.zeros((nr + nc,) * 2, np.uint8)
    g_u[:nr, nr:], g_u[nr:, :nr] = m, m.T
    ftf = np.zeros(g_u.shape, np.float32)
    ftf[:nr, nr:], ftf[nr:, :nr] = n, n.T
    np.fill_diagonal(ftf, sizes)
    g_f = g_u.astype(np.float32)
    step = ftf @ g_f
    d_step = step[nr:, nr:]  # Nᵀ·M
    # saturated at 9, one above the most walks through loops (8): a gathered
    # sum then exceeds the loop walks exactly when the true count does, in a
    # quarter of the bytes of float32
    two = np.minimum(g_f @ step, 9).astype(np.uint8)
    # the class pairs that no two distinct vertices realise: |R_i|·|C_j| = N[i, j]
    single = sizes[:nr, None] * sizes[nr:] == n
    directed = (m, lambda: m | _hits(m, d_step), d_step, lambda r: (r | single).all())
    g_b = g_u > 0
    undirected = (g_b, lambda: g_b | (two > 0), step)

    def triangles(rows):
        loop_walks = 2 * _at_vertices(g_u, ports, rows) * (loops[rows, None] + loops)
        return g.und[rows] & (_at_vertices(two, ports, rows) > loop_walks)

    return directed, undirected, ports, triangles


def compute_graph_metrics(g: ZdGraph) -> GraphMetrics:
    """The metrics of g, read off its zero-product matrix Z (loops kept)
    factored over vertex classes, Z = E_r·M·E_cᵀ (`ZeroProducts`,
    `_class_walks`).  A graph given a plain matrix takes identity classes
    (`_graph_walks`), with no class arithmetic: the levels below run on the
    graph itself, as F = I and G = `und`.

    Walks of length L in Z are E_r·M·(Nᵀ·M)^(L-1)·E_cᵀ, where
    N = E_rᵀ·E_c counts the vertices of each (row class, column class), so
    the directed levels run on nr x nc class matrices, R_(L+1) =
    M | R_L·(Nᵀ·M) > 0.  A pair of distinct vertices a, b is within L when
    R_L[row a, col b], and the level covers the graph when R_L holds every
    class pair that two distinct vertices realise: all (i, j) with
    |R_i|·|C_j| > N[i, j], which leaves out a pair with no vertex and one
    whose only vertex is alone in both classes.  Shortest walks take no
    loop, so loops change no distance.

    The undirected view with loops kept is Z | Zᵀ, the support of F·G·Fᵀ
    with F = [E_r | E_c] (each vertex has two ports, its row and its column
    class) and G = [[0, M], [Mᵀ, 0]]; its levels run on port x port
    matrices, S_(L+1) = G | S_L·(FᵀF·G) > 0.  A pair a, b is within L when
    some port pair of theirs is in S_L, read by a gather (`_at_vertices`);
    from level 2 on every vertex with a neighbour reaches itself, so the
    level covers the graph when that gather is all true.

    The 2-walk counts Q = G·FᵀF·G give both S_2 = G | Q > 0 and the
    triangle test (`_girth`).  F·G·Fᵀ[a, b] = Z[a, b] + Z[b, a] counts a
    pair with an arc each way twice, and a loop twice, so of the 2-walks F·Q·Fᵀ[a, b]
    between adjacent a != b, 2·F·G·Fᵀ[a, b]·(loop a + loop b) go through a
    loop (a-a-b or a-b-b); a and b have a common neighbour when more remain.

    Every product is of class-sized matrices (k = nr + nc on a side); each
    V x V step is a boolean or 8-bit gather of one, or a reduction of `adj`
    or `und`.
    """
    v, adj, und = g.n_vertices, g.adj, g.und
    directed, undirected, ports, triangles = (_graph_walks if g.classes is None else _class_walks)(g)
    ddiam = _diameter(adj, *directed)
    udiam = _diameter(
        und, *undirected, lambda s: all(_at_vertices(s, ports, rows).all() for rows in _row_scan(v))
    )
    girth_value, cycle = _girth(g, triangles) if und.any() else (INF, None)

    def symmetric(rows):  # both arcs or neither, above the diagonal
        return (adj[rows] == adj[:, rows].T) & (np.arange(v) > np.arange(rows.start, rows.stop)[:, None])

    pair = _first_pair(symmetric, v)
    return GraphMetrics(
        directed_connected=ddiam is not INF,
        directed_diameter=ddiam,
        undirected_diameter=udiam,
        girth=girth_value,
        girth_cycle=None if cycle is None else tuple(cycle),
        complete=udiam is None or udiam == 1,
        tournament=pair is None,
        symmetric_pair=pair,
    )


# -- export -------------------------------------------------------------------


def dot_lines(g: ZdGraph, mode: str = "directed"):
    """Deterministic DOT text, one line at a time (each with its newline):
    the vertices in label order, then each vertex's arcs in label order of
    their heads; undirected, each edge once, at its earlier-named end.  The
    rows are read off one permutation of `adj` (or `und`) into label order,
    so no list of all arcs is built."""
    if mode not in ("directed", "undirected"):
        raise ValueError("mode must be 'directed' or 'undirected'")
    directed = mode == "directed"
    perm = sorted(range(g.n_vertices), key=lambda i: str(g.labels[i]))
    names = [str(g.labels[i]) for i in perm]
    yield "digraph zd {\n" if directed else "graph zd {\n"
    for name in names:
        yield f'  "{name}";\n'
    arrow = "->" if directed else "--"
    for i, row in enumerate((g.adj if directed else g.und)[np.ix_(perm, perm)]):
        later = 0 if directed else i + 1
        for j in np.flatnonzero(row[later:]) + later:
            yield f'  "{names[i]}" {arrow} "{names[j]}";\n'
    yield "}\n"


def export_dot(g: ZdGraph, mode: str = "directed") -> str:
    """The DOT text of `dot_lines` as one string."""
    return "".join(dot_lines(g, mode))
