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

import numpy as np

from .rings import _blocks
from .semigroups import AnnSets, FiniteSemigroupWithZero

INF = math.inf


class ZdGraph:
    """Zero-divisor graph: vertex a points at b when a*b = 0 (a != b),
    measured once when built (`metrics`); nothing re-measures it.

    The graph is its vertex labels and two frozen boolean matrices over the
    vertex list: `adj` (directed) and its symmetrization `und`."""

    def __init__(self, vertices, labels, adj_matrix):
        self.vertices = tuple(int(v) for v in vertices)
        self.labels = tuple(labels)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.adj = np.asarray(adj_matrix, dtype=bool).copy()
        np.fill_diagonal(self.adj, False)
        self.und = self.adj | self.adj.T
        for frozen in (self.adj, self.und):
            frozen.flags.writeable = False
        self.metrics = compute_graph_metrics(self)

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
    """Graph on the nonzero zero-divisors `ann.d_star` of s, ascending order."""
    verts = sorted(ann.d_star)
    labels = [s.labels[v] if s.labels is not None else str(v) for v in verts]
    adj = s.table[np.ix_(verts, verts)] == 0 if verts else np.zeros((0, 0), bool)
    return ZdGraph(verts, labels, adj)


# -- invariants ---------------------------------------------------------------


def _diameter(adj: np.ndarray):
    """Largest distance over ordered pairs of distinct vertices, by boolean
    level expansion: None below two vertices, INF when some pair is
    unreachable.  A vertex with no out-arc reaches nobody and one with no
    in-arc is reached by nobody, so either gives INF before any expansion.
    Each level is expanded in row blocks (`_blocks`), so only a block of the
    frontier is ever cast to float32."""
    v = adj.shape[0]
    if v < 2:
        return None
    if not (adj.any(axis=0) & adj.any(axis=1)).all():
        return INF
    adj_f = adj.astype(np.float32)
    reached = adj | np.eye(v, dtype=bool)
    frontier = adj
    level = 1
    while not reached.all():
        new = np.empty_like(reached)
        for s in _blocks(v, v):
            np.greater(frontier[s].astype(np.float32) @ adj_f, 0, out=new[s])
            new[s] &= ~reached[s]
        if not new.any():
            return INF
        reached |= new
        frontier = new
        level += 1
    return level


def girth_with_cycle(g: ZdGraph):
    """(girth, witness cycle as a vertex list) on the undirected view.

    Triangles and 4-cycles are detected by counting common neighbours; the
    general case falls back to shortest-cycle-through-each-edge BFS.
    """
    if not g.und.any():
        return INF, None
    und_f = g.und.astype(np.float32)
    common = und_f @ und_f  # walks of length 2
    tri = g.und & (common >= 1)
    if tri.any():
        a, b = divmod(int(tri.argmax()), g.n_vertices)  # first pair, row-major
        x = int(np.nonzero(g.und[a] & g.und[b])[0][0])
        return 3, [g.vertices[a], g.vertices[x], g.vertices[b]]
    quad = (common >= 2) & ~np.eye(g.n_vertices, dtype=bool)
    if quad.any():
        a, b = divmod(int(quad.argmax()), g.n_vertices)  # first pair, row-major
        x, y = (int(i) for i in np.nonzero(g.und[a] & g.und[b])[0][:2])
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


def compute_graph_metrics(g: ZdGraph) -> GraphMetrics:
    ddiam, udiam = _diameter(g.adj), _diameter(g.und)
    girth_value, cycle = girth_with_cycle(g)
    same = np.triu(g.adj == g.adj.T, 1)
    pair = divmod(int(same.argmax()), g.n_vertices) if same.any() else None
    return GraphMetrics(
        directed_connected=ddiam is not INF,
        directed_diameter=ddiam,
        undirected_diameter=udiam,
        girth=girth_value,
        girth_cycle=None if cycle is None else tuple(cycle),
        complete=bool((g.und.sum(axis=1) == g.n_vertices - 1).all()),
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
