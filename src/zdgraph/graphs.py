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

from .semigroups import AnnSets, FiniteSemigroupWithZero

INF = math.inf


class ZdGraph:
    """Zero-divisor graph: vertex a points at b when a*b = 0 (a != b),
    measured once when built (`metrics`); nothing re-measures it."""

    def __init__(self, vertices, labels, adj_matrix):
        self.vertices = tuple(int(v) for v in vertices)
        self.labels = tuple(labels)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj = np.asarray(adj_matrix, dtype=bool).copy()
        np.fill_diagonal(adj, False)
        adj.flags.writeable = False
        self.adj = adj
        und = adj | adj.T
        und.flags.writeable = False
        self.und = und
        self.out_adj = {
            v: tuple(self.vertices[j] for j in np.nonzero(adj[i])[0])
            for i, v in enumerate(self.vertices)
        }
        self.und_adj = {
            v: tuple(self.vertices[j] for j in np.nonzero(und[i])[0])
            for i, v in enumerate(self.vertices)
        }
        self.metrics = compute_graph_metrics(self)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def label_of(self, v: int) -> str:
        return str(self.labels[self._index[v]])

    def label_value(self, v: int):
        return self.labels[self._index[v]]

    def directed_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in self.vertices for b in self.out_adj[a]]

    def undirected_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in self.vertices for b in self.und_adj[a] if a < b]

    def __repr__(self) -> str:
        return f"ZdGraph({self.n_vertices} vertices, {len(self.directed_edges())} arcs)"


def directed_zd_graph(s: FiniteSemigroupWithZero, ann: AnnSets) -> ZdGraph:
    """Graph on the nonzero zero-divisors `ann.d_star` of s, ascending order."""
    verts = sorted(ann.d_star)
    labels = [s.labels[v] if s.labels is not None else str(v) for v in verts]
    adj = s.table[np.ix_(verts, verts)] == 0 if verts else np.zeros((0, 0), bool)
    return ZdGraph(verts, labels, adj)


# -- invariants ---------------------------------------------------------------


def _matrix_levels(adj: np.ndarray):
    """Pairwise distance matrix via boolean level expansion (-1 = unreachable)."""
    v = adj.shape[0]
    dist = np.full((v, v), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist[adj] = 1
    frontier = adj
    adj_f = adj.astype(np.float32)
    level = 1
    while True:
        reached = (frontier.astype(np.float32) @ adj_f) > 0
        new = reached & (dist < 0)
        if not new.any():
            return dist
        level += 1
        dist[new] = level
        frontier = new


def _diameter_from(adj: np.ndarray):
    v = adj.shape[0]
    if v < 2:
        return None
    dist = _matrix_levels(adj)
    off = ~np.eye(v, dtype=bool)
    if (dist[off] < 0).any():
        return INF
    return int(dist[off].max())


def directed_connectivity(g: ZdGraph) -> tuple[bool, float | int | None]:
    """(connected, diameter) over directed paths for every ordered pair."""
    d = _diameter_from(g.adj)
    return d is not INF, d


def undirected_diameter(g: ZdGraph):
    return _diameter_from(g.und)


def _bfs_dists(adj, source, skip_edge=None):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if skip_edge is not None and {u, w} == skip_edge:
                continue
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def girth_with_cycle(g: ZdGraph):
    """(girth, witness cycle as a vertex list) on the undirected view.

    Triangles and 4-cycles are detected by counting common neighbours; the
    general case falls back to shortest-cycle-through-each-edge BFS.
    """
    v = g.n_vertices
    if v == 0 or not g.und.any():
        return INF, None
    und_f = g.und.astype(np.float32)
    common = und_f @ und_f  # walks of length 2
    tri = g.und & (common >= 1)
    if tri.any():
        a, b = map(int, np.argwhere(tri)[0])
        x = int(np.nonzero(g.und[a] & g.und[b])[0][0])
        cyc = [g.vertices[a], g.vertices[x], g.vertices[b]]
        return 3, cyc
    off_diag = ~np.eye(v, dtype=bool)
    quad = (common >= 2) & off_diag
    if quad.any():
        a, b = map(int, np.argwhere(quad)[0])
        x, y = (int(i) for i in np.nonzero(g.und[a] & g.und[b])[0][:2])
        cyc = [g.vertices[a], g.vertices[x], g.vertices[b], g.vertices[y]]
        return 4, cyc
    return _girth_bfs(g)


def _girth_bfs(g: ZdGraph):
    best = INF
    best_cycle = None
    for u, v in g.undirected_edges():
        dist = _bfs_dists(g.und_adj, u, skip_edge={u, v})
        if v in dist and dist[v] + 1 < best:
            best = dist[v] + 1
            path = [v]
            while path[-1] != u:
                here = path[-1]
                for w in g.und_adj[here]:
                    if {here, w} != {u, v} and dist.get(w) == dist[here] - 1:
                        path.append(w)
                        break
            best_cycle = path
    return best, best_cycle


def is_complete(g: ZdGraph) -> bool:
    v = g.n_vertices
    return bool((g.und.sum(axis=1) == v - 1).all()) if v else True


def is_tournament(g: ZdGraph) -> bool:
    """Exactly one direction per vertex pair; vacuously true below 2 vertices."""
    v = g.n_vertices
    if v < 2:
        return True
    off_diag = ~np.eye(v, dtype=bool)
    mutual = g.adj & g.adj.T
    missing = ~(g.adj | g.adj.T) & off_diag
    return not mutual.any() and not missing.any()


@dataclass(frozen=True)
class GraphMetrics:
    directed_connected: bool
    directed_diameter: float | int | None
    undirected_diameter: float | int | None
    girth: float | int
    girth_cycle: tuple[int, ...] | None  # a shortest cycle, None when acyclic
    complete: bool
    tournament: bool


def compute_graph_metrics(g: ZdGraph) -> GraphMetrics:
    connected, ddiam = directed_connectivity(g)
    girth_value, cycle = girth_with_cycle(g)
    return GraphMetrics(
        directed_connected=connected,
        directed_diameter=ddiam,
        undirected_diameter=undirected_diameter(g),
        girth=girth_value,
        girth_cycle=None if cycle is None else tuple(cycle),
        complete=is_complete(g),
        tournament=is_tournament(g),
    )


# -- export -------------------------------------------------------------------


def export_dot(g: ZdGraph, mode: str = "directed") -> str:
    """Deterministic DOT text; vertices in label order, labels as index lists."""
    if mode not in ("directed", "undirected"):
        raise ValueError("mode must be 'directed' or 'undirected'")
    name_of = {v: g.label_of(v) for v in g.vertices}
    nodes = sorted(name_of.values())
    lines = ["digraph zd {" if mode == "directed" else "graph zd {"]
    lines.extend(f'  "{name}";' for name in nodes)
    if mode == "directed":
        arcs = sorted((name_of[a], name_of[b]) for a, b in g.directed_edges())
        lines.extend(f'  "{a}" -> "{b}";' for a, b in arcs)
    else:
        edges = sorted(
            tuple(sorted((name_of[a], name_of[b]))) for a, b in g.undirected_edges()
        )
        lines.extend(f'  "{a}" -- "{b}";' for a, b in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
