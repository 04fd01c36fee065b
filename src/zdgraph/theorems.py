"""Named verifiers for the structural claims this library machine-checks on
concrete instances: connectivity criteria, diameter and girth bounds, the
completeness classifier, tournament exclusion, and matrix-ring bounds.

Every verifier returns a CheckResult with status pass / fail / not-applicable.
Failures always carry a concrete counterexample witness; not-applicable names
the unmet hypothesis.  A constructive path builder mirrors the connectivity
arguments case by case and is cross-checked against BFS distances in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import INF, ZdGraph, directed_zd_graph
from .ideals import (
    OneSidedIdeal,
    additive_closure,
    enumerate_one_sided_ideals,
    ideal_product,
    left_annihilator,
)
from .rings import (
    _BLOCK_ELEMS,
    FiniteRing,
    central_idempotents,
    element_zero_divisors,
    is_local_ring,
)
from .report import AnalysisReport, CheckResult, serialize_extent
from .semigroups import AnnSets, FiniteSemigroupWithZero, ann_sets, build_ipo

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class RingAnalysis:
    """One ring's ideal/semigroup/graph artifacts, built once and shared."""

    ring: FiniteRing
    left: list[OneSidedIdeal]
    right: list[OneSidedIdeal]
    ipo: FiniteSemigroupWithZero
    ann: AnnSets
    graph: ZdGraph


def prepare_ring_analysis(r: FiniteRing) -> RingAnalysis:
    """Enumerate each side once (one side for commutative r, where both lists
    coincide, flags included), then build the IPO, its ann sets and graph."""
    left = enumerate_one_sided_ideals(r, "left")
    right = left if r.is_commutative() else enumerate_one_sided_ideals(r, "right")
    ipo = build_ipo(r, left, right)
    ann = ann_sets(ipo)
    return RingAnalysis(r, left, right, ipo, ann, directed_zd_graph(ipo, ann))


def _labels(g: ZdGraph, vertices) -> list[str]:
    return [g.label_of(v) for v in sorted(vertices)]


# -- semigroup-level checks ----------------------------------------------------


def check_directed_connectivity_iff(g: ZdGraph, ann: AnnSets) -> CheckResult:
    """A semigroup's directed graph g is connected exactly when its annihilator
    sets ann coincide on both sides; connected instances have diameter <= 3."""
    sides_equal = ann.a_left == ann.a_right
    connected, diam = g.metrics.directed_connected, g.metrics.directed_diameter
    witness = {
        "ann_sides_equal": sides_equal,
        "connected": connected,
        "diameter": serialize_extent(diam),
    }
    if connected != sides_equal:
        witness["left_only"] = _labels(g, ann.a_left - ann.a_right)
        witness["right_only"] = _labels(g, ann.a_right - ann.a_left)
        return CheckResult("directed_connectivity_iff", FAIL, witness)
    if connected and diam is not None and diam > 3:
        return CheckResult("directed_connectivity_iff", FAIL, witness)
    return CheckResult("directed_connectivity_iff", PASS, witness)


def check_undirected_connectivity(g: ZdGraph) -> CheckResult:
    """The undirected view of `g` is connected (vacuously below 2 vertices)
    with diameter <= 3."""
    diam = g.metrics.undirected_diameter
    witness = {"diameter": serialize_extent(diam)}
    if diam is INF or (diam is not None and diam > 3):
        return CheckResult("undirected_connectivity", FAIL, witness)
    return CheckResult("undirected_connectivity", PASS, witness)


def _girth_witness(g: ZdGraph) -> tuple[object, dict]:
    value, cycle = g.metrics.girth, g.metrics.girth_cycle
    witness: dict = {"girth": serialize_extent(value)}
    if cycle is not None:
        witness["cycle"] = [g.label_of(v) for v in cycle]
    return value, witness


def check_girth_bound(g: ZdGraph) -> CheckResult:
    """If the undirected view of `g` has a cycle at all, its girth is 3 or 4."""
    value, witness = _girth_witness(g)
    status = PASS if value is INF or value <= 4 else FAIL
    return CheckResult("girth_bound", status, witness)


def semigroup_checks(g: ZdGraph, ann: AnnSets) -> list[CheckResult]:
    """The checks that hold for every semigroup with zero, on its graph `g`
    and annihilator sets `ann`."""
    return [
        check_directed_connectivity_iff(g, ann),
        check_undirected_connectivity(g),
        check_girth_bound(g),
    ]


# -- constructive path builder --------------------------------------------------


def _assert_path(
    s: FiniteSemigroupWithZero, path: list[int], mode: str, d_star: frozenset[int]
) -> None:
    t = s.table
    if len(path) != len(set(path)) or not 2 <= len(path) <= 4:
        raise RuntimeError(f"internal: constructed path {path} is degenerate")
    if any(v not in d_star for v in path):
        raise RuntimeError(f"internal: constructed path {path} leaves the vertex set")
    for x, y in zip(path, path[1:]):
        ok = t[x, y] == 0 if mode == "directed" else (t[x, y] == 0 or t[y, x] == 0)
        if not ok:
            raise RuntimeError(f"internal: consecutive pair ({x},{y}) does not annihilate")


def _first(iterable, reason: str) -> int:
    for x in iterable:
        return x
    raise RuntimeError(f"internal: {reason}")


def _directed_path(s: FiniteSemigroupWithZero, a: int, b: int) -> list[int]:
    t = s.table
    m = s.order
    if t[a, b] == 0:
        return [a, b]
    c = _first((x for x in range(1, m) if t[a, x] == 0), f"no right annihilator for {a}")
    d = _first((x for x in range(1, m) if t[x, b] == 0), f"no left annihilator for {b}")
    if c == d:
        return [a, c, b]
    if t[c, d] == 0:
        if c == a:
            return [a, d, b]
        if d == b:
            return [a, c, b]
        return [a, c, d, b]
    return [a, int(t[c, d]), b]


def _bridge_from_square_zero(s: FiniteSemigroupWithZero, a: int, b: int) -> list[int]:
    """Path a..b when a*a = 0, b*b != 0 and a, b are not adjacent."""
    t = s.table
    m = s.order

    def adj(x, y):
        return t[x, y] == 0 or t[y, x] == 0

    c = _first(
        (x for x in range(1, m) if x not in (a, b) and adj(b, x)),
        f"no annihilating partner besides {a} for {b}",
    )
    if adj(a, c):
        return [a, c, b]
    if t[b, c] == 0:
        return [a, int(t[c, a]), b]
    return [a, int(t[a, c]), b]


def _undirected_path(s: FiniteSemigroupWithZero, a: int, b: int) -> list[int]:
    t = s.table
    m = s.order

    def adj(x, y):
        return t[x, y] == 0 or t[y, x] == 0

    if adj(a, b):
        return [a, b]
    a_sq_zero = t[a, a] == 0
    b_sq_zero = t[b, b] == 0
    if a_sq_zero and b_sq_zero:
        return [a, int(t[a, b]), b]
    if a_sq_zero:
        return _bridge_from_square_zero(s, a, b)
    if b_sq_zero:
        return list(reversed(_bridge_from_square_zero(s, b, a)))

    c = _first(
        (x for x in range(1, m) if x not in (a, b) and adj(a, x)),
        f"no annihilating partner besides {b} for {a}",
    )
    d = _first(
        (x for x in range(1, m) if x not in (a, b) and adj(b, x)),
        f"no annihilating partner besides {a} for {b}",
    )
    if adj(c, b):
        return [a, c, b]
    if adj(a, d):
        return [a, d, b]
    if adj(c, d):
        return [a, c, d, b]
    ac0 = t[a, c] == 0
    ca0 = t[c, a] == 0
    db0 = t[d, b] == 0
    bd0 = t[b, d] == 0
    if ac0 and db0:
        return [a, int(t[c, d]), b]
    if ac0 and bd0:
        return [a, int(t[c, b]), d, b]
    if ca0 and bd0:
        return [a, int(t[d, c]), b]
    return [a, int(t[b, c]), d, b]


def constructive_path(
    s: FiniteSemigroupWithZero, a: int, b: int, mode: str = "directed"
) -> list[int]:
    """A length <= 3 path from vertex a to vertex b built by replaying the
    connectivity argument case by case (never by search).

    Directed mode requires the left and right annihilator sets to coincide;
    undirected mode is unconditional.  Consecutive products along the result
    are zero (in the appropriate direction for the mode).
    """
    if mode not in ("directed", "undirected"):
        raise ValueError("mode must be 'directed' or 'undirected'")
    ann = ann_sets(s)
    if a == b or a not in ann.d_star or b not in ann.d_star:
        raise ValueError("endpoints must be distinct graph vertices")
    if mode == "directed":
        if ann.a_left != ann.a_right:
            raise ValueError(
                "directed path construction requires matching left/right annihilator sets"
            )
        path = _directed_path(s, a, b)
    else:
        path = _undirected_path(s, a, b)
    _assert_path(s, path, mode, ann.d_star)
    return path


# -- ring-level checks -----------------------------------------------------------


_ZERO_RING = "ring has one == zero"


def _zero_ring_na(name: str) -> CheckResult:
    return CheckResult(name, NOT_APPLICABLE, {"unmet": _ZERO_RING})


def check_duo_ann_sets(a: RingAnalysis) -> CheckResult:
    """On rings whose one-sided ideals are all two-sided, both annihilator
    sets equal everything except the zero ideal and the full ring."""
    name = "duo_ann_sets"
    if a.ring.is_zero_ring():
        return _zero_ring_na(name)
    for ideal in a.left + a.right:
        if not (ideal.is_left and ideal.is_right):
            return CheckResult(
                name,
                NOT_APPLICABLE,
                {"unmet": "ring is not Duo", "one_sided_ideal": str(ideal.set)},
            )
    full_bits = (1 << a.ring.order) - 1
    expected = frozenset(
        i for i, lab in enumerate(a.ipo.labels) if lab.bits not in (1, full_bits)
    )
    witness = {
        "ipo_size": a.ipo.order,
        "expected_vertices": _labels(a.graph, expected) if expected else [],
    }
    if a.ann.a_left == a.ann.a_right == expected:
        return CheckResult(name, PASS, witness)
    witness["a_left"] = [str(a.ipo.labels[i]) for i in sorted(a.ann.a_left)]
    witness["a_right"] = [str(a.ipo.labels[i]) for i in sorted(a.ann.a_right)]
    return CheckResult(name, FAIL, witness)


def _division_subring(r: FiniteRing, e: int) -> bool:
    """Is e*R*e a division ring with identity e?"""
    mul = r.mul_table
    sub = np.unique(mul[mul[e, :], e])
    sub = sub[sub != 0]
    if len(sub) == 0:
        return False
    tbl = mul[np.ix_(sub, sub)]
    return bool((((tbl == e) & (tbl.T == e)).any(axis=1)).all())


def _zero_divisor_products_vanish(r: FiniteRing) -> bool:
    didx = np.nonzero(element_zero_divisors(r).mask())[0]
    if len(didx) == 0:
        return True
    step = max(1, _BLOCK_ELEMS // len(didx))
    for lo in range(0, len(didx), step):
        rows = didx[lo : lo + step]
        if (r.mul_table[np.ix_(rows, didx)] != 0).any():
            return False
    return True


def _completeness_branches(a: RingAnalysis) -> tuple[list[str], dict]:
    branches: list[str] = []
    detail: dict = {}
    r = a.ring
    mul = r.mul_table

    if _zero_divisor_products_vanish(r):
        branches.append("zero_divisor_products_vanish")

    for e in central_idempotents(r):
        if e in (0, r.one):
            continue
        f = r.sub(r.one, e)
        e_r_f = mul[mul[e, :], f]
        f_r_e = mul[mul[f, :], e]
        if not ((e_r_f == 0).all() and (f_r_e == 0).all()):
            continue
        if _division_subring(r, e) and _division_subring(r, f):
            branches.append("two_division_rings")
            detail["central_idempotent"] = int(e)
            break

    local, maximal = is_local_ring(r)
    if local:
        m_sq = ideal_product(r, maximal, maximal)
        detail["maximal_ideal"] = str(maximal)
        detail["maximal_ideal_squared"] = str(m_sq)
        full_bits = (1 << r.order) - 1
        target = {1, maximal.bits, m_sq.bits, full_bits}
        if {lab.bits for lab in a.ipo.labels} == target:
            branches.append("local_ideal_chain")
    return branches, detail


def classify_completeness(a: RingAnalysis) -> CheckResult:
    """The undirected graph is complete exactly when one of three structural
    branches holds: all zero-divisor products vanish, the ring splits into two
    division rings, or it is local and its ideal products stop at the square
    of the maximal ideal."""
    name = "completeness_classifier"
    if a.ring.is_zero_ring():
        return _zero_ring_na(name)
    branches, detail = _completeness_branches(a)
    complete = a.graph.metrics.complete
    witness = {"complete": complete, "branches": branches, **detail}
    status = PASS if bool(branches) == complete else FAIL
    return CheckResult(name, status, witness)


def check_not_tournament(a: RingAnalysis) -> CheckResult:
    """When no nonzero ideal product squares to zero and the annihilator sides
    overlap, the directed graph cannot be a tournament."""
    name = "not_tournament"
    if a.ring.is_zero_ring():
        return _zero_ring_na(name)
    tbl = a.ipo.table
    for i in range(1, a.ipo.order):
        if tbl[i, i] == 0:
            return CheckResult(
                name,
                NOT_APPLICABLE,
                {"unmet": "some nonzero ideal product squares to zero",
                 "witness_element": str(a.ipo.labels[i])},
            )
    overlap = a.ann.a_left & a.ann.a_right
    if not overlap:
        return CheckResult(
            name, NOT_APPLICABLE, {"unmet": "left and right annihilator sets are disjoint"}
        )
    g = a.graph
    if g.metrics.tournament:
        return CheckResult(name, FAIL, {"tournament": True})
    for x in g.vertices:
        for y in g.vertices:
            if x < y and (y in g.out_adj[x]) == (x in g.out_adj[y]):
                kind = "mutual_pair" if y in g.out_adj[x] else "non_adjacent_pair"
                return CheckResult(
                    name, PASS, {kind: [g.label_of(x), g.label_of(y)]}
                )
    raise RuntimeError("internal: tournament test and witness scan disagree")


# -- matrix-ring checks -----------------------------------------------------------


def annihilating_ideal_graph(a: RingAnalysis) -> ZdGraph:
    """Commutative annihilating-ideal graph: nonzero ideals with a nonzero
    annihilator, adjacent when their product is the zero ideal.  It reads only
    the ring and its ideal list, never the IPO."""
    r = a.ring
    if not r.is_commutative():
        raise ValueError("the annihilating-ideal graph is defined for commutative rings")
    vsets = [i.set for i in a.left if i.bits != 1 and left_annihilator(r, i.set).bits != 1]
    m = len(vsets)
    adj = np.zeros((m, m), dtype=bool)
    for i, x in enumerate(vsets):
        for j, y in enumerate(vsets):
            if i != j:
                adj[i, j] = ideal_product(r, x, y).bits == 1
    return ZdGraph(range(m), vsets, adj)


_MATRIX_CHECKS = ("matrix_diam_lower", "matrix_diam_monotone", "matrix_girth")


def _matrix_unmet(r: FiniteRing, k: int) -> str | None:
    """Why the matrix checks do not apply to k-by-k matrices over r, if they don't."""
    if r.is_zero_ring():
        return _ZERO_RING
    if not r.is_commutative():
        return "base ring is not commutative"
    return "matrix dimension below 2" if k < 2 else None


def _require_matrix(base: FiniteRing, k: int) -> None:
    unmet = _matrix_unmet(base, k)
    if unmet is not None:
        raise ValueError(f"matrix checks do not apply: {unmet}")


def check_matrix_diam_lower(a: RingAnalysis, base: FiniteRing, k: int) -> CheckResult:
    """diam of the undirected graph of a = M_k(base) is at least 2; also
    verifies the witness pair of column/row ideals at the corner unit."""
    name = "matrix_diam_lower"
    _require_matrix(base, k)
    m, g = a.ring, a.graph
    diam = g.metrics.undirected_diameter
    witness: dict = {"diameter": serialize_extent(diam)}

    # the column and row ideals at the corner unit: their product is nonzero,
    # so they realise a non-adjacent vertex pair
    e11 = base.one * (base.order ** (k * k - 1))
    col = additive_closure(m, np.unique(m.mul_table[:, e11]))
    row = additive_closure(m, np.unique(m.mul_table[e11, :]))
    label_bits = {g.label_value(v).bits for v in g.vertices}
    both_vertices = col.bits in label_bits and row.bits in label_bits
    product_nonzero = ideal_product(m, col, row).bits != 1
    witness["corner_pair_present"] = both_vertices
    witness["corner_product_nonzero"] = product_nonzero
    ok = (
        (diam is INF or (diam is not None and diam >= 2))
        and both_vertices
        and product_nonzero
    )
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_matrix_diam_monotone(a: RingAnalysis, base: RingAnalysis, k: int) -> CheckResult:
    """diam over a = M_k(base.ring) dominates diam over the base ring, and the
    base-ring graph agrees with the directly built annihilating-ideal graph."""
    name = "matrix_diam_monotone"
    _require_matrix(base.ring, k)
    diam_base = base.graph.metrics.undirected_diameter
    diam_ag = annihilating_ideal_graph(base).metrics.undirected_diameter
    diam_matrix = a.graph.metrics.undirected_diameter
    witness = {
        "matrix_diameter": serialize_extent(diam_matrix),
        "base_diameter": serialize_extent(diam_base),
        "base_ag_diameter": serialize_extent(diam_ag),
    }

    def rank(d):
        return -math.inf if d is None else d

    ok = diam_ag == diam_base and rank(diam_matrix) >= rank(diam_base)
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_matrix_girth(a: RingAnalysis, base: FiniteRing, k: int) -> CheckResult:
    """Girth of the undirected graph of a = M_k(base) is exactly 3."""
    name = "matrix_girth"
    _require_matrix(base, k)
    value, witness = _girth_witness(a.graph)
    return CheckResult(name, PASS if value == 3 else FAIL, witness)


# -- full analysis ------------------------------------------------------------------


def run_all(
    r: FiniteRing,
    expr: str | None = None,
    *,
    matrix: tuple[FiniteRing, int] | None = None,
    analysis: RingAnalysis | None = None,
) -> AnalysisReport:
    """Build ideals, the ideal-product semigroup, both graph views, all
    metrics, and every applicable check for one ring.

    Checks take the artifacts they read; this is the one function that builds
    them.  Every check shares r's `analysis` (prepared here if not given).
    When r = M_k(base) and `matrix` is (base, k), the matrix checks run too,
    on r's analysis and the base ring's, prepared here only when they apply.
    """
    a = analysis if analysis is not None else prepare_ring_analysis(r)
    metrics = a.graph.metrics
    checks = [
        *semigroup_checks(a.graph, a.ann),
        check_duo_ann_sets(a),
        classify_completeness(a),
        check_not_tournament(a),
    ]
    if matrix is not None:
        base, k = matrix
        unmet = _matrix_unmet(base, k)
        if unmet is not None:
            checks += [CheckResult(n, NOT_APPLICABLE, {"unmet": unmet}) for n in _MATRIX_CHECKS]
        else:
            base_analysis = prepare_ring_analysis(base)
            checks += [
                check_matrix_diam_lower(a, base, k),
                check_matrix_diam_monotone(a, base_analysis, k),
                check_matrix_girth(a, base, k),
            ]
    return AnalysisReport(
        expr=expr if expr is not None else r.name,
        ring_order=r.order,
        left_ideal_count=len(a.left),
        right_ideal_count=len(a.right),
        ipo_size=a.ipo.order,
        vertex_count=a.graph.n_vertices,
        directed_connected=metrics.directed_connected,
        directed_diameter=metrics.directed_diameter,
        undirected_diameter=metrics.undirected_diameter,
        girth=metrics.girth,
        complete=metrics.complete,
        tournament=metrics.tournament,
        checks=checks,
    )
