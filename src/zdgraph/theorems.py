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
from .ideals import OneSidedIdeal, additive_generators, enumerate_one_sided_ideals
from .rings import CyclicRing, ElementSet, FiniteRing
from .report import AnalysisReport, CheckResult, serialize_extent
from .semigroups import AnnSets, FiniteSemigroupWithZero, ann_sets, build_ipo, compose_ideals_and_ipo

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
    """r's ideal lists and IPO (`_ideals_and_ipo`), then the IPO's ann sets and graph."""
    left, right, ipo = _ideals_and_ipo(r)
    ann = ann_sets(ipo)
    return RingAnalysis(r, left, right, ipo, ann, directed_zd_graph(ipo, ann))


def _ideals_and_ipo(r: FiniteRing) -> tuple[list[OneSidedIdeal], list[OneSidedIdeal], FiniteSemigroupWithZero]:
    """r's left and right ideal lists and its IPO, as enumeration gives them.

    A ring that does not split enumerates each side once (one side for
    commutative r, where both lists coincide, flags included) and runs
    `build_ipo`.  So does Z_n, which is small enough that this costs less
    (`verify zn --max 200` in-process: 0.14 s, against 0.18-0.23 s
    composed).  A ring that splits, r = A x B (`FiniteRing.split`), composes
    its IPO from A's and B's, found by this same helper, and reads its lists
    off it (`compose_ideals_and_ipo`).
    """
    parts = None if isinstance(r, CyclicRing) else r.split
    if parts is None:
        left = enumerate_one_sided_ideals(r, "left")
        right = left if r.is_commutative() else enumerate_one_sided_ideals(r, "right")
        return left, right, build_ipo(r, left, right)
    return compose_ideals_and_ipo(r, *(_ideals_and_ipo(f) for f in parts[:2]))


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
    if diam is not None and diam > 3:
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


def _adjacent(t: np.ndarray, x: int, y: int) -> bool:
    """x and y are adjacent in the undirected view: x*y = 0 or y*x = 0."""
    return t[x, y] == 0 or t[y, x] == 0


def _assert_path(
    s: FiniteSemigroupWithZero, path: list[int], mode: str, d_star: frozenset[int]
) -> None:
    t = s.table
    if len(path) != len(set(path)) or not 2 <= len(path) <= 4:
        raise RuntimeError(f"internal: constructed path {path} is degenerate")
    if any(v not in d_star for v in path):
        raise RuntimeError(f"internal: constructed path {path} leaves the vertex set")
    for x, y in zip(path, path[1:]):
        ok = t[x, y] == 0 if mode == "directed" else _adjacent(t, x, y)
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
    c = _first(
        (x for x in range(1, m) if x not in (a, b) and _adjacent(t, b, x)),
        f"no annihilating partner besides {a} for {b}",
    )
    if _adjacent(t, a, c):
        return [a, c, b]
    if t[b, c] == 0:
        return [a, int(t[c, a]), b]
    return [a, int(t[a, c]), b]


def _undirected_path(s: FiniteSemigroupWithZero, a: int, b: int) -> list[int]:
    t = s.table
    m = s.order
    if _adjacent(t, a, b):
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
        (x for x in range(1, m) if x not in (a, b) and _adjacent(t, a, x)),
        f"no annihilating partner besides {b} for {a}",
    )
    d = _first(
        (x for x in range(1, m) if x not in (a, b) and _adjacent(t, b, x)),
        f"no annihilating partner besides {a} for {b}",
    )
    if _adjacent(t, c, b):
        return [a, c, b]
    if _adjacent(t, a, d):
        return [a, d, b]
    if _adjacent(t, c, d):
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
    # IPO element 0 is {0}; R, the largest left ideal, is one too (R = R*R)
    whole = max(a.left, key=lambda i: len(i.set)).set
    expected = frozenset(range(1, a.ipo.order)) - {a.ipo.labels.index(whole)}
    witness = {"ipo_size": a.ipo.order, "expected_vertices": _labels(a.graph, expected)}
    if a.ann.a_left == a.ann.a_right == expected:
        return CheckResult(name, PASS, witness)
    witness["a_left"] = _labels(a.graph, a.ann.a_left)
    witness["a_right"] = _labels(a.graph, a.ann.a_right)
    return CheckResult(name, FAIL, witness)


def _ipo_product(a: RingAnalysis, i: OneSidedIdeal, j: OneSidedIdeal) -> ElementSet:
    """I*J read off the IPO's Cayley table.  Every one-sided ideal is an IPO
    element (a left ideal L is R*L, a right ideal K is K*R)."""
    labels = a.ipo.labels
    return labels[a.ipo.table[labels.index(i.set), labels.index(j.set)]]


def _completeness_branches(a: RingAnalysis) -> tuple[list[str], dict]:
    """The classifier's branches, read off the left-ideal lattice and the IPO.

    In a finite ring every non-unit x is a zero-divisor (if y -> x*y is
    injective it is onto, so x*y = 1 and x is a unit), and a ring that is not
    local has an idempotent other than 0 and 1 (lift one from R/J(R), which
    is then semisimple and not a division ring).  With m the largest proper
    left ideal:

    - R is local iff m contains every proper left ideal: every proper left
      ideal lies in a maximal one, so m is then the only maximal left ideal,
      and it is the set of non-units.
    - (D(R))^2 = 0 iff R is local and m*m = 0.  If R is local, D(R) = m.  If
      not, a nontrivial idempotent e is a zero-divisor with e*e = e != 0.
    - `local_ideal_chain`: R is local and the IPO is {0, m, m^2, R}.
    - R is a product of two division rings iff it is not local and has
      exactly two nonzero proper left ideals, both two-sided.  Not local,
      it has at least two maximal left ideals, all nonzero (a ring whose
      zero ideal is maximal is a division ring), so the two are its maximal
      left ideals and also minimal: they meet in 0 and sum to R.  Two-sided ideals that split R split it as a
      ring, into factors with no nonzero proper left ideal: division rings.
      Conversely D1 x D2 has exactly D1 x 0 and 0 x D2.  The witness is the
      smaller of e and f in 1 = e + f, e in the first and f in the second.
    """
    r = a.ring
    whole = max(a.left, key=lambda i: len(i.set)).set  # R
    proper = [i for i in a.left if i.set != whole]
    m = max(proper, key=lambda i: len(i.set))
    if all(i.set <= m.set for i in proper):
        m_sq = _ipo_product(a, m, m)
        branches = ["zero_divisor_products_vanish"] if len(m_sq) == 1 else []
        if set(a.ipo.labels) == {a.ipo.labels[0], m.set, m_sq, whole}:
            branches.append("local_ideal_chain")
        return branches, {"maximal_ideal": str(m), "maximal_ideal_squared": str(m_sq)}
    nonzero = [i for i in proper if len(i.set) > 1]
    if len(nonzero) == 2 and all(i.is_right for i in nonzero):
        x, y = (i.set.indices() for i in nonzero)
        e, f = np.argwhere(r.add_at(np.array(x)[:, None], y) == r.one)[0]
        return ["two_division_rings"], {"central_idempotent": min(x[e], y[f])}
    return [], {}


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
    squares = np.diagonal(a.ipo.table)[1:]
    if not squares.all():
        return CheckResult(
            name,
            NOT_APPLICABLE,
            {"unmet": "some nonzero ideal product squares to zero",
             "witness_element": str(a.ipo.labels[1 + int(squares.argmin())])},
        )
    overlap = a.ann.a_left & a.ann.a_right
    if not overlap:
        return CheckResult(
            name, NOT_APPLICABLE, {"unmet": "left and right annihilator sets are disjoint"}
        )
    g = a.graph
    if g.metrics.tournament:
        return CheckResult(name, FAIL, {"tournament": True})
    i, j = g.metrics.symmetric_pair
    kind = "mutual_pair" if g.adj[i, j] else "non_adjacent_pair"
    return CheckResult(name, PASS, {kind: [str(g.labels[i]), str(g.labels[j])]})


# -- matrix-ring checks -----------------------------------------------------------


def annihilating_ideal_graph(a: RingAnalysis) -> ZdGraph:
    """Commutative annihilating-ideal graph: nonzero ideals with a nonzero
    annihilator, adjacent when their product is the zero ideal.  It reads only
    the ring's multiplication and its ideal list, never the IPO.

    By bilinearity, I*J = 0 exactly when every product of an additive
    generator of I and one of J is 0, and Ann(I) != 0 exactly when some
    nonzero x kills every additive generator of I.
    """
    r = a.ring
    if not r.is_commutative():
        raise ValueError("the annihilating-ideal graph is defined for commutative rings")
    gens = [additive_generators(r, i) for i in a.left]
    keep = [v for v, i in enumerate(a.left) if len(i.set) > 1 and (r.mul_cols(gens[v])[:, 1:] == 0).all(0).any()]
    # adjacency: I*J = 0, read for I = J too, since ZdGraph drops the diagonal
    zero = [[not r.mul_at(gens[v][:, None], gens[w]).any() for w in keep] for v in keep]
    return ZdGraph(range(len(keep)), [a.left[v].set for v in keep], np.reshape(zero, (len(keep),) * 2))


_MATRIX_CHECKS = ("matrix_diam_lower", "matrix_diam_monotone", "matrix_girth")


def _matrix_unmet(r: FiniteRing, k: int) -> str | None:
    """Why the matrix checks do not apply to k-by-k matrices over r, if they don't."""
    if r.is_zero_ring():
        return _ZERO_RING
    if not r.is_commutative():
        return "base ring is not commutative"
    return "matrix dimension below 2" if k < 2 else None


def _require_matrix(a: RingAnalysis) -> tuple[FiniteRing, int]:
    """(base, k) of the matrix ring a.ring = M_k(base), if the matrix checks apply."""
    m = a.ring.matrix_of
    unmet = "ring was not built by make_matrix_ring" if m is None else _matrix_unmet(*m)
    if unmet is not None:
        raise ValueError(f"matrix checks do not apply: {unmet}")
    return m


def _corner_pair(a: RingAnalysis) -> tuple[OneSidedIdeal, OneSidedIdeal]:
    """R*e11 and e11*R for a = M_k(base): the smallest left and the smallest
    right ideal that hold the corner unit e11."""
    base, k = a.ring.matrix_of
    e11 = base.one * (base.order ** (k * k - 1))
    return tuple(
        min((i for i in side if e11 in i.set), key=lambda i: len(i.set))
        for side in (a.left, a.right)
    )


def check_matrix_diam_lower(a: RingAnalysis) -> CheckResult:
    """diam of the undirected graph of a = M_k(base) is at least 2; also
    verifies the witness pair of column/row ideals at the corner unit."""
    name = "matrix_diam_lower"
    _require_matrix(a)
    g = a.graph
    diam = g.metrics.undirected_diameter
    witness: dict = {"diameter": serialize_extent(diam)}

    # the column and row ideals at the corner unit: their product is nonzero,
    # so they realise a non-adjacent vertex pair
    col, row = _corner_pair(a)
    both_vertices = col.set in g.labels and row.set in g.labels
    product_nonzero = len(_ipo_product(a, col, row)) > 1
    witness["corner_pair_present"] = both_vertices
    witness["corner_product_nonzero"] = product_nonzero
    ok = diam is not None and diam >= 2 and both_vertices and product_nonzero
    return CheckResult(name, PASS if ok else FAIL, witness)


def check_matrix_diam_monotone(a: RingAnalysis, base: RingAnalysis) -> CheckResult:
    """diam over a = M_k(base.ring) dominates diam over the base ring, and the
    base-ring graph agrees with the directly built annihilating-ideal graph."""
    name = "matrix_diam_monotone"
    if base.ring != _require_matrix(a)[0]:
        raise ValueError("matrix_diam_monotone needs the analysis of the matrix ring's base")
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


def check_matrix_girth(a: RingAnalysis) -> CheckResult:
    """Girth of the undirected graph of a = M_k(base) is exactly 3."""
    name = "matrix_girth"
    _require_matrix(a)
    value, witness = _girth_witness(a.graph)
    return CheckResult(name, PASS if value == 3 else FAIL, witness)


# -- full analysis ------------------------------------------------------------------


def run_all(
    r: FiniteRing,
    expr: str | None = None,
    *,
    analysis: RingAnalysis | None = None,
) -> AnalysisReport:
    """Build ideals, the ideal-product semigroup, both graph views, all
    metrics, and every applicable check for one ring.

    Checks take the artifacts they read; this is the one function that builds
    them.  Every check shares r's `analysis` (prepared here if not given).
    When make_matrix_ring built r = M_k(base) (`r.matrix_of`), the matrix
    checks run too, on r's analysis and the base ring's, prepared here only
    when they apply.  An `analysis` of another ring raises ValueError.
    """
    if analysis is not None and analysis.ring is not r:
        raise ValueError(f"the analysis given to run_all is of {analysis.ring.name}, not {r.name}")
    a = analysis if analysis is not None else prepare_ring_analysis(r)
    metrics = a.graph.metrics
    checks = [
        *semigroup_checks(a.graph, a.ann),
        check_duo_ann_sets(a),
        classify_completeness(a),
        check_not_tournament(a),
    ]
    if r.matrix_of is not None:
        unmet = _matrix_unmet(*r.matrix_of)
        if unmet is not None:
            checks += [CheckResult(n, NOT_APPLICABLE, {"unmet": unmet}) for n in _MATRIX_CHECKS]
        else:
            checks += [
                check_matrix_diam_lower(a),
                check_matrix_diam_monotone(a, prepare_ring_analysis(r.matrix_of[0])),
                check_matrix_girth(a),
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
