"""Every read of a ring goes through its vectorised access: points through
`add_at` and `mul_at`, whole rows and columns through `mul_rows` and
`mul_cols`.  Matrix and product rings answer it from small pieces, never
from n x n tables; here each access is compared with full tables that the
oracles build entry by entry, and the analysis is checked to leave a
composed ring without tables."""

import numpy as np
import pytest

import oracles
import zdgraph as z
from oracles import digit_matrix_ring, pairwise_product_ring, units_mask
from table_rings import upper_triangular
from zdgraph.cli import _analyze_expr
from zdgraph.rings import MatrixRing, ProductRing, _ComposedRing


def _reference(ring: z.FiniteRing) -> z.FiniteRing:
    """A table ring with ring's operations: the ring itself when it holds
    tables, otherwise built entry by entry from its base or factors."""
    if isinstance(ring, MatrixRing):
        base, k = ring.matrix_of
        return digit_matrix_ring(_reference(base), k)
    if isinstance(ring, ProductRing):
        return pairwise_product_ring(*map(_reference, ring.factors))
    return ring


def _composed_parts(ring: z.FiniteRing) -> list[z.FiniteRing]:
    """ring and every base and factor it is built from, when they keep no tables."""
    if isinstance(ring, MatrixRing):
        inner = [ring.matrix_of[0]]
    elif isinstance(ring, ProductRing):
        inner = list(ring.factors)
    else:
        return []
    return [ring] + [part for r in inner for part in _composed_parts(r)]


def _assert_same(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert got.dtype == expected.dtype, what
    assert np.array_equal(got, expected), what


def _check_access(name: str, ring: z.FiniteRing, ref: z.FiniteRing, rng) -> None:
    n, add, mul = ring.order, ref.add_table, ref.mul_table
    xs = rng.integers(0, n, size=min(n, 40))
    ys = rng.integers(0, n, size=min(n, 24))
    for op, table in ((ring.add_at, add), (ring.mul_at, mul)):
        _assert_same(op(xs[:, None], ys), table[xs[:, None], ys], f"{name}: outer {op.__name__}")
        _assert_same(op(xs, xs[::-1]), table[xs, xs[::-1]], f"{name}: pointwise {op.__name__}")
        assert op(int(xs[0]), int(ys[0])) == table[xs[0], ys[0]], f"{name}: scalar {op.__name__}"
    x, y = int(xs[0]), int(ys[0])
    # parts of rows and columns are point reads (rows over ys are the outer form above)
    _assert_same(ring.mul_at(x, ys), mul[x, ys], f"{name}: one row over ys")
    _assert_same(ring.mul_at(xs, y), mul[xs, y], f"{name}: one column over xs")
    _assert_same(ring.mul_at(xs, ys[:, None]), mul[np.ix_(xs, ys)].T, f"{name}: columns over xs")
    _assert_same(ring.mul_rows(xs), mul[xs], f"{name}: rows")
    _assert_same(ring.mul_cols(ys), mul[:, ys].T, f"{name}: columns")
    _assert_same(ring.mul_rows(x), mul[x], f"{name}: one row")
    _assert_same(ring.mul_cols(y), mul[:, y], f"{name}: one column")
    assert np.array_equal(ring.units, np.flatnonzero(units_mask(ref))), name
    assert ring.is_commutative() == np.array_equal(mul, mul.T), name
    assert ring.additive_generators.tolist() == ref.additive_generators.tolist(), name


def test_access_matches_full_tables(rings, nonprincipal, monkeypatch):
    # M2(U2(Z2)) (order 4096) tests the units rule over a noncommutative base;
    # smaller oracle blocks keep its entry-by-entry tables' temporaries small
    monkeypatch.setattr(oracles, "_BLOCK_ELEMS", 1 << 20)
    zn = z.make_cyclic_ring
    cases = {**rings, **nonprincipal}
    cases["M2(Z6)"] = z.make_matrix_ring(zn(6), 2)
    cases["M3(Z2)"] = z.make_matrix_ring(zn(2), 3)
    cases["M2(Z2 x Z3)"] = z.make_matrix_ring(z.make_product_ring(zn(2), zn(3)), 2)
    cases["Z2 x M2(Z3)"] = z.make_product_ring(zn(2), rings["M2(Z3)"])
    cases["M2(U2(Z2))"] = z.make_matrix_ring(upper_triangular(2), 2)
    rng = np.random.default_rng(20)
    for name, ring in cases.items():
        ref = _reference(ring)
        assert (ref.order, ref.one) == (ring.order, ring.one), name
        _check_access(name, ring, ref, rng)


@pytest.mark.parametrize("expr", ["M2(Z6)", "M3(Z2)", "M2(Z2) x Z3"])
def test_analysis_reads_no_table_of_a_composed_ring(expr):
    # the CLI path, build to run_all (with the base's analysis for a matrix
    # ring), leaves the ring and every composed base or factor without tables
    ring = _analyze_expr(expr, z.DEFAULT_SIZE_CAP)[1].ring
    parts = _composed_parts(ring)
    assert parts and parts[0] is ring
    for part in parts:
        assert isinstance(part, _ComposedRing)
        assert "add_table" not in vars(part) and "mul_table" not in vars(part), part.name


def test_equality_reads_access_not_tables():
    zn = z.make_cyclic_ring
    a, b = (z.make_matrix_ring(zn(6), 2) for _ in range(2))
    assert a is not b and a == b
    ref = digit_matrix_ring(zn(6), 2)
    assert a == ref and ref == a
    # swap two elements other than 0 and one: same order and one, other operations
    perm = np.arange(a.order)
    perm[[1, 2]] = perm[[2, 1]]
    add, mul = perm[ref.add_table[np.ix_(perm, perm)]], perm[ref.mul_table[np.ix_(perm, perm)]]
    relabelled = z.FiniteRing(add, mul, one=a.one)
    assert a != relabelled and relabelled != a
    # each operation is compared: the opposite ring differs in its product alone
    assert a != z.FiniteRing(ref.add_table, ref.mul_table.T, one=a.one)
    assert a != z.FiniteRing(add, ref.mul_table, one=a.one)
    assert a != z.make_matrix_ring(zn(2), 3)  # another order
    for ring in (a, b):
        assert "add_table" not in vars(ring) and "mul_table" not in vars(ring)
