"""A ring that splits (a product ring, a ring with tables at a central
idempotent, a matrix ring over a base that splits) takes its ideal lists and
IPO from its factors' (`theorems._ideals_and_ipo`).  Both must be exactly what
direct enumeration and `build_ipo` give on the ring itself, and every split
map must be a ring isomorphism."""

import numpy as np
import pytest

import zdgraph as z
from table_rings import draw_permutation, f2_xy, relabelled_table_text, upper_triangular
from zdgraph.rings import FiniteRing, MatrixRing, ProductRing
from zdgraph.theorems import _ideals_and_ipo

# every product and every split matrix ring of the test corpus under the cap:
# the `rings` fixture's products, the golden rings, the rings the CLI tests
# build, a zero-ring factor, a third prime (Z30), and the one split at k = 3
# under the cap (M3(Z1 x Z2), of order 512)
EXPRS = [
    "Z2 x Z2",
    "Z2 x Z3",
    "Z2 x Z4",
    "Z3 x Z3",
    "Z2 x Z2 x Z2",
    "Z1 x Z3",
    "M2(Z6)",
    "M1(Z6)",
    "M1(Z30)",
    "M2(Z10)",
    "M2(Z2 x Z3)",
    "M2(Z1 x Z3)",
    "M3(Z1 x Z2)",
    "Z8 x M2(Z2)",
    "M2(Z2) x Z3",
    "M2(Z2) x Z2",
]


def _corpus() -> dict:
    cases = {e: z.build_ring(z.parse_ring_expr(e)) for e in EXPRS}
    z3 = z.make_cyclic_ring(3)
    # U2(Z4) has a one-sided ideal that is not principal, and is not commutative
    cases["U2(Z4) x Z3"] = z.make_product_ring(upper_triangular(4), z3)
    cases["F2[x,y]/(x,y)^2 x Z3"] = z.make_product_ring(f2_xy(), z3)
    return cases


CORPUS = _corpus()


def _generated(r, gens, side: str) -> set[int]:
    """The sum of the R*x (left) or x*R (right) over x in gens, as a set."""
    total = np.zeros(1, dtype=np.intp)
    for x in gens:
        principal = np.unique(r.mul_cols(x) if side == "left" else r.mul_rows(x))
        total = np.unique(r.add_at(total[:, None], principal))
    return set(total.tolist())


def _table_copy(r, seed: int = 5):
    """`r` read back from a table file that relabels it by a seeded permutation."""
    return z.load_table_ring(relabelled_table_text(r, draw_permutation(r.order, seed)))


def _assert_composed_matches_direct(r, name: str) -> None:
    left, right, ipo = _ideals_and_ipo(r)
    direct = {side: z.enumerate_one_sided_ideals(r, side) for side in ("left", "right")}
    for side, composed in (("left", left), ("right", right)):
        assert [(i.set, i.is_left, i.is_right) for i in composed] == [
            (i.set, i.is_left, i.is_right) for i in direct[side]
        ], (name, side)
        for ideal, expected in zip(composed, direct[side]):
            assert _generated(r, ideal.generators, side) == set(ideal.set), (name, side, str(ideal))
            if isinstance(r, ProductRing) and len(ideal.generators) == 1:
                # on the identity map a principal product keeps the smallest generator
                assert ideal.generators == expected.generators, (name, side, str(ideal))
    built = z.build_ipo(r, direct["left"], direct["right"])
    assert ipo.labels == built.labels, name
    assert ipo.table.dtype == built.table.dtype and np.array_equal(ipo.table, built.table), name


@pytest.mark.parametrize("name", list(CORPUS))
def test_composed_lists_and_ipo_match_the_direct_ones(name):
    r = CORPUS[name]
    assert isinstance(r, (MatrixRing, ProductRing)) and r.split is not None
    _assert_composed_matches_direct(r, name)


# M2(Z10), of order 10^4, would need two 200 MB tables and a 1 GB table file
TABLE_COPIES = [name for name, r in CORPUS.items() if r.order <= 1296]
# Z1 x Z3 is Z3, and M2(Z1 x Z3) and M3(Z1 x Z2) are M2(Z3) and M3(Z2), whose
# idempotents are not central
INDECOMPOSABLE = {"Z1 x Z3", "M2(Z1 x Z3)", "M3(Z1 x Z2)"}


@pytest.mark.parametrize("name", TABLE_COPIES)
def test_a_table_copy_is_composed_to_the_direct_report(name, monkeypatch):
    r = CORPUS[name]
    text = relabelled_table_text(r, draw_permutation(r.order, 5))
    copy = z.load_table_ring(text)
    assert (copy.split is None) == (name in INDECOMPOSABLE), name
    _assert_composed_matches_direct(copy, name)
    composed = z.write_report_json(z.run_all(copy))
    # a fresh copy of the same ring, enumerated whole
    monkeypatch.setattr(FiniteRing, "split", None)
    assert z.write_report_json(z.run_all(z.load_table_ring(text))) == composed, name


def _expr(e: str):
    return lambda: z.build_ring(z.parse_ring_expr(e))


SPLIT_CASES = {
    **{e: _expr(e) for e in ("Z6", "Z12", "Z30", "Z60", "M1(Z6)", "M2(Z6)", "M2(Z2 x Z3)", "Z8 x M2(Z2)")},
    # a relabelled product of four fields, and a noncommutative table ring
    # with a central idempotent
    "T(Z2 x Z2 x Z2 x Z7)": lambda: _table_copy(_expr("Z2 x Z2 x Z2 x Z7")(), 3),
    "T(M2(Z2) x Z3)": lambda: _table_copy(CORPUS["M2(Z2) x Z3"]),
}


@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_every_split_is_a_ring_isomorphism(name):
    r = SPLIT_CASES[name]()
    a, b, phi = r.split
    assert a.order * b.order == r.order and 1 < a.order < r.order
    assert sorted(phi.tolist()) == list(range(r.order))
    # a ring with tables hands over its factors unvalidated
    for factor in (a, b):
        z.validate_ring(factor)
    pairs = z.make_product_ring(a, b)
    ar = np.arange(r.order)
    for op in ("add_at", "mul_at"):
        for s in z.rings._blocks(r.order, r.order):
            xs = ar[s, None]
            assert np.array_equal(getattr(r, op)(phi[xs], phi[ar]), phi[getattr(pairs, op)(xs, ar)]), (name, op)
    assert phi[pairs.one] == r.one


def test_small_blocks_compose_the_same_lists_and_ipo(monkeypatch):
    # at _BLOCK_ELEMS = 200 the owner scatter of a composed list or IPO runs
    # in many blocks (M2(Z6)'s labels take 17), so each block must find its
    # owners at its own offset; the factors split and the rings' derived values
    # are cached, so both runs compose on the same factor rings
    cases = {e: _expr(e)() for e in ("M2(Z6)", "M2(Z2) x Z3", "M3(Z1 x Z2)")}
    cases["T(Z2 x Z2 x Z7)"] = _table_copy(_expr("Z2 x Z2 x Z7")(), 7)
    expected = {name: _ideals_and_ipo(r) for name, r in cases.items()}
    monkeypatch.setattr(z.rings, "_BLOCK_ELEMS", 200)
    for name, r in cases.items():
        (left, right, ipo), (small_left, small_right, small) = expected[name], _ideals_and_ipo(r)
        assert small_left == left and small_right == right, name
        assert np.array_equal(small.table, ipo.table) and small.labels == ipo.labels, name


def test_what_does_not_split():
    # prime powers, matrices over them and local rings (F2[x,y]/(x,y)^2) are
    # indecomposable; the idempotents of M2(Z2) and U2(Z4) other than 0 and 1
    # are not central
    for name in ("Z1", "Z7", "Z8", "M2(Z4)", "M3(Z2)", "M2(Z1)"):
        assert _expr(name)().split is None, name
    u2z4, m2z2 = upper_triangular(4), _expr("M2(Z2)")()
    for r in (u2z4, _table_copy(u2z4), _table_copy(m2z2), f2_xy()):
        assert r.split is None, r.name
