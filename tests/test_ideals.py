import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zdgraph as z

from oracles import (
    additive_closure,
    element_set,
    ideal_product,
    naive_additive_closure,
    naive_ideal_product,
    naive_is_one_sided_ideal,
    scatter_principal_sets,
    subset_scan_ideals,
    units_mask,
)
from table_rings import draw_permutation, relabelled_table_text

E11, E12 = 8, 4  # matrix units in M2(Z2)


def test_additive_closure_examples(rings):
    assert additive_closure(rings["Z6"], [2]).indices() == (0, 2, 4)
    assert additive_closure(rings["Z6"], []).indices() == (0,)
    z12 = z.make_cyclic_ring(12)
    assert additive_closure(z12, [4, 6]).indices() == (0, 2, 4, 6, 8, 10)


@given(st.sets(st.integers(min_value=0, max_value=11), max_size=5))
def test_additive_closure_matches_naive(seed):
    r = z.make_cyclic_ring(12)
    got = set(additive_closure(r, seed).indices())
    assert got == naive_additive_closure(r, seed)


def test_principal_ideals(rings):
    r6 = rings["Z6"]
    assert additive_closure(r6, r6.mul_table[:, 2]).indices() == (0, 2, 4)
    # the column and row ideals at the corner unit are one-sided only
    m = rings["M2(Z2)"]
    col = additive_closure(m, m.mul_table[:, E11])
    row = additive_closure(m, m.mul_table[E11, :])
    assert len(col) == len(row) == 4  # first column (row) arbitrary, the other zero
    left = {i.bits: i for i in z.enumerate_one_sided_ideals(m, "left")}
    right = {i.bits: i for i in z.enumerate_one_sided_ideals(m, "right")}
    assert left[col.bits].is_left and not left[col.bits].is_right
    assert right[row.bits].is_right and not right[row.bits].is_left
    assert col.bits not in right and row.bits not in left


def test_is_left_ideal_examples(rings):
    # each example against both the enumeration and the naive predicate
    def listed(ring, s, side):
        return s in [i.set for i in z.enumerate_one_sided_ideals(ring, side)]

    r6 = rings["Z6"]
    evens, pair = element_set(r6, [0, 2, 4]), element_set(r6, [0, 2])
    assert listed(r6, evens, "left") and naive_is_one_sided_ideal(r6, evens, "left")
    assert not listed(r6, pair, "left") and not naive_is_one_sided_ideal(r6, pair, "left")
    m = rings["M2(Z2)"]
    s = element_set(m, [0, E12])
    for side in ("left", "right"):
        assert not listed(m, s, side) and not naive_is_one_sided_ideal(m, s, side)


def test_enumerate_ideals_examples(rings):
    left6 = z.enumerate_one_sided_ideals(rings["Z6"], "left")
    assert [i.set.indices() for i in left6] == [
        (0,),
        (0, 3),
        (0, 2, 4),
        (0, 1, 2, 3, 4, 5),
    ]
    assert len(z.enumerate_one_sided_ideals(rings["M2(Z2)"], "left")) == 5
    assert len(z.enumerate_one_sided_ideals(rings["Z5"], "left")) == 2


ORDER_8_NONPRINCIPAL = ("F2[x,y]/(x,y)^2", "Z4[x]/(2x,x^2)")


def _naive_generators(ring, side):
    """Each principal ideal, as the bits of a column (left) or row (right)
    of products, mapped to the smallest x giving it."""
    found = {}
    for x in reversed(range(ring.order)):
        image = ring.mul_table[:, x] if side == "left" else ring.mul_table[x, :]
        found[element_set(ring, image).bits] = x
    return found


def _assert_generators(ideal, smallest):
    """`ideal.generators` is (x,) for the smallest x giving a principal ideal
    (`smallest` maps bits to it), else at least two, none repeated."""
    x = smallest.get(ideal.bits)
    if x is not None:
        assert ideal.generators == (x,), str(ideal)
    else:
        assert len(set(ideal.generators)) == len(ideal.generators) >= 2, str(ideal)


def test_enumerate_matches_subset_scan(rings, nonprincipal):
    # sets, flags and generators: (x,) with x the smallest giving the ideal
    # as a column (left) or row (right) of products, at least two if none does
    cases = [rings[name] for name in ("Z6", "Z8", "Z9", "M2(Z2)", "Z2xZ4")]
    cases += [nonprincipal[name] for name in ORDER_8_NONPRINCIPAL]
    for ring in cases:
        scans = {side: subset_scan_ideals(ring, side) for side in ("left", "right")}
        for side in ("left", "right"):
            ideals = z.enumerate_one_sided_ideals(ring, side)
            assert [i.set for i in ideals] == scans[side]
            generators = _naive_generators(ring, side)
            for ideal in ideals:
                _assert_generators(ideal, generators)
                assert ideal.is_left == (ideal.set in scans["left"])
                assert ideal.is_right == (ideal.set in scans["right"])


def test_other_sides_are_read_off_the_principal_lines(nonprincipal, monkeypatch):
    # a sum's other side is decided by its generators' lines, which
    # _principal_sets reads: the enumeration reads no row or column elsewhere,
    # and each sum's other-side flag matches a scan of its products with R
    inside, outside = [False], []
    principal_sets = z.ideals._principal_sets

    def traced(*args):
        inside[0] = True
        try:
            return principal_sets(*args)
        finally:
            inside[0] = False

    def counted(line, read):
        def wrapper(xs):
            if not inside[0]:
                outside.append(line)
            return read(xs)

        return wrapper

    monkeypatch.setattr(z.ideals, "_principal_sets", traced)
    # every table is read before any line is counted: a product ring reads its factors' lines
    tables = {name: ring.mul_table for name, ring in nonprincipal.items()}
    for name, ring in nonprincipal.items():
        table, every = tables[name], np.arange(ring.order)
        for line in ("mul_rows", "mul_cols"):
            monkeypatch.setattr(ring, line, counted(line, getattr(ring, line)))
        for side in ("left", "right"):
            sums = [i for i in z.enumerate_one_sided_ideals(ring, side) if len(i.generators) > 1]
            assert sums and outside == [], (name, side)
            for ideal in sums:
                s = list(ideal.set.indices())
                assert ideal.is_right == np.isin(table[np.ix_(s, every)], s).all(), (name, str(ideal))
                assert ideal.is_left == np.isin(table[np.ix_(every, s)], s).all(), (name, str(ideal))
            flags = {(i.is_left, i.is_right) for i in sums}
            if name == "U2(Z4)":  # non-commutative: some sums are one-sided only
                assert (side == "left", side == "right") in flags, side


def test_generators_on_larger_nonprincipal_rings(nonprincipal):
    for name, ring in nonprincipal.items():
        for side in ("left", "right"):
            generators = _naive_generators(ring, side)
            ideals = z.enumerate_one_sided_ideals(ring, side)
            for ideal in ideals:
                _assert_generators(ideal, generators)
            assert any(len(ideal.generators) > 1 for ideal in ideals), (name, side)


def _orbit_walk_cases(rings, nonprincipal):
    """The rings fixture, the non-principal rings, M2(Z8), M2(Z9), and table
    rings relabelled as in test_relabelling.py, which moves the units and the
    smallest generators."""
    cases = {**rings, **nonprincipal}
    for expr in ("M2(Z8)", "M2(Z9)"):
        cases[expr] = z.build_ring(z.parse_ring_expr(expr))
    for name in ("Z12", "M2(Z2)", "F2[x,y]/(x,y)^2"):
        ring = cases[name]
        for seed in (1, 2, 3):
            text = relabelled_table_text(ring, draw_permutation(ring.order, seed))
            cases[f"{name} relabelled by seed {seed}"] = z.load_table_ring(text)
    return cases


def test_principal_sets_by_unit_orbits_match_scatter(rings, nonprincipal):
    # keys, smallest generators, other-side flags and insertion order; the
    # flag is read off the other-side line, which the ideal holds exactly
    # when the ideal absorbs the other side
    for name, ring in _orbit_walk_cases(rings, nonprincipal).items():
        for side in ("left", "right"):
            got = z.ideals._principal_sets(ring, side)
            flags = [(bits, (x, line | bits == bits)) for bits, (x, line) in got.items()]
            assert flags == list(scatter_principal_sets(ring, side).items()), (name, side)


def test_sums_match_the_span_oracle(rings, nonprincipal, monkeypatch):
    # the sum routine that the enumeration and build_ipo share: a sum of two
    # enumerated ideals, on both sides, and a sum of principal left ideals
    # over a group of generators, are the additive closure of the union.
    # Only the principal ideals are known, so a sum that is not principal,
    # such as the maximal ideal (x, y) of F2[x,y]/(x,y)^2, is spanned
    spans = []
    span = z.ideals._additive_span
    monkeypatch.setattr(z.ideals, "_additive_span", lambda *args: spans.append(args) or span(*args))
    for name, ring in {**rings, **nonprincipal}.items():
        n, mul = ring.order, ring.mul_table
        groups = [[]] + [[y] for y in range(n)] + [[y, (3 * y + 1) % n, (5 * y + 2) % n] for y in range(n)]
        for side in ("left", "right"):
            ideals = z.enumerate_one_sided_ideals(ring, side)
            spans.clear()
            sums = z.ideals._Sums(ring, [i.bits for i in ideals if len(i.generators) == 1])
            for a in ideals:
                for b in ideals:
                    expected = additive_closure(ring, a.set.indices() + b.set.indices()).bits
                    assert sums.add(a.bits, b.bits) == expected, (name, side, str(a), str(b))
            if side == "left":
                for ys, got in zip(groups, sums.of(groups)):
                    assert got == additive_closure(ring, mul[:, ys].ravel()).bits, (name, ys)
            if name in rings:
                assert spans == [], (name, side)
            elif name == "F2[x,y]/(x,y)^2":
                assert spans, side


def test_ideals_are_the_sums_over_their_generators(rings, nonprincipal):
    # each ideal is the sum of the R*x (left) or x*R (right) over its
    # generators, and additive_generators spans it; principal ideals and the
    # rest are told apart by _assert_generators
    for name, ring in _orbit_walk_cases(rings, nonprincipal).items():
        mul = ring.mul_table
        for side in ("left", "right"):
            smallest = {bits: x for bits, (x, _) in scatter_principal_sets(ring, side).items()}
            for ideal in z.enumerate_one_sided_ideals(ring, side):
                xs = list(ideal.generators)
                products = mul[:, xs] if side == "left" else mul[xs, :]
                assert additive_closure(ring, products.ravel()) == ideal.set, (name, side, str(ideal))
                spanned = additive_closure(ring, z.additive_generators(ring, ideal))
                assert spanned == ideal.set, (name, side, str(ideal))
                _assert_generators(ideal, smallest)


@pytest.mark.parametrize("block", [None, 200])
def test_unit_scan_matches_units_mask(rings, nonprincipal, monkeypatch, block):
    # 200-entry blocks: the scan compares rows with one a few rows at a time
    if block is not None:
        monkeypatch.setattr(z.rings, "_BLOCK_ELEMS", block)
    for name, ring in _orbit_walk_cases(rings, nonprincipal).items():
        fresh = z.FiniteRing(ring.add_table, ring.mul_table, ring.one)  # its units not yet found
        assert np.array_equal(fresh.units, np.flatnonzero(units_mask(ring))), name


def test_commutative_sides_coincide(rings):
    for name in ("Z6", "Z8", "Z12", "Z2xZ4", "Z2xZ2xZ2"):
        ring = rings[name]
        left = [i.bits for i in z.enumerate_one_sided_ideals(ring, "left")]
        right = [i.bits for i in z.enumerate_one_sided_ideals(ring, "right")]
        assert left == right


def test_ideal_product_examples(rings):
    r6 = rings["Z6"]
    evens = element_set(r6, [0, 2, 4])
    threes = element_set(r6, [0, 3])
    assert ideal_product(r6, evens, threes).indices() == (0,)
    r8 = rings["Z8"]
    half = element_set(r8, [0, 2, 4, 6])
    assert ideal_product(r8, half, half).indices() == (0, 4)


def test_ideal_product_unital_absorption(rings):
    for name in ("Z6", "Z8", "M2(Z2)"):
        ring = rings[name]
        full = z.ElementSet(ring, (1 << ring.order) - 1)
        for ideal in z.enumerate_one_sided_ideals(ring, "right"):
            assert ideal_product(ring, ideal.set, full) == ideal.set
        for ideal in z.enumerate_one_sided_ideals(ring, "left"):
            assert ideal_product(ring, full, ideal.set) == ideal.set


def test_ideal_product_matches_naive(rings):
    for name in ("Z6", "Z8", "M2(Z2)"):
        ring = rings[name]
        ideals = [i.set for i in z.enumerate_one_sided_ideals(ring, "left")]
        ideals += [i.set for i in z.enumerate_one_sided_ideals(ring, "right")]
        for a in ideals:
            for b in ideals:
                assert ideal_product(ring, a, b) == naive_ideal_product(ring, a, b)


@given(
    st.sets(st.integers(min_value=0, max_value=11), max_size=3),
    st.sets(st.integers(min_value=0, max_value=11), max_size=3),
)
def test_ideal_product_matches_naive_on_random_subgroups(seed_a, seed_b):
    r = z.make_cyclic_ring(12)
    a = additive_closure(r, seed_a)
    b = additive_closure(r, seed_b)
    assert ideal_product(r, a, b) == naive_ideal_product(r, a, b)


def test_ideal_product_rejects_non_subgroups(rings):
    r6 = rings["Z6"]
    bad = element_set(r6, [0, 2])
    with pytest.raises(ValueError):
        ideal_product(r6, bad, bad)


def test_ideal_product_associative_on_ideals(rings):
    for name in ("Z6", "Z8", "M2(Z2)", "Z2xZ4"):
        ring = rings[name]
        pool = {i.bits: i.set for i in z.enumerate_one_sided_ideals(ring, "left")}
        for i in z.enumerate_one_sided_ideals(ring, "right"):
            pool.setdefault(i.bits, i.set)
        ideals = list(pool.values())
        for a in ideals:
            for b in ideals:
                ab = ideal_product(ring, a, b)
                for c in ideals:
                    bc = ideal_product(ring, b, c)
                    assert ideal_product(ring, ab, c) == ideal_product(ring, a, bc)

