import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zdgraph as z

from oracles import (
    central_idempotents,
    digit_matrix_ring,
    element_zero_divisors,
    is_local_ring,
    naive_is_division_ring,
    pairwise_product_ring,
    ring_isomorphism,
)

# matrix-unit indices in M2(Z2): digits (m00,m01,m10,m11), most significant first
E11, E12, E21, E22 = 8, 4, 2, 1


def test_cyclic_ring_basics():
    r6 = z.make_cyclic_ring(6)
    assert r6.order == 6 and r6.one == 1
    assert r6.mul_table[2, 5] == 4
    r4 = z.make_cyclic_ring(4)
    assert r4.add_table[3, 3] == 2
    with pytest.raises(ValueError):
        z.make_cyclic_ring(0)


def test_zero_ring():
    r1 = z.make_cyclic_ring(1)
    assert r1.order == 1 and r1.one == r1.zero == 0
    z.validate_ring(r1)
    assert element_zero_divisors(r1).indices() == ()
    with pytest.raises(ValueError):
        is_local_ring(r1)


def test_cyclic_ring_tables_match_closed_form():
    # 2500 rows span two row blocks of the table fill
    for n in (1, 2, 7, 300, 2500):
        r = z.make_cyclic_ring(n)
        ar = np.arange(n)
        assert r.add_table.dtype == r.mul_table.dtype == np.uint16
        assert np.array_equal(r.add_table, np.add.outer(ar, ar) % n)
        assert np.array_equal(r.mul_table, np.multiply.outer(ar, ar) % n)


def test_product_ring_shape(rings):
    p = rings["Z2xZ2"]
    assert p.order == 4
    assert p.one == 3  # pair (1,1) row-major
    assert rings["Z2xZ2xZ2"].order == 8


def test_product_ring_isomorphic_to_z6(rings):
    iso = ring_isomorphism(rings["Z2xZ3"], rings["Z6"])
    assert iso is not None


def test_matrix_ring_m1_is_base(rings):
    m1 = z.make_matrix_ring(rings["Z6"], 1)
    assert m1 == rings["Z6"]


def test_only_matrix_rings_record_their_base(rings):
    z1, z2 = rings["Z1"], rings["Z2"]
    assert rings["M2(Z2)"].matrix_of == (z2, 2)
    assert z.make_matrix_ring(z1, 3).matrix_of == (z1, 3)
    assert z.make_matrix_ring(rings["Z6"], 1).matrix_of == (rings["Z6"], 1)
    for name in ("Z1", "Z6", "Z2xZ3"):
        assert rings[name].matrix_of is None
    assert z.make_product_ring(rings["M2(Z2)"], rings["Z3"]).matrix_of is None
    assert z.load_table_ring(_format_tables(rings["M2(Z2)"])).matrix_of is None


def test_matrix_ring_m2z2(rings):
    m = rings["M2(Z2)"]
    assert m.order == 16
    assert m.one == E11 + E22  # identity matrix
    assert m.mul_table[E11, E12] == E12
    assert m.mul_table[E12, E11] == 0


def test_matrix_ring_over_the_zero_ring_is_built_without_tables():
    # k**2 digits per element are never laid out: M100000(Z1) is one element
    m = z.make_matrix_ring(z.make_cyclic_ring(1), 100000)
    assert m.order == 1 and m.is_zero_ring()
    assert m.name == "M100000(Z1)"
    assert m.matrix_of[1] == 100000


def test_matrix_ring_capacity():
    inner = z.make_matrix_ring(z.make_cyclic_ring(7), 2)
    with pytest.raises(z.CapacityError):
        z.make_matrix_ring(inner, 3)
    # 2**4000000 elements: rejected before the order is computed or printed
    with pytest.raises(z.CapacityError, match=r"^ring of order 2\*\*4000000 exceeds"):
        z.make_matrix_ring(z.make_cyclic_ring(2), 2000)
    with pytest.raises(z.CapacityError):
        z.make_product_ring(inner, inner, cap=100)


def test_cyclic_ring_capacity():
    # checked before the two n x n tables are allocated, like its siblings;
    # the small cap goes first, so a build without the check fails fast
    with pytest.raises(z.CapacityError):
        z.make_cyclic_ring(30, cap=20)
    with pytest.raises(z.CapacityError):
        z.make_cyclic_ring(z.DEFAULT_SIZE_CAP + 1)
    assert z.make_cyclic_ring(20, cap=20).order == 20


def _composite_cases():
    """(library constructor, oracle constructor, arguments) per composite
    ring, with the ring's name as the id; composite factors come from the
    oracles."""
    zn = z.make_cyclic_ring
    z2z2 = pairwise_product_ring(zn(2), zn(2))
    m2z2 = digit_matrix_ring(zn(2), 2)
    matrices = [(zn(2), 1), (zn(6), 1), *((zn(m), 2) for m in range(2, 6)), (zn(2), 3), (z2z2, 2)]
    # Z2 x Z300 and Z300 x Z2: two tall row blocks, and 300 short ones
    products = [(zn(4), zn(3)), (m2z2, zn(3)), (z2z2, zn(2)), (zn(8), m2z2), (zn(2), zn(300)), (zn(300), zn(2))]
    for base, k in matrices:
        yield pytest.param(z.make_matrix_ring, digit_matrix_ring, (base, k), id=f"M{k}({base.name})")
    for a, b in products:
        yield pytest.param(z.make_product_ring, pairwise_product_ring, (a, b), id=f"{a.name} x {b.name}")


@pytest.mark.parametrize("build, oracle, args", _composite_cases())
def test_composite_constructors_match_entrywise_oracles(build, oracle, args):
    ring, ref = build(*args), oracle(*args)
    assert ring.name == ref.name
    for table, expected in ((ring.add_table, ref.add_table), (ring.mul_table, ref.mul_table)):
        assert table.dtype == expected.dtype
        assert table.tobytes() == expected.tobytes()
    assert ring.one == ref.one
    assert ring.matrix_of == ref.matrix_of


@pytest.mark.parametrize(
    "build, args",
    [
        (z.make_matrix_ring, lambda: (z.make_cyclic_ring(6), 2)),
        (z.make_matrix_ring, lambda: (z.make_cyclic_ring(2), 3)),
        (z.make_product_ring, lambda: (z.make_matrix_ring(z.make_cyclic_ring(2), 2), z.make_cyclic_ring(3))),
    ],
    ids=["M2(Z6)", "M3(Z2)", "M2(Z2) x Z3"],
)
def test_composite_constructors_write_no_n_by_n_table(build, args):
    # a matrix ring keeps rm (V x n) and vadd (V x V), and a product ring its
    # factors: building either allocates well under one n x n table, and
    # neither table exists until it is read
    args = args()
    tracemalloc.start()
    try:
        ring = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring.order**2 * np.dtype(ring.dtype).itemsize / 4
    assert "add_table" not in vars(ring) and "mul_table" not in vars(ring)


def test_validate_accepts_all_constructors(rings):
    for ring in rings.values():
        z.validate_ring(ring)


def _format_tables(ring):
    lines = [str(ring.order)]
    lines += [" ".join(map(str, row)) for row in ring.add_table.tolist()]
    lines += [" ".join(map(str, row)) for row in ring.mul_table.tolist()]
    return "\n".join(lines)


def test_load_table_ring_roundtrip(rings):
    loaded = z.load_table_ring(_format_tables(rings["Z4"]))
    assert loaded == rings["Z4"]


def test_load_table_ring_commutativity_error(rings):
    add = rings["Z4"].add_table.copy()
    add[1, 2] = 0  # now add(1,2) != add(2,1)
    text = "\n".join(
        ["4"]
        + [" ".join(map(str, row)) for row in add.tolist()]
        + [" ".join(map(str, row)) for row in rings["Z4"].mul_table.tolist()]
    )
    with pytest.raises(z.RingValidationError) as err:
        z.load_table_ring(text)
    assert err.value.axiom == "add-commutative"
    assert err.value.witness == (1, 2)


GF4 = """4
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0
0 0 0 0
0 1 2 3
0 2 3 1
0 3 1 2
"""


def test_load_table_ring_gf4():
    gf4 = z.load_table_ring(GF4)
    assert gf4.order == 4
    # brute-force: every nonzero element is a unit
    assert naive_is_division_ring(gf4)


def test_load_table_ring_renumbers_identity(rings):
    # permute Z4 so the additive identity sits at position 1; loader must undo it
    r = rings["Z4"]
    perm = np.array([1, 0, 2, 3])
    add = perm[r.add_table[np.ix_(perm, perm)]]
    mul = perm[r.mul_table[np.ix_(perm, perm)]]
    text = "\n".join(
        ["4"]
        + [" ".join(map(str, row)) for row in add.tolist()]
        + [" ".join(map(str, row)) for row in mul.tolist()]
    )
    assert z.load_table_ring(text) == r


def test_load_table_ring_no_unity():
    text = "2\n0 1\n1 0\n0 0\n0 0\n"
    with pytest.raises(z.RingValidationError, match="no unity"):
        z.load_table_ring(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0 1\n1 0\n0 0\n",
        "2\n0 x\n1 0\n0 0\n0 1\n",
        "2\n0 5\n1 0\n0 0\n0 1\n",
        "2\n0 2.5\n1 0\n0 0\n0 1\n",
        "2\n0 0x1\n1 0\n0 0\n0 1\n",
    ],
)
def test_load_table_ring_malformed(text):
    with pytest.raises(z.TableFormatError):
        z.load_table_ring(text)


def test_element_zero_divisors(rings):
    assert element_zero_divisors(rings["Z6"]).indices() == (0, 2, 3, 4)
    assert element_zero_divisors(rings["Z5"]).indices() == (0,)
    m_divisors = element_zero_divisors(rings["M2(Z2)"])
    assert len(m_divisors) == 10  # 16 elements minus the 6 invertible matrices


def test_zero_divisors_vs_division_ring(rings):
    for ring in rings.values():
        if ring.is_zero_ring():
            continue
        nonzero_divisors = [x for x in element_zero_divisors(ring).indices() if x]
        assert (not nonzero_divisors) == naive_is_division_ring(ring)


def test_central_idempotents(rings):
    assert central_idempotents(rings["Z6"]) == [0, 1, 3, 4]
    assert central_idempotents(rings["Z8"]) == [0, 1]
    for ring in rings.values():
        found = central_idempotents(ring)
        assert 0 in found
        if not ring.is_zero_ring():
            assert ring.one in found


def test_is_local_ring(rings):
    local, maximal = is_local_ring(rings["Z8"])
    assert local and maximal.indices() == (0, 2, 4, 6)
    assert is_local_ring(rings["Z6"]) == (False, None)
    local, maximal = is_local_ring(rings["Z7"])
    assert local and maximal.indices() == (0,)


def test_element_set_operations(rings):
    r = rings["Z6"]
    s = z.ElementSet(r, 0b10101)
    assert 2 in s and 3 not in s
    assert len(s) == 3
    assert str(s) == "{0,2,4}"


def test_element_set_sort_key_is_bitvector_lex(rings):
    r = rings["Z6"]
    a = z.ElementSet(r, 0b10101)
    b = z.ElementSet(r, 0b1001)
    # first differing element is 2, so {0,3} sorts before {0,2,4}
    assert sorted([a, b], key=z.ElementSet.sort_key) == [b, a]


def test_element_set_sort_key_keeps_the_mask_order_across_bytes():
    # one bit per element: sets of Z19 first differing at elements 7, 8, 9
    # or 16 keep the order of their one-byte-per-element masks
    r = z.make_cyclic_ring(19)
    hand = [{0}, {0, 18}, {0, 16}, {0, 9}, {0, 8}, {0, 8, 16}, {0, 7}]  # ascending
    hand_sets = [z.ElementSet(r, sum(1 << i for i in members)) for members in hand]
    assert sorted(hand_sets[::-1], key=z.ElementSet.sort_key) == hand_sets
    rng = np.random.default_rng(19)
    sets = hand_sets + [z.ElementSet(r, int(b) | 1) for b in rng.integers(0, 1 << 19, 200)]
    by_mask = sorted(sets, key=lambda s: s.mask().tobytes())
    assert sorted(sets, key=z.ElementSet.sort_key) == by_mask


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_rings_validate(n):
    z.validate_ring(z.make_cyclic_ring(n))


def test_tables_that_are_not_square_are_refused():
    square, wide = np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64)
    for add, mul in ((wide, wide), (square, wide), (wide, square)):
        with pytest.raises(z.RingValidationError) as err:
            z.FiniteRing(add, mul, one=1)
        assert err.value.axiom == "shape"


@pytest.mark.parametrize("table", ["add", "mul"])
def test_validation_refuses_an_out_of_range_entry(rings, table):
    z2 = rings["Z2"]
    tables = {"add": np.array(z2.add_table), "mul": np.array(z2.mul_table)}
    tables[table][1, 1] = 2
    with pytest.raises(z.RingValidationError) as err:
        z.validate_ring(z.FiniteRing(tables["add"], tables["mul"], one=1))
    assert (err.value.axiom, err.value.witness) == ("range", None)


def test_validation_catches_broken_associativity(rings):
    mul = rings["Z4"].mul_table.copy()
    mul[3, 3] = 2  # 3*3 = 9 = 1 mod 4; breaking it breaks associativity
    broken = z.FiniteRing(rings["Z4"].add_table, mul, one=1)
    with pytest.raises(z.RingValidationError):
        z.validate_ring(broken)
