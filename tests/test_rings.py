import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import zdgraph as z

from oracles import ring_isomorphism

# matrix-unit indices in M2(Z2): digits (m00,m01,m10,m11), most significant first
E11, E12, E21, E22 = 8, 4, 2, 1


def test_cyclic_ring_basics():
    r6 = z.make_cyclic_ring(6)
    assert r6.order == 6 and r6.one == 1
    assert r6.mul(2, 5) == 4
    r4 = z.make_cyclic_ring(4)
    assert r4.add(3, 3) == 2
    with pytest.raises(ValueError):
        z.make_cyclic_ring(0)


def test_zero_ring():
    r1 = z.make_cyclic_ring(1)
    assert r1.order == 1 and r1.one == r1.zero == 0
    r1.validate()
    assert z.element_zero_divisors(r1).indices() == ()
    with pytest.raises(ValueError):
        z.is_division_ring(r1)
    with pytest.raises(ValueError):
        z.is_local_ring(r1)
    with pytest.raises(ValueError):
        z.jacobson_radical(r1)


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


def test_matrix_ring_m2z2(rings):
    m = rings["M2(Z2)"]
    assert m.order == 16
    assert m.one == E11 + E22  # identity matrix
    assert m.mul(E11, E12) == E12
    assert m.mul(E12, E11) == 0


def test_matrix_ring_over_the_zero_ring_is_built_without_tables():
    # k**2 digits per element are never laid out: M100000(Z1) is one element
    m = z.make_matrix_ring(z.make_cyclic_ring(1), 100000)
    assert m.order == 1 and m.is_zero_ring()
    assert m.name == "M100000(Z1)"


def test_matrix_ring_capacity():
    inner = z.make_matrix_ring(z.make_cyclic_ring(7), 2)
    with pytest.raises(z.CapacityError):
        z.make_matrix_ring(inner, 3)
    with pytest.raises(z.CapacityError):
        z.make_product_ring(inner, inner, cap=100)


def test_validate_accepts_all_constructors(rings):
    for ring in rings.values():
        ring.validate()


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
    for a in range(1, 4):
        assert any(gf4.mul(a, b) == gf4.one == gf4.mul(b, a) for b in range(1, 4))
    assert z.is_division_ring(gf4)


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
    ["", "2\n0 1\n1 0\n0 0\n", "2\n0 x\n1 0\n0 0\n0 1\n", "2\n0 5\n1 0\n0 0\n0 1\n"],
)
def test_load_table_ring_malformed(text):
    with pytest.raises((z.TableFormatError, z.RingValidationError)):
        z.load_table_ring(text)


def test_element_zero_divisors(rings):
    assert z.element_zero_divisors(rings["Z6"]).indices() == (0, 2, 3, 4)
    assert z.element_zero_divisors(rings["Z5"]).indices() == (0,)
    m_divisors = z.element_zero_divisors(rings["M2(Z2)"])
    assert len(m_divisors) == 10  # 16 elements minus the 6 invertible matrices


def test_is_division_ring(rings):
    assert z.is_division_ring(rings["Z7"])
    assert not z.is_division_ring(rings["Z6"])
    assert not z.is_division_ring(rings["M2(Z2)"])


def test_zero_divisors_vs_division_ring(rings):
    for ring in rings.values():
        if ring.is_zero_ring():
            continue
        nonzero_divisors = [x for x in z.element_zero_divisors(ring).indices() if x]
        assert (not nonzero_divisors) == z.is_division_ring(ring)


def test_central_idempotents(rings):
    assert z.central_idempotents(rings["Z6"]) == [0, 1, 3, 4]
    assert z.central_idempotents(rings["Z8"]) == [0, 1]
    for ring in rings.values():
        found = z.central_idempotents(ring)
        assert 0 in found
        if not ring.is_zero_ring():
            assert ring.one in found


def test_is_local_ring(rings):
    local, maximal = z.is_local_ring(rings["Z8"])
    assert local and maximal.indices() == (0, 2, 4, 6)
    assert z.is_local_ring(rings["Z6"]) == (False, None)
    local, maximal = z.is_local_ring(rings["Z7"])
    assert local and maximal.indices() == (0,)


def test_element_set_operations(rings):
    r = rings["Z6"]
    s = z.ElementSet.from_indices(r, [0, 2, 4])
    assert 2 in s and 3 not in s
    assert len(s) == 3
    assert str(s) == "{0,2,4}"
    assert s.issubset(z.ElementSet.full(r))
    assert (s | z.ElementSet.from_indices(r, [3])).indices() == (0, 2, 3, 4)
    assert (s & z.ElementSet.from_indices(r, [0, 3, 4])).indices() == (0, 4)


def test_element_set_sort_key_is_bitvector_lex(rings):
    r = rings["Z6"]
    a = z.ElementSet.from_indices(r, [0, 2, 4])
    b = z.ElementSet.from_indices(r, [0, 3])
    # first differing element is 2, so {0,3} sorts before {0,2,4}
    assert sorted([a, b], key=z.ElementSet.sort_key) == [b, a]


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_rings_validate(n):
    z.make_cyclic_ring(n).validate()


def test_validation_catches_broken_associativity(rings):
    mul = rings["Z4"].mul_table.copy()
    mul[3, 3] = 2  # 3*3 = 9 = 1 mod 4; breaking it breaks associativity
    broken = z.FiniteRing(rings["Z4"].add_table, mul, one=1)
    with pytest.raises(z.RingValidationError):
        broken.validate()
