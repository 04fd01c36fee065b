import hashlib
import itertools

import numpy as np
import pytest

import zdgraph as z
from oracles import ideal_product, naive_semigroups_with_zero


def test_semigroup_from_table_valid():
    null2 = z.FiniteSemigroupWithZero([[0, 0], [0, 0]])
    z.validate_semigroup(null2)
    assert null2.order == 2
    z3_mult = z.FiniteSemigroupWithZero([[0, 0, 0], [0, 1, 2], [0, 2, 1]])
    z.validate_semigroup(z3_mult)
    assert z3_mult.table[2, 2] == 1


def test_semigroup_from_table_associativity_error():
    table = [[0, 0, 0], [0, 2, 1], [0, 1, 1]]
    with pytest.raises(z.SemigroupValidationError) as err:
        z.validate_semigroup(z.FiniteSemigroupWithZero(table))
    assert err.value.reason == "associativity"
    x, y, w = err.value.witness
    t = table
    assert t[t[x][y]][w] != t[x][t[y][w]]


def _validation_outcome(s, *generators):
    try:
        z.validate_semigroup(s, *generators)
    except z.SemigroupValidationError as err:
        return err.reason, err.witness
    return None


def test_no_generators_checks_every_element():
    # every order-3 table, the non-associative one above among them, and the
    # shape and range cases below: with no generators the cover check takes
    # every nonzero element, and the reason and witness are those of every
    # element given as a generator
    tables = [np.array(v).reshape(3, 3) for v in itertools.product(range(3), repeat=9)]
    tables += [[[0, 0, 0], [0, 0, 0]], [[0, 0], [0, 2]], [[0, 0], [0, -1]]]
    reasons = set()
    for table in tables:
        s = z.FiniteSemigroupWithZero(table)
        outcome = _validation_outcome(s)
        assert _validation_outcome(s, range(s.order)) == outcome, s.table.tolist()
        reasons.add(outcome and outcome[0])
    assert reasons == {None, "associativity", "zero", "shape", "range"}


def test_semigroup_from_table_zero_not_absorbing():
    with pytest.raises(z.SemigroupValidationError, match="absorbing"):
        z.validate_semigroup(z.FiniteSemigroupWithZero([[0, 1], [1, 1]]))


@pytest.mark.parametrize(
    "table, reason",
    [([[0, 0, 0], [0, 0, 0]], "shape"), ([[0, 0], [0, 2]], "range"), ([[0, 0], [0, -1]], "range")],
    ids=["not-square", "too-large", "negative"],
)
def test_semigroup_from_table_shape_and_range_errors(table, reason):
    with pytest.raises(z.SemigroupValidationError) as err:
        z.validate_semigroup(z.FiniteSemigroupWithZero(table))
    assert (err.value.reason, err.value.witness) == (reason, None)


def test_build_ipo_sizes(rings):
    assert z.prepare_ring_analysis(rings["Z4"]).ipo.order == 3
    assert z.prepare_ring_analysis(rings["Z8"]).ipo.order == 4
    assert z.prepare_ring_analysis(rings["Z5"]).ipo.order == 2
    labels = [str(s) for s in z.prepare_ring_analysis(rings["Z8"]).ipo.labels]
    assert labels == ["{0}", "{0,4}", "{0,2,4,6}", "{0,1,2,3,4,5,6,7}"]


def test_build_ipo_zero_ring(rings):
    ipo = z.prepare_ring_analysis(rings["Z1"]).ipo
    assert ipo.order == 1


def test_ipo_matches_pairwise_products(rings, nonprincipal):
    # the algebraically filled Cayley table equals direct ideal products,
    # also on rings whose products take the span path (non-principal ideals)
    m2z2xz2 = z.make_product_ring(rings["M2(Z2)"], rings["Z2"])
    cases = [rings[name] for name in ("Z12", "M2(Z2)", "M2(Z3)", "Z2xZ4")] + [m2z2xz2]
    cases += list(nonprincipal.values())
    for ring in cases:
        ipo = z.prepare_ring_analysis(ring).ipo
        for i in range(ipo.order):
            for j in range(ipo.order):
                direct = ideal_product(ring, ipo.labels[i], ipo.labels[j])
                assert direct == ipo.labels[ipo.table[i, j]]
    # larger rings whose pool pairs take both lattice rules, xR*B = x*(RB)
    # with B right-only and Rx*B = R*(xB): pool pairs only, to stay fast
    for expr in ("M2(Z4)", "M3(Z2)"):
        ring = z.build_ring(z.parse_ring_expr(expr))
        a = z.prepare_ring_analysis(ring)
        pool = {i.bits: i for i in a.left + a.right}.values()
        assert any(not i.is_left for i in pool) and any(not i.is_right for i in pool)
        index = {label.bits: k for k, label in enumerate(a.ipo.labels)}
        for x in pool:
            for y in pool:
                direct = ideal_product(ring, x.set, y.set)
                assert direct == a.ipo.labels[a.ipo.table[index[x.bits], index[y.bits]]], expr


# sha256 of the Cayley table bytes and of repr([label.bits ...]), recorded
# from the IPO builder that filled columns by folding a right-ideal join table
IPO_PINS = {
    "M2(Z4)": (
        "4a0360cc52a84b5ec09d2c8a8f1176b7e2b3d454a07b888eb1810aac600a7afd",
        "5c25389fa71db90bf986a2f7fdaf07e695476eb8714361828b3d335e11aa79fe",
    ),
    "M3(Z2)": (
        "e4639d9be986fcfbbb6c4c6b649e178746ecc561cf4198a4f539cfe1e66c5125",
        "94119090c4ae20e4107294c6cd6af48c41def4ad52e0c008051f3c5ac18ffe2a",
    ),
    "M2(Z2 x Z2)": (
        "1b5714bf6aa43db4dc25ff291ca7310bebef298a8036d2fb95f4a52ccca7f738",
        "1a06a98444a2717018c67692bef0ad05db78506e10e91291a26a8c4ee9a77648",
    ),
    "M2(Z2) x Z2": (
        "feb9a8f681c4ae2f11cfbce505d4ba8826801c098e3b033e26d162d5ba393607",
        "c4acf46efdd80ba66e574bef3f1a8657e7b74eee724348874478e89621edb186",
    ),
}


@pytest.mark.parametrize("expr", sorted(IPO_PINS))
def test_ipo_bytes_are_pinned(expr):
    ipo = z.prepare_ring_analysis(z.build_ring(z.parse_ring_expr(expr))).ipo
    assert ipo.table.dtype == np.uint16
    table_hash = hashlib.sha256(ipo.table.tobytes()).hexdigest()
    label_hash = hashlib.sha256(repr([s.bits for s in ipo.labels]).encode()).hexdigest()
    assert (table_hash, label_hash) == IPO_PINS[expr]


# U2(Z4), with 14 non-principal one-sided ideals: sha256 of
# repr([(bits, is_left, is_right) ...]) of each enumeration, and of the IPO's
# table bytes and label bits, recorded from the enumeration that spanned
# every sum and the IPO builder that spanned every pool pair
U2Z4_PINS = {
    "left": "d57d5a6016717036507e20ea8535978d3e4de8343cf98e9b75a6ed5d7a0f3328",
    "right": "1adc696daf455b27b11543201f233c409cd71090a1e66a1244d67b504be7dbf2",
    "table": "98834239a33ed5b60d3d7d15a86e092f6e8446d35942e8dae8b633cea6fcc6e8",
    "labels": "63f7fc03cb0c5bd321d9fc61bb28a2dd2b87ccc5958e094cbc96d2f0afb21a41",
}


def test_nonprincipal_ring_bytes_are_pinned(nonprincipal):
    ring = nonprincipal["U2(Z4)"]
    left, right = (z.enumerate_one_sided_ideals(ring, side) for side in ("left", "right"))
    ipo = z.build_ipo(ring, left, right)
    assert ipo.table.dtype == np.uint16
    got = {
        side: hashlib.sha256(repr([(i.bits, i.is_left, i.is_right) for i in ideals]).encode()).hexdigest()
        for side, ideals in (("left", left), ("right", right))
    }
    got["table"] = hashlib.sha256(ipo.table.tobytes()).hexdigest()
    got["labels"] = hashlib.sha256(repr([s.bits for s in ipo.labels]).encode()).hexdigest()
    assert got == U2Z4_PINS
    assert (len(left), len(right), ipo.order) == (26, 26, 42)


def test_small_blocks_give_the_same_ideals_and_ipo(rings, nonprincipal, monkeypatch):
    # x*B images and principal ideals are scattered by ideals._images, and
    # the unit scan of a ring whose units are not yet found compares rows
    # with one, in blocks of _BLOCK_ELEMS entries; blocks of a few rows or a
    # single generator give the same result (test_ideals runs the unit scan
    # itself in small blocks)
    cases = [rings["M2(Z3)"], nonprincipal["U2(Z4)"], nonprincipal["F2[x,y]/(x,y)^2 x M2(Z2)"]]
    expected = []
    for ring in cases:
        left, right = (z.enumerate_one_sided_ideals(ring, side) for side in ("left", "right"))
        expected.append((left, right, z.build_ipo(ring, left, right)))
    monkeypatch.setattr(z.rings, "_BLOCK_ELEMS", 200)
    for ring, (left, right, ipo) in zip(cases, expected):
        assert z.enumerate_one_sided_ideals(ring, "left") == left
        assert z.enumerate_one_sided_ideals(ring, "right") == right
        small = z.build_ipo(ring, left, right)
        assert np.array_equal(small.table, ipo.table) and small.labels == ipo.labels


def test_commutative_ipo_is_ideal_lattice(rings):
    # for commutative rings the ideal-product semigroup collects exactly
    # the two-sided ideals (I = I*R)
    for name in ("Z4", "Z6", "Z8", "Z9", "Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3"):
        ring = rings[name]
        ipo_bits = {s.bits for s in z.prepare_ring_analysis(ring).ipo.labels}
        ideal_bits = {i.bits for i in z.enumerate_one_sided_ideals(ring, "left")}
        assert ipo_bits == ideal_bits


def test_ann_sets_examples(rings):
    ipo12 = z.prepare_ring_analysis(rings["Z12"]).ipo
    ann = z.ann_sets(ipo12)
    labels = {i: str(ipo12.labels[i]) for i in ann.d_star}
    assert sorted(labels.values()) == [
        "{0,2,4,6,8,10}",
        "{0,3,6,9}",
        "{0,4,8}",
        "{0,6}",
    ]
    assert ann.a_left == ann.a_right == ann.d_star
    assert ann.d_star == {1, 2, 3, 4}  # everything except the zero ideal and the ring

    assert z.ann_sets(z.prepare_ring_analysis(rings["Z5"]).ipo).d_star == frozenset()

    null3 = z.FiniteSemigroupWithZero(np.zeros((3, 3), dtype=int))
    z.validate_semigroup(null3)
    ann3 = z.ann_sets(null3)
    assert ann3.d_star == ann3.a_left == ann3.a_right == {1, 2}


def test_ann_sets_union_invariant(rings):
    for ring in rings.values():
        ann = z.ann_sets(z.prepare_ring_analysis(ring).ipo)
        assert ann.d_star == ann.a_left | ann.a_right


def test_ring_and_zero_never_vertices(rings):
    for ring in rings.values():
        if ring.is_zero_ring():
            continue
        ipo = z.prepare_ring_analysis(ring).ipo
        ann = z.ann_sets(ipo)
        full_bits = (1 << ring.order) - 1
        for i in ann.d_star:
            assert ipo.labels[i].bits not in (1, full_bits)


def test_enumerate_semigroups_order2():
    found = list(z.enumerate_semigroups_with_zero(2))
    assert len(found) == 2
    tables = [s.table.tolist() for s in found]
    assert tables == [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]


@pytest.mark.parametrize("order", [2, 3, 4])
def test_enumerate_semigroups_matches_triple_loop(order):
    found = list(z.enumerate_semigroups_with_zero(order))
    assert {s.table.dtype for s in found} == {np.dtype(np.int64)}
    assert [s.table.tolist() for s in found] == naive_semigroups_with_zero(order)


@pytest.mark.parametrize("order", [3, 4])
def test_enumerated_tables_closed_under_relabelling_and_opposite(order):
    # renaming the nonzero elements, or reversing the product (the opposite
    # semigroup), maps a semigroup with zero to one, so each maps the set of
    # enumerated tables onto itself
    tables = [s.table for s in z.enumerate_semigroups_with_zero(order)]
    found = {tuple(t.ravel().tolist()) for t in tables}
    assert len(found) == len(tables)
    for perm in itertools.permutations(range(1, order)):
        p = np.array([0, *perm])
        inv = np.argsort(p)
        # renamed[p[x], p[y]] = p[t[x, y]]
        assert {tuple(p[t[np.ix_(inv, inv)]].ravel().tolist()) for t in tables} == found
    assert {tuple(t.T.ravel().tolist()) for t in tables} == found


def test_enumerate_semigroups_validate():
    for order in (2, 3):
        for s in z.enumerate_semigroups_with_zero(order):
            z.validate_semigroup(s)


def test_enumerate_semigroups_rejects_bad_order():
    with pytest.raises(ValueError):
        list(z.enumerate_semigroups_with_zero(5))
    with pytest.raises(ValueError):
        list(z.enumerate_semigroups_with_zero(1))


def _enumerations_without(ring, bits):
    return [
        [ideal for ideal in z.enumerate_one_sided_ideals(ring, side) if ideal.bits != bits]
        for side in ("left", "right")
    ]


@pytest.mark.parametrize("name", ["Z4", "F2[x,y]/(x,y)^2"])
def test_a_pool_without_the_ring_names_a_member_no_pair_produces(rings, nonprincipal, name):
    # without R, the pool member 2Z4 (or a minimal ideal of F2[x,y]/(x,y)^2)
    # squares to 0 and is no other pool product: closure holds, but the
    # member is no element, and that is named, not a bare KeyError
    ring = {**rings, **nonprincipal}[name]
    left, right = _enumerations_without(ring, (1 << ring.order) - 1)
    with pytest.raises(z.ClosureViolationError, match="is not the product of any two of them") as info:
        z.build_ipo(ring, left, right)
    (member,) = info.value.witness
    assert str(info.value).startswith(z.semigroups._factor_name(member))
    pool = list({i.bits: i for i in left + right}.values())
    assert member in pool
    assert all(ideal_product(ring, a.set, b.set) != member.set for a in pool for b in pool)


def test_a_pool_without_the_ring_whose_members_are_all_products_is_refused(rings):
    # Z6 = Z2 x Z3 without R: {0}, 3Z6 and 2Z6 are each their own square
    left, right = _enumerations_without(rings["Z6"], (1 << 6) - 1)
    with pytest.raises(z.ClosureViolationError, match="the whole ring is not among"):
        z.build_ipo(rings["Z6"], left, right)


def test_a_pool_without_the_zero_ideal_is_refused(rings):
    # in a field R*R = R is the only pool product, so nothing else is missing,
    # and the refusal must not hang on an assert that `python -O` strips
    left, right = _enumerations_without(rings["Z5"], 1)
    with pytest.raises(z.ClosureViolationError, match="the zero ideal is not among"):
        z.build_ipo(rings["Z5"], left, right)


def test_closure_violation_raises(rings):
    # M2(Z2) x Z2 has two nontrivial two-sided ideals, M2(Z2) x 0 and 0 x Z2,
    # and each is some L*K; without it that product of a left first factor
    # escapes the pool, and the sided check raises
    ring = z.make_product_ring(rings["M2(Z2)"], rings["Z2"])
    left, right = (z.enumerate_one_sided_ideals(ring, side) for side in ("left", "right"))
    trivial = {1, (1 << ring.order) - 1}
    two_sided = [i.set for i in left if i.is_right and i.bits not in trivial]
    assert sorted(len(x) for x in two_sided) == [2, 16]
    for x in two_sided:
        assert any(ideal_product(ring, l.set, k.set) == x for l in left for k in right)
        with pytest.raises(z.ClosureViolationError, match="left first or a right second factor"):
            z.build_ipo(ring, *_enumerations_without(ring, x.bits))


def test_sided_check_catches_a_missing_minimal_right_ideal(rings):
    # without a minimal right ideal K x 0 of M2(Z2) x Z2 every two-sided
    # ideal is still enumerated; but (K x Z2) * (M2(Z2) x 0) = K x 0 is a
    # product with a right second factor that is not, and the sided check
    # sees it
    ring = z.make_product_ring(rings["M2(Z2)"], rings["Z2"])
    right = z.enumerate_one_sided_ideals(ring, "right")
    minimal = [k.bits for k in right if not k.is_left and len(k.set) == 4]
    assert len(minimal) == 3
    for bits in minimal:
        with pytest.raises(z.ClosureViolationError, match="left first or a right second factor"):
            z.build_ipo(ring, *_enumerations_without(ring, bits))


def test_a_factor_is_named_by_all_its_generators(nonprincipal):
    # the maximal ideal (x, y) of F2[x,y]/(x,y)^2 has no single generator
    ring = nonprincipal["F2[x,y]/(x,y)^2"]
    maximal = next(i for i in z.enumerate_one_sided_ideals(ring, "right") if len(i.set) == 4)
    assert maximal.generators == (1, 2)
    name = "the two-sided ideal with right generators 1, 2 and 4 elements"
    assert z.semigroups._factor_name(maximal) == name
    # in U2(Z4), dropping a minimal right-only ideal leaves a closure
    # violation whose witness has a factor with several generators
    ring = nonprincipal["U2(Z4)"]
    named = []
    for ideal in z.enumerate_one_sided_ideals(ring, "right"):
        if len(ideal.set) == 2 and not ideal.is_left:
            with pytest.raises(z.ClosureViolationError) as info:
                z.build_ipo(ring, *_enumerations_without(ring, ideal.bits))
            for factor in info.value.witness:
                if len(factor.generators) > 1:
                    gens = ", ".join(map(str, factor.generators))
                    assert f" generators {gens} and {len(factor.set)} elements" in str(info.value)
                    named.append(factor)
    assert named


@pytest.mark.parametrize(
    "expr, count", [("M2(Z3)", 6), ("M2(Z5)", 8), ("M3(Z2)", 16), ("M2(Z4)", 15)]
)
def test_left_ideal_counts_follow_morita(expr, count):
    # left ideals of Mk(S) match the submodules of S^k: the subspaces of
    # F3^2 (1 + 4 + 1), F5^2 (1 + 6 + 1) and F2^3 (1 + 7 + 7 + 1), and the
    # 15 subgroups of Z4 x Z4
    ring = z.build_ring(z.parse_ring_expr(expr))
    assert len(z.enumerate_one_sided_ideals(ring, "left")) == count


def test_build_ipo_never_violates_closure(rings):
    for ring in rings.values():
        z.prepare_ring_analysis(ring).ipo  # raises ClosureViolationError on any escape
