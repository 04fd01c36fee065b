"""The generator-based validators against the exhaustive O(n^3) oracles, on
every single-entry corruption of small rings, semigroups and an IPO, and on
whole families of small tables that catch a validator checking too few
generators: both must accept or reject alike, and each rejection's witness
must fail the axiom it names.  A ring that splits is validated through its
split, and on corrupted tables that route must raise exactly what the
direct route raises alone."""

import itertools
import os
import signal
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import zdgraph as z
from zdgraph.ideals import _cyclic_chain
from zdgraph.rings import _check_tables, _first_bad_distributive, _validate_direct

from oracles import exhaustive_validate_ring, exhaustive_validate_semigroup
from table_rings import draw_permutation, relabelled_table_text, upper_triangular

# checked in this order by both validators; only the last three may swap
_LATE_RING_AXIOMS = {"mul-associative", "left-distributive", "right-distributive"}


def _corruptions(t, first: int = 0):
    """Every table that differs from t in exactly one entry t[i, j] with
    i, j >= first (values 0..n-1)."""
    n = t.shape[0]
    for i in range(first, n):
        for j in range(first, n):
            for v in range(n):
                if v != t[i, j]:
                    bad = np.array(t)
                    bad[i, j] = v
                    yield bad


def _outcome(validate, obj, error, *args):
    try:
        validate(obj, *args)
    except error as exc:
        return exc
    return None


def _assoc_fails(t, x, y, w) -> bool:
    return t[t[x, y], w] != t[x, t[y, w]]


def _ring_axiom_fails(r, axiom, w) -> bool:
    n, add, mul = r.order, r.add_table, r.mul_table
    ar = np.arange(n)
    if axiom == "range":
        return min(add.min(), mul.min()) < 0 or max(add.max(), mul.max()) >= n
    if axiom == "add-commutative":
        return add[w] != add[w[::-1]]
    if axiom == "add-identity":
        return add[w] != w[1]
    if axiom == "add-inverse":
        return not (add[w[0]] == 0).any()
    if axiom == "add-associative":
        return _assoc_fails(add, *w)
    if axiom == "zero-annihilates":
        return mul[0].any() or mul[:, 0].any()
    if axiom == "one-identity":
        return not (np.array_equal(mul[w[0]], ar) and np.array_equal(mul[:, w[0]], ar))
    if axiom == "mul-associative":
        return _assoc_fails(mul, *w)
    a, b, c = w
    if axiom == "left-distributive":
        return mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]
    if axiom == "right-distributive":
        return mul[add[b, c], a] != add[mul[b, a], mul[c, a]]
    raise AssertionError(f"unknown axiom {axiom}")


def _check_ring(r) -> bool:
    """Both validators accept or both reject r; True when they reject."""
    fast = _outcome(z.validate_ring, r, z.RingValidationError)
    slow = _outcome(exhaustive_validate_ring, r, z.RingValidationError)
    assert (fast is None) == (slow is None), (r.add_table.tolist(), r.mul_table.tolist())
    if fast is None:
        return False
    assert _ring_axiom_fails(r, fast.axiom, fast.witness), (fast.axiom, fast.witness)
    assert fast.axiom == slow.axiom or {fast.axiom, slow.axiom} <= _LATE_RING_AXIOMS
    return True


# U2(Z2) is not commutative, so its right distributive law is not the left
# one read backwards
@pytest.mark.parametrize("name", ["Z4", "Z2xZ2", "Z6", "U2(Z2)"])
def test_ring_validator_agrees_with_oracle_on_every_corruption(rings, name):
    ring = upper_triangular(2) if name == "U2(Z2)" else rings[name]
    add, mul = ring.add_table, ring.mul_table
    rejected = sum(_check_ring(z.FiniteRing(bad, mul, one=ring.one)) for bad in _corruptions(add))
    rejected += sum(_check_ring(z.FiniteRing(add, bad, one=ring.one)) for bad in _corruptions(mul))
    assert rejected > 0


def _direct(r) -> None:
    """The direct route alone, as `validate_ring` runs it on a ring that does
    not split."""
    _check_tables(r)
    _validate_direct(r)


def _check_split_route(r) -> bool:
    """`validate_ring` and the direct route alone raise the same axiom with
    the same witness, or both accept; True when they reject."""
    routed = _outcome(z.validate_ring, r, z.RingValidationError)
    direct = _outcome(_direct, r, z.RingValidationError)
    assert (routed is None) == (direct is None), (r.add_table.tolist(), r.mul_table.tolist())
    if routed is None:
        return False
    assert (routed.axiom, routed.witness) == (direct.axiom, direct.witness)
    return True


def _table_copy(ring, one=None) -> z.FiniteRing:
    return z.FiniteRing(ring.add_table, ring.mul_table, one=ring.one if one is None else one)


def _relabelled(expr: str, seed: int) -> z.FiniteRing:
    ring = z.build_ring(z.parse_ring_expr(expr))
    return z.load_table_ring(relabelled_table_text(ring, draw_permutation(ring.order, seed)))


@pytest.mark.parametrize("name", ["Z2xZ2", "Z6"])
def test_split_route_raises_what_the_direct_route_raises_on_every_corruption(rings, name):
    ring = _table_copy(rings[name])
    assert ring.split is not None
    add, mul = ring.add_table, ring.mul_table
    rejected = sum(_check_split_route(z.FiniteRing(bad, mul, one=ring.one)) for bad in _corruptions(add))
    rejected += sum(_check_split_route(z.FiniteRing(add, bad, one=ring.one)) for bad in _corruptions(mul))
    assert rejected > 0


def _sampled_corruptions(t, count: int, seed: int):
    """`count` tables that each differ from t in one entry, drawn from `seed`."""
    rng = np.random.default_rng(seed)
    n = t.shape[0]
    for _ in range(count):
        i, j, shift = rng.integers(n), rng.integers(n), rng.integers(1, n)
        bad = np.array(t)
        bad[i, j] = (bad[i, j] + shift) % n
        yield bad


@pytest.mark.parametrize("expr, seed", [("Z2 x Z2 x Z3", 4), ("M2(Z2) x Z2", None)])
def test_split_route_raises_what_the_direct_route_raises_on_sampled_corruptions(expr, seed):
    ring = _table_copy(z.build_ring(z.parse_ring_expr(expr))) if seed is None else _relabelled(expr, seed)
    # M2(Z2) x Z2 splits once, into a factor that does not split and Z2
    assert ring.split is not None
    add, mul = ring.add_table, ring.mul_table
    rejected = sum(_check_split_route(z.FiniteRing(bad, mul, one=ring.one)) for bad in _sampled_corruptions(add, 300, 1))
    rejected += sum(_check_split_route(z.FiniteRing(add, bad, one=ring.one)) for bad in _sampled_corruptions(mul, 300, 2))
    assert rejected > 0


def test_a_product_is_rejected_when_a_factor_is_not_a_ring(rings):
    # the tables of B x Z2, pairs row-major, for every B that differs from
    # Z4 in one product of 2 and 3: each B breaks distributivity, but the
    # split at (0, 1) carries every entry onto the product, so only the
    # validation of the factor B can reject it
    z2, z4 = rings["Z2"], rings["Z4"]
    kron = z.rings._kronecker_sum(2)
    for bad in _corruptions(z4.mul_table, first=2):
        product = z.FiniteRing(kron(z4.add_table, z2.add_table), kron(bad, z2.mul_table), one=3)
        assert product.split is not None
        assert _check_ring(product)


def test_tables_of_a_ring_that_splits_are_rejected_with_a_wrong_one():
    # the split route reads 0 and `one` on the ring itself, before the split
    # is computed, not only through the isomorphism with its factors
    ring = _relabelled("Z2 x Z2 x Z3", 6)
    assert ring.split is not None
    for one in range(ring.order):
        if one != ring.one:
            copy = _table_copy(ring, one)
            with pytest.raises(z.RingValidationError) as err:
                z.validate_ring(copy)
            assert (err.value.axiom, err.value.witness) == ("one-identity", (one,))
            assert "split" not in vars(copy)


def _relabel(t, perm) -> np.ndarray:
    """The table t with element i renamed perm[i]."""
    new = np.empty_like(t)
    new[np.ix_(perm, perm)] = perm[t]
    return new


def test_tables_of_a_ring_that_splits_are_rejected_when_0_is_not_the_zero():
    # the checks of the addition run before the split route, whose factors
    # are sure to shrink only when 0 is the zero
    ring = z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z3"))
    for seed in range(4):
        # element 0 of the copy is a nonzero element of the ring
        perm = np.roll(draw_permutation(ring.order, seed), 1)
        copy = z.FiniteRing(*(_relabel(t, perm) for t in (ring.add_table, ring.mul_table)), one=perm[ring.one])
        with pytest.raises(z.RingValidationError) as err:
            z.validate_ring(copy)
        assert err.value.axiom == "add-identity"


def test_split_is_none_when_no_element_completes_an_idempotent_to_one(rings):
    # Z2 x Z2 with (0,1) + (1,0) = (1,0): the first central idempotent other
    # than 0 and 1, e = (0,1), has no f with e + f = (1,1) in its row of the
    # addition
    ring = _table_copy(rings["Z2xZ2"])
    e, other, one = 1, 2, ring.one
    add = np.array(ring.add_table)
    add[e, other] = add[other, e] = other
    assert one == 3 and one not in add[e]
    broken = z.FiniteRing(add, ring.mul_table, one=one)
    assert broken.split is None
    with pytest.raises(z.RingValidationError):
        z.validate_ring(broken)


def test_left_distributivity_is_read_in_row_blocks(monkeypatch):
    # a table copy of M3(Z2) with one product changed: blocks of 8 rows find
    # the witness that one block of all 512 rows finds, and hold only a block
    # (a whole-table pass holds 2 MiB of intp index alone)
    ring = _table_copy(z.make_matrix_ring(z.make_cyclic_ring(2), 3))
    mul, g = np.array(ring.mul_table), ring.additive_generators
    mul[400, 300] ^= 1
    whole = _first_bad_distributive(mul, ring.add_table, g, "left")
    monkeypatch.setattr(z.rings, "_BLOCK_ELEMS", 4 * 8 * ring.order)
    assert len(z.rings._gather_blocks(ring.order, ring.order)) == ring.order // 8
    tracemalloc.start()
    try:
        blocked = _first_bad_distributive(mul, ring.add_table, g, "left")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole is not None and blocked == whole
    assert peak < 1 << 19


@pytest.mark.skipif(
    os.environ.get("ZDGRAPH_STRETCH") != "1",
    reason="two 6561 x 6561 tables, 172 MB, and 0.5-1 s; set ZDGRAPH_STRETCH=1 to run",
)
def test_left_distributivity_of_a_large_table_holds_one_block_at_a_time():
    # a table copy of M2(Z9): read whole, the left law's temporaries reach
    # 246 MiB; in row blocks, a few blocks of _BLOCK_ELEMS / 4 entries
    ring = _table_copy(z.build_ring(z.parse_ring_expr("M2(Z9)")))
    g = ring.additive_generators
    tracemalloc.start()
    try:
        assert _first_bad_distributive(ring.mul_table, ring.add_table, g, "left") is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def _left_linear_product(k: int, images) -> np.ndarray:
    """A multiplication on Z2^k (addition XOR) that is additive in its right
    argument, with unity 1 and 0 absorbing: a*y is the XOR of L_a(2^i) over
    the bits i of y, where L_a(1) = a, L_1 is the identity, L_0 is 0, and
    L_a(2^i) = images[a - 2][i - 1] for a >= 2, i >= 1."""
    n = 1 << k
    basis = np.zeros((n, k), dtype=np.int64)
    basis[:, 0] = np.arange(n)
    basis[1] = 1 << np.arange(k)
    basis[2:, 1:] = images
    bits = (np.arange(n)[:, None] >> np.arange(k)) & 1
    return np.bitwise_xor.reduce(basis[:, None, :] * bits[None, :, :], axis=2)


def test_right_distributivity_is_checked_on_left_distributive_products():
    # every left-distributive product on Z2^2 with unity 1, and a sample on
    # Z2^3: only the right law (or associativity, which the oracle checks
    # first) can fail, and the validator must reject exactly when the oracle does
    rng = np.random.default_rng(3)
    images = [(2, np.reshape(p, (2, 1))) for p in itertools.product(range(4), repeat=2)]
    images += [(3, rng.integers(0, 8, size=(6, 2))) for _ in range(200)]
    axioms = []
    for k, im in images:
        add = np.bitwise_xor.outer(np.arange(1 << k), np.arange(1 << k))
        ring = z.FiniteRing(add, _left_linear_product(k, im), one=1)
        if _check_ring(ring):
            axioms.append(_outcome(z.validate_ring, ring, z.RingValidationError).axiom)
    assert "right-distributive" in axioms and len(axioms) < len(images)


def test_ring_validator_agrees_with_oracle_on_every_commutative_addition_of_order_four(rings):
    # every symmetric table with identity 0, beside Z4's multiplication; some
    # are associative when the middle summand is 1, and not otherwise
    mul = rings["Z4"].mul_table
    upper = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    accepted = 0
    for values in itertools.product(range(4), repeat=len(upper)):
        add = np.array(rings["Z4"].add_table)
        for (i, j), v in zip(upper, values):
            add[i, j] = add[j, i] = v
        accepted += not _check_ring(z.FiniteRing(add, mul, one=1))
    assert accepted == 2  # Z4, and Z2[e]/(e^2), whose multiplication table is Z4's


def _z2_cubed_algebra(products) -> np.ndarray:
    """The multiplication on Z2^3 (element c0 + 2 c1 + 4 c2, addition XOR)
    that is bilinear, has unity 1, and maps the basis pairs (2,2), (2,4),
    (4,2), (4,4) to `products`."""
    x = np.arange(8)
    bits = (x[:, None] >> np.arange(3)) & 1
    basis = np.array([[1, 2, 4], [2, products[0], products[1]], [4, products[2], products[3]]])
    terms = bits[:, None, :, None] * bits[None, :, None, :] * basis
    return np.bitwise_xor.reduce(terms.reshape(8, 8, 9), axis=2)


_Z2_CUBED_ADD = np.bitwise_xor.outer(np.arange(8), np.arange(8))


def test_ring_validator_agrees_with_oracle_on_every_bilinear_product_on_z2_cubed():
    # all distributive, so mul-associative decides; its check uses G^3 only
    accepted = sum(
        not _check_ring(z.FiniteRing(_Z2_CUBED_ADD, _z2_cubed_algebra(p), one=1))
        for p in itertools.product(range(8), repeat=4)
    )
    assert 0 < accepted < 8**4


def test_distributivity_is_checked_for_every_additive_generator():
    # Z2[x]/(x^3) with x = 2, x^2 = 4; shifting the products on {6,7} x {6,7}
    # by d keeps both distributive laws whenever the summand b is 1, and keeps
    # associativity on the generators {1, 2, 4}, but breaks b = 2
    mul = _z2_cubed_algebra((4, 0, 0, 0))
    for d in range(1, 8):
        bad = mul.copy()
        bad[6:, 6:] ^= d
        r = z.FiniteRing(_Z2_CUBED_ADD, bad, one=1)
        assert _check_ring(r)
        with pytest.raises(z.RingValidationError, match="distributivity"):
            z.validate_ring(r)


def _check_semigroup(s, *generator_sets) -> bool:
    """The validator, given each generator set, and the oracle accept or
    reject s alike; True when they reject."""
    slow = _outcome(exhaustive_validate_semigroup, s, z.SemigroupValidationError)
    for generators in generator_sets:
        fast = _outcome(z.validate_semigroup, s, z.SemigroupValidationError, generators)
        assert (fast is None) == (slow is None), (generators, s.table.tolist())
        if fast is not None:
            assert fast.reason == slow.reason
            if fast.reason == "associativity":
                assert _assoc_fails(s.table, *fast.witness)
    return slow is not None


def _covering_generators(t) -> list[int]:
    """Greedy G with every element 0, in G, or a product of two members of G."""
    gens: list[int] = []
    for e in range(1, t.shape[0]):
        if e not in gens and e not in t[np.ix_(gens, gens)]:
            gens.append(e)
    return gens


def test_semigroup_validator_agrees_with_oracle_on_order_four():
    # corrupt only the nonzero block, so every table keeps its absorbing zero
    # and associativity decides; generators come from the uncorrupted table,
    # as a caller's would, and [] leaves every nonzero element to the cover check
    count = 0
    for s in z.enumerate_semigroups_with_zero(4):
        count += 1
        gens = _covering_generators(s.table)
        for bad in _corruptions(s.table, first=1):
            _check_semigroup(z.FiniteSemigroupWithZero(bad), gens, [])
    assert count > 100


def test_ipo_validator_agrees_with_oracle_with_pool_generators(rings):
    ring = rings["M2(Z2)"]
    ipo = z.prepare_ring_analysis(ring).ipo
    index = {label.bits: i for i, label in enumerate(ipo.labels)}
    pool = sorted(
        {index[i.bits] for side in ("left", "right") for i in z.enumerate_one_sided_ideals(ring, side)}
    )
    assert len(pool) < ipo.order
    rejected = sum(
        _check_semigroup(z.FiniteSemigroupWithZero(bad), pool) for bad in _corruptions(ipo.table)
    )
    assert rejected > 0


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_addition_whose_multiples_never_return_to_zero_is_rejected_promptly(rings):
    # 1 + 1 = 1 in Z4: the chain 1, 2*1, ... never reaches 0
    add = rings["Z4"].add_table.copy()
    add[1, 1] = 1
    r = z.FiniteRing(add, rings["Z4"].mul_table, one=1)
    with _deadline(10), pytest.raises(z.RingValidationError) as err:
        z.validate_ring(r)
    assert err.value.axiom == "add-associative"
    assert _ring_axiom_fails(r, "add-associative", err.value.witness)
    with _deadline(10), pytest.raises(RuntimeError, match="never return to 0"):
        _cyclic_chain(r, 1)
