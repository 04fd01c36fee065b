"""The generator-based validators against the exhaustive O(n^3) oracles, on
every single-entry corruption of small rings, semigroups and an IPO, and on
whole families of small tables that catch a validator checking too few
generators: both must accept or reject alike, and each rejection's witness
must fail the axiom it names."""

import itertools
import signal
from contextlib import contextmanager

import numpy as np
import pytest

import zdgraph as z
from zdgraph.ideals import _cyclic_chain

from oracles import exhaustive_validate_ring, exhaustive_validate_semigroup
from table_rings import upper_triangular

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
