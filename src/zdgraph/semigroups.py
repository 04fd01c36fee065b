"""Finite semigroups with an absorbing zero, including the semigroup of all
products of two one-sided ideals of a ring (its Cayley table is built and
closure is machine-checked, never assumed)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ideals import OneSidedIdeal, additive_generators, enumerate_one_sided_ideals
from .rings import ElementSet, FiniteRing, _additive_span, _first_non_associative, _freeze


class SemigroupValidationError(ValueError):
    def __init__(self, reason: str, witness: tuple | None, message: str):
        super().__init__(message)
        self.reason = reason
        self.witness = witness


class ClosureViolationError(RuntimeError):
    """A product of collected ideal products fell outside the collection.

    This would contradict multiplicative closure of the ideal-product
    semigroup, so it is treated as an internal error.
    """


class FiniteSemigroupWithZero:
    """Cayley table on 0..order-1 with index 0 absorbing.

    `labels` optionally names each element (ElementSets for ideal-product
    semigroups, anything printable otherwise).
    """

    zero = 0

    def __init__(self, table, labels=None):
        table = np.asarray(table)
        self.order = int(table.shape[0])
        self.table = _freeze(table)
        self.labels = tuple(labels) if labels is not None else None

    def product(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def label_of(self, i: int) -> str:
        if self.labels is None:
            return str(i)
        return str(self.labels[i])

    def __repr__(self) -> str:
        return f"FiniteSemigroupWithZero(order={self.order})"


def validate_semigroup(s: FiniteSemigroupWithZero, generators=None) -> None:
    """Check the absorbing zero and associativity, naming a bad triple.

    Associativity is checked as (x*g)*y == x*(g*y) for every g in a set G
    and all x, y: O(m^2 |G|) lookups.  G is `generators` (indices; None
    means every element), plus every element that the table does not show
    to be 0, a member of G, or a product t[p, q] with p, q in G.  This is
    sound (Light's test): the set {a : (x*a)*y = x*(a*y) for all x, y}
    contains 0, which absorbs, and G, and is closed under the product, since
    for a, b in it (x*(ab))*y = ((xa)*b)*y = (xa)*(by) = x*(a*(by)) =
    x*((ab)*y); so it holds every element.
    """
    m, t = s.order, s.table
    if t.shape != (m, m):
        raise SemigroupValidationError("shape", None, "Cayley table must be square")
    if t.min() < 0 or t.max() >= m:
        raise SemigroupValidationError("range", None, "Cayley table entry out of range")
    if not (np.array_equal(t[0], np.zeros(m, t.dtype)) and np.array_equal(t[:, 0], np.zeros(m, t.dtype))):
        raise SemigroupValidationError("zero", None, "element 0 is not absorbing")
    if generators is None:
        gens = np.arange(m)
    else:
        gens = np.asarray(generators, dtype=np.intp)
        covered = np.zeros(m, dtype=bool)
        covered[0] = True
        covered[gens] = True
        covered[t[gens][:, gens]] = True
        gens = np.concatenate((gens, np.flatnonzero(~covered)))
    bad = _first_non_associative(t, gens)
    if bad is not None:
        raise SemigroupValidationError(
            "associativity", bad, "not associative: ({0}*{1})*{2} != {0}*({1}*{2})".format(*bad)
        )


def semigroup_from_table(table, zero_index: int, labels=None) -> FiniteSemigroupWithZero:
    """Validated semigroup with the given absorbing element renumbered to 0."""
    table = np.asarray(table)
    m = table.shape[0]
    if zero_index < 0 or zero_index >= m:
        raise SemigroupValidationError("zero", None, "zero index out of range")
    if zero_index != 0:
        perm = np.arange(m)
        perm[0], perm[zero_index] = zero_index, 0
        table = perm[table[np.ix_(perm, perm)]]
        if labels is not None:
            labels = [labels[p] for p in perm]
    s = FiniteSemigroupWithZero(table, labels=labels)
    validate_semigroup(s)
    return s


@dataclass(frozen=True)
class AnnSets:
    """Nonzero zero-divisors of a semigroup, split by annihilating side."""

    d_star: frozenset[int]
    a_left: frozenset[int]
    a_right: frozenset[int]


def ann_sets(s: FiniteSemigroupWithZero) -> AnnSets:
    """d_star: nonzero a with ab = 0 or ba = 0 for some nonzero b (b = a allowed);
    a_left collects those with a nonzero left-annihilating partner, a_right
    those with a right one."""
    m = s.order
    if m <= 1:
        return AnnSets(frozenset(), frozenset(), frozenset())
    z = s.table[1:, 1:] == 0
    a_right = frozenset(int(i) + 1 for i in np.nonzero(z.any(axis=1))[0])
    a_left = frozenset(int(j) + 1 for j in np.nonzero(z.any(axis=0))[0])
    return AnnSets(a_left | a_right, a_left, a_right)


def _lookup(index: dict, key, what: str) -> int:
    hit = index.get(key)
    if hit is None:
        raise ClosureViolationError(f"{what} is not among the collected ideal products")
    return hit


def build_ipo(
    r: FiniteRing, left: list[OneSidedIdeal] | None = None, right: list[OneSidedIdeal] | None = None
) -> FiniteSemigroupWithZero:
    """The semigroup of all products I*J over one-sided ideals I, J of r.

    Elements are the distinct product sets over every ordered pair drawn
    from the union of the left- and right-ideal enumerations; the zero
    ideal sits at index 0 and labels carry the underlying element subsets.
    `left` and `right`, when given, must be r's full left and right
    enumerations from `enumerate_one_sided_ideals`; they are trusted, not
    re-checked.  A side that is not given is enumerated here.

    The Cayley table is filled algebraically rather than by one closure per
    entry, one column B at a time by one rule.  B is written as K*L with K a
    right ideal: B*R for a right ideal B, R*B for a left-only one, otherwise
    the pool pair that produced B (K is then necessarily a right ideal and L
    a left ideal).  A*K is the join of the right ideals g*K over a generating
    set {g} of A, a fold over the right-ideal join table, and A*B = (A*K)*L
    is an already-computed pool-pair product.  Every intermediate value must
    be a collected element or ideal, which machine-checks multiplicative
    closure; the assembled table is then re-validated for associativity, with
    the pool as generators (every element is a product of two pool members),
    and a test cross-checks it against directly computed products on mid-size
    rings.
    """
    left = left if left is not None else enumerate_one_sided_ideals(r, "left")
    right = right if right is not None else enumerate_one_sided_ideals(r, "right")
    pool: dict[int, ElementSet] = {}
    is_right_flag: dict[int, bool] = {}
    for ideal in itertools.chain(left, right):
        pool.setdefault(ideal.bits, ideal.set)
        is_right_flag[ideal.bits] = is_right_flag.get(ideal.bits, False) or ideal.is_right
    gens = {
        bits: np.asarray(additive_generators(r, s), dtype=np.intp)
        for bits, s in pool.items()
    }
    add_tbl, mul_tbl = r.add_table, r.mul_table
    n = r.order
    full_bits = (1 << n) - 1

    def raw_product(a_bits: int, b_bits: int) -> int:
        ga, gb = gens[a_bits], gens[b_bits]
        if len(ga) == 0 or len(gb) == 0:
            return 1  # zero ideal
        seed = np.unique(mul_tbl[ga[:, None], gb])
        s = ElementSet.from_mask(r, _additive_span(add_tbl, seed, n)[0])
        if s.bits not in gens:
            gens[s.bits] = np.asarray(additive_generators(r, s), dtype=np.intp)
        return s.bits

    # discovery: every ordered pool pair, by direct span computation
    pool_bits = list(pool)
    pool_idx = {bits: i for i, bits in enumerate(pool_bits)}
    elements: dict[int, ElementSet] = {}
    decomp: dict[int, tuple[int, int]] = {}
    pair_product: list[list[int]] = []
    for kb in pool_bits:
        row = []
        for lb in pool_bits:
            bits = raw_product(kb, lb)
            if bits not in elements:
                elements[bits] = ElementSet(r, bits)
                decomp[bits] = (kb, lb)
            row.append(bits)
        pair_product.append(row)

    ordered = sorted(elements.values(), key=ElementSet.sort_key)
    assert ordered[0].bits == 1, "zero ideal must sort first"
    m = len(ordered)
    e_idx = {s.bits: i for i, s in enumerate(ordered)}
    pp_eidx = np.array(
        [[_lookup(e_idx, b, "a pool-pair product") for b in row] for row in pair_product],
        dtype=np.int64,
    )

    # join table of the right-ideal lattice (sums of right ideals)
    rpool = [bits for bits in pool_bits if is_right_flag[bits]]
    r_idx = {bits: i for i, bits in enumerate(rpool)}
    nr = len(rpool)
    join = np.zeros((nr, nr), dtype=np.int64)
    for i, ib in enumerate(rpool):
        for j, jb in enumerate(rpool):
            s = ElementSet.from_mask(
                r, _additive_span(add_tbl, np.concatenate((gens[ib], gens[jb])), n)[0]
            )
            join[i, j] = _lookup(r_idx, s.bits, "a sum of right ideals")

    # padded generator matrix over the generator universe; pad slot is the
    # ring element 0, whose image ideal is always the zero ideal (join unit)
    universe = sorted({0} | {int(g) for s in ordered for g in gens[s.bits]})
    g_slot = {g: i for i, g in enumerate(universe)}
    width = max((len(gens[s.bits]) for s in ordered), default=0)
    pad = np.zeros((m, max(width, 1)), dtype=np.intp)
    for i, s in enumerate(ordered):
        for w, g in enumerate(gens[s.bits]):
            pad[i, w] = g_slot[int(g)]

    fold_cache: dict[int, np.ndarray] = {}

    def fold_column(k_bits: int) -> np.ndarray:
        """Right-pool index of A*K for every element A, K a right ideal."""
        if k_bits in fold_cache:
            return fold_cache[k_bits]
        k_indices = np.asarray(pool[k_bits].indices(), dtype=np.intp)
        images = np.empty(len(universe), dtype=np.int64)
        for slot, g in enumerate(universe):
            img = np.zeros(n, dtype=bool)
            img[0] = True
            img[mul_tbl[g, k_indices]] = True
            images[slot] = _lookup(
                r_idx, ElementSet.from_mask(r, img).bits, f"the right ideal {g}*K"
            )
        acc = np.full(m, r_idx[1], dtype=np.int64)  # start from the zero ideal
        for w in range(pad.shape[1]):
            acc = join[acc, images[pad[:, w]]]
        fold_cache[k_bits] = acc
        return acc

    # a pool member B as K*L: B*R for a right ideal B, R*B for a left-only one
    for b in pool_bits:
        decomp[b] = (b, full_bits) if is_right_flag[b] else (full_bits, b)
    rpool_pidx = np.array([pool_idx[b] for b in rpool], dtype=np.int64)

    dtype = np.uint16 if m < 2**16 else np.uint32
    table = np.zeros((m, m), dtype=dtype)
    for j, b in enumerate(ordered):
        kb, lb = decomp[b.bits]  # A*B = (A*K)*L
        table[:, j] = pp_eidx[rpool_pidx[fold_column(kb)], pool_idx[lb]]

    s = FiniteSemigroupWithZero(table, labels=ordered)
    validate_semigroup(s, [_lookup(e_idx, bits, "a pool member") for bits in pool_bits])
    return s


def enumerate_semigroups_with_zero(order: int):
    """Every associative Cayley table on {0..order-1} with 0 forced absorbing,
    in lexicographic order of the free entries (row-major over the nonzero
    block).  Capped at order 4: the order-4 sweep already filters 4^9
    candidate tables."""
    if order < 2 or order > 4:
        raise ValueError("exhaustive generation supports orders 2 through 4")
    k = order - 1
    rng = range(order)
    nz = range(1, order)
    for free in itertools.product(rng, repeat=k * k):
        t = [[0] * order]
        for i in range(k):
            t.append([0, *free[i * k : (i + 1) * k]])
        ok = True
        for x in nz:
            tx = t[x]
            for y in nz:
                txy = t[tx[y]]
                ty = t[y]
                for z in nz:
                    if txy[z] != tx[ty[z]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield FiniteSemigroupWithZero(np.array(t, dtype=np.int64))
