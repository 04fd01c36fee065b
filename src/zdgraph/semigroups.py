"""Finite semigroups with an absorbing zero, including the semigroup of all
products of two one-sided ideals of a ring (its Cayley table is built and
closure is machine-checked, never assumed).  Every IPO is built here, by
`build_ipo` or, for a ring that splits, by `compose_ideals_and_ipo`, whose
table is a direct product of validated ones and so is not validated again,
and which reads the split ring's ideal lists off that IPO."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ideals import OneSidedIdeal, _images, _Sums, additive_generators
from .rings import ElementSet, FiniteRing, _first_bad_pair, _first_non_associative, _freeze, _index_dtype


class SemigroupValidationError(ValueError):
    def __init__(self, reason: str, witness: tuple | None, message: str):
        super().__init__(message)
        self.reason = reason
        self.witness = witness


class ClosureViolationError(RuntimeError):
    """A product of collected ideal products fell outside the collection.

    This would contradict multiplicative closure of the ideal-product
    semigroup, so it is treated as an internal error, and so is a pool that
    cannot be the full enumerations: one with a member that no pool pair
    produces, or without the whole ring or the zero ideal.  `witness` is the
    pair of factors (OneSidedIdeals), or the one member that no pair produces.
    """

    def __init__(self, message: str, witness: tuple[OneSidedIdeal, ...] | None = None):
        super().__init__(message)
        self.witness = witness


def _factor_name(ideal: OneSidedIdeal) -> str:
    """A pool member by its side, its one-sided generators and its size."""
    side = "two-sided" if ideal.is_left and ideal.is_right else "left" if ideal.is_left else "right"
    gen_side = "right" if ideal.is_right else "left"  # a two-sided pool member keeps its right entry
    plural = "s" if len(ideal.generators) > 1 else ""
    gens = ", ".join(map(str, ideal.generators))
    return f"the {side} ideal with {gen_side} generator{plural} {gens} and {len(ideal.set)} elements"


class FiniteSemigroupWithZero:
    """Cayley table on 0..order-1 with index 0 absorbing.

    `labels` optionally names each element (ElementSets for ideal-product
    semigroups, anything printable otherwise).
    """

    def __init__(self, table, labels=None):
        table = np.asarray(table)
        self.order = int(table.shape[0])
        self.table = _freeze(table)
        self.labels = tuple(labels) if labels is not None else None

    def __repr__(self) -> str:
        return f"FiniteSemigroupWithZero(order={self.order})"


def validate_semigroup(s: FiniteSemigroupWithZero, generators=()) -> None:
    """Check the absorbing zero and associativity, naming a bad triple.

    Associativity is checked as (x*g)*y == x*(g*y) for every g in a set G
    and all x, y: O(m^2 |G|) lookups.  G is `generators` (indices, none by
    default), plus every element that the table does not show to be 0, a
    member of G, or a product t[p, q] with p, q in G: with none given, every
    nonzero element.  This is sound (Light's test): the set
    {a : (x*a)*y = x*(a*y) for all x, y} contains 0, which absorbs, and G,
    and is closed under the product, since for a, b in it (x*(ab))*y =
    ((xa)*b)*y = (xa)*(by) = x*(a*(by)) = x*((ab)*y); so it holds every
    element.
    """
    m, t = s.order, s.table
    if t.shape != (m, m):
        raise SemigroupValidationError("shape", None, "Cayley table must be square")
    if t.min() < 0 or t.max() >= m:
        raise SemigroupValidationError("range", None, "Cayley table entry out of range")
    if not (np.array_equal(t[0], np.zeros(m, t.dtype)) and np.array_equal(t[:, 0], np.zeros(m, t.dtype))):
        raise SemigroupValidationError("zero", None, "element 0 is not absorbing")
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


@dataclass(frozen=True)
class AnnSets:
    """Nonzero zero-divisors of a semigroup, split by annihilating side."""

    d_star: frozenset[int]
    a_left: frozenset[int]
    a_right: frozenset[int]


def ann_sets(s: FiniteSemigroupWithZero) -> AnnSets:
    """d_star: nonzero a with ab = 0 or ba = 0 for some nonzero b (b = a allowed);
    a_left collects those with a nonzero left-annihilating partner, a_right
    those with a right one; all three read off the nonzero block (empty for {0})."""
    z = s.table[1:, 1:] == 0
    a_right = frozenset(int(i) + 1 for i in np.nonzero(z.any(axis=1))[0])
    a_left = frozenset(int(j) + 1 for j in np.nonzero(z.any(axis=0))[0])
    return AnnSets(a_left | a_right, a_left, a_right)


def build_ipo(
    r: FiniteRing, left: list[OneSidedIdeal], right: list[OneSidedIdeal]
) -> FiniteSemigroupWithZero:
    """The semigroup of all products I*J over one-sided ideals I, J of r.

    Elements are the distinct product sets over every ordered pair drawn
    from the pool, the union of `left` and `right`: r's full left and right
    enumerations from `enumerate_one_sided_ideals`, trusted, not re-checked.
    The zero ideal sits at index 0 and labels carry the element subsets.  A
    two-sided ideal keeps its right-list entry, so the `generators` of every
    right pool member are right generators, and those of every left-only
    member left ones.

    Every pool-pair product A*B is read off the ideal lattice, one
    one-sided generator x of A at a time, and summed over them:

    - A a sum of the xR (a right pool member): xR*B = x*(RB), since
      xR*B = span{x*r*b} = x*span{r*b} (left multiplication by x is
      additive), an image that `_images` reads point by point, `r.mul_at`.
      RB is B when B is a left ideal (r has a 1), else the sum of the
      principal left ideals R*g over the additive generators g of B: each
      R*g lies in RB, and r*b = sum of a_i*(r*g_i) for b = sum of a_i*g_i.
    - A a sum of the Rx (a left-only pool member): Rx*B = R*(xB), the sum
      of the R*(x*g) over the same g, since r*x*b = sum of a_i*(r*x*g_i).

    Additive generators are read off each ideal's generators (see
    `ideals.additive_generators`); on a commutative ring every pool member
    is two-sided, so none is needed.  Each sum is read off the left
    enumeration by the size formula, which proves it (see `ideals._Sums`);
    a sum that no known ideal matches is spanned, so a product outside the
    pool still fails the closure check below.

    Closure is checked once, right after discovery: I*J is a left ideal when
    I is one and a right ideal when J is one, so every pool-pair product with
    a left first or a right second factor must be a pool member, and one
    that is not raises ClosureViolationError.  The Cayley table is then read
    off the pool x pool product table.  Each element A is written as K*L with
    K a right and L a left ideal of the pool: A*R for a right ideal A, R*A
    for a left-only one, otherwise the first pool pair that produced A, which
    after the check is a right-only K and a left-only L.  Then every entry is
    three lookups:

        (K1*L1)*(K2*L2) = K1*((L1*K2)*L2).

    Proof: the product of additive subgroups is associative, since (AB)C
    and A(BC) are both the subgroup generated by all abc; so the identity
    holds for any decomposition.  L1*K2 and (L1*K2)*L2 both have a left
    first factor, so the check has already proven them pool members.  The
    assembled table is then re-validated for associativity, with the pool as
    generators (every element is a product of two pool members), and a test
    cross-checks it against directly computed products on mid-size rings.
    """
    pool = list(({i.bits: i for i in left} | {i.bits: i for i in right}).values())
    pool_idx = {ideal.bits: i for i, ideal in enumerate(pool)}
    n = r.order

    sums = _Sums(r, [i.bits for i in left])
    # discovery: one row of products per generator x of each first factor
    firsts = [i for i, a in enumerate(pool) if a.is_right]
    lefts = [i for i, a in enumerate(pool) if not a.is_right]
    rb = iter(sums.of([additive_generators(r, b).tolist() for b in pool if not b.is_left]))
    targets = [b.bits if b.is_left else next(rb) for b in pool]
    distinct = {t: k for k, t in enumerate(dict.fromkeys(targets))}
    xs = np.array([x for i in firsts for x in pool[i].generators], dtype=np.intp)[:, None]
    images = _images(n, xs, [np.flatnonzero(ElementSet(r, t).mask()) for t in distinct], r.mul_at)
    rows = [[images[lo + distinct[t]] for t in targets] for lo in range(0, len(images), len(distinct))]
    if lefts:
        # x*g for each generator x of each left-only A and every additive generator g of each B
        cols = [additive_generators(r, b) for b in pool]
        xs = np.array([x for i in lefts for x in pool[i].generators])
        xg = r.mul_at(xs[:, None], np.concatenate(cols)).tolist()
        ends = np.cumsum([len(c) for c in cols]).tolist()
        products = sums.of([row[hi - len(c) : hi] for row in xg for c, hi in zip(cols, ends)])
        rows += [products[k : k + len(pool)] for k in range(0, len(products), len(pool))]
    pair_product: list = [None] * len(pool)
    rows = iter(rows)
    for i in firsts + lefts:
        pair_product[i] = next(rows)
        for _ in pool[i].generators[1:]:
            pair_product[i] = [sums.add(a, b) for a, b in zip(pair_product[i], next(rows))]
    elements: dict[int, ElementSet] = {}
    decomp: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(pair_product):
        for j, bits in enumerate(row):
            if bits not in elements:
                elements[bits] = ElementSet(r, bits)
                decomp[bits] = (i, j)

    ordered = sorted(elements.values(), key=ElementSet.sort_key)
    e_idx = {s.bits: i for i, s in enumerate(ordered)}
    pp_pidx = np.array([[pool_idx.get(b, -1) for b in row] for row in pair_product], dtype=np.int32)
    is_left, is_right = np.array([(ideal.is_left, ideal.is_right) for ideal in pool]).T
    escaped = (pp_pidx < 0) & (is_left[:, None] | is_right[None, :])
    if escaped.any():
        a, b = _first_bad_pair(escaped)
        raise ClosureViolationError(
            f"the product of {_factor_name(pool[a])} and {_factor_name(pool[b])} has a left first "
            "or a right second factor, but is not among the enumerated one-sided ideals",
            (pool[a], pool[b]),
        )
    # with R in the pool every member A is A*R or R*A; without it one may be no product
    unmade = next((ideal for ideal in pool if ideal.bits not in e_idx), None)
    if unmade is not None:
        raise ClosureViolationError(
            f"{_factor_name(unmade)} is among the enumerated one-sided ideals, but is not the "
            "product of any two of them",
            (unmade,),
        )
    full = pool_idx.get((1 << n) - 1)
    if full is None:
        raise ClosureViolationError("the whole ring is not among the enumerated one-sided ideals")
    if 1 not in pool_idx:  # with it, {0} = {0}*{0} sorts first: the semigroup's zero
        raise ClosureViolationError("the zero ideal is not among the enumerated one-sided ideals")
    pool_e = np.array([e_idx[ideal.bits] for ideal in pool], dtype=np.intp)

    # a pool member A as K*L: A*R for a right ideal A, R*A for a left-only one
    for i, ideal in enumerate(pool):
        decomp[ideal.bits] = (i, full) if ideal.is_right else (full, i)
    k, l = np.array([decomp[s.bits] for s in ordered], dtype=np.intp).T
    dtype = _index_dtype(len(ordered))
    pp_eidx = np.array([[e_idx[b] for b in row] for row in pair_product], dtype=dtype)
    u = pp_pidx[pp_pidx[l[:, None], k], l]  # (L*K)*L: a pool member, by the check
    s = FiniteSemigroupWithZero(pp_eidx[k[:, None], u], labels=ordered)
    validate_semigroup(s, pool_e)
    return s


def compose_ideals_and_ipo(r: FiniteRing, factor_a: tuple, factor_b: tuple) -> tuple:
    """The left and right ideal lists and the IPO of a ring r that splits as
    a x b by phi (`FiniteRing.split`), from each factor's (left, right, ipo).

    a and b have a 1, so a left ideal L of a x b is L1 x L2, L1 = {x : (x, 0)
    in L} and L2 alike ((x, 0) = (1, 0)(x, y)); the right ideals likewise.
    (K1 x K2)(L1 x L2) = K1L1 x K2L2, spanned by the (k1l1, 0) and (0, k2l2),
    so the IPO is IPO(a) x IPO(b), labelled phi(P x Q) (distinct, as P and Q
    hold 0) and sorted as `build_ipo` sorts.  The factors' tables were
    validated and a direct product of semigroups with zero is one, so the
    table is not validated again.  A one-sided ideal is an IPO element
    (L = R*L, K = K*R), so each list is read off the IPO: phi(L1 x L2) is the
    element ranked at the pair of L1's and L2's places among the factors'
    labels, flags ANDed, in rank order, which is enumeration's.  (x1, x2)
    generates L1 x L2 when x1 generates L1 and x2 generates L2; otherwise the
    (x, 0) and (0, y) over the generators x of L1 and y of L2 do.
    """
    _, b, phi = r.split
    nb = b.order
    (left_a, right_a, ipo_a), (left_b, right_b, ipo_b) = factor_a, factor_b
    members = ([np.flatnonzero(s.mask()) for s in ipo.labels] for ipo in (ipo_a, ipo_b))
    # the pair (P, Q) at P·|IPO(b)| + Q
    labels = [ElementSet(r, bits) for bits in _images(r.order, *members, lambda p, q: phi[p * nb + q])]
    m = len(labels)
    order = np.array(sorted(range(m), key=lambda e: labels[e].sort_key()), dtype=np.intp)
    rank = np.empty(m, dtype=_index_dtype(m))
    rank[order] = np.arange(m)
    # by pairs, [P, Q, P', Q'] = rank of (PP', QQ'), broadcast with no m x m index array
    by_pairs = rank.reshape(ipo_a.order, -1)[ipo_a.table[:, None, :, None], ipo_b.table[None, :, None, :]]
    ipo = FiniteSemigroupWithZero(by_pairs.reshape(m, m)[np.ix_(order, order)], [labels[e] for e in order])
    pos_a, pos_b = ({s: e for e, s in enumerate(f.labels)} for f in (ipo_a, ipo_b))

    def compose(xs: list[OneSidedIdeal], ys: list[OneSidedIdeal]) -> list[OneSidedIdeal]:
        out = {}
        for x, y in itertools.product(xs, ys):
            if len(x.generators) == len(y.generators) == 1:
                gens = {phi[x.generators[0] * nb + y.generators[0]]}
            else:
                gens = {phi[g * nb] for g in x.generators} | {phi[g] for g in y.generators}
            e = int(rank[pos_a[x.set] * ipo_b.order + pos_b[y.set]])
            flags = (x.is_left and y.is_left, x.is_right and y.is_right)
            out[e] = OneSidedIdeal(ipo.labels[e], *flags, tuple(sorted(map(int, gens))))
        return [out[e] for e in sorted(out)]

    left = compose(left_a, left_b)
    right = left if right_a is left_a and right_b is left_b else compose(right_a, right_b)
    return left, right, ipo


def enumerate_semigroups_with_zero(order: int):
    """Every associative Cayley table on {0..order-1} with 0 forced absorbing,
    in lexicographic order of the free entries (row-major over the nonzero
    block).  Capped at order 4, the largest order the tests count against an
    independent triple loop.

    A frontier of partial tables is extended one free entry at a time, in
    row-major order: each table is repeated `order` times with the values
    0..order-1 written into the entry, which keeps the frontier in
    lexicographic order.  A table is then dropped when some nonzero triple
    has both (x*y)*z and x*(y*z) filled and they differ.  Filled entries never
    change, so no completion of a dropped table is associative; after the
    last entry every triple is filled and checked, so the survivors are
    exactly the associative tables.  The tables carry one extra row and column
    of -1, so an unfilled entry (-1) indexes them and reads -1 again.
    """
    if order < 2 or order > 4:
        raise ValueError("exhaustive generation supports orders 2 through 4")
    frontier = np.full((1, order + 1, order + 1), -1, dtype=np.int64)
    frontier[:, 0, :order] = frontier[:, :order, 0] = 0
    nz = np.arange(1, order)
    for i, j in itertools.product(nz, nz):
        frontier = np.repeat(frontier, order, axis=0)
        frontier[:, i, j] = np.tile(np.arange(order), len(frontier) // order)
        b = np.arange(len(frontier))[:, None, None, None]
        block = frontier[:, 1:order, 1:order]
        lhs = frontier[b, block[..., None], nz]  # [b, x, y, z] = (x*y)*z, x, y, z nonzero
        rhs = frontier[b, nz[:, None, None], block[:, None]]  # x*(y*z)
        clash = (lhs != rhs) & (lhs >= 0) & (rhs >= 0)
        frontier = frontier[~clash.any(axis=(1, 2, 3))]
    for table in frontier[:, :order, :order]:
        yield FiniteSemigroupWithZero(table)
