"""Additive subgroups, one-sided ideals, ideal products and annihilators.

All subsets are bit-vector ElementSets over a fixed ring.  Ideal lists are
canonically sorted by bit-vector lexicographic order, so enumeration output
is deterministic and usable with set semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import (
    _BLOCK_ELEMS,
    ElementSet,
    FiniteRing,
    _additive_span,
)


@dataclass(frozen=True)
class OneSidedIdeal:
    """An additive subgroup absorbing ring multiplication on >= 1 side."""

    set: ElementSet
    is_left: bool
    is_right: bool

    @property
    def bits(self) -> int:
        return self.set.bits

    def __str__(self) -> str:
        return str(self.set)


def additive_closure(r: FiniteRing, seed) -> ElementSet:
    """Smallest additive subgroup containing seed and 0."""
    if isinstance(seed, ElementSet):
        seed = seed.indices()
    mask = _additive_span(r.add_table, sorted(int(x) for x in seed), r.order)[0]
    return ElementSet.from_mask(r, mask)


def additive_generators(r: FiniteRing, s: ElementSet) -> list[int]:
    """Small generating list for an additive subgroup (greedy, ascending scan)."""
    return _additive_span(r.add_table, s.indices(), r.order)[1]


def _is_subgroup(r: FiniteRing, s: ElementSet) -> bool:
    if 0 not in s:
        return False
    return additive_closure(r, s).bits == s.bits


def _absorbs(r: FiniteRing, s: ElementSet, side: str) -> bool:
    # a subgroup absorbs a side iff it absorbs each of its generators
    gens = additive_generators(r, s)
    if not gens:
        return True
    mask = s.mask()
    img = r.mul_table[:, gens] if side == "left" else r.mul_table[gens, :]
    return bool(mask[img].all())


def is_left_ideal(r: FiniteRing, s: ElementSet) -> bool:
    return _is_subgroup(r, s) and _absorbs(r, s, "left")


def is_right_ideal(r: FiniteRing, s: ElementSet) -> bool:
    return _is_subgroup(r, s) and _absorbs(r, s, "right")


def _flagged(r: FiniteRing, s: ElementSet, side: str) -> OneSidedIdeal:
    if side == "left":
        return OneSidedIdeal(s, True, _absorbs(r, s, "right"))
    return OneSidedIdeal(s, _absorbs(r, s, "left"), True)


def _principal_sets(r: FiniteRing, side: str) -> dict[int, ElementSet]:
    """Distinct principal one-sided ideals, keyed by bits.

    { r*x } is already an additive subgroup (distributivity), so each
    principal ideal is just the value set of a multiplication column/row.
    Rows of a one-off transpose keep the scan cache-friendly, and sets are
    deduplicated before any bit-vector is materialised.
    """
    n = r.order
    src = r.mul_table if side == "right" else np.ascontiguousarray(r.mul_table.T)
    seen: dict[bytes, ElementSet] = {}
    for x in range(n):
        vals = np.unique(src[x])
        key = vals.tobytes()
        if key not in seen:
            mask = np.zeros(n, dtype=bool)
            mask[vals] = True
            seen[key] = ElementSet.from_mask(r, mask)
    return {s.bits: s for s in seen.values()}


def enumerate_one_sided_ideals(r: FiniteRing, side: str) -> list[OneSidedIdeal]:
    """All left (resp. right) ideals: principal ideals closed under pairwise sum."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    known = _principal_sets(r, side)
    gens = {bits: additive_generators(r, s) for bits, s in known.items()}
    frontier = list(known.values())
    while frontier:
        new: list[ElementSet] = []
        snapshot = list(known.values())
        for a in frontier:
            for b in snapshot:
                if a.bits | b.bits in (a.bits, b.bits):
                    continue  # one contains the other: sum is the larger
                s = additive_closure(r, gens[a.bits] + gens[b.bits])
                if s.bits not in known:
                    known[s.bits] = s
                    gens[s.bits] = additive_generators(r, s)
                    new.append(s)
        frontier = new
    ordered = sorted(known.values(), key=ElementSet.sort_key)
    return [_flagged(r, s, side) for s in ordered]


def ideal_product(r: FiniteRing, a: ElementSet, b: ElementSet) -> ElementSet:
    """Additive closure of all pairwise products x*y, x in a, y in b.

    Both arguments must be additive subgroups; the span of { x*y } then
    equals the span of the generator-pair products, which keeps this fast.
    """
    ga = additive_generators(r, a)
    gb = additive_generators(r, b)
    if additive_closure(r, ga).bits != a.bits or additive_closure(r, gb).bits != b.bits:
        raise ValueError("ideal_product arguments must be additive subgroups")
    mul = r.mul_table
    prods = sorted({int(mul[x, y]) for x in ga for y in gb})
    return additive_closure(r, prods)


def left_annihilator(r: FiniteRing, x: ElementSet) -> ElementSet:
    """{ a : a*y = 0 for all y in x }; always a left ideal."""
    n = r.order
    cand = np.ones(n, dtype=bool)
    cols = list(x.indices())
    step = max(1, _BLOCK_ELEMS // max(1, n))
    for lo in range(0, len(cols), step):
        cand &= (r.mul_table[:, cols[lo : lo + step]] == 0).all(axis=1)
    out = ElementSet.from_mask(r, cand)
    assert is_left_ideal(r, out)
    return out

