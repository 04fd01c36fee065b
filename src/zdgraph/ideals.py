"""One-sided ideals, enumerated from the principal ones, and additive generators.

All subsets are bit-vector ElementSets over a fixed ring.  Ideal lists are
canonically sorted by bit-vector lexicographic order, so enumeration output
is deterministic and usable with set semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import ElementSet, FiniteRing, _additive_span


@dataclass(frozen=True)
class OneSidedIdeal:
    """An additive subgroup absorbing ring multiplication on >= 1 side."""

    set: ElementSet
    is_left: bool
    is_right: bool
    # the smallest x with set = Rx in a left enumeration (xR in a right one),
    # None when the ideal is not principal
    generator: int | None = None

    @property
    def bits(self) -> int:
        return self.set.bits

    def __str__(self) -> str:
        return str(self.set)


def additive_generators(r: FiniteRing, s: ElementSet) -> list[int]:
    """Small generating list for an additive subgroup (greedy, ascending scan)."""
    return _additive_span(r.add_table, s.indices(), r.order)[1]


def _principal_sets(r: FiniteRing, side: str) -> dict[int, tuple[int, bool]]:
    """Distinct principal left (Rx) or right (xR) ideals, keyed by bits, each
    with its smallest generator x and whether it absorbs the other side, in
    ascending order of x.

    { r*x } is already an additive subgroup (distributivity), so each
    principal ideal is the value set of a multiplication column (left) or
    row (right).  R*(u*x) = R*x for every unit u, so x runs in ascending
    order and each x read marks its orbit { u*x } (right: { x*u }) as seen;
    the smallest generator of an ideal is never marked before it is read,
    and an ideal read again keeps its earlier, smaller generator.  That
    needs no theorem; one does bound the cost: a finite ring has stable
    range one, where Rx = Ry implies y = u*x for a unit u (Canfell 1995),
    so each principal ideal is read from one column (row).
    The other side takes one row test: Rx is a right ideal iff xR is in Rx
    (one way take r = 1 in r*x*s; the other way r*(x*s) stays in the left
    ideal Rx), and likewise xR is a left ideal iff Rx is in xR.
    """
    n, units = r.order, r.units
    t = r.mul_table if side == "left" else r.mul_table.T  # t[y, x] = y*x (left), x*y (right)
    found: dict[bytes, tuple[int, bool]] = {}
    seen = np.zeros(n, dtype=bool)
    for x in range(n):
        if seen[x]:
            continue
        seen[t[units, x]] = True
        mask = np.zeros(n, dtype=bool)
        mask[t[:, x]] = True
        key = np.packbits(mask, bitorder="little").tobytes()
        if key not in found:
            found[key] = (x, bool(mask[t[x]].all()))
    return {int.from_bytes(key, "little"): xf for key, xf in found.items()}


def _known_sum(a: int, b: int, by_size: dict[int, list[int]]) -> int | None:
    """The bits of A+B for additive subgroups A and B (bits a, b), read off
    the known subgroups `by_size` (bits, keyed by size), or None when no
    known subgroup proves to be the sum.

    When one of A, B contains the other, the sum is the larger.  Otherwise
    it is the known C that contains A and B and has |C| = |A||B| / |A & B|.
    Proof: C is an additive subgroup containing A and B, so it contains A+B,
    and the product formula for subgroups of an abelian group gives
    |A+B| = |A||B| / |A & B|; equal sizes make them equal.  A sum missing
    from `by_size` is never mistaken for a larger known subgroup.
    """
    union = a | b
    if union in (a, b):
        return union
    size = a.bit_count() * b.bit_count() // (a & b).bit_count()
    return next((c for c in by_size.get(size, ()) if union | c == c), None)


def enumerate_one_sided_ideals(r: FiniteRing, side: str) -> list[OneSidedIdeal]:
    """All left (resp. right) ideals: principal ideals closed under pairwise sum.

    Every one-sided ideal is a sum of principal ones.  A sum A+B is read off
    the ideals known so far when it is among them (see `_known_sum`).  Only a
    sum that no known ideal matches (one that is not principal) is computed
    as an additive span, and only then are the additive generators of its
    summands computed.  Each ideal keeps one-sided
    generators x (its principal summands), so the other-side flag of a sum
    is a row test as for a principal ideal.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n, mul = r.order, r.mul_table
    principal = _principal_sets(r, side)
    seeds = {bits: [x] for bits, (x, _) in principal.items()}
    by_size: dict[int, list[int]] = {}
    for bits in seeds:
        by_size.setdefault(bits.bit_count(), []).append(bits)
    add_gens: dict[int, list[int]] = {}

    def gens_of(bits: int) -> list[int]:
        if bits not in add_gens:
            add_gens[bits] = additive_generators(r, ElementSet(r, bits))
        return add_gens[bits]

    frontier = list(seeds)
    while frontier:
        new: list[int] = []
        snapshot = list(seeds)
        for a in frontier:
            for b in snapshot:
                if _known_sum(a, b, by_size) is not None:
                    continue
                mask, gens = _additive_span(r.add_table, gens_of(a) + gens_of(b), n)
                s = ElementSet.from_mask(r, mask).bits
                seeds[s], add_gens[s] = seeds[a] + seeds[b], gens
                by_size.setdefault(s.bit_count(), []).append(s)
                new.append(s)
        frontier = new

    ideals = []
    for bits, xs in seeds.items():
        s = ElementSet(r, bits)
        if bits in principal:
            x, other = principal[bits]
        else:
            img = mul[xs, :] if side == "left" else mul[:, xs]
            x, other = None, bool(s.mask()[img].all())
        left, right = (True, other) if side == "left" else (other, True)
        ideals.append(OneSidedIdeal(s, left, right, x))
    return sorted(ideals, key=lambda ideal: ideal.set.sort_key())
