"""One-sided ideals, enumerated from the principal ones, and the ideal
arithmetic that the ideal-product semigroup shares: spans, images and sums.
A ring that splits reads its lists off its composed IPO
(`semigroups.compose_ideals_and_ipo`).

All subsets are bit-vector ElementSets over a fixed ring.  Ideal lists are
canonically sorted by bit-vector lexicographic order, so enumeration output
is deterministic and usable with set semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rings import ElementSet, FiniteRing, _blocks, _gather_blocks, _scatter_bits


@dataclass(frozen=True)
class OneSidedIdeal:
    """An additive subgroup absorbing ring multiplication on >= 1 side."""

    set: ElementSet
    is_left: bool
    is_right: bool
    # one-sided generators: set is the sum of the R*x (left list) or the x*R
    # (right list); (x,) when the ideal is principal, x the smallest when it was
    # enumerated or composed on a product ring's identity map (a split at a
    # central idempotent keeps a generator, not always the smallest)
    generators: tuple[int, ...]

    @property
    def bits(self) -> int:
        return self.set.bits

    def __str__(self) -> str:
        return str(self.set)


# -- additive spans ------------------------------------------------------------


def _cyclic_chain(r: FiniteRing, g: int) -> list[int]:
    """The nonzero multiples g, 2g, ... up to the first that is 0.  In a group
    of order n that takes at most n steps; an addition whose chain runs longer
    is not a group, and raises RuntimeError instead of looping forever."""
    mults = []
    m = g
    for _ in range(r.order):
        if m == 0:
            return mults
        mults.append(m)
        m = int(r.add_at(m, g))
    raise RuntimeError(f"the multiples of {g} never return to 0: the addition is not a group")


def _additive_span(r: FiniteRing, seed) -> tuple[np.ndarray, list[int]]:
    """Boolean mask of the additive subgroup of r generated by `seed` and 0,
    and the seed elements that enlarged it, in seed order: a generating list
    of that subgroup (greedy, at most log2 n long)."""
    mask = np.zeros(r.order, dtype=bool)
    mask[0] = True
    members = np.zeros(1, dtype=np.intp)
    gens: list[int] = []
    for g in seed:
        g = int(g)
        if mask[g]:
            continue
        gens.append(g)
        block = r.add_at(members[:, None], _cyclic_chain(r, g))
        mask[block.ravel()] = True
        members = np.flatnonzero(mask)
    return mask, gens


def additive_generators(r: FiniteRing, ideal: OneSidedIdeal) -> np.ndarray:
    """Additive generators of the ideal: the s*x span R*x and the x*s span x*R,
    for its generators x and r's additive generators s.  A two-sided ideal
    takes both; both lie in it, and those of its enumeration's side span it."""
    xs, s = np.array(ideal.generators), r.additive_generators
    parts = [r.mul_at(s[:, None], xs).ravel()] if ideal.is_left else []
    if ideal.is_right:
        parts.append(r.mul_at(xs[:, None], s).ravel())
    return np.concatenate(parts)


# -- principal ideals and sums ---------------------------------------------------


def _images(n: int, xs, ys, op) -> list[int]:
    """The bits of every op(X x Y) = { op(x, y) : x in X, y in Y } over
    elements 0..n-1, one row per X in xs and one column per Y in ys (arrays
    of member indices), row-major; `op` broadcasts like `FiniteRing.mul_at`.
    A block of X is scattered at once, by owner.  Its width, |ys|·n per X,
    bounds the mask and op's output, as |X|·Σ|Y| <= |ys|·n for every caller:
    X a single x, or X x Y in a product, |X||Y| <= n.  A table ring's point
    read gathers through an intp index of the output's shape, so the blocks
    are `_gather_blocks`.
    """
    y_flat = np.concatenate(ys)
    y_owner = np.repeat(np.arange(len(ys)), [len(y) for y in ys])
    out: list[int] = []
    for s in _gather_blocks(len(xs), len(ys) * n):
        block = xs[s]
        x_owner = np.repeat(np.arange(len(block)), [len(x) for x in block])
        values = op(np.concatenate(block)[:, None], y_flat)
        out += _scatter_bits(n, values, (x_owner[:, None], y_owner), (len(block), len(ys)))
    return out


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
    # column(x)[y] = y*x and other(x)[y] = x*y (left); the other way round (right)
    column, other = (r.mul_cols, r.mul_rows) if side == "left" else (r.mul_rows, r.mul_cols)
    found: dict[int, int] = {}
    seen = np.zeros(n, dtype=bool)
    for x in range(n):
        if not seen[x]:
            col = column(x)
            seen[col[units]] = True
            found.setdefault(_scatter_bits(n, col)[0], x)
    xs, others = list(found.values()), []
    for s in _blocks(len(xs), n):
        others += _scatter_bits(n, other(xs[s]), (np.arange(len(xs[s]))[:, None],), (len(xs[s]),))
    return {bits: (x, (o | bits) == bits) for (bits, x), o in zip(found.items(), others)}


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


class _Sums:
    """Sums of additive subgroups of a ring, and of its principal left ideals.

    A sum A+B is read off the known subgroups by the size formula, which
    proves it (see `_known_sum`).  A sum that none of them matches is the
    additive span of A | B, and joins the known subgroups, so it is spanned
    once.  `known` (bits, each an additive subgroup, as the proof needs) is
    not indexed until the first sum is asked for.
    """

    def __init__(self, r: FiniteRing, known: list[int]):
        self.r, self.known = r, known
        self.principal: dict[int, int] = {}
        self.steps: dict[tuple[int, int], int] = {}  # (bits of A, y) -> bits of A + R*y

    @cached_property
    def by_size(self) -> dict[int, list[int]]:
        by_size: dict[int, list[int]] = {}
        for bits in self.known:
            by_size.setdefault(bits.bit_count(), []).append(bits)
        return by_size

    def add(self, a: int, b: int) -> int:
        """The bits of A+B."""
        bits = _known_sum(a, b, self.by_size)
        if bits is None:
            mask = _additive_span(self.r, ElementSet(self.r, a | b).indices())[0]
            bits = ElementSet.from_mask(self.r, mask).bits
            self.by_size.setdefault(bits.bit_count(), []).append(bits)
        return bits

    def of(self, groups: list[list[int]]) -> list[int]:
        """The sum of the principal left ideals R*y over y in each group; {0}
        for an empty group.  Each R*y is the value set of the column
        `r.mul_cols(y)`, read once per y, in blocks (`_blocks`)."""
        new = list(dict.fromkeys(y for ys in groups for y in ys if y not in self.principal))
        n = self.r.order
        for s in _blocks(len(new), n):
            ys = new[s]
            bits = _scatter_bits(n, self.r.mul_cols(ys), (np.arange(len(ys))[:, None],), (len(ys),))
            self.principal.update(zip(ys, bits))
        out = []
        for ys in groups:
            acc = 1
            for y in ys:
                if (acc, y) not in self.steps:
                    self.steps[acc, y] = self.add(acc, self.principal[y])
                acc = self.steps[acc, y]
            out.append(acc)
        return out


def enumerate_one_sided_ideals(r: FiniteRing, side: str) -> list[OneSidedIdeal]:
    """All left (resp. right) ideals: principal ideals closed under pairwise sum.

    Every one-sided ideal is a sum of principal ones.  Each ideal found is
    added to every ideal found before it, so each unordered pair is summed
    once, and a new sum is appended to the list.  A sum A+B is read off
    the ideals known so far when it is among them, and only a sum that no
    known ideal matches (one that is not principal) is computed as an
    additive span (see `_Sums`).  Each ideal keeps its one-sided generators
    (the generators of its principal summands), so the other-side flag of a
    sum is a row test as for a principal ideal.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    principal = _principal_sets(r, side)
    add = _Sums(r, list(principal)).add
    seeds = {bits: (x,) for bits, (x, _) in principal.items()}
    found = list(seeds)
    for i, a in enumerate(found):
        for b in found[:i]:
            s = add(a, b)
            if s not in seeds:
                seeds[s] = tuple(sorted({*seeds[a], *seeds[b]}))
                found.append(s)

    ideals = []
    for bits, xs in seeds.items():
        s = ElementSet(r, bits)
        if bits in principal:
            other = principal[bits][1]
        else:
            img = (r.mul_rows if side == "left" else r.mul_cols)(list(xs))
            other = bool(s.mask()[img].all())
        left, right = (True, other) if side == "left" else (other, True)
        ideals.append(OneSidedIdeal(s, left, right, xs))
    return sorted(ideals, key=lambda ideal: ideal.set.sort_key())
