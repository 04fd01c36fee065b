"""Finite unital rings, read only through vectorised access.

Element 0 is always the additive identity.  Every read of a ring goes
through one of three reads, all in the ring's index dtype: `add_at` and
`mul_at` read points, with numpy broadcasting (the products of named x
and y are `mul_at(xs[:, None], ys)`); `mul_rows(xs)` reads whole rows of
the multiplication and `mul_cols(ys)` whole columns.  A table ring (a
table file, or Z_n) answers them from its two n x n tables; a matrix ring
answers from the V x n table of row vectors times matrices, and a product
ring from its two factors, so neither holds an n x n table unless
`add_table` or `mul_table` is read.  A ring is frozen at construction, and
its derived values, its units, its additive generators and its split as a
product (`FiniteRing.split`; a ring with tables splits at a central
idempotent), are computed on first use and cached on the ring, so rings are
safe to share between threads.
"""

from __future__ import annotations

import re
from functools import cached_property, reduce

import numpy as np

DEFAULT_SIZE_CAP = 25_000

# temporary entries per block of a blocked pass (a few hundred MB at most); read
# only by _blocks
_BLOCK_ELEMS = 4_000_000

# entries per block of an associativity scan; a scan runs while a parsed
# table file is still in memory, so its blocks stay small (about 1 MB)
_ASSOC_BLOCK = 1 << 18

# the first token of a table file: its declared order
_FIRST_TOKEN = re.compile(r"\s*(\S*)")


class RingValidationError(ValueError):
    """A ring axiom failed; carries the axiom name and a witness that fails it."""

    def __init__(self, axiom: str, witness: tuple | None, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class TableFormatError(ValueError):
    """A table file is malformed (wrong token count, bad integer, ...)."""


class CapacityError(ValueError):
    """A constructor would exceed the configured element-count cap."""


def _index_dtype(n: int):
    return np.uint16 if n < 2**16 else np.uint32


def _blocks(count: int, width: int) -> list[slice]:
    """Slices that split `count` items of `width` entries each into blocks of
    about _BLOCK_ELEMS entries, at least one item per block."""
    step = max(1, _BLOCK_ELEMS // width)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _gather_blocks(count: int, width: int) -> list[slice]:
    """`_blocks` for a pass that gathers through an intp index: an index
    entry takes 8 bytes, four uint16 entries, so it counts four times."""
    return _blocks(count, 4 * width)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class FiniteRing:
    """A finite ring with 1 on elements 0..order-1, zero fixed at index 0,
    given by its addition and multiplication tables.

    `matrix_of` is (base, k) when `make_matrix_ring(base, k)` built the ring,
    and None otherwise.  The access methods index the tables; the matrix and
    product rings override them and keep no table.
    """

    zero = 0

    def __init__(self, add_table, mul_table, one: int, name: str = "", matrix_of=None):
        add_table = np.asarray(add_table)
        mul_table = np.asarray(mul_table)
        n = add_table.shape[0]
        if add_table.shape != (n, n) or mul_table.shape != (n, n):
            raise RingValidationError(
                "shape", None, "addition and multiplication tables must be square and same size"
            )
        self.add_table = _freeze(add_table)
        self.mul_table = _freeze(mul_table)
        self._identify(n, one, name, matrix_of)

    def _identify(self, n: int, one: int, name: str, matrix_of) -> None:
        self.order = int(n)
        self.one = int(one)
        self.name = name or f"ring-of-order-{n}"
        self.matrix_of = matrix_of

    # -- access ------------------------------------------------------------

    def add_at(self, xs, ys) -> np.ndarray:
        """x + y for x, y in xs, ys, broadcast against each other."""
        # one flat index x*n + y; xs is cast first, since x*n overflows uint16
        return self.add_table.ravel()[np.asarray(xs, dtype=np.intp) * self.order + ys]

    def mul_at(self, xs, ys) -> np.ndarray:
        """x * y for x, y in xs, ys, broadcast against each other."""
        return self.mul_table.ravel()[np.asarray(xs, dtype=np.intp) * self.order + ys]

    def mul_rows(self, xs) -> np.ndarray:
        """Whole rows of the multiplication, x * every element, one per x in
        xs; one row alone for a single x."""
        return self.mul_table[xs]

    def mul_cols(self, ys) -> np.ndarray:
        """Whole columns of the multiplication, every element * y, laid out
        as rows, one per y in ys; one column alone for a single y."""
        return self.mul_table.T[ys]

    # -- derived values ------------------------------------------------------

    @cached_property
    def units(self) -> np.ndarray:
        """The units, ascending, found on first use.

        x is a unit iff `one` is in row x of the multiplication table, since a
        one-sided inverse is two-sided in a finite ring.  The rows are compared
        with `one` in blocks (`_blocks`).
        """
        n, mul = self.order, self.mul_table
        return np.flatnonzero(np.concatenate([(mul[s] == self.one).any(axis=1) for s in _blocks(n, n)]))

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """Additive generators (`_reaching_generators`), found on first use."""
        return np.asarray(_reaching_generators(self), dtype=np.intp)

    @cached_property
    def split(self) -> tuple[FiniteRing, FiniteRing, np.ndarray] | None:
        """The ring as a product a x b: (a, b, phi), with phi[i·|b| + j] (an
        intp array) the element that the pair (i, j) stands for, a ring
        isomorphism a x b -> this ring; None when the ring is indecomposable.

        A ring with tables splits at its first central idempotent e other
        than 0 and 1 (e·e = e, and e's row of the multiplication equals its
        column) as eR x fR, f = 1 − e, itself a central idempotent with
        ef = 0.  eR is closed under + and ·, since ex·ey = e(xy), with unity
        e; so is fR, with f.  x = ex + fx, and only so: ea + fb = 0 gives
        ea = e(ea + fb) = 0.  And (ex)(fy) = efxy = 0, so phi(ex, fy) = ex + fy
        is a ring isomorphism.  The factors (`_corner`) have this ring's
        operations restricted; `validate_ring` validates them as part of
        this ring, and checks phi entry by entry.  On tables that are not a
        ring, the split may not be one, and when no f has e + f = 1 it is None.
        """
        add, mul = self.add_table, self.mul_table
        idempotents = np.flatnonzero(mul.diagonal() == np.arange(self.order))
        e = next((int(x) for x in idempotents if x not in (0, self.one) and np.array_equal(mul[x], mul[:, x])), None)
        f = None if e is None else next(iter(np.flatnonzero(add[e] == self.one).tolist()), None)
        if f is None:
            return None
        (a, e_r), (b, f_r) = self._corner(e), self._corner(f)
        return a, b, add[e_r[:, None], f_r].astype(np.intp).ravel()

    def _corner(self, e: int) -> tuple[FiniteRing, np.ndarray]:
        """eR for a central idempotent e, as a table ring named "e*(name)" on
        its elements relabelled by rank (0 first, e's rank its unity), and
        those elements, ascending.  It is validated as a factor of this ring
        (`validate_ring`)."""
        inside = np.zeros(self.order, dtype=bool)
        inside[self.mul_table[e]] = True
        members = np.flatnonzero(inside)
        rank = np.zeros(self.order, dtype=_index_dtype(len(members)))
        rank[members] = np.arange(len(members))
        tables = (rank.take(t[members].take(members, axis=1)) for t in (self.add_table, self.mul_table))
        return FiniteRing(*tables, one=int(rank[e]), name=f"{e}*({self.name})"), members

    def is_zero_ring(self) -> bool:
        return self.one == self.zero

    def is_commutative(self) -> bool:
        # row blocks against column blocks, never a whole n x n comparison
        n, mul = self.order, self.mul_table
        return all(np.array_equal(mul[s], mul[:, s].T) for s in _blocks(n, n))

    def __eq__(self, other) -> bool:
        """Equal as labelled rings: the same order, one and operations, compared
        in row blocks (`_blocks`), so no table is built."""
        if self is other:
            return True
        if not isinstance(other, FiniteRing):
            return NotImplemented
        if (self.order, self.one) != (other.order, other.one):
            return False
        n = self.order
        ar = np.arange(n)
        for s in _blocks(n, n):
            xs = ar[s]
            if not np.array_equal(self.mul_rows(xs), other.mul_rows(xs)):
                return False
            if not np.array_equal(self.add_at(xs[:, None], ar), other.add_at(xs[:, None], ar)):
                return False
        return True

    __hash__ = None  # mutable-by-identity semantics; use `is` for keys

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, order={self.order})"


class _ComposedRing(FiniteRing):
    """A ring built from smaller rings that keeps no n x n table.  Its
    `add_table` and `mul_table` are written from the access methods, in row
    blocks, only when they are first read (by tests and tracers; the
    analysis never reads them)."""

    def __init__(self, n: int, one: int, name: str, matrix_of=None):
        self._identify(n, one, name, matrix_of)
        self.dtype = _index_dtype(n)

    def _table(self, rows) -> np.ndarray:
        n = self.order
        out, ar = np.empty((n, n), dtype=self.dtype), np.arange(n)
        for s in _blocks(n, n):
            out[s] = rows(ar[s])
        return _freeze(out)

    @cached_property
    def add_table(self) -> np.ndarray:
        ar = np.arange(self.order)
        return self._table(lambda xs: self.add_at(xs[:, None], ar))

    @cached_property
    def mul_table(self) -> np.ndarray:
        return self._table(self.mul_rows)


class MatrixRing(_ComposedRing):
    """M_k(base), built by `make_matrix_ring`, from two small tables.

    With V = m^k row vectors over a base of order m, a matrix A is indexed
    by its rows, index(A) = Σ_i row_i(A)·V^(k−1−i).  Row i of A·B is
    row_i(A)·B, and row i of A + B is row_i(A) + row_i(B), so:

    - `rm[u, B] = u·B` (V x n) gives mul[A, B] = Σ_i rm[row_i(A), B]·V^(k−1−i):
      a row of mul is k rows of rm, and a column is the Kronecker sum of
      `rm[:, B]` with itself k times;
    - `vadd` (V x V), the addition of row vectors, gives add[A, B] digit by
      digit.

    A row's digits are decoded once per row, and everything is computed in
    the ring's index dtype (every partial sum is below n).
    """

    def __init__(self, base: FiniteRing, k: int, rm: np.ndarray, vadd: np.ndarray, one: int, name: str):
        super().__init__(rm.shape[1], one, name, matrix_of=(base, k))
        self.rm = _freeze(rm.astype(self.dtype, copy=False))
        self.vadd = _freeze(vadd.astype(self.dtype, copy=False))
        self._v = len(vadd)
        self._weights = [self._v ** (k - 1 - i) for i in range(k)]

    def _digits(self, xs) -> list[np.ndarray]:
        """The row indices row_0(x), ..., row_{k-1}(x) of each x, shaped like xs."""
        rest = np.asarray(xs).astype(self.dtype)
        digits = []
        for w in self._weights:
            digit, rest = np.divmod(rest, w)
            digits.append(digit)
        return digits

    def _join(self, rows) -> np.ndarray:
        """Σ_i rows_i·V^(k−1−i), by Horner's rule."""
        rows = iter(rows)
        acc = next(rows)
        for row in rows:
            acc = acc * self._v + row
        return acc

    def add_at(self, xs, ys) -> np.ndarray:
        return self._join(self.vadd[a, b] for a, b in zip(self._digits(xs), self._digits(ys)))

    def mul_at(self, xs, ys) -> np.ndarray:
        ys = np.asarray(ys)
        return self._join(self.rm[a, ys] for a in self._digits(xs))

    def mul_rows(self, xs) -> np.ndarray:
        return self._join(self.rm[a] for a in self._digits(xs))

    def mul_cols(self, ys) -> np.ndarray:
        return reduce(_outer_sum(self._v), [self.rm[:, ys].T] * len(self._weights))

    @cached_property
    def units(self) -> np.ndarray:
        """The x whose column rm[:, x] is a permutation of the row vectors.

        row_i(A·x) = row_i(A)·x, so A -> A·x is injective iff u -> u·x is, and
        in a finite ring right multiplication by x is injective iff x is a
        unit.  This holds over any base, commutative or not.
        """
        cols = np.sort(self.rm, axis=0)
        return np.flatnonzero((cols == np.arange(self._v, dtype=cols.dtype)[:, None]).all(axis=0))

    def is_commutative(self) -> bool:
        # e11·e12 = e12 but e12·e11 = 0 once k >= 2 (the base is not the zero ring)
        base, k = self.matrix_of
        return k == 1 and base.is_commutative()

    @cached_property
    def split(self) -> tuple[FiniteRing, FiniteRing, np.ndarray] | None:
        """M_k(a) x M_k(b) when the base splits as a x b by phi: a pair of
        matrices stands for the matrix of phi applied entry by entry, a ring
        isomorphism since sums and products of matrices are taken entry by
        entry in the base.  Built on first read, with both matrix rings."""
        base, k = self.matrix_of
        if base.split is None:
            return None
        a, b, phi = base.split
        # pairs[I, J]: the matrix whose entries are phi(I's, J's), most significant first
        pairs = reduce(_kronecker_sum(base.order), [phi.reshape(a.order, b.order)] * (k * k))
        return make_matrix_ring(a, k, self.order), make_matrix_ring(b, k, self.order), pairs.ravel()


class ProductRing(_ComposedRing):
    """a x b, built by `make_product_ring`, on row-major pairs i·|b| + j: every
    access is split into the factors' accesses and joined again, and whole
    rows and columns are the Kronecker layout of the factors' ones."""

    def __init__(self, a: FiniteRing, b: FiniteRing, name: str):
        super().__init__(a.order * b.order, a.one * b.order + b.one, name)
        self.factors = (a, b)

    @cached_property
    def split(self) -> tuple[FiniteRing, FiniteRing, np.ndarray]:
        """Its factors, on the identity map: the pair (i, j) is element i·|b| + j."""
        return (*self.factors, np.arange(self.order))

    def _pairs(self, xs) -> tuple[np.ndarray, np.ndarray]:
        return np.divmod(np.asarray(xs).astype(self.dtype), self.factors[1].order)

    def _join(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return p.astype(self.dtype) * self.factors[1].order + q

    def add_at(self, xs, ys) -> np.ndarray:
        (xi, xj), (yi, yj), (a, b) = self._pairs(xs), self._pairs(ys), self.factors
        return self._join(a.add_at(xi, yi), b.add_at(xj, yj))

    def mul_at(self, xs, ys) -> np.ndarray:
        (xi, xj), (yi, yj), (a, b) = self._pairs(xs), self._pairs(ys), self.factors
        return self._join(a.mul_at(xi, yi), b.mul_at(xj, yj))

    def mul_rows(self, xs) -> np.ndarray:
        (i, j), (a, b) = self._pairs(xs), self.factors
        return _outer_sum(b.order)(a.mul_rows(i).astype(self.dtype), b.mul_rows(j))

    def mul_cols(self, ys) -> np.ndarray:
        (i, j), (a, b) = self._pairs(ys), self.factors
        return _outer_sum(b.order)(a.mul_cols(i).astype(self.dtype), b.mul_cols(j))

    @cached_property
    def units(self) -> np.ndarray:
        """The pairs of units, ascending."""
        a, b = self.factors
        return _outer_sum(b.order)(a.units, b.units)

    def is_commutative(self) -> bool:
        return all(f.is_commutative() for f in self.factors)


class CyclicRing(FiniteRing):
    """Z_n, built by `make_cyclic_ring`, from its two tables.  It splits by the
    rule of every ring with tables, but the analysis reads that split only
    for a matrix ring over Z_n (see `theorems._ideals_and_ipo`)."""


# each byte with its bits reversed, so that element 8k is its high bit
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _scatter_bits(n: int, values, rows: tuple = (), shape: tuple = ()) -> list[int]:
    """The bits of the value sets of an array of rows of the given shape,
    over elements 0..n-1, rows in C order: each entry of `values` joins the
    row that `rows` (index arrays, broadcast against `values`) names.  Bit i
    is element i of a little-endian int; no other code packs an element set."""
    mask = np.zeros((*shape, n), dtype=bool)
    mask[(*rows, values)] = True
    raw, width = np.packbits(mask, axis=-1, bitorder="little").tobytes(), (n + 7) // 8
    return [int.from_bytes(raw[lo : lo + width], "little") for lo in range(0, len(raw), width)]


class ElementSet:
    """A subset of a ring's elements as a bit-vector (bit i = element i)."""

    def __init__(self, ring: FiniteRing, bits: int = 0):
        self.ring = ring
        self.bits = bits

    @classmethod
    def from_mask(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        return cls(ring, _scatter_bits(ring.order, np.flatnonzero(mask))[0])

    def mask(self) -> np.ndarray:
        n = self.ring.order
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n].astype(bool)

    def indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mask()).tolist())

    def sort_key(self) -> bytes:
        """Bit-vector lexicographic key (element 0 first), one bit per element:
        the little-endian bytes of `bits`, each with element 8k as its high bit."""
        return self.bits.to_bytes((self.ring.order + 7) // 8, "little").translate(_REVERSED)

    def __contains__(self, i: int) -> bool:
        return bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.indices())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.ring is other.ring and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.ring), self.bits))

    def __le__(self, other) -> bool:
        """Subset test."""
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.ring is other.ring and self.bits & other.bits == self.bits

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices()) + "}"

    def __repr__(self) -> str:
        return f"ElementSet({self})"


# -- validation --------------------------------------------------------------


def _first_bad_pair(bad: np.ndarray) -> tuple[int, int]:
    i, j = np.argwhere(bad)[0]
    return int(i), int(j)


def _first_non_associative(t: np.ndarray, middles) -> tuple[int, int, int] | None:
    """A triple (x, g, y) with g in `middles` where the operation with Cayley
    table t fails t[t[x,g],y] == t[x,t[g,y]], or None.  Costs O(n^2) lookups
    per middle, in blocks of about _ASSOC_BLOCK entries."""
    n = t.shape[0]
    middles = np.asarray(middles, dtype=np.intp)
    per = max(1, min(len(middles), _ASSOC_BLOCK // (n * n)))
    rows = max(1, _ASSOC_BLOCK // (n * per))
    for i in range(0, len(middles), per):
        gs = middles[i : i + per]
        right = t[gs]                                # g*y, shape (k, n)
        for lo in range(0, n, rows):
            block = t[lo : lo + rows]
            lhs = t[block[:, gs]]                    # (x*g)*y, shape (h, k, n)
            rhs = block[:, right]                    # x*(g*y)
            bad = lhs != rhs
            if bad.any():
                x, j, y = np.argwhere(bad)[0]
                return lo + int(x), int(gs[j]), int(y)
    return None


def _reaching_generators(r: FiniteRing) -> list[int]:
    """Greedy additive generators read off the addition alone: the smallest
    element not yet reachable from 0 by steps x -> x + g (g a generator so
    far) becomes the next generator, until every element is reachable.

    Nothing about the addition is trusted beyond 0 + g == g, which makes
    each new generator reachable, so this ends after at most n - 1 picks.
    """
    reached = np.zeros(r.order, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros_like(reached)
            step[r.add_at(frontier[:, None], gens)] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
    return gens


def _first_bad_distributive(mul: np.ndarray, add: np.ndarray, bs, side: str):
    """A triple (a, b, c) with b in `bs` where a*(b+c) != a*b + a*c (side
    "left", every a) or (b+c)*a != b*a + c*a (side "right", a in `bs`), or
    None.  Read in row blocks of a (`_gather_blocks`), b by b, so the witness
    is the first in row-major order for the first failing b."""
    n, flat = add.shape[0], add.ravel()
    # m[k, x] = a*x for a = k, or x*a for a = bs[k]
    m = mul if side == "left" else np.ascontiguousarray(mul[:, bs].T)
    for b in bs:
        for s in _gather_blocks(len(m), n):
            block = m[s]
            lhs = block.take(add[b], axis=1)                                  # a*(b+c)
            rhs = flat.take(block[:, b, None].astype(np.intp) * n + block)    # a*b + a*c
            if not np.array_equal(lhs, rhs):
                k, c = _first_bad_pair(lhs != rhs)
                k += s.start
                return (k if side == "left" else int(bs[k])), int(b), c
    return None


def _check_tables(r: FiniteRing) -> None:
    """The O(n^2) pre-checks of `validate_ring`, in its order: range,
    commutative addition, 0 the additive identity, additive inverses."""
    n, add, mul = r.order, r.add_table, r.mul_table
    ar = np.arange(n)
    for name, tbl in (("addition", add), ("multiplication", mul)):
        if tbl.min() < 0 or tbl.max() >= n:
            raise RingValidationError(
                "range", None, f"{name} table contains an out-of-range element index"
            )

    bad = add != add.T
    if bad.any():
        i, j = _first_bad_pair(bad)
        raise RingValidationError(
            "add-commutative", (i, j), f"addition not commutative: add({i},{j}) != add({j},{i})"
        )
    if not np.array_equal(add[0], ar):
        j = int(np.argwhere(add[0] != ar)[0][0])
        raise RingValidationError(
            "add-identity", (0, j), f"element 0 is not the additive identity: add(0,{j}) != {j}"
        )
    if not (add == 0).any(axis=1).all():
        i = int(np.argwhere(~(add == 0).any(axis=1))[0][0])
        raise RingValidationError("add-inverse", (i,), f"element {i} has no additive inverse")


def _check_zero_and_one(r: FiniteRing) -> None:
    """0 annihilates, and `one` is a two-sided multiplicative identity."""
    n, mul = r.order, r.mul_table
    if not (np.array_equal(mul[0], np.zeros(n, mul.dtype)) and np.array_equal(mul[:, 0], np.zeros(n, mul.dtype))):
        raise RingValidationError("zero-annihilates", None, "element 0 does not annihilate")
    ar = np.arange(n)
    if not (np.array_equal(mul[r.one], ar) and np.array_equal(mul[:, r.one], ar)):
        raise RingValidationError(
            "one-identity", (r.one,), f"element {r.one} is not a two-sided multiplicative identity"
        )


def _validate_direct(r: FiniteRing) -> None:
    """The direct route of `validate_ring`, after `_check_tables`."""
    mul, add = r.mul_table, r.add_table
    g = r.additive_generators
    bad = _first_non_associative(add, g)
    if bad is not None:
        raise RingValidationError(
            "add-associative", bad, "addition not associative at ({},{},{})".format(*bad)
        )
    _check_zero_and_one(r)
    for side in ("left", "right"):
        bad = _first_bad_distributive(mul, add, g, side)
        if bad is not None:
            raise RingValidationError(
                f"{side}-distributive", bad, "{} distributivity fails at ({},{},{})".format(side, *bad)
            )

    gg = mul[np.ix_(g, g)]
    lhs = mul[gg[:, :, None], g]                      # (x*y)*z over G^3
    rhs = mul[g[:, None, None], gg[None, :, :]]       # x*(y*z)
    if not np.array_equal(lhs, rhs):
        x, y, z = (int(g[i]) for i in np.argwhere(lhs != rhs)[0])
        raise RingValidationError(
            "mul-associative", (x, y, z), f"multiplication not associative at ({x},{y},{z})"
        )


def _carries(r: FiniteRing, a: FiniteRing, b: FiniteRing, phi: np.ndarray) -> bool:
    """Whether phi is a bijection from the pairs of a x b onto r's elements
    that carries a x b's addition and multiplication onto r's.  Then so does
    its inverse psi, x -> (i(x), j(x)), the other way, which is what is read:
    psi(x + y) = (i(x) + i(y), j(x) + j(y)) and likewise for x·y, for every
    x and y, so every entry of r's two tables is read once, in row blocks
    (`_gather_blocks`)."""
    n, w, dtype = r.order, b.order, r.add_table.dtype
    if len(phi) != n:
        return False
    ar, psi = np.arange(n), np.zeros(n, dtype=dtype)
    psi[phi] = ar
    if not np.array_equal(psi[phi], ar):
        return False
    i, j = np.divmod(psi, w)
    for ta, tb, t in ((a.add_table, b.add_table, r.add_table), (a.mul_table, b.mul_table, r.mul_table)):
        for s in _gather_blocks(n, n):
            pairs = (ta[i[s]].astype(dtype) * w).take(i, axis=1)
            pairs += tb[j[s]].take(j, axis=1)
            if not np.array_equal(psi.take(t[s]), pairs):
                return False
    return True


def _validate_split(r: FiniteRing) -> bool | None:
    """The split route of `validate_ring`, after `_check_tables`: True when it
    proves r a ring, None when r does not split, and False when it cannot
    prove r a ring; it raises RingValidationError when a check on r's own
    elements fails or a factor is rejected."""
    _check_zero_and_one(r)
    if r.split is None:
        return None
    a, b, phi = r.split
    if not _carries(r, a, b, phi):
        return False
    validate_ring(a)
    validate_ring(b)
    return True


def validate_ring(r: FiniteRing) -> None:
    """Check every ring axiom, raising RingValidationError with a witness
    that fails the named axiom (not necessarily the first in row-major order).
    It reads the ring's two tables: `load_table_ring` runs it on every table
    file; a composed ring writes its tables when it is validated.

    The O(n^2) axioms (range, commutative addition, identity 0, inverses)
    are checked first.  Then a ring that splits (`FiniteRing.split`, cached,
    so the analysis reads the same split) takes the split route, in O(n^2)
    table reads:

    1. 0 annihilates and `one` is a two-sided identity, read on r itself;
    2. phi is a bijection from the pairs of a x b onto r's elements, and
       phi(p + q) = phi(p) + phi(q) and phi(p·q) = phi(p)·phi(q) for every
       two pairs p, q, entry by entry (`_carries`);
    3. a and b are rings, validated by this function.

    Soundness: by 3, a x b is a ring, and by 2 phi is an isomorphism of
    structures with two operations, so r is a ring, isomorphic to a x b; its
    additive identity and its unity are unique, and by the pre-checks and 1
    they are the elements 0 and `one`.  The recursion ends: after 1, eR holds
    0 and e = e·e, and fR holds 0 and f = f·1, where e is not 0 and neither
    is f (else e = e + f = one), so when phi is a bijection each factor has
    at most n/2 elements.  A ring always
    passes: a central idempotent e splits it as eR x fR (see `split`), and
    corners of a ring are rings.

    A ring that does not split takes the direct route, and so does one that
    fails the split route; there the direct route raises exactly the axiom
    and witness it raises alone, and if it accepts, that is an internal
    error (RuntimeError).  The direct route costs O(n^2 |G|) table lookups,
    where G is a set of additive generators found by `_reaching_generators`:
    every element is reachable from 0 by steps x -> x + g with g in G (for
    the `table` ring of order 448, |G| = 6).  Soundness of its checks, each
    run in order:

    - add-associative is checked on (x, g, y) for g in G.  The set
      {a : (x+a)+y = x+(a+y) for all x, y} contains the identity 0, contains
      G, and is closed under + (Light's test: if a and b are in it, then
      (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y)).
      So it holds every element reachable from 0, which is all of them.
    - zero-annihilates and one-identity are checked on whole rows and columns.
    - left-distributive is checked with the middle summand b in G, for all
      a, c.  The good set of b contains 0 (a*0 = 0) and is closed under
      b -> b + g, since a*((b+g)+c) = a*(b+(g+c)) = a*b + (a*g + a*c)
      = (a*b + a*g) + a*c = a*(b+g) + a*c; so it is everything.
    - right-distributive is then checked for a and b in G, all c.  For a in
      G the good set of b contains 0 and is closed under b -> b + g, as
      above, so x -> x*a is additive.  The set of a with x -> x*a additive
      contains 0 and is closed under a -> a + g, since by the full left law
      (b+c)*(a+g) = (b+c)*a + (b+c)*g = (b*a + c*a) + (b*g + c*g)
      = (b*a + b*g) + (c*a + c*g) = b*(a+g) + c*(a+g); so it is everything.
    - mul-associative is checked on G^3 only.  Both distributive laws make
      (xy)z and x(yz) additive in each argument, and both vanish when any
      argument is 0, so the set of x where they agree for fixed y, z contains
      0 and is closed under x -> x + g; then the same holds for y, then z.
    """
    _check_tables(r)
    try:
        proven = _validate_split(r)
    except RingValidationError:
        proven = False
    if proven:
        return
    _validate_direct(r)
    if proven is False:
        raise RuntimeError(f"validate_ring: {r.name} failed the split route, yet the direct route accepts it")


# -- constructors ------------------------------------------------------------


def make_cyclic_ring(n: int, cap: int | None = None) -> FiniteRing:
    """Integers mod n; for n = 1 this is the zero ring (one == zero)."""
    if n <= 0:
        raise ValueError("cyclic ring order must be a positive integer")
    _check_cap(n, cap)
    # products are formed before the reduction, so (n-1)**2 must fit the type
    ar = np.arange(n, dtype=np.uint32 if n <= 2**16 else np.uint64)
    add = np.empty((n, n), dtype=_index_dtype(n))
    mul = np.empty_like(add)
    for s in _blocks(n, n):
        rows = ar[s, None]
        total = rows + ar
        total[total >= n] -= n
        add[s] = total
        mul[s] = rows * ar % n
    return CyclicRing(add, mul, one=1 % n, name=f"Z{n}")


def _decimal(v: int) -> str:
    """v in decimal, or a power of 2 below it when str() refuses that many digits."""
    try:
        return str(v)
    except ValueError:
        return f"at least 2**{v.bit_length() - 1}"


def _check_cap(n: int, cap: int | None) -> None:
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    if n > cap:
        raise CapacityError(f"ring of order {_decimal(n)} exceeds the size cap of {_decimal(cap)}")


def _power_order(m: int, e: int, cap: int | None) -> int:
    """m**e, the order of e-tuples over a ring of order m, checked against `cap`
    without computing a power above 4*cap**2 (m**e >= 2**(e*(bits(m)-1)))."""
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    if m > 1 and e * (m.bit_length() - 1) >= cap.bit_length():
        raise CapacityError(f"ring of order {_decimal(m)}**{e} exceeds the size cap of {_decimal(cap)}")
    _check_cap(m**e, cap)
    return m**e


def _outer_sum(w: int):
    """(p, q) -> t[..., i·|q| + j] = p[..., i]·w + q[..., j]: the last axes of
    p and q combined row-major, their leading axes broadcast."""

    def outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        t = p[..., :, None] * w + q[..., None, :]
        return t.reshape(*t.shape[:-2], -1)

    return outer


def _kronecker_sum(w: int):
    """(p, q) -> t[(i, i'), (j, j')] = p[i, j]·w + q[i', j'], pairs row-major."""
    return lambda p, q: _outer_sum(w)(p[:, None], q[None]).reshape(len(p) * len(q), -1)


def make_product_ring(a: FiniteRing, b: FiniteRing, cap: int | None = None) -> FiniteRing:
    """Direct product, pairs indexed row-major (i*|b| + j), read through its factors."""
    _check_cap(a.order * b.order, cap)
    return ProductRing(a, b, name=f"{a.name} x {b.name}")


def make_matrix_ring(base: FiniteRing, k: int, cap: int | None = None) -> FiniteRing:
    """k-by-k matrices over `base`, indexed as mixed-radix tuples row-major.

    The entry tuple (m00, m01, ..., m(k-1)(k-1)) is read as digits of the
    element index, most significant first.  With V = m^k row vectors over a
    base of order m, index(A) = Σ_i row_i(A)·V^(k−1−i).  The ring keeps two
    small tables (see `MatrixRing`), composed from the base's operations,
    never entry by entry:

    - vadd, the addition on row vectors, is the Kronecker sum of k copies of
      the base's addition;
    - rm[u, B] = u·B = Σ_l u_l·row_l(B): each term is a lookup in the table
      of scalar multiples s·v of row vectors v, and the sum is taken in vadd.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    name = f"M{k}({base.name})"
    if base.order == 1:  # matrices over the zero ring: the zero ring again
        zero = np.zeros((1, 1), dtype=_index_dtype(1))
        return FiniteRing(zero, zero, one=0, name=name, matrix_of=(base, k))
    m, n = base.order, _power_order(base.order, k * k, cap)
    v = m**k
    ar = np.arange(m)
    dtype = _index_dtype(n)  # every entry below is a row vector index, below n
    badd, bmul = base.add_at(ar[:, None], ar).astype(dtype), base.mul_rows(ar).astype(dtype)
    # the Kronecker sum vadd[(u, i), (w, j)] = vadd'[u, w]·m + badd[i, j], one entry at a time
    vadd = reduce(_kronecker_sum(m), [badd] * k)
    # scaled[s, r] = s·r, the row vector r multiplied on the left by the scalar s
    scaled = reduce(_outer_sum(m), [bmul] * k)
    # terms[l][s, B] = s·row_l(B), so rm[u, B] = u·B = Σ_l terms[l][u_l, B], summed in vadd
    terms = [np.repeat(np.tile(scaled, v**l), v ** (k - 1 - l), axis=1) for l in range(k)]
    rm = reduce(lambda acc, term: vadd[acc[:, None], term].reshape(-1, n), terms)
    one = sum(base.one * (m * v) ** i for i in range(k))
    return MatrixRing(base, k, rm, vadd, one=one, name=name)


def table_order(text: str) -> int:
    """The order a table file declares: its first integer, which must be
    positive.  Only the first token is read, so the body is not copied."""
    head = _FIRST_TOKEN.match(text).group(1)
    if not head:
        raise TableFormatError("empty table file")
    try:
        n = int(head)
    except ValueError as exc:
        raise TableFormatError(f"non-integer token in table file: {exc}") from None
    if n < 1:
        raise TableFormatError("declared order must be a positive integer")
    return n


def load_table_ring(text: str, cap: int | None = None) -> FiniteRing:
    """Parse and fully validate a plain-text table ring.

    Format: first integer is n, followed by the n x n addition table rows
    and then the n x n multiplication table rows (0-based indices).  The
    additive identity is renumbered to element 0 if needed, and unity is
    auto-detected by scanning for a two-sided multiplicative identity.
    The declared order is checked against `cap` before the body is parsed,
    and the whole text is parsed once, in place.
    """
    n = table_order(text)
    _check_cap(n, cap)
    try:
        # a token beyond int64 saturates, and the range check below rejects it
        body = np.fromstring(text, dtype=np.int64, sep=" ")[1:]
    except ValueError:
        raise TableFormatError("non-integer token in table file") from None
    expected = 2 * n * n
    if body.size != expected:
        raise TableFormatError(
            f"expected {1 + expected} integers for order {n} (got {1 + body.size})"
        )
    if body.min() < 0 or body.max() >= n:
        raise TableFormatError("table entry out of range for declared order")
    body = body.astype(_index_dtype(n))
    add = body[: n * n].reshape(n, n)
    mul = body[n * n :].reshape(n, n)

    ar = np.arange(n, dtype=body.dtype)
    ident = np.flatnonzero((add == ar).all(axis=1))
    if not ident.size:
        raise RingValidationError("add-identity", None, "no additive identity element found")
    e = int(ident[0])
    if e != 0:
        perm = ar.copy()
        perm[0], perm[e] = e, 0
        add = perm[add[np.ix_(perm, perm)]]
        mul = perm[mul[np.ix_(perm, perm)]]

    ones = np.flatnonzero((mul == ar).all(axis=1) & (mul == ar[:, None]).all(axis=0))
    if not ones.size:
        raise RingValidationError("unity", None, "no unity found (no two-sided multiplicative identity)")
    ring = FiniteRing(add, mul, one=ones[0], name=f"table-ring-{n}")
    validate_ring(ring)
    return ring

