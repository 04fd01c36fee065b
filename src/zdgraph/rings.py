"""Finite unital rings given by explicit addition/multiplication tables.

Element 0 is always the additive identity.  A ring's tables are frozen at
construction, and its two derived values, its units and its additive
generators, are computed on first use and cached on the ring, so rings are
safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

DEFAULT_SIZE_CAP = 25_000

# temporary entries per block of a pass over an n x n table (a few hundred MB at
# most), used by make_cyclic_ring, FiniteRing.is_commutative and .units,
# the ideal layer's _images (x*B images and principal ideals), and the
# graphs' _diameter
_BLOCK_ELEMS = 4_000_000

# entries per block of an associativity scan; a scan runs while a parsed
# table file is still in memory, so its blocks stay small (about 1 MB)
_ASSOC_BLOCK = 1 << 18


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class FiniteRing:
    """A finite ring with 1 on elements 0..order-1, zero fixed at index 0.

    `matrix_of` is (base, k) when `make_matrix_ring(base, k)` built the ring,
    and None otherwise.
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
        self.order = int(n)
        self.add_table = _freeze(add_table)
        self.mul_table = _freeze(mul_table)
        self.one = int(one)
        self.name = name or f"ring-of-order-{n}"
        self.matrix_of = matrix_of

    @cached_property
    def units(self) -> np.ndarray:
        """The units, ascending, found on first use.

        x is a unit iff `one` is in row x of the multiplication table, since a
        one-sided inverse is two-sided in a finite ring.  The rows are compared
        with `one` in blocks of about _BLOCK_ELEMS entries.
        """
        n, mul = self.order, self.mul_table
        step = max(1, _BLOCK_ELEMS // n)
        found = np.concatenate([(mul[lo : lo + step] == self.one).any(axis=1) for lo in range(0, n, step)])
        return np.flatnonzero(found)

    @cached_property
    def additive_generators(self) -> np.ndarray:
        """Additive generators (`_reaching_generators`), found on first use."""
        return np.asarray(_reaching_generators(self.add_table), dtype=np.intp)

    def is_zero_ring(self) -> bool:
        return self.one == self.zero

    def is_commutative(self) -> bool:
        # row blocks against column blocks, never a whole n x n comparison
        n, mul = self.order, self.mul_table
        step = max(1, _BLOCK_ELEMS // n)
        blocks = range(0, n, step)
        return all(np.array_equal(mul[lo : lo + step], mul[:, lo : lo + step].T) for lo in blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (
            self.order == other.order
            and self.one == other.one
            and np.array_equal(self.add_table, other.add_table)
            and np.array_equal(self.mul_table, other.mul_table)
        )

    __hash__ = None  # mutable-by-identity semantics; use `is` for keys

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, order={self.order})"


class ElementSet:
    """A subset of a ring's elements as a bit-vector (bit i = element i)."""

    def __init__(self, ring: FiniteRing, bits: int = 0):
        self.ring = ring
        self.bits = bits

    @classmethod
    def from_mask(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        packed = np.packbits(mask.astype(np.uint8), bitorder="little")
        return cls(ring, int.from_bytes(packed.tobytes(), "little"))

    def mask(self) -> np.ndarray:
        n = self.ring.order
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n].astype(bool)

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.mask())[0])

    def sort_key(self) -> bytes:
        """Bit-vector lexicographic key (element 0 first)."""
        return self.mask().tobytes()

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


def _reaching_generators(add: np.ndarray) -> list[int]:
    """Greedy additive generators read off the table alone: the smallest
    element not yet reachable from 0 by steps x -> x + g (g a generator so
    far) becomes the next generator, until every element is reachable.

    Nothing about the table is trusted beyond add[0, g] == g, which makes
    each new generator reachable, so this ends after at most n - 1 picks.
    """
    reached = np.zeros(add.shape[0], dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.zeros_like(reached)
            step[add[frontier[:, None], gens]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
    return gens


def _first_bad_distributive(mul: np.ndarray, add: np.ndarray, bs, side: str):
    """A triple (a, b, c) with b in `bs` where a*(b+c) != a*b + a*c (side
    "left") or (b+c)*a != b*a + c*a (side "right"), or None."""
    m = mul if side == "left" else mul.T              # m[a, x] = a*x, or x*a
    for b in bs:
        lhs = m[:, add[b]]                            # a*(b+c)
        rhs = add[m[:, b][:, None], m]                # a*b + a*c
        if not np.array_equal(lhs, rhs):
            a, c = _first_bad_pair(lhs != rhs)
            return a, int(b), c
    return None


def validate_ring(r: FiniteRing) -> None:
    """Check every ring axiom, raising RingValidationError with a witness
    that fails the named axiom (not necessarily the first in row-major order).

    Cost: O(n^2 |G|) table lookups, where G is a set of additive generators
    found by `_reaching_generators`: every element is reachable from 0 by
    steps x -> x + g with g in G (for the `table` ring of order 448, |G| = 6).
    The O(n^2) axioms (range, commutative addition, identity 0, inverses)
    are checked first.  Soundness of the rest, with each check run in order:

    - add-associative is checked on (x, g, y) for g in G.  The set
      {a : (x+a)+y = x+(a+y) for all x, y} contains the identity 0, contains
      G, and is closed under + (Light's test: if a and b are in it, then
      (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y)).
      So it holds every element reachable from 0, which is all of them.
    - zero-annihilates and one-identity are checked on whole rows and columns.
    - left- and right-distributive are checked with the middle summand b in
      G, for all a, c.  The good set of b contains 0 (a*0 = 0) and is closed
      under b -> b + g, since a*((b+g)+c) = a*(b+(g+c)) = a*b + (a*g + a*c)
      = (a*b + a*g) + a*c = a*(b+g) + a*c; so it is everything.
    - mul-associative is checked on G^3 only.  Both distributive laws make
      (xy)z and x(yz) additive in each argument, and both vanish when any
      argument is 0, so the set of x where they agree for fixed y, z contains
      0 and is closed under x -> x + g; then the same holds for y, then z.
    """
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

    g = r.additive_generators
    bad = _first_non_associative(add, g)
    if bad is not None:
        raise RingValidationError(
            "add-associative", bad, "addition not associative at ({},{},{})".format(*bad)
        )

    if not (np.array_equal(mul[0], np.zeros(n, mul.dtype)) and np.array_equal(mul[:, 0], np.zeros(n, mul.dtype))):
        raise RingValidationError("zero-annihilates", None, "element 0 does not annihilate")
    if not (np.array_equal(mul[r.one], ar) and np.array_equal(mul[:, r.one], ar)):
        raise RingValidationError(
            "one-identity", (r.one,), f"element {r.one} is not a two-sided multiplicative identity"
        )

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


# -- constructors ------------------------------------------------------------


def make_cyclic_ring(n: int) -> FiniteRing:
    """Integers mod n; for n = 1 this is the zero ring (one == zero)."""
    if n <= 0:
        raise ValueError("cyclic ring order must be a positive integer")
    # products are formed before the reduction, so (n-1)**2 must fit the type
    ar = np.arange(n, dtype=np.uint32 if n <= 2**16 else np.uint64)
    add = np.empty((n, n), dtype=_index_dtype(n))
    mul = np.empty_like(add)
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        rows = ar[lo : lo + step, None]
        total = rows + ar
        total[total >= n] -= n
        add[lo : lo + step] = total
        mul[lo : lo + step] = rows * ar % n
    return FiniteRing(add, mul, one=1 % n, name=f"Z{n}")


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


def _stack_rows(p: np.ndarray, q: np.ndarray, w: int) -> np.ndarray:
    """The table t[i·|q| + j] = p[i]·w + q[j], the rows of p and q broadcast
    over their trailing axes and flattened: one block of |q| rows per row of
    p, written straight into the smallest index dtype that holds |p|·w."""
    tail = np.broadcast_shapes(p.shape[1:], q.shape[1:])
    out = np.empty((len(p), len(q)) + tail, dtype=_index_dtype(len(p) * w))
    for i, row in enumerate(p):
        np.add(row.astype(out.dtype) * w, q, out=out[i], casting="unsafe")
    return out.reshape(len(p) * len(q), -1)


def _kron_sum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The Kronecker sum t[(i,j), (i',j')] = p[i,i']·|q| + q[j,j'] of two square
    tables: the table of their operations done componentwise on row-major pairs."""
    return _stack_rows(p[:, :, None], q[:, None, :], len(q))


def make_product_ring(a: FiniteRing, b: FiniteRing, cap: int | None = None) -> FiniteRing:
    """Direct product, pairs indexed row-major (i*|b| + j): both tables are Kronecker sums."""
    _check_cap(a.order * b.order, cap)
    add = _kron_sum(a.add_table, b.add_table)
    mul = _kron_sum(a.mul_table, b.mul_table)
    return FiniteRing(add, mul, one=a.one * b.order + b.one, name=f"{a.name} x {b.name}")


def make_matrix_ring(base: FiniteRing, k: int, cap: int | None = None) -> FiniteRing:
    """k-by-k matrices over `base`, indexed as mixed-radix tuples row-major.

    The entry tuple (m00, m01, ..., m(k-1)(k-1)) is read as digits of the
    element index, most significant first.  With V = m^k row vectors over a
    base of order m, index(A) = Σ_i row_i(A)·V^(k−1−i), and the tables are
    composed from small ones, never entry by entry:

    - the addition of M_k is the Kronecker sum of k copies of vadd, the
      addition on row vectors, which is itself the Kronecker sum of k copies
      of the base's addition;
    - row i of A·B is row_i(A)·B, so mul[A, B] = Σ_i rm[row_i(A), B]·V^(k−1−i),
      where rm[u, B] = u·B is a V x n table of row vectors;
    - rm[u, B] = Σ_l u_l·row_l(B): each term is a lookup in the table of
      scalar multiples s·v of row vectors v, and the sum is taken in vadd.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    name = f"M{k}({base.name})"
    if base.order == 1:  # matrices over the zero ring: the zero ring again
        return FiniteRing(base.add_table, base.mul_table, one=0, name=name, matrix_of=(base, k))
    m, n = base.order, _power_order(base.order, k * k, cap)
    v = m**k
    vadd = reduce(_kron_sum, [base.add_table] * k)
    # scaled[r, s] = s·r, the row vector r multiplied on the left by the scalar s
    scaled = reduce(lambda p, q: _stack_rows(p, q, m), [base.mul_table.T] * k)
    # terms[l][s, B] = s·row_l(B), so rm[u, B] = u·B = Σ_l terms[l][u_l, B], summed in vadd
    terms = [np.repeat(np.tile(scaled.T, v**l), v ** (k - 1 - l), axis=1) for l in range(k)]
    rm = reduce(lambda acc, term: vadd[acc[:, None], term].reshape(-1, n), terms)
    mul = reduce(lambda p, q: _stack_rows(p, q, v), [rm] * k)
    add = reduce(_kron_sum, [vadd] * k)
    one = sum(base.one * (m * v) ** i for i in range(k))
    return FiniteRing(add, mul, one=one, name=name, matrix_of=(base, k))


def table_order(text: str) -> int:
    """The order a table file declares: its first integer, which must be positive."""
    head = text.split(maxsplit=1)
    if not head:
        raise TableFormatError("empty table file")
    try:
        n = int(head[0])
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
    The declared order is checked against `cap` before the body is parsed.
    """
    n = table_order(text)
    _check_cap(n, cap)
    rest = text.split(maxsplit=1)[1:]
    try:
        # a token beyond int64 saturates, and the range check below rejects it
        body = np.fromstring(rest[0] if rest else "", dtype=np.int64, sep=" ")
    except ValueError:
        raise TableFormatError("non-integer token in table file") from None
    expected = 2 * n * n
    if body.size != expected:
        raise TableFormatError(
            f"expected {1 + expected} integers for order {n} (got {1 + body.size})"
        )
    if body.min() < 0 or body.max() >= n:
        raise TableFormatError("table entry out of range for declared order")
    add = body[: n * n].reshape(n, n)
    mul = body[n * n :].reshape(n, n)

    ar = np.arange(n)
    ident = [e for e in range(n) if np.array_equal(add[e], ar)]
    if not ident:
        raise RingValidationError("add-identity", None, "no additive identity element found")
    e = ident[0]
    if e != 0:
        perm = np.arange(n)
        perm[0], perm[e] = e, 0
        add = perm[add[np.ix_(perm, perm)]]
        mul = perm[mul[np.ix_(perm, perm)]]

    ones = [
        u
        for u in range(n)
        if np.array_equal(mul[u], np.arange(n)) and np.array_equal(mul[:, u], np.arange(n))
    ]
    if not ones:
        raise RingValidationError("unity", None, "no unity found (no two-sided multiplicative identity)")
    ring = FiniteRing(add.astype(_index_dtype(n)), mul.astype(_index_dtype(n)), one=ones[0], name=f"table-ring-{n}")
    validate_ring(ring)
    return ring

