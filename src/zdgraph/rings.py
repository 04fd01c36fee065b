"""Finite unital rings given by explicit addition/multiplication tables.

Element 0 is always the additive identity.  Rings are immutable after
construction and safe to share between threads; every operation here is a
pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SIZE_CAP = 25_000

# target number of temporary entries per block when building / scanning
# large tables (keeps peak memory of vectorised passes at a few hundred MB)
_BLOCK_ELEMS = 4_000_000


class RingValidationError(ValueError):
    """A ring axiom failed; carries the axiom name and the first witness."""

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
    """A finite ring with 1 on elements 0..order-1, zero fixed at index 0."""

    zero = 0

    def __init__(self, add_table, mul_table, one: int, name: str = ""):
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
        self._neg: np.ndarray | None = None

    # -- elementwise access ------------------------------------------------

    def add(self, i: int, j: int) -> int:
        return int(self.add_table[i, j])

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def neg(self, i: int) -> int:
        if self._neg is None:
            self._neg = _freeze(np.argmax(self.add_table == 0, axis=1))
        return int(self._neg[i])

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def elements(self) -> range:
        return range(self.order)

    def is_zero_ring(self) -> bool:
        return self.one == self.zero

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul_table, self.mul_table.T))

    def validate(self) -> None:
        validate_ring(self)

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
    def from_indices(cls, ring: FiniteRing, indices) -> "ElementSet":
        bits = 0
        for i in indices:
            bits |= 1 << int(i)
        return cls(ring, bits)

    @classmethod
    def from_mask(cls, ring: FiniteRing, mask: np.ndarray) -> "ElementSet":
        packed = np.packbits(mask.astype(np.uint8), bitorder="little")
        return cls(ring, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def full(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, (1 << ring.order) - 1)

    @classmethod
    def zero_set(cls, ring: FiniteRing) -> "ElementSet":
        return cls(ring, 1)

    def mask(self) -> np.ndarray:
        n = self.ring.order
        raw = self.bits.to_bytes((n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n].astype(bool)

    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.mask())[0])

    def sort_key(self) -> bytes:
        """Bit-vector lexicographic key (element 0 first)."""
        return self.mask().tobytes()

    def issubset(self, other: "ElementSet") -> bool:
        return self.bits & ~other.bits == 0

    def __contains__(self, i: int) -> bool:
        return bool((self.bits >> i) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self):
        return iter(self.indices())

    def __or__(self, other: "ElementSet") -> "ElementSet":
        assert self.ring is other.ring
        return ElementSet(self.ring, self.bits | other.bits)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        assert self.ring is other.ring
        return ElementSet(self.ring, self.bits & other.bits)

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


def _first_non_associative(t: np.ndarray) -> tuple[int, int, int] | None:
    """The first triple (a, b, c), in row-major order, where the operation
    with Cayley table t is not associative: t[t[a,b],c] != t[a,t[b,c]]."""
    for a in range(t.shape[0]):
        lhs = t[t[a]]            # (a*b)*c
        rhs = t[a][t]            # a*(b*c)
        if not np.array_equal(lhs, rhs):
            return (a, *_first_bad_pair(lhs != rhs))
    return None


def validate_ring(r: FiniteRing) -> None:
    """Exhaustively check every ring axiom, reporting the first violation.

    The checks run in O(n^3) table lookups (vectorised, blocked by rows),
    so this is meant for constructor-sized and file-loaded rings.
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

    bad = _first_non_associative(add)
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

    bad = _first_non_associative(mul)
    if bad is not None:
        raise RingValidationError(
            "mul-associative", bad, "multiplication not associative at ({},{},{})".format(*bad)
        )

    for a in range(n):
        lhs = mul[a][add]                            # a*(b+c)
        rhs = add[np.ix_(mul[a], mul[a])]            # a*b + a*c
        if not np.array_equal(lhs, rhs):
            b, c = _first_bad_pair(lhs != rhs)
            raise RingValidationError(
                "left-distributive", (a, b, c), f"left distributivity fails at ({a},{b},{c})"
            )
        lhs = mul[:, a][add]                         # (b+c)*a
        rhs = add[np.ix_(mul[:, a], mul[:, a])]      # b*a + c*a
        if not np.array_equal(lhs, rhs):
            b, c = _first_bad_pair(lhs != rhs)
            raise RingValidationError(
                "right-distributive", (a, b, c), f"right distributivity fails at ({a},{b},{c})"
            )


# -- constructors ------------------------------------------------------------


def make_cyclic_ring(n: int) -> FiniteRing:
    """Integers mod n; for n = 1 this is the zero ring (one == zero)."""
    if n <= 0:
        raise ValueError("cyclic ring order must be a positive integer")
    ar = np.arange(n, dtype=np.int64)
    dtype = _index_dtype(n)
    add = ((ar[:, None] + ar[None, :]) % n).astype(dtype)
    mul = ((ar[:, None] * ar[None, :]) % n).astype(dtype)
    return FiniteRing(add, mul, one=1 % n, name=f"Z{n}")


def _check_cap(n: int, cap: int | None) -> None:
    cap = DEFAULT_SIZE_CAP if cap is None else cap
    if n > cap:
        raise CapacityError(f"ring of order {n} exceeds the size cap of {cap}")


def make_product_ring(a: FiniteRing, b: FiniteRing, cap: int | None = None) -> FiniteRing:
    """Direct product with row-major pair indexing: index = i*|b| + j."""
    n = a.order * b.order
    _check_cap(n, cap)
    dtype = _index_dtype(n)
    ia = (np.arange(n) // b.order).astype(np.int64)
    jb = (np.arange(n) % b.order).astype(np.int64)
    add = np.empty((n, n), dtype=dtype)
    mul = np.empty((n, n), dtype=dtype)
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        add[lo:hi] = (
            a.add_table[ia[lo:hi, None], ia[None, :]].astype(np.int64) * b.order
            + b.add_table[jb[lo:hi, None], jb[None, :]]
        )
        mul[lo:hi] = (
            a.mul_table[ia[lo:hi, None], ia[None, :]].astype(np.int64) * b.order
            + b.mul_table[jb[lo:hi, None], jb[None, :]]
        )
    one = a.one * b.order + b.one
    return FiniteRing(add, mul, one=one, name=f"{a.name} x {b.name}")


def make_matrix_ring(base: FiniteRing, k: int, cap: int | None = None) -> FiniteRing:
    """k-by-k matrices over `base`, indexed as mixed-radix tuples row-major.

    The entry tuple (m00, m01, ..., m(k-1)(k-1)) is read as digits of the
    element index, most significant first.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    name = f"M{k}({base.name})"
    if base.order == 1:  # matrices over the zero ring: the zero ring again
        return FiniteRing(base.add_table, base.mul_table, one=0, name=name)
    m = base.order
    n = m ** (k * k)
    _check_cap(n, cap)
    kk = k * k
    dtype = _index_dtype(n)

    digits = np.empty((n, kk), dtype=np.int64)
    rem = np.arange(n, dtype=np.int64)
    for p in range(kk - 1, -1, -1):
        digits[:, p] = rem % m
        rem //= m
    weights = np.array([m ** (kk - 1 - p) for p in range(kk)], dtype=np.int64)
    dmat = digits.reshape(n, k, k)

    badd = base.add_table
    bmul = base.mul_table
    add = np.empty((n, n), dtype=dtype)
    mul = np.empty((n, n), dtype=dtype)
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        comp = badd[digits[lo:hi, None, :], digits[None, :, :]].astype(np.int64)
        add[lo:hi] = comp @ weights
        acc_idx = np.zeros((hi - lo, n), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                acc = bmul[dmat[lo:hi, i, 0][:, None], dmat[None, :, 0, j][0]]
                for l in range(1, k):
                    term = bmul[dmat[lo:hi, i, l][:, None], dmat[None, :, l, j][0]]
                    acc = badd[acc, term]
                acc_idx += acc.astype(np.int64) * weights[i * k + j]
        mul[lo:hi] = acc_idx

    one_digits = [base.one if i == j else 0 for i in range(k) for j in range(k)]
    one = int(sum(d * w for d, w in zip(one_digits, weights)))
    return FiniteRing(add, mul, one=one, name=name)


def _table_ints(tokens: list[str]) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise TableFormatError(f"non-integer token in table file: {exc}") from None


def table_order(text: str) -> int:
    """The order a table file declares: its first integer, which must be positive."""
    head = text.split(maxsplit=1)
    if not head:
        raise TableFormatError("empty table file")
    (n,) = _table_ints(head[:1])
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
    values = _table_ints(text.split()[1:])
    expected = 2 * n * n
    if len(values) != expected:
        raise TableFormatError(
            f"expected {1 + expected} integers for order {n} (got {1 + len(values)})"
        )
    try:
        body = np.array(values, dtype=np.int64)
    except OverflowError:  # a token beyond int64 is out of range for any order
        raise TableFormatError("table entry out of range for declared order") from None
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


# -- low-level additive-subgroup machinery (shared with the ideal layer) -----


def _cyclic_chain(add_table: np.ndarray, g: int) -> list[int]:
    mults = []
    m = g
    while m != 0:
        mults.append(m)
        m = int(add_table[m, g])
    return mults


def _additive_span(add_table: np.ndarray, seed, n: int) -> tuple[np.ndarray, list[int]]:
    """Boolean mask of the additive subgroup generated by `seed` and 0, and
    the seed elements that enlarged it, in seed order: a generating list of
    that subgroup (greedy, at most log2 n long)."""
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    members = np.zeros(1, dtype=np.intp)
    gens: list[int] = []
    for g in seed:
        g = int(g)
        if mask[g]:
            continue
        gens.append(g)
        block = add_table[members[:, None], np.asarray(_cyclic_chain(add_table, g))]
        mask[block.ravel()] = True
        members = np.flatnonzero(mask)
    return mask, gens


def _row_any_blocked(table: np.ndarray, predicate) -> np.ndarray:
    """Per-row `any` of predicate(block) over row blocks of a big table."""
    n = table.shape[0]
    out = np.zeros(n, dtype=bool)
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        out[lo:hi] = predicate(table[lo:hi]).any(axis=1)
    return out


# -- element-level predicates -------------------------------------------------


def units_mask(r: FiniteRing) -> np.ndarray:
    """Boolean mask of the two-sided units."""
    one = r.one
    right = _row_any_blocked(r.mul_table, lambda blk: blk == one)
    left = _row_any_blocked(np.ascontiguousarray(r.mul_table.T), lambda blk: blk == one)
    return right & left


def element_zero_divisors(r: FiniteRing) -> ElementSet:
    """All a with ab = 0 or ba = 0 for some nonzero b (one-sided zero-divisors)."""
    n = r.order
    if n == 1:
        return ElementSet(r, 0)
    rows = _row_any_blocked(r.mul_table, lambda blk: blk[:, 1:] == 0)
    cols = _row_any_blocked(np.ascontiguousarray(r.mul_table.T), lambda blk: blk[:, 1:] == 0)
    return ElementSet.from_mask(r, rows | cols)


def is_division_ring(r: FiniteRing) -> bool:
    """True iff every nonzero element has a two-sided inverse; rejects the zero ring."""
    if r.is_zero_ring():
        raise ValueError("the zero ring is not eligible for the division-ring predicate")
    return bool(units_mask(r)[1:].all())


def central_idempotents(r: FiniteRing) -> list[int]:
    """All e with e*e = e commuting with every element, ascending."""
    n, mul = r.order, r.mul_table
    idem = np.nonzero(mul[np.arange(n), np.arange(n)] == np.arange(n))[0]
    return [int(e) for e in idem if np.array_equal(mul[e], mul[:, e])]


def is_local_ring(r: FiniteRing) -> tuple[bool, ElementSet | None]:
    """Local iff the non-units form an additive subgroup absorbing both-sided
    multiplication; returns that maximal ideal when they do."""
    if r.is_zero_ring():
        raise ValueError("the zero ring is not eligible for the local-ring predicate")
    n = r.order
    nonunit = ~units_mask(r)
    closure, gens = _additive_span(r.add_table, np.nonzero(nonunit)[0], n)
    if not np.array_equal(closure, nonunit):
        return False, None
    if gens:
        left_img = r.mul_table[:, gens]
        right_img = r.mul_table[gens, :]
        if not (nonunit[left_img].all() and nonunit[right_img].all()):
            return False, None
    return True, ElementSet.from_mask(r, nonunit)
