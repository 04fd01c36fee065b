"""Independent brute-force oracles.

Everything here recomputes results from first principles (naive loops over
elements, all subsets, all permutations), deliberately sharing no machinery
with the library paths it checks.  The exceptions are the span-based
references under "additive spans" and the table scans that use them: they
take the library's `_additive_span` for speed on rings too large for the
naive closures, and tests check them against those closures.
"""

from itertools import permutations, product

import numpy as np

import zdgraph as z
from zdgraph.ideals import _additive_span
from zdgraph.rings import _BLOCK_ELEMS, _check_cap, _index_dtype


def naive_additive_closure(ring, seed):
    """Fixed-point closure under pairwise sums and negation, as plain sets."""
    cur = set(seed) | {0}
    while True:
        nxt = set(cur)
        for x in cur:
            for y in cur:
                nxt.add(int(ring.add_table[x, y]))
        for x in cur:
            for y in range(ring.order):
                if ring.add_table[x, y] == 0:
                    nxt.add(y)
        if nxt == cur:
            return cur
        cur = nxt


def naive_is_one_sided_ideal(ring, subset, side):
    """Subgroup + absorption by double loops (no closure machinery)."""
    s = set(subset)
    if 0 not in s:
        return False
    for x in s:
        for y in s:
            if ring.add_table[x, y] not in s:
                return False
    if not all(any(ring.add_table[x, y] == 0 and y in s for y in s) for x in s):
        return False
    for r in range(ring.order):
        for x in s:
            prod = ring.mul_table[r, x] if side == "left" else ring.mul_table[x, r]
            if prod not in s:
                return False
    return True


def subset_scan_ideals(ring, side):
    """Every subset of the ring filtered by the naive ideal predicate."""
    n = ring.order
    found = []
    for bits in range(1, 1 << n):
        if not bits & 1:
            continue  # must contain 0
        s = z.ElementSet(ring, bits)
        if naive_is_one_sided_ideal(ring, s.indices(), side):
            found.append(s)
    return sorted(found, key=z.ElementSet.sort_key)


def scatter_principal_sets(r, side):
    """`ideals._principal_sets` read off every column (left) or row (right):
    distinct principal ideals keyed by bits, each with its smallest
    generator and its other-side flag, in ascending order of generator.

    A block of columns is scattered into a boolean mask and packed, so the
    sets compare as bytes.  The other-side flag is the row test: Rx is a
    right ideal iff xR is in Rx, and xR is a left ideal iff Rx is in xR."""
    n, mul = r.order, r.mul_table
    found = {}
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        vals = mul[lo:hi] if side == "right" else mul[:, lo:hi].T  # row i: xR or Rx, x = lo + i
        mask = np.zeros((hi - lo, n), dtype=bool)
        mask[np.arange(hi - lo)[:, None], vals] = True
        for i, row in enumerate(np.packbits(mask, axis=1, bitorder="little")):
            key = row.tobytes()
            if key not in found:
                x = lo + i
                other = mul[x, :] if side == "left" else mul[:, x]
                found[key] = (x, bool(mask[i, other].all()))
    return {int.from_bytes(key, "little"): xf for key, xf in found.items()}


def naive_ideal_product(ring, a, b):
    """Closure of every pairwise product, literally."""
    prods = {int(ring.mul_table[x, y]) for x in a.indices() for y in b.indices()}
    return element_set(ring, naive_additive_closure(ring, prods))


def element_set(ring, indices):
    """The ElementSet holding exactly the given element indices."""
    return z.ElementSet(ring, sum(1 << i for i in {int(x) for x in indices}))


# -- additive spans ----------------------------------------------------------------
# Spans by the library's `_additive_span`: fast references for rings whose
# subsets are too many for the naive closures above.  They read a ring's
# full tables, through a table ring that holds them.


def _span(r, seed):
    """`_additive_span` read off r's full tables, through a table ring that holds them."""
    return _additive_span(z.FiniteRing(r.add_table, r.mul_table, r.one), seed)


def additive_closure(r, seed):
    """Smallest additive subgroup containing seed and 0."""
    if isinstance(seed, z.ElementSet):
        seed = seed.indices()
    mask = _span(r, sorted(int(x) for x in seed))[0]
    return z.ElementSet.from_mask(r, mask)


def ideal_product(r, a, b):
    """Additive closure of all pairwise products x*y, x in a, y in b.

    Both arguments must be additive subgroups; the span of { x*y } then
    equals the span of the products of their greedy additive generators,
    which keeps this fast.
    """
    ga = _span(r, a.indices())[1]
    gb = _span(r, b.indices())[1]
    if additive_closure(r, ga).bits != a.bits or additive_closure(r, gb).bits != b.bits:
        raise ValueError("ideal_product arguments must be additive subgroups")
    mul = r.mul_table
    prods = sorted({int(mul[x, y]) for x in ga for y in gb})
    return additive_closure(r, prods)


def naive_annihilating_ideal_graph(ring, ideals):
    """Vertex bits and adjacency matrix of the commutative annihilating-ideal
    graph over `ideals`: the nonzero I with a nonzero a such that a*y = 0 for
    every element y of I, and I, J adjacent (I != J) when naive_ideal_product
    gives the zero ideal."""
    def has_annihilator(s):
        return any(all(ring.mul_table[a, y] == 0 for y in s.indices()) for a in range(1, ring.order))

    vsets = [i.set for i in ideals if i.bits != 1 and has_annihilator(i.set)]
    adj = np.zeros((len(vsets), len(vsets)), dtype=bool)
    for i, x in enumerate(vsets):
        for j, y in enumerate(vsets):
            adj[i, j] = i != j and naive_ideal_product(ring, x, y).bits == 1
    return [x.bits for x in vsets], adj


def floyd_warshall(vertices, edges):
    """All-pairs shortest path lengths over directed edges; None = unreachable."""
    dist = {(a, b): (0 if a == b else None) for a in vertices for b in vertices}
    for a, b in edges:
        dist[(a, b)] = 1
    for k in vertices:
        for i in vertices:
            for j in vertices:
                ik, kj = dist[(i, k)], dist[(k, j)]
                if ik is not None and kj is not None:
                    ij = dist[(i, j)]
                    if ij is None or ik + kj < ij:
                        dist[(i, j)] = ik + kj
    return dist


def neighbours(g, mode="directed"):
    """Neighbour list of each vertex of g, read off g.adj or (undirected) g.und."""
    rows = g.adj if mode == "directed" else g.und
    return {v: [g.vertices[j] for j in np.nonzero(row)[0]] for v, row in zip(g.vertices, rows)}


def naive_girth(vertices, und_edges):
    """Minimum cycle length by DFS over all simple cycles (small graphs only)."""
    adj = {v: set() for v in vertices}
    for a, b in und_edges:
        adj[a].add(b)
        adj[b].add(a)
    best = [float("inf")]

    def walk(start, current, path):
        for nxt in adj[current]:
            if nxt == start and len(path) >= 3:
                best[0] = min(best[0], len(path))
            elif nxt not in path and nxt > start:
                walk(start, nxt, path | {nxt})

    for v in vertices:
        walk(v, v, {v})
    return best[0]


def dense_diameter(adj):
    """Largest distance over ordered pairs of distinct vertices of a loopless
    boolean adjacency matrix, by boolean level expansion with V x V float32
    products: None below two vertices, inf when some pair is unreachable."""
    v = adj.shape[0]
    if v < 2:
        return None
    adj_f = adj.astype(np.float32)
    reached = adj | np.eye(v, dtype=bool)
    frontier = adj
    level = 1
    while not reached.all():
        new = ((frontier.astype(np.float32) @ adj_f) > 0) & ~reached
        if not new.any():
            return float("inf")
        reached |= new
        frontier = new
        level += 1
    return level


def dense_girth_with_cycle(g):
    """(girth, witness cycle) of g's undirected view from the V x V count of
    common neighbours: the first pair (row-major) that is adjacent with a
    common neighbour closes a triangle through its first common neighbour;
    failing that, the first pair with two common neighbours and the first
    two of them make a 4-cycle; failing both, the library's BFS fallback."""
    if not g.und.any():
        return float("inf"), None
    und_f = g.und.astype(np.float32)
    common = und_f @ und_f
    tri = g.und & (common >= 1)
    if tri.any():
        a, b = divmod(int(tri.argmax()), g.n_vertices)
        x = int(np.nonzero(g.und[a] & g.und[b])[0][0])
        return 3, [g.vertices[a], g.vertices[x], g.vertices[b]]
    quad = (common >= 2) & ~np.eye(g.n_vertices, dtype=bool)
    if quad.any():
        a, b = divmod(int(quad.argmax()), g.n_vertices)
        x, y = (int(i) for i in np.nonzero(g.und[a] & g.und[b])[0][:2])
        return 4, [g.vertices[a], g.vertices[x], g.vertices[b], g.vertices[y]]
    return z.graphs._girth_bfs(g)


def naive_is_division_ring(ring):
    """Every nonzero element has a two-sided inverse, by a double loop."""
    n = ring.order
    return all(
        any(ring.mul_table[a, b] == ring.one == ring.mul_table[b, a] for b in range(1, n))
        for a in range(1, n)
    )


def ring_isomorphism(a, b):
    """Search for a table bijection (orders <= 8); returns the map or None."""
    if a.order != b.order:
        return None
    n = a.order
    for perm in permutations(range(1, n)):
        p = (0, *perm)
        if p[a.one] != b.one:
            continue
        if all(
            p[a.add_table[x, y]] == b.add_table[p[x], p[y]]
            and p[a.mul_table[x, y]] == b.mul_table[p[x], p[y]]
            for x in range(n)
            for y in range(n)
        ):
            return p
    return None


def first_non_associative(t):
    """The first triple (a, b, c), in row-major order, where the operation
    with Cayley table t is not associative: t[t[a,b],c] != t[a,t[b,c]]."""
    for a in range(t.shape[0]):
        lhs = t[t[a]]            # (a*b)*c
        rhs = t[a][t]            # a*(b*c)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return a, int(b), int(c)
    return None


def exhaustive_validate_semigroup(s):
    """Absorbing zero and every triple's associativity, by the O(m^3) scan."""
    m, t = s.order, s.table
    if t.min() < 0 or t.max() >= m:
        raise z.SemigroupValidationError("range", None, "Cayley table entry out of range")
    if t[0].any() or t[:, 0].any():
        raise z.SemigroupValidationError("zero", None, "element 0 is not absorbing")
    bad = first_non_associative(t)
    if bad is not None:
        raise z.SemigroupValidationError("associativity", bad, "not associative")


def naive_semigroups_with_zero(order):
    """Every associative Cayley table (as nested lists) on 0..order-1 with 0
    absorbing, by a triple loop over each candidate in itertools.product order
    of the free entries (row-major over the nonzero block)."""
    k = order - 1
    nz = range(1, order)
    found = []
    for free in product(range(order), repeat=k * k):
        t = [[0] * order] + [[0, *free[i * k : (i + 1) * k]] for i in range(k)]
        if all(t[t[x][y]][w] == t[x][t[y][w]] for x in nz for y in nz for w in nz):
            found.append(t)
    return found


def exhaustive_validate_ring(r):
    """Every ring axiom over every pair or triple of elements, O(n^3), with
    the first row-major witness (mul-associative before distributivity)."""
    n, add, mul = r.order, r.add_table, r.mul_table
    ar = np.arange(n)

    def fail(axiom, witness=None):
        raise z.RingValidationError(axiom, witness, axiom)

    if min(add.min(), mul.min()) < 0 or max(add.max(), mul.max()) >= n:
        fail("range")
    if (add != add.T).any():
        fail("add-commutative", tuple(int(i) for i in np.argwhere(add != add.T)[0]))
    if not np.array_equal(add[0], ar):
        fail("add-identity", (0, int(np.argwhere(add[0] != ar)[0][0])))
    if not (add == 0).any(axis=1).all():
        fail("add-inverse", (int(np.argwhere(~(add == 0).any(axis=1))[0][0]),))
    bad = first_non_associative(add)
    if bad is not None:
        fail("add-associative", bad)
    if mul[0].any() or mul[:, 0].any():
        fail("zero-annihilates")
    if not (np.array_equal(mul[r.one], ar) and np.array_equal(mul[:, r.one], ar)):
        fail("one-identity", (r.one,))
    bad = first_non_associative(mul)
    if bad is not None:
        fail("mul-associative", bad)
    for a in range(n):
        for side, m in (("left", mul), ("right", mul.T)):  # m[a, x] = a*x, or x*a
            lhs = m[a][add]                           # a*(b+c)
            rhs = add[np.ix_(m[a], m[a])]             # a*b + a*c
            if not np.array_equal(lhs, rhs):
                b, c = np.argwhere(lhs != rhs)[0]
                fail(f"{side}-distributive", (a, int(b), int(c)))


# -- the completeness classifier's table form --------------------------------------
# Element-level scans of the multiplication table.  The library reads the
# same branches off the ideal lattice and the IPO; these are the reference.


def _any_blocked(table, predicate, axis):
    """predicate(block).any(axis) per row (axis 1) or per column (axis 0) of a
    big table, over blocks of its rows or columns, never a copy of it."""
    n = table.shape[0]
    out = np.zeros(n, dtype=bool)
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = table[lo:hi] if axis == 1 else table[:, lo:hi]
        out[lo:hi] = predicate(block).any(axis=axis)
    return out


def units_mask(r):
    """Boolean mask of the two-sided units."""
    one = r.one
    right = _any_blocked(r.mul_table, lambda blk: blk == one, axis=1)
    left = _any_blocked(r.mul_table, lambda blk: blk == one, axis=0)
    return right & left


def element_zero_divisors(r):
    """All a with ab = 0 or ba = 0 for some nonzero b (one-sided zero-divisors)."""
    n = r.order
    if n == 1:
        return z.ElementSet(r, 0)
    rows = _any_blocked(r.mul_table, lambda blk: blk[:, 1:] == 0, axis=1)
    cols = _any_blocked(r.mul_table, lambda blk: blk[1:] == 0, axis=0)
    return z.ElementSet.from_mask(r, rows | cols)


def central_idempotents(r):
    """All e with e*e = e commuting with every element, ascending."""
    n, mul = r.order, r.mul_table
    idem = np.nonzero(mul[np.arange(n), np.arange(n)] == np.arange(n))[0]
    return [int(e) for e in idem if np.array_equal(mul[e], mul[:, e])]


def is_local_ring(r):
    """Local iff the non-units form an additive subgroup absorbing both-sided
    multiplication; returns that maximal ideal when they do."""
    if r.is_zero_ring():
        raise ValueError("the zero ring is not eligible for the local-ring predicate")
    nonunit = ~units_mask(r)
    closure, gens = _span(r, np.nonzero(nonunit)[0])
    if not np.array_equal(closure, nonunit):
        return False, None
    if gens:
        left_img = r.mul_table[:, gens]
        right_img = r.mul_table[gens, :]
        if not (nonunit[left_img].all() and nonunit[right_img].all()):
            return False, None
    return True, z.ElementSet.from_mask(r, nonunit)


def _division_subring(r, e):
    """Is e*R*e a division ring with identity e?"""
    mul = r.mul_table
    sub = np.unique(mul[mul[e, :], e])
    sub = sub[sub != 0]
    if len(sub) == 0:
        return False
    tbl = mul[np.ix_(sub, sub)]
    return bool((((tbl == e) & (tbl.T == e)).any(axis=1)).all())


def _zero_divisor_products_vanish(r):
    didx = np.nonzero(element_zero_divisors(r).mask())[0]
    if len(didx) == 0:
        return True
    step = max(1, _BLOCK_ELEMS // len(didx))
    for lo in range(0, len(didx), step):
        rows = didx[lo : lo + step]
        if (r.mul_table[np.ix_(rows, didx)] != 0).any():
            return False
    return True


def table_completeness_branches(a):
    """The classifier's (branches, detail) for the ring of analysis `a`, by
    element-level scans; only the `local_ideal_chain` test reads the IPO."""
    branches = []
    detail = {}
    r = a.ring
    mul = r.mul_table

    if _zero_divisor_products_vanish(r):
        branches.append("zero_divisor_products_vanish")

    for e in central_idempotents(r):
        if e in (0, r.one):
            continue
        f = int(np.argmax(r.add_table[e] == r.one))  # 1 - e
        e_r_f = mul[mul[e, :], f]
        f_r_e = mul[mul[f, :], e]
        if not ((e_r_f == 0).all() and (f_r_e == 0).all()):
            continue
        if _division_subring(r, e) and _division_subring(r, f):
            branches.append("two_division_rings")
            detail["central_idempotent"] = int(e)
            break

    local, maximal = is_local_ring(r)
    if local:
        m_sq = ideal_product(r, maximal, maximal)
        detail["maximal_ideal"] = str(maximal)
        detail["maximal_ideal_squared"] = str(m_sq)
        full_bits = (1 << r.order) - 1
        target = {1, maximal.bits, m_sq.bits, full_bits}
        if {lab.bits for lab in a.ipo.labels} == target:
            branches.append("local_ideal_chain")
    return branches, detail


# -- composite rings, entry by entry ---------------------------------------------
# The product and matrix constructors as they were before the tables were
# composed as Kronecker sums: every entry is assembled from its factor or
# base digits.  The library's constructors must give the same bytes.


def pairwise_product_ring(a: z.FiniteRing, b: z.FiniteRing, cap: int | None = None) -> z.FiniteRing:
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
    return z.FiniteRing(add, mul, one=one, name=f"{a.name} x {b.name}")


def digit_matrix_ring(base: z.FiniteRing, k: int, cap: int | None = None) -> z.FiniteRing:
    """k-by-k matrices over `base`, indexed as mixed-radix tuples row-major.

    The entry tuple (m00, m01, ..., m(k-1)(k-1)) is read as digits of the
    element index, most significant first.
    """
    if k < 1:
        raise ValueError("matrix dimension must be at least 1")
    name = f"M{k}({base.name})"
    if base.order == 1:  # matrices over the zero ring: the zero ring again
        return z.FiniteRing(base.add_table, base.mul_table, one=0, name=name, matrix_of=(base, k))
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
    return z.FiniteRing(add, mul, one=one, name=name, matrix_of=(base, k))
