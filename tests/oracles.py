"""Independent brute-force oracles.

Everything here recomputes results from first principles (naive loops over
elements, all subsets, all permutations), deliberately sharing no machinery
with the library paths it checks.
"""

from itertools import permutations, product

import numpy as np

import zdgraph as z


def naive_additive_closure(ring, seed):
    """Fixed-point closure under pairwise sums and negation, as plain sets."""
    cur = set(seed) | {0}
    while True:
        nxt = set(cur)
        for x in cur:
            for y in cur:
                nxt.add(ring.add(x, y))
        for x in cur:
            for y in range(ring.order):
                if ring.add(x, y) == 0:
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
            if ring.add(x, y) not in s:
                return False
    if not all(any(ring.add(x, y) == 0 and y in s for y in s) for x in s):
        return False
    for r in range(ring.order):
        for x in s:
            prod = ring.mul(r, x) if side == "left" else ring.mul(x, r)
            if prod not in s:
                return False
    return True


def subset_scan_ideals(ring, side):
    """Every subset of the ring filtered by the production ideal predicate."""
    n = ring.order
    pred = z.is_left_ideal if side == "left" else z.is_right_ideal
    found = []
    for bits in range(1, 1 << n):
        if not bits & 1:
            continue  # must contain 0
        s = z.ElementSet(ring, bits)
        if pred(ring, s):
            found.append(s)
    return sorted(found, key=z.ElementSet.sort_key)


def naive_ideal_product(ring, a, b):
    """Closure of every pairwise product, literally."""
    prods = {ring.mul(x, y) for x in a.indices() for y in b.indices()}
    return z.ElementSet.from_indices(ring, naive_additive_closure(ring, prods))


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


def naive_is_division_ring(ring):
    """Every nonzero element has a two-sided inverse, by a double loop."""
    n = ring.order
    return all(
        any(ring.mul(a, b) == ring.one == ring.mul(b, a) for b in range(1, n))
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
            p[a.add(x, y)] == b.add(p[x], p[y]) and p[a.mul(x, y)] == b.mul(p[x], p[y])
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
