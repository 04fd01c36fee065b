"""Small rings built by hand from their element-level operations, and table
files that relabel a ring by a seeded permutation.

The hand-built rings have one-sided ideals that are not principal, which no
constructor in the library produces below the test cap:

- F2[x,y]/(x,y)^2: its maximal ideal (x, y) = (x) + (y) needs two generators;
- Z4[x]/(2x, x^2): likewise (2, x) = (2) + (x);
- U2(Z4), the upper-triangular 2x2 matrices over Z4.
"""

import random
from itertools import product

import numpy as np

import zdgraph as z


def ring_from_ops(elements, add, mul, name: str) -> z.FiniteRing:
    """The validated table ring on `elements` (the first is zero) under the
    element-level operations `add` and `mul`; unity is found by a scan."""
    index = {e: i for i, e in enumerate(elements)}
    add_t = np.array([[index[add(a, b)] for b in elements] for a in elements])
    mul_t = np.array([[index[mul(a, b)] for b in elements] for a in elements])
    ar = np.arange(len(elements))
    one = next(u for u in ar if (mul_t[u] == ar).all() and (mul_t[:, u] == ar).all())
    ring = z.FiniteRing(add_t.astype(np.uint16), mul_t.astype(np.uint16), int(one), name=name)
    z.validate_ring(ring)
    return ring


def f2_xy() -> z.FiniteRing:
    """F2[x,y]/(x,y)^2 on a + b*x + c*y, stored as (a, b, c)."""

    def mul(p, q):
        a, b, c = p
        d, e, f = q
        return (a * d % 2, (a * e + b * d) % 2, (a * f + c * d) % 2)

    add = lambda p, q: tuple((s + t) % 2 for s, t in zip(p, q))
    return ring_from_ops(list(product(range(2), repeat=3)), add, mul, "F2[x,y]/(x,y)^2")


def z4_x() -> z.FiniteRing:
    """Z4[x]/(2x, x^2) on a + b*x with a in Z4, b in Z2, stored as (a, b)."""

    def mul(p, q):
        (a, b), (c, d) = p, q
        return (a * c % 4, (a * d + b * c) % 2)

    add = lambda p, q: ((p[0] + q[0]) % 4, (p[1] + q[1]) % 2)
    return ring_from_ops(list(product(range(4), range(2))), add, mul, "Z4[x]/(2x,x^2)")


def upper_triangular(n: int) -> z.FiniteRing:
    """U2(Zn): matrices [[a, b], [0, d]] over Zn, stored as (a, b, d)."""

    def mul(p, q):
        (a, b, d), (e, f, h) = p, q
        return (a * e % n, (a * f + b * h) % n, d * h % n)

    add = lambda p, q: tuple((s + t) % n for s, t in zip(p, q))
    return ring_from_ops(list(product(range(n), repeat=3)), add, mul, f"U2(Z{n})")


def nonprincipal_rings() -> dict[str, z.FiniteRing]:
    """Rings with a non-principal one-sided ideal, keyed by name."""
    f2xy = f2_xy()
    pool = {"F2[x,y]/(x,y)^2": f2xy, "Z4[x]/(2x,x^2)": z4_x(), "U2(Z4)": upper_triangular(4)}
    pool["F2[x,y]/(x,y)^2 x Z3"] = z.make_product_ring(f2xy, z.make_cyclic_ring(3))
    m2z2 = z.make_matrix_ring(z.make_cyclic_ring(2), 2)
    pool["F2[x,y]/(x,y)^2 x M2(Z2)"] = z.make_product_ring(f2xy, m2z2)
    return pool


def draw_permutation(n: int, seed: int) -> np.ndarray:
    """A permutation of 0..n-1 drawn from `seed`, with 0 fixed."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return np.array([0, *rest])


def relabelled_table_text(ring: z.FiniteRing, perm) -> str:
    """A table file of `ring` with element i renamed perm[i]."""
    n = ring.order
    perm = np.asarray(perm)
    rows = [str(n)]
    for table in (ring.add_table, ring.mul_table):
        new = np.empty((n, n), dtype=np.int64)
        new[np.ix_(perm, perm)] = perm[table]  # new[perm[i], perm[j]] = perm[old[i, j]]
        rows += [" ".join(map(str, row)) for row in new.tolist()]
    return "\n".join(rows) + "\n"
