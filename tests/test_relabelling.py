"""Relabelling a ring's elements changes nothing in its report but labels.

Ideal generators are the smallest element giving each principal ideal, so
they depend on the labelling; these tests pin that nothing else does."""

import pytest

import zdgraph as z
from table_rings import draw_permutation, f2_xy, relabelled_table_text


def _analysis(ring, perm):
    table_ring = z.load_table_ring(relabelled_table_text(ring, perm))
    analysis = z.prepare_ring_analysis(table_ring)
    return analysis, z.run_all(table_ring, analysis=analysis).to_json_dict()


def _ideals(ideals, perm):
    """(renamed elements, is_left, is_right) of each ideal, sorted."""
    return sorted((sorted(int(perm[x]) for x in i.set.indices()), i.is_left, i.is_right) for i in ideals)


# Z12 and the products come back as table rings that split, so they are composed
@pytest.mark.parametrize("name", ["Z12", "M2(Z2)", "F2[x,y]/(x,y)^2", "Z2 x Z2 x Z3", "M2(Z2) x Z2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_survives_relabelling(name, seed):
    ring = f2_xy() if name.startswith("F2") else z.build_ring(z.parse_ring_expr(name))
    identity = list(range(ring.order))
    perm = draw_permutation(ring.order, seed)
    plain, before = _analysis(ring, identity)
    moved, after = _analysis(ring, perm)
    assert {k: v for k, v in after.items() if k != "checks"} == {
        k: v for k, v in before.items() if k != "checks"
    }
    assert [(c["check_name"], c["status"]) for c in after["checks"]] == [
        (c["check_name"], c["status"]) for c in before["checks"]
    ]
    # the ideals and IPO elements are the renamed sets of the original ones
    for side in ("left", "right"):
        assert _ideals(getattr(plain, side), perm) == _ideals(getattr(moved, side), identity)
    renamed = sorted(sorted(int(perm[x]) for x in s.indices()) for s in plain.ipo.labels)
    assert renamed == sorted(sorted(s.indices()) for s in moved.ipo.labels)


def _product(left, right):
    ring = z.build_ring(z.parse_ring_expr(f"{left} x {right}"))
    analysis = z.prepare_ring_analysis(ring)
    return analysis, z.run_all(ring, analysis=analysis).to_json_dict()


@pytest.mark.parametrize(
    "a, b", [("Z4", "Z3"), ("M2(Z2)", "Z3"), ("(Z2 x Z2)", "Z3"), ("M2(Z2)", "Z2"), ("Z8", "Z2")]
)
def test_report_survives_product_reordering(a, b):
    ab, ab_report = _product(a, b)
    ba, ba_report = _product(b, a)
    assert {k: v for k, v in ab_report.items() if k not in ("expr", "checks")} == {
        k: v for k, v in ba_report.items() if k not in ("expr", "checks")
    }
    assert [(c["check_name"], c["status"]) for c in ab_report["checks"]] == [
        (c["check_name"], c["status"]) for c in ba_report["checks"]
    ]
    # (x, y) is i*|B| + j in A x B and j*|A| + i in B x A
    na, nb = (z.build_ring(z.parse_ring_expr(e)).order for e in (a, b))
    swapped = sorted(sorted((x % nb) * na + x // nb for x in s.indices()) for s in ab.ipo.labels)
    assert swapped == sorted(sorted(s.indices()) for s in ba.ipo.labels)
