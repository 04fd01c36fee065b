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


@pytest.mark.parametrize("name", ["Z12", "M2(Z2)", "F2[x,y]/(x,y)^2"])
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
