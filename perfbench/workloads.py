"""Workloads of the zdgraph benchmark: their CLI calls, their inputs, and the
correctness gate that every rep's output must pass.

The expected values are fixed here, never computed by the code under test:

- ring orders follow from the expressions;
- ideal counts follow from the Morita correspondence (left ideals of M2(Zn)
  match the subgroups of (Zn)^2: 5 * 6 = 30 for n = 6, 1 + 8 + 1 = 10
  subspaces for the field F7) and, for the product of seven fields behind
  `table`, from 2^7 subsets of factors;
- for that reduced commutative ring I*J is I intersect J, so the IPO is the
  128 ideals, the graph is disjointness on the 126 nonempty proper factor
  subsets (diameter 3, girth 3, symmetric, so directed-connected);
- IPO sizes, graph fields and check statuses of M2(Z6) and M2(Z7) are the
  ones the seed implementation reports (for M2(F7) the 82 elements are
  0, R, 8 minimal left, 8 minimal right and 64 rank-one corner products);
- the sweep counts are 199 rings (Z2..Z200) and 442 order-4 semigroups with
  zero, all with no failing check.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import numpy as np

# `wide` runs by hand but is left out of BENCHMARK.json: the layers it stresses
# are measured on ipo (make_matrix_ring) and table (ideal enumeration without
# semigroup validation), and three workloads leave each run long enough to
# average over the drift in CPU speed of a shared host.
WHY = {
    "ipo": "M2(Z6): the IPO (442) is large next to the ring (1296), so build_ipo and "
    "validate_semigroup dominate",
    "wide": "M2(Z7): a large ring (2401) with a small IPO (82), so element-level ring "
    "building and ideal enumeration dominate",
    "table": "a seeded relabelling of Z2^6 x Z7 read from a table file: parsing, "
    "validate_ring and a 128-ideal lattice, the path users take with their own rings",
    "sweep": "verify zn --max 200 and verify semigroups --order 4: 641 tiny instances, "
    "so fixed per-instance cost in theorems, graphs and cli dominates",
}

TABLE_MODULI = (2, 2, 2, 2, 2, 2, 7)
ZN_MAX = 200
SEMIGROUP_ORDER = 4
SEMIGROUP_COUNT = 442

_SEED_STATUSES_MATRIX = [
    ("directed_connectivity_iff", "pass"),
    ("undirected_connectivity", "pass"),
    ("girth_bound", "pass"),
    ("duo_ann_sets", "not-applicable"),
    ("completeness_classifier", "pass"),
    ("not_tournament", "not-applicable"),
    ("matrix_diam_lower", "pass"),
    ("matrix_diam_monotone", "pass"),
    ("matrix_girth", "pass"),
]

_MATRIX_GRAPH = dict(
    directed_connected=False,
    directed_diameter="inf",
    undirected_diameter=3,
    girth=3,
    complete=False,
    tournament=False,
)

EXPECTED_REPORTS = {
    "ipo": dict(
        fields=dict(ring_order=6**4, left_ideal_count=30, right_ideal_count=30,
                    ipo_size=442, vertex_count=440, **_MATRIX_GRAPH),
        checks=_SEED_STATUSES_MATRIX,
    ),
    "wide": dict(
        fields=dict(ring_order=7**4, left_ideal_count=10, right_ideal_count=10,
                    ipo_size=82, vertex_count=80, **_MATRIX_GRAPH),
        checks=_SEED_STATUSES_MATRIX,
    ),
    "table": dict(
        fields=dict(ring_order=2**6 * 7, left_ideal_count=2**7, right_ideal_count=2**7,
                    ipo_size=2**7, vertex_count=2**7 - 2, directed_connected=True,
                    directed_diameter=3, undirected_diameter=3, girth=3,
                    complete=False, tournament=False),
        checks=[
            ("directed_connectivity_iff", "pass"),
            ("undirected_connectivity", "pass"),
            ("girth_bound", "pass"),
            ("duo_ann_sets", "pass"),
            ("completeness_classifier", "pass"),
            ("not_tournament", "pass"),
        ],
    ),
}


# -- table-ring inputs -----------------------------------------------------------


def cyclic_product_tables(moduli) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of Z_m1 x ... x Z_mk, elements
    indexed in mixed radix (first factor most significant), so 0 is zero."""
    n = int(np.prod(moduli))
    idx = np.arange(n, dtype=np.int64)
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    weight = n
    for m in moduli:
        weight //= m
        d = (idx // weight) % m
        add += ((d[:, None] + d[None, :]) % m) * weight
        mul += ((d[:, None] * d[None, :]) % m) * weight
    return add, mul


def draw_permutation(n: int, seed: int) -> list[int]:
    """A permutation of 0..n-1 drawn from `seed`, with 0 fixed."""
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    return [0, *rest]


def relabel_tables(add: np.ndarray, mul: np.ndarray, perm) -> tuple[np.ndarray, np.ndarray]:
    """Tables of the same ring with element i renamed perm[i]."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.argsort(perm)
    cols = np.ix_(inv, inv)
    return perm[add[cols]], perm[mul[cols]]


def table_text(add: np.ndarray, mul: np.ndarray) -> str:
    """The plain-text table format `zdgraph analyze "T(path)"` reads."""
    rows = [str(add.shape[0])]
    rows += [" ".join(map(str, row)) for row in add.tolist()]
    rows += [" ".join(map(str, row)) for row in mul.tolist()]
    return "\n".join(rows) + "\n"


def write_relabelled_table(path: Path, moduli, seed: int) -> None:
    add, mul = cyclic_product_tables(moduli)
    perm = draw_permutation(add.shape[0], seed)
    path.write_text(table_text(*relabel_tables(add, mul, perm)))


# -- commands ----------------------------------------------------------------------


def commands(workload: str, seed: int, out_dir: Path, root: Path) -> list[list[str]]:
    """The `zdgraph` argv lists of one rep, writing any input file first."""
    if workload == "ipo":
        return [["analyze", "M2(Z6)", "--json", "-"]]
    if workload == "wide":
        return [["analyze", "M2(Z7)", "--json", "-"]]
    if workload == "table":
        path = out_dir / f"table-seed{seed}.txt"
        write_relabelled_table(path, TABLE_MODULI, seed)
        return [["analyze", f"T({path.relative_to(root)})", "--json", "-"]]
    if workload == "sweep":
        return [
            ["verify", "zn", "--max", str(ZN_MAX)],
            ["verify", "semigroups", "--order", str(SEMIGROUP_ORDER)],
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- correctness gate --------------------------------------------------------------


def compare_report(report: dict, expected: dict) -> list[str]:
    """Mismatches between a report and expected top-level fields and check
    statuses; `expr` and element labels are not compared."""
    problems = [
        f"{key}: got {report.get(key)!r}, expected {value!r}"
        for key, value in expected["fields"].items()
        if report.get(key) != value
    ]
    got = [(c["check_name"], c["status"]) for c in report.get("checks", [])]
    if got != list(expected["checks"]):
        problems.append(f"checks: got {got}, expected {list(expected['checks'])}")
    problems += [f"check {name} failed" for name, status in got if status == "fail"]
    return problems


_ZN_LINE = re.compile(r"^Z(\d+): (\d+) passed, (\d+) failed, (\d+) n/a$")
_SG_FAILED = re.compile(r"^semigroup #(\d+): ")
_SG_SUMMARY = re.compile(r"^order (\d+): (\d+) semigroups with zero, (\d+) failing checks$")


def _gate_sweep(outputs: list[str], codes: list[int]) -> tuple[int, int, list[str]]:
    zn_out, sg_out = outputs
    problems = [f"exit code {c}" for c in codes if c != 0]
    zn_failed = {}
    for line in zn_out.splitlines():
        m = _ZN_LINE.match(line)
        if m:
            zn_failed[int(m.group(1))] = int(m.group(3))
    expected_zn = range(2, ZN_MAX + 1)
    bad_zn = [n for n in expected_zn if zn_failed.get(n, 1) != 0]
    if f"{len(expected_zn)} instances, 0 failing checks" not in zn_out.splitlines():
        problems.append("verify zn summary line missing or reports failures")
    bad_sg = {int(m.group(1)) for m in map(_SG_FAILED.match, sg_out.splitlines()) if m}
    counted = 0
    for line in sg_out.splitlines():
        m = _SG_SUMMARY.match(line)
        if m and int(m.group(1)) == SEMIGROUP_ORDER:
            counted = int(m.group(2))
            if int(m.group(3)):
                problems.append(f"verify semigroups reports {m.group(3)} failing checks")
    missing_sg = max(0, SEMIGROUP_COUNT - counted)
    if counted != SEMIGROUP_COUNT:
        problems.append(f"verify semigroups counted {counted}, expected {SEMIGROUP_COUNT}")
    if bad_zn:
        problems.append(f"{len(bad_zn)} cyclic rings missing or failing, first Z{bad_zn[0]}")
    attempted = len(expected_zn) + SEMIGROUP_COUNT
    failed = min(attempted, len(bad_zn) + len(bad_sg) + missing_sg)
    if problems and failed == 0:
        failed = attempted  # the run is wrong as a whole, not one instance
    return attempted, failed, problems


def gate(workload: str, outputs: list[str], codes: list[int]) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, problems) for one rep."""
    if workload == "sweep":
        return _gate_sweep(outputs, codes)
    (text,), (code,) = outputs, codes
    problems = [f"exit code {code}"] if code != 0 else []
    try:
        problems += compare_report(json.loads(text), EXPECTED_REPORTS[workload])
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
    return 1, int(bool(problems)), problems
