"""In-memory span recorder for the traced benchmark run.

Each public zdgraph function named in LAYER_FUNCTIONS is wrapped, in every
zdgraph namespace that binds it, by a function that records one span per call:
name, call id, parent span, start and end (perf_counter_ns), and optional
attributes.  A generator function gets one span per resume, all sharing the
call id, so it is timed while it is consumed and not when it is called.

Spans stay in memory until the run ends; `layer_metrics` then derives calls,
inclusive time, self time, useful ratios and work sizes from them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from time import perf_counter_ns

# (module, function) pairs; a span is named "<module>.<function>"
LAYER_FUNCTIONS = [
    ("rings", "make_cyclic_ring"),
    ("rings", "make_product_ring"),
    ("rings", "make_matrix_ring"),
    ("rings", "load_table_ring"),
    ("rings", "validate_ring"),
    ("ideals", "enumerate_one_sided_ideals"),
    ("semigroups", "build_ipo"),
    ("semigroups", "validate_semigroup"),
    ("semigroups", "enumerate_semigroups_with_zero"),
    ("semigroups", "ann_sets"),
    ("graphs", "directed_zd_graph"),
    ("graphs", "compute_graph_metrics"),
    ("theorems", "prepare_ring_analysis"),
    ("theorems", "check_directed_connectivity_iff"),
    ("theorems", "check_undirected_connectivity"),
    ("theorems", "check_girth_bound"),
    ("theorems", "check_duo_ann_sets"),
    ("theorems", "classify_completeness"),
    ("theorems", "check_not_tournament"),
    ("theorems", "check_matrix_diam_lower"),
    ("theorems", "check_matrix_diam_monotone"),
    ("theorems", "check_matrix_girth"),
    ("theorems", "run_all"),
    ("report", "write_report_json"),
    ("expr", "parse_ring_expr"),
    ("expr", "build_ring"),
    ("cli", "main"),
]

CHECKS = [f for m, f in LAYER_FUNCTIONS if m == "theorems" and f.startswith(("check_", "classify_"))]

# report field -> size metric, summed over every run_all call
SIZE_FIELDS = {
    "ring_order": "size.ring_order",
    "left_ideal_count": "size.left_ideals",
    "right_ideal_count": "size.right_ideals",
    "ipo_size": "size.ipo",
    "vertex_count": "size.vertices",
}


class Span:
    __slots__ = ("name", "call", "parent", "start", "end", "attrs")

    def __init__(self, name, call, parent, start, end=None, attrs=None):
        self.name = name
        self.call = call
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs = attrs

    def to_json(self) -> list:
        return [self.name, self.call, self.parent, self.start, self.end, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls = 0
        self._ring_keys: dict[int, tuple[object, str]] = {}

    def _new_call(self) -> int:
        self._calls += 1
        return self._calls

    def _open(self, name: str, call: int, attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, call, parent, perf_counter_ns(), attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter_ns()
        self._stack.pop()

    def ring_key(self, ring) -> str:
        """Content digest of a ring's tables, computed once per ring object
        (the ring is kept alive so that its id cannot be reused)."""
        hit = self._ring_keys.get(id(ring))
        if hit is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(ring.add_table)
            h.update(ring.mul_table)
            hit = (ring, h.hexdigest())
            self._ring_keys[id(ring)] = hit
        return hit[1]

    def wrap(self, fn, name: str, annotate=None, on_result=None):
        """`annotate(args, kwargs)` gives the span's attributes before the
        call; `on_result(result)` gives them after it (run_all sizes)."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                call = self._new_call()
                attrs = annotate(args, kwargs) if annotate else None
                return self._consume(name, call, attrs, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = self._new_call()
            attrs = annotate(args, kwargs) if annotate else None
            idx = self._open(name, call, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                self.spans[idx].attrs = on_result(result)
            return result

        return wrapper

    def _consume(self, name, call, attrs, gen):
        while True:
            idx = self._open(name, call, attrs)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every LAYER_FUNCTIONS entry in every loaded zdgraph module that
    binds it (including `from .x import y` copies).  Returns the replaced
    bindings as (module, attribute, original), so that they can be undone."""
    hooks = {
        "semigroups.build_ipo": dict(
            annotate=lambda a, k: {"key": tracer.ring_key(_arg(a, k, 0, "r"))}
        ),
        "ideals.enumerate_one_sided_ideals": dict(
            annotate=lambda a, k: {
                "key": tracer.ring_key(_arg(a, k, 0, "r")) + ":" + _arg(a, k, 1, "side")
            }
        ),
        "theorems.run_all": dict(
            on_result=lambda rep: {f: getattr(rep, f) for f in SIZE_FIELDS}
        ),
    }
    modules = [m for n, m in list(sys.modules.items()) if n == "zdgraph" or n.startswith("zdgraph.")]
    replaced = []
    for mod_name, fn_name in LAYER_FUNCTIONS:
        orig = getattr(importlib.import_module(f"zdgraph.{mod_name}"), fn_name)
        name = f"{mod_name}.{fn_name}"
        wrapped = tracer.wrap(orig, name, **hooks.get(name, {}))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    replaced.append((mod, attr, orig))
    return replaced


# -- span arithmetic -------------------------------------------------------------


def covered_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None  # end of the union so far
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(i, ())
            if min(b, s.end) > max(a, s.start)
        ]
        out.append(s.end - s.start - covered_ns(clipped))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics for every LAYER_FUNCTIONS entry, zero when unused.

    `<name>.calls` counts calls (not generator resumes); `<name>.s` is the
    time covered by the name's spans, so recursion is not counted twice;
    `<name>.self_s` sums self times.  `useful_ratio` is distinct rings (with
    side, for ideal enumeration) over calls.
    """
    self_ns = self_times_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out: dict[str, float] = {}
    for mod_name, fn_name in LAYER_FUNCTIONS:
        name = f"{mod_name}.{fn_name}"
        idxs = by_name.get(name, [])
        out[f"{name}.calls"] = len({spans[i].call for i in idxs})
        out[f"{name}.s"] = covered_ns((spans[i].start, spans[i].end) for i in idxs) / 1e9
        out[f"{name}.self_s"] = sum(self_ns[i] for i in idxs) / 1e9
    for name in ("semigroups.build_ipo", "ideals.enumerate_one_sided_ideals"):
        calls = {spans[i].call: spans[i].attrs["key"] for i in by_name.get(name, [])}
        out[f"{name}.useful_ratio"] = len(set(calls.values())) / len(calls) if calls else 0.0
    for field, metric in SIZE_FIELDS.items():
        out[metric] = sum(
            (spans[i].attrs or {}).get(field, 0) for i in by_name.get("theorems.run_all", [])
        )
    return out
