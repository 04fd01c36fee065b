"""Serializable analysis reports with byte-deterministic JSON output."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields


def serialize_extent(value):
    """Diameter/girth encoding: None -> null, math.inf -> "inf", int -> int."""
    if value is None:
        return None
    if value == math.inf:
        return "inf"
    return int(value)


@dataclass
class CheckResult:
    check_name: str
    status: str  # "pass" | "fail" | "not-applicable"
    witness: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class AnalysisReport:
    expr: str
    ring_order: int
    left_ideal_count: int
    right_ideal_count: int
    ipo_size: int
    vertex_count: int
    directed_connected: bool
    directed_diameter: float | int | None
    undirected_diameter: float | int | None
    girth: float | int
    complete: bool
    tournament: bool
    checks: list[CheckResult]

    def failed_checks(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == "fail"]

    def to_json_dict(self) -> dict:
        """The fields in declaration order, which is the JSON key order."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("directed_diameter", "undirected_diameter", "girth"):
            out[name] = serialize_extent(out[name])
        out["checks"] = [c.to_json_dict() for c in self.checks]
        return out


def write_report_json(report: AnalysisReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2) + "\n"
