"""Command-line surface: analyze one ring, verify whole families, print trees.

Exit codes: 0 all applicable checks pass, 1 usage or construction error,
2 at least one check failed, 3 internal invariant failure (any other
ValueError or RuntimeError from the pipeline: a bug, not bad input).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .expr import ParseError, build_ring, parse_ring_expr, unparse
from .graphs import directed_zd_graph, dot_lines
from .report import AnalysisReport, write_report_json
from .rings import (
    DEFAULT_SIZE_CAP,
    CapacityError,
    RingValidationError,
    TableFormatError,
    _check_cap,
)
from .semigroups import ann_sets, enumerate_semigroups_with_zero
from .theorems import RingAnalysis, prepare_ring_analysis, run_all, semigroup_checks

_CONSTRUCTION_ERRORS = (
    ParseError,
    CapacityError,
    RingValidationError,
    TableFormatError,
    UnicodeDecodeError,  # a table or listing file that is not UTF-8
    OSError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="zdgraph", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one ring expression")
    pa.add_argument("expr")
    pa.add_argument("--json", default=None, metavar="PATH", help="report path ('-' = stdout)")
    pa.add_argument("--dot", default=None, metavar="PATH", help="write the graph in DOT form to a file")
    pa.add_argument("--dot-mode", choices=["directed", "undirected"], default="directed")
    pa.add_argument("--cap", type=int, default=None, help="element-count cap for constructors")

    pv = sub.add_parser("verify", help="verify whole instance families")
    fam = pv.add_subparsers(dest="family", required=True)
    zn = fam.add_parser("zn", help="all cyclic rings Z2..Zmax")
    zn.add_argument("--max", type=int, required=True)
    sg = fam.add_parser("semigroups", help="exhaustive semigroups with zero of one order")
    sg.add_argument("--order", type=int, choices=[2, 3, 4], required=True)
    ls = fam.add_parser("list", help="ring expressions listed in a file, one per line")
    ls.add_argument("--file", required=True)
    ls.add_argument("--cap", type=int, default=None)

    pp = sub.add_parser("parse", help="parse an expression and print its tree")
    pp.add_argument("expr")
    return p


def _resolve_cap(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("ZDGRAPH_CAP")
    if env is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"ZDGRAPH_CAP must be an integer, got {env!r}") from None


def _tally(report) -> tuple[int, int, int]:
    statuses = [c.status for c in report.checks]
    return statuses.count("pass"), statuses.count("fail"), statuses.count("not-applicable")


def _analyze_expr(text: str, cap: int) -> tuple[AnalysisReport, RingAnalysis]:
    """Build the named ring once and run_all on it."""
    ast = parse_ring_expr(text)
    ring = build_ring(ast, cap)
    analysis = prepare_ring_analysis(ring)
    return run_all(ring, expr=unparse(ast), analysis=analysis), analysis


def _cmd_analyze(args) -> int:
    if args.dot == "-":  # standard output carries the JSON report
        raise _UsageError("--dot takes a file path, not '-'")
    report, analysis = _analyze_expr(args.expr, _resolve_cap(args.cap))
    text = write_report_json(report)
    if args.json is None or args.json == "-":
        sys.stdout.write(text)
    else:
        Path(args.json).write_text(text)
    if args.dot is not None:
        with open(args.dot, "w") as f:  # written as it is made
            f.writelines(dot_lines(analysis.graph, args.dot_mode))
    return 2 if report.failed_checks() else 0


def _verify(exprs: list[str], cap: int) -> int:
    """Analyze each ring expression in turn: one line each, then a summary."""
    total_failed = 0
    for text in exprs:
        report = _analyze_expr(text, cap)[0]  # drop the analysis before the next ring
        passed, failed, na = _tally(report)
        total_failed += failed
        print(f"{report.expr}: {passed} passed, {failed} failed, {na} n/a")
    print(f"{len(exprs)} instances, {total_failed} failing checks")
    return 2 if total_failed else 0


def _cmd_verify_zn(args) -> int:
    if args.max < 2:
        raise _UsageError("--max must be at least 2")
    cap = _resolve_cap(None)
    _check_cap(args.max, cap)  # Zmax is the largest ring built
    return _verify([f"Z{n}" for n in range(2, args.max + 1)], cap)


def _cmd_verify_semigroups(args) -> int:
    count = 0
    total_failed = 0
    for s in enumerate_semigroups_with_zero(args.order):
        count += 1
        ann = ann_sets(s)
        for result in semigroup_checks(directed_zd_graph(s, ann), ann):
            if result.status == "fail":
                total_failed += 1
                print(f"semigroup #{count}: {result.check_name} FAILED: {result.witness}")
    print(f"order {args.order}: {count} semigroups with zero, {total_failed} failing checks")
    return 2 if total_failed else 0


def _cmd_verify_list(args) -> int:
    cap = _resolve_cap(args.cap)
    lines = [
        ln.strip()
        for ln in Path(args.file).read_text().splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    return _verify(lines, cap)


def _print_tree(e, indent: int = 0) -> None:
    from .expr import Cyclic, Matrix, Product, TableFile

    pad = "  " * indent
    if isinstance(e, Cyclic):
        print(f"{pad}Cyclic({e.n})")
    elif isinstance(e, TableFile):
        print(f"{pad}TableFile({e.path})")
    elif isinstance(e, Matrix):
        print(f"{pad}Matrix(k={e.k})")
        _print_tree(e.inner, indent + 1)
    elif isinstance(e, Product):
        print(f"{pad}Product")
        for f in e.factors:
            _print_tree(f, indent + 1)


def _cmd_parse(args) -> int:
    _print_tree(parse_ring_expr(args.expr))
    return 0


def _stage(exc: BaseException) -> str:
    """' (in module.function)' for the innermost zdgraph frame that `exc`
    passed through, or '' when it passed through none."""
    stage, tb = "", exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if Path(code.co_filename).parent == Path(__file__).parent:
            stage = f" (in {Path(code.co_filename).stem}.{code.co_name})"
        tb = tb.tb_next
    return stage


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"zdgraph: error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "verify":
            if args.family == "zn":
                return _cmd_verify_zn(args)
            if args.family == "semigroups":
                return _cmd_verify_semigroups(args)
            return _cmd_verify_list(args)
        return _cmd_parse(args)
    except (_UsageError, *_CONSTRUCTION_ERRORS) as exc:
        print(f"zdgraph: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:  # closure, validation or other invariant failure
        print(f"zdgraph: internal error: {type(exc).__name__}: {exc}{_stage(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
