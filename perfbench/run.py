"""Benchmark of the zdgraph pipeline, end to end and per layer.

    python3 perfbench/run.py --workload {ipo,wide,table,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports zdgraph from ./src and writes
only under perfbench/out/.  Every rep is a fresh child process
(perfbench/child.py) running the workload's `zdgraph` commands through
zdgraph.cli.main, one child at a time (a closed loop with one client).  Reps
repeat until the next one would end after S seconds; every rep's output goes
through the workload's correctness gate.

--trace 0 reports the end-to-end metrics as medians over reps:

    setup_s          child start until zdgraph.cli is imported, median over
                     the reps and SETUP_SAMPLES_PER_REP import-only children
                     before each rep
    wall_s           wall time of the workload's cli.main calls
    cpu_s            user + system CPU time of the child over the same calls
    peak_rss_mb      peak resident set size of the child
    instances_per_s  instances analysed or verified per second of wall_s

--trace 1 alternates untraced and traced reps and reports the per-layer
metrics of the traced ones (see spans.py), medians over traced reps, plus
trace.overhead_s, the traced minus the untraced median wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  One operation is one `analyze` call, or one
instance of the sweep; it fails when its command exits non-zero or its
output fails the gate.  The run's details, seed included, are also written to
perfbench/out/result-<workload>-seed<N>-trace<T>.json.

perfbench/baseline.json maps each per-layer metric to the end-to-end metric
and workload it should move, and holds the baseline measured on this code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import CHECKS, Span, layer_metrics  # noqa: E402
from workloads import WHY, commands, gate  # noqa: E402

SETUP_SAMPLES_PER_REP = 2
RUN_LIMIT_S = 170  # every run ends well within the 180 s a run may take

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "instances_per_s": "1/s",
}

PER_LAYER = [
    "semigroups.validate_semigroup.s",
    "semigroups.validate_semigroup.calls",
    "semigroups.build_ipo.calls",
    "semigroups.build_ipo.self_s",
    "semigroups.build_ipo.useful_ratio",
    "ideals.enumerate_one_sided_ideals.calls",
    "ideals.enumerate_one_sided_ideals.s",
    "ideals.enumerate_one_sided_ideals.useful_ratio",
    "rings.make_matrix_ring.s",
    "rings.load_table_ring.self_s",
    "rings.validate_ring.s",
    "semigroups.enumerate_semigroups_with_zero.s",
    "graphs.directed_zd_graph.calls",
    "graphs.directed_zd_graph.s",
    "graphs.compute_graph_metrics.s",
    "semigroups.ann_sets.calls",
    "theorems.prepare_ring_analysis.self_s",
    "theorems.run_all.self_s",
    *[f"theorems.{check}.s" for check in CHECKS],
    "expr.build_ring.s",
    "report.write_report_json.s",
    "cli.main.self_s",
    "size.ring_order",
    "size.left_ideals",
    "size.right_ideals",
    "size.ipo",
    "size.vertices",
    "trace.overhead_s",
]


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if name.startswith("size.") or suffix == "calls":
        return "count"
    return "ratio" if suffix == "useful_ratio" else "s"


class Run:
    """One benchmark run: its reps, their gate results and the timing budget."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.out_dir = root / "perfbench" / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.stem = f"{workload}-seed{seed}"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.argvs = commands(workload, seed, self.out_dir, root)

    def child(self, argvs, spans_path: Path | None = None) -> dict | None:
        """Run one child; None when it crashed, timed out or printed no result."""
        args = ["--spans", str(spans_path)] if spans_path else []
        args += map(json.dumps, argvs)
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--t0-ns", str(t0), *args],
                cwd=self.root, stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"child timed out after {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"child exited with code {proc.returncode}")
            return None
        return json.loads(lines[-1])

    def rep(self, traced: bool, index: int) -> dict | None:
        """One gated rep, None if the child failed.  Its operations count as
        failed when the child or the gate fails; the timings of a rep that
        only the gate failed are kept, and the run reports correct: false."""
        spans_path = self.out_dir / f"spans-{self.stem}-{index}.json" if traced else None
        res = self.child(self.argvs, spans_path)
        if res is None:
            attempted, failed, problems = gate(
                self.workload, [""] * len(self.argvs), [-1] * len(self.argvs)
            )
        else:
            attempted, failed, problems = gate(self.workload, res["outputs"], res["codes"])
            res["instances_per_s"] = attempted / res["wall_s"]
            res["traced"] = traced
            del res["outputs"]
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        if res is not None and traced:
            spans = [Span.from_json(row) for row in json.loads(spans_path.read_text())]
            res["layers"] = layer_metrics(spans)
        return res

    def measure(self, seconds: float, trace: bool) -> tuple[list[float], list[dict]]:
        """Setup samples and the gated reps made in `seconds`.  The setup
        samples are spread over the run, because the host's speed drifts."""
        self.child([])  # warm-up: bytecode and file caches, as after an install
        setups: list[float] = []
        reps: list[dict] = []
        group_s: list[float] = []
        start = time.monotonic()
        while time.monotonic() < self.deadline:
            t = time.monotonic()
            for _ in range(SETUP_SAMPLES_PER_REP):
                res = self.child([])
                if res is not None:
                    setups.append(res["setup_s"])
            for traced in ((False, True) if trace else (False,)):
                res = self.rep(traced, len(group_s))
                if res is not None:
                    reps.append(res)
            group_s.append(time.monotonic() - t)
            if time.monotonic() - start + statistics.median(group_s) > seconds:
                break
            if time.monotonic() + max(group_s) > self.deadline:
                break
        return setups, reps


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summarise(setups: list[float], reps: list[dict], trace: bool) -> dict[str, dict]:
    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        return {n: {"value": values[n], "unit": per_layer_unit(n)} for n in PER_LAYER}
    values = {name: median_of(plain, name) for name in END_TO_END if name != "setup_s"}
    values["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
    return {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zdgraph" / "cli.py").is_file():
        print("perfbench: run from the root of a zdgraph checkout (no src/zdgraph here)",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    setups, reps = run.measure(args.seconds, bool(args.trace))
    n_plain = sum(not r["traced"] for r in reps)
    if not setups or not n_plain or (args.trace and n_plain == len(reps)):
        print("perfbench: no rep completed; problems:", *run.problems[:10], sep="\n  ",
              file=sys.stderr)
        return 1
    metrics = summarise(setups, reps, bool(args.trace))
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{n_plain} untraced and {len(reps) - n_plain} traced reps, "
          f"{len(setups)} import-only setup samples; values are medians")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':48s} {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    (run.out_dir / f"result-{run.stem}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "setup_samples_s": setups, "reps": reps,
         "problems": run.problems, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
