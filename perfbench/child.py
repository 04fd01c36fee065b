"""One rep of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --t0-ns N [--spans PATH] [ARGV_JSON ...]

Run from the root of a checkout.  N is the parent's time.monotonic_ns() just
before it started this process; setup time runs from there until zdgraph.cli
is imported.  Each ARGV_JSON is one `zdgraph` argv list, run through
zdgraph.cli.main with its standard output captured.  With --spans the calls
are traced and the spans are written to PATH at the end.  The last line of
standard output is a JSON object with the timings and captured outputs.
"""

import sys
import time

sys.path.insert(0, "src")
import zdgraph.cli  # noqa: E402

setup_done_ns = time.monotonic_ns()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("argv", nargs="*")
    args = p.parse_args()
    if os.path.realpath(zdgraph.cli.__file__) != os.path.realpath("src/zdgraph/cli.py"):
        sys.exit(f"child: imported zdgraph from {zdgraph.cli.__file__}, not from ./src")

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    outputs, codes = [], []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in map(json.loads, args.argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            codes.append(zdgraph.cli.main(argv))
        outputs.append(buf.getvalue())
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0

    if tracer is not None:
        with open(args.spans, "w") as f:
            json.dump([s.to_json() for s in tracer.spans], f)
    result = {
        "setup_s": (setup_done_ns - args.t0_ns) / 1e9,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "outputs": outputs,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
