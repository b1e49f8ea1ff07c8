"""One pass of one workload in a fresh interpreter.

Run by `run.py`, one process per pass.  Builds the workload (set-up),
times one pass of its verification calls, reads the peak resident memory,
then checks every output and prints one JSON line with the results.  With
--trace 1 the nonbasis layers are wrapped first and the per-layer figures
and span file come from this pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--corrupt", action="store_true", help="corrupt one output before checking")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "nonbasis", "__init__.py")):
        print(f"error: no nonbasis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from nonbasis import cli, report  # noqa: F401  (every layer is loaded before tracing)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed, args.size)

    first_call = time.perf_counter()
    op_times = workloads.solve(ops)
    solve_s = time.perf_counter() - first_call
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.metrics() if tracer else None

    if args.corrupt:
        workload.corrupt(ops)
    failures = workloads.check(ops, random.Random(f"{args.seed}/{args.pass_index}"))
    result = {
        "first_call": first_call,
        "solve_s": solve_s,
        "op_times": op_times,
        "points": sum(op.width for op in ops),
        "peak_rss_kb": peak_kb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
    }
    if tracer:
        result["layers"] = layers
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.bin"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
