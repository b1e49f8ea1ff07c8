"""Benchmark runner for the nonbasis verifier.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (or all four in turn) against the library in ../src.
Each pass is a fresh worker process (worker.py), started only after the
previous one has ended, so at most one workload process runs at a time.
The number of passes depends only on --seconds, never on how fast the
passes run: --seconds over the nominal pass time (PASS_S), at least three.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s and
solve_s at their fastest over the passes, peak_rss_mb the median.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes) and trace.overhead_ratio, the
traced over the untraced solve time.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run with the
environment and every pass goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# No pass is started once a run has taken this long, so that a run ends
# within 180 s even if the program gets several times slower.
RUN_CAP_S = 120
# Wall time of one whole untraced pass at full size (spawn, set-up, calls,
# checks) on the reference machine in a slow phase, the same for every
# workload since each is sized to it; a run of --seconds makes
# --seconds / PASS_S passes.
PASS_S = 1.2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def run_pass(workload: str, seed: int, index: int, traced: bool, size: str, corrupt: bool) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
        "--trace", "1" if traced else "0", "--size", size,
    ]
    if corrupt:
        cmd.append("--corrupt")
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the two processes agree
    result["setup_s"] = result["first_call"] - spawned
    return result


def fastest_pass(passes: list[dict]) -> float:
    """Wall time of one pass with every call at its fastest over the passes.

    Every pass makes the same calls in the same order.  Other tenants of a
    shared machine slow it in phases of a few seconds, so the fastest time
    of each call is the steadiest estimate.  It is a lower envelope, not the
    wall time of any one pass, and it falls with the number of passes; that
    number is fixed by --seconds (see pass_count).
    """
    return sum(min(times) for times in zip(*(p["op_times"] for p in passes)))


def pass_count(seconds: float, trace: bool) -> int:
    """Passes in a run; a traced run alternates untraced and traced ones."""
    n = max(MIN_PASSES, int(seconds / PASS_S))
    return 2 * max(2, (n + 1) // 2) if trace else n


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 corrupt: bool, spec: dict) -> tuple[dict, list[dict], list[dict]]:
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    for index in range(pass_count(seconds, trace)):
        is_traced = trace and index % 2 == 1
        # the cap leaves at least four passes, and whole untraced/traced pairs
        if not is_traced and index >= 4 and time.perf_counter() - start > RUN_CAP_S:
            break
        res = run_pass(workload, seed, index, is_traced, size, corrupt)
        (traced if is_traced else plain).append(res)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    solve = fastest_pass(plain)
    if trace:
        values = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                values[name] = fastest_pass(traced) / solve
            else:
                values[name] = statistics.median_low(p["layers"][name] for p in traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": min(p["setup_s"] for p in plain),
            "solve_s": solve,
            "points_per_s": plain[0]["points"] / solve,
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, plain, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", help="a workload name from BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    ap.add_argument("--corrupt", action="store_true", help="corrupt one output per pass (self-test)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "nonbasis", "__init__.py")):
        print(f"error: {ROOT} holds no src/nonbasis to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(name not in names for name in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    env = environment()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    os.makedirs(OUT, exist_ok=True)
    for name in chosen:
        result, plain, traced = run_workload(
            name, args.seed, seconds, bool(args.trace), args.size, args.corrupt, spec
        )
        record = {"workload": name, "seed": args.seed, "seconds": seconds, "trace": args.trace,
                  "size": args.size, "environment": env, "result": result,
                  "passes": plain, "traced_passes": traced}
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"{name}: {len(plain)} passes, {len(traced)} traced; "
              f"attempted {result['attempted']}, failed {result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
        for p in plain + traced:
            for why in p["failures"]:
                print(f"  FAILED {why}")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else f"{name}."
        for metric, v in result["metrics"].items():
            total["metrics"][prefix + metric] = v
    print(json.dumps({"environment": env}))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
