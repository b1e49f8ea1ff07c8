"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks the
shape of the result line and that every per-layer metric the README maps
to the workload is above 0 in the traced run, so that a call path the
tracer misses shows; then runs each with one output corrupted per
pass and checks that exactly those operations are counted as failed; then
checks that the benchmark refuses to run in a directory that holds only
BENCHMARK.json and perfbench/.  Prints one line per check and exits 1 if
any failed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(HERE, "out", "bare")

# The functions whose per-layer metrics (every stat) each workload moves,
# as in the README's layer table; each must read above 0 when traced.
EXERCISED = {
    "catalog": ("verify.classify", "verify.decide_kX", "verify.complement_catalog",
                "gapset.is_member", "gapset.gap_radius", "families.Family.x_spec",
                "report.catalog_checks", "verify.exceptional_bound", "sumset.witness"),
    "adjoin": ("verify.escape_check", "verify.augment_check", "report.escape_checks",
               "report.augment_checks", "intset.materialize", "sumset.hfold",
               "sumset.pairwise_sum", "sumset.arith_chains", "intset.DenseSet.members",
               "intset.dilate_or"),
    "dichotomy": ("sumset.multiplicity_pair", "report.uniqueness_check",
                  "report.dichotomy_checks", "cli.main", "report.render_json"),
    "lemma": ("sumset.pairwise_sum", "sumset.arith_chains", "intset.DenseSet.members",
              "intset.dilate_or", "verify.lemma_basis_check", "report.lemma_checks"),
}


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def shape_problems(res: dict, names: list[str]) -> list[str]:
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(res)}")
    if sorted(res["metrics"]) != sorted(names):
        problems.append(f"metrics {sorted(set(res['metrics']) ^ set(names))} missing or extra")
    for name, m in res["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name} is {m}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"attempted {res['attempted']}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = 0

    def report(label: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'pass'}  {label}" + "".join(f"\n      {p}" for p in problems))

    for w in (w["name"] for w in spec["workloads"]):
        tiny = ["--workload", w, "--seed", "7", "--size", "tiny", "--seconds", "0"]
        for trace, names in ((0, end_to_end), (1, per_layer)):
            try:
                res = result_of(bench(tiny + ["--trace", str(trace)]))
            except AssertionError as exc:
                report(f"{w} trace {trace}", [str(exc)])
                continue
            problems = shape_problems(res, names)
            if not res["correct"] or res["failed"]:
                problems.append(f"correct {res['correct']}, failed {res['failed']} on sound outputs")
            if trace == 0:
                must_move = names
            else:
                must_move = ["trace.overhead_ratio"] + [
                    n for n in names if n.rpartition(".")[0] in EXERCISED[w]
                ]
            problems += [f"{n} is {res['metrics'][n]['value']}" for n in must_move
                         if n in res["metrics"] and not res["metrics"][n]["value"] > 0]
            report(f"{w} trace {trace}", problems)
        # three untraced passes, one corrupted output in each
        try:
            res = result_of(bench(tiny + ["--trace", "0", "--corrupt"]))
            problems = [] if res["failed"] == 3 and not res["correct"] else [
                f"failed {res['failed']} of {res['attempted']}, correct {res['correct']}; expected 3 failed"
            ]
        except AssertionError as exc:
            problems = [str(exc)]
        report(f"{w} corrupted output counted as failed", problems)

    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(os.path.join(BARE, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(BARE, "perfbench"))
    proc = bench(["--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=BARE)
    shutil.rmtree(BARE)
    report(
        "refuses to run without the sources",
        [] if proc.returncode != 0 and '"metrics"' not in proc.stdout
        else [f"exit {proc.returncode}: {proc.stdout[-300:]}"],
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
