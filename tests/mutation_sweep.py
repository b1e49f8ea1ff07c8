"""Run a fixed list of mutants of the checks and bounds in src/ against tier-1.

    python3 tests/mutation_sweep.py            # every mutant
    python3 tests/mutation_sweep.py stability  # the mutants whose name holds "stability"

Each mutant replaces one exact snippet of one source file in a temporary
copy of the tree, then runs the tier-1 suite there with `pytest -x`, leaving
out the golden digests (tests/test_golden_reports.py): they pin printed
numbers, and a check that only they can tell from a constant pass is still
a blind spot.  A mutant that passes every test survives.  The script prints
one line per mutant, then the survivors, and exits 1 if there are any.  A
snippet that no longer occurs exactly once is reported as stale, and counts
as a survivor, so the list cannot rot silently.

It uses only the standard library and the test dependencies, and pytest
does not collect it (the name does not start with test_).  One mutant runs
at a time; a survivor costs one full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, old, new): each switches off a check or loosens a bound
MUTANTS = (
    ("stability_check compares the oracle with itself", "src/nonbasis/report.py",
     "wide = sumset.hfold_truncated(dense, family.h, target=window).dense",
     "wide = oracle.folded.dense"),
    ("missed_classes always passes", "src/nonbasis/report.py",
     "len(missed) >= need,",
     "True,"),
    ("eq_t escape allows every added point", "src/nonbasis/verify.py",
     "cover = 1 << (v - window.lo) if window.contains(v) else 0",
     "cover = -1"),
    ("disjoint_partition always passes", "src/nonbasis/report.py",
     "not (set(catalog.shifted_y) & set(catalog.exceptional)),",
     "True,"),
    ("pair_bound - 2", "src/nonbasis/verify.py",
     "return 2 * gapset.gap_radius(gen, 3) + 4",
     "return 2 * gapset.gap_radius(gen, 3) + 2"),
    ("fixed_branch_probes - 1", "src/nonbasis/verify.py",
     "return gapset.least_non_member(gen) + 3",
     "return gapset.least_non_member(gen) + 2"),
    ("exceptional_bound out_cap - 5", "src/nonbasis/verify.py",
     "out_cap = pair_bound(family.y) + 1 + (h - 2) * x0",
     "out_cap = pair_bound(family.y) + 1 + (h - 2) * x0 - 5"),
    ("z_summand_bound last term - 4h", "src/nonbasis/verify.py",
     "h * (pair_bound(family.y) + 1) + abs(t),",
     "h * (pair_bound(family.y) + 1) + abs(t) - 4 * h,"),
    ("not_st threshold + 1", "src/nonbasis/verify.py",
     "threshold = b + (h - 3) * s + (h - 1) * t",
     "threshold = b + (h - 3) * s + (h - 1) * t + 1"),
)

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def run_mutant(file: str, old: str, new: str) -> str:
    """'killed', 'survived' or 'stale' for one mutant, in a fresh copy."""
    with open(os.path.join(ROOT, file)) as fh:
        text = fh.read()
    if text.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        with open(os.path.join(tree, file), "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_golden_reports.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test fails; any other nonzero code is a broken run
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr)[-2000:]
        raise SystemExit(f"pytest exited {proc.returncode}:\n{tail}")
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    survivors = []
    for name, file, old, new in chosen:
        start = time.perf_counter()
        outcome = run_mutant(file, old, new)
        print(f"{outcome:>8}  {name}  ({time.perf_counter() - start:.0f} s)", flush=True)
        if outcome != "killed":
            survivors.append(name)
    print(f"{len(survivors)} of {len(chosen)} mutants survive")
    for name in survivors:
        print(f"  {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
