"""Run a fixed list of mutants of the checks and bounds in src/ against tier-1.

    python3 tests/mutation_sweep.py            # every mutant
    python3 tests/mutation_sweep.py stability oracle_source
        # the mutants whose name holds "stability" or "oracle_source"

Each mutant replaces one exact snippet of one source file in a temporary
copy of the tree, then runs the tier-1 suite there with `pytest -x`, leaving
out the golden digests (tests/test_golden_reports.py): they pin printed
numbers, and a check that only they can tell from a constant pass is still
a blind spot.  It leaves out tests/test_mutation_sweep.py too: in a mutated
copy the mutant's snippet is gone from its file, so that test would fail,
kill every mutant and stop `-x` before the later test files.  A mutant that
passes every test survives.  The script prints one line per mutant, then
the survivors, and exits 1 if there are any.  A snippet that no longer
occurs exactly once is reported as stale, and counts as a survivor, so the
list cannot rot silently.  A filter that selects no mutant exits 2 with a
message, so a stale filter cannot pass either.

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

# (name, file, old, new): each switches off a check, loosens a bound or
# breaks the oracle route, the walk of Y or a family's own spec
MUTANTS = (
    ("stability_check passes whatever the complement holds", "src/nonbasis/report.py",
     "if oracle.folded.dense.complement().bits == oracle.shifted.bits:",
     "if True:"),
    ("oracle_source drops the witness reach", "src/nonbasis/verify.py",
     "radius = max(radius, z_summand_bound(family, reach))",
     "radius = radius"),
    ("missed_classes always passes", "src/nonbasis/report.py",
     "len(missed) >= need,",
     "True,"),
    ("eq_t escape allows every added point", "src/nonbasis/verify.py",
     "cover = 1 << (v - window.lo) if window.contains(v) else 0",
     "cover = -1"),
    ("disjoint_partition always passes", "src/nonbasis/report.py",
     "set(catalog.shifted_y).isdisjoint(catalog.exceptional),",
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
    ("lemma threshold + 50", "src/nonbasis/verify.py",
     "threshold = thr2 + (h - 2) * x0",
     "threshold = thr2 + (h - 2) * x0 + 50"),
    ("B-fold target moved by h", "src/nonbasis/verify.py",
     "Window(window.lo - h * t, window.hi - h * t)",
     "Window(window.lo - h * t + h, window.hi - h * t + h)"),
    ("point union drops the s term", "src/nonbasis/sumset.py",
     "terms = ((part, k * t), (partials[-1] if k and with_s else None, s))",
     "terms = ((part, k * t),)"),
    ("split bound admits as many holes as points", "src/nonbasis/sumset.py",
     "return min(c.terms, terms) - 1 >= m",
     "return min(c.terms, terms) >= m"),
    ("pair rule end walks one step narrower", "src/nonbasis/sumset.py",
     "w = (m - 1) * g",
     "w = (m - 2) * g"),
    ("classify replay always passes", "src/nonbasis/cli.py",
     "if not verify.verify_certificate(fam, args.n, verdict):",
     "if False:"),
    ("sumset labels every fold exact", "src/nonbasis/cli.py",
     'exactness = "lower_bound"',
     'exactness = "exact"'),
    ("eq_s escape drops the N0 negative rule", "src/nonbasis/verify.py",
     "if (n0 and w_val < 0) or family.y_contains(w_val):",
     "if family.y_contains(w_val):"),
    ("augment prefix top one short", "src/nonbasis/verify.py",
     "top = (src.hi - family.t) // family.h",
     "top = (src.hi - family.t) // family.h - 1"),
    ("walk of Y stops at hi", "src/nonbasis/gapset.py",
     "while ys[-1] <= window.hi:",
     "while ys[-1] < window.hi:"),
    ("walk slice drops an element at lo", "src/nonbasis/gapset.py",
     "bisect.bisect_left(ys, window.lo)",
     "bisect.bisect_right(ys, window.lo)"),
    ("gapped family skips the gcd check", "src/nonbasis/families.py",
     "elif d != 1:",
     "elif False:"),
    ("N0 full tail starts a class step late", "src/nonbasis/families.py",
     "intset.ModClassNonneg(h, t)",
     "intset.ModClassNonneg(h, t + h)"),
    ("store serves a fold narrower than hi", "src/nonbasis/verify.py",
     "elif fold.target.hi < hi:",
     "elif False:"),
    ("band starts one past the kept top", "src/nonbasis/verify.py",
     "band = intset.materialize(spec, Window(fold.target.hi + 1, hi))",
     "band = intset.materialize(spec, Window(fold.target.hi + 2, hi))"),
    ("widened partial drops its kept bits", "src/nonbasis/sumset.py",
     "grown.append(DenseSet(wide, low.bits | step.bits << band.window.lo))",
     "grown.append(DenseSet(wide, step.bits << band.window.lo))"),
    ("widen keeps the kept class table", "src/nonbasis/sumset.py",
     "table = class_table(band, *fold.table)",
     "table = fold.table"),
    ("the seam join never fires", "src/nonbasis/sumset.py",
     "if starts[0] == c.hi + g:",
     "if False:"),
    ("view keeps partials deeper than h", "src/nonbasis/verify.py",
     "view = fold.partials[: h + 1]",
     "view = fold.partials"),
    ("deepen stops one step short", "src/nonbasis/sumset.py",
     "while len(partials) <= h:",
     "while len(partials) < h:"),
    ("the gapped guard raises GcdViolation", "src/nonbasis/verify.py",
     'raise DomainConstraint(f"{what} applies to gapped families only")',
     "from .errors import GcdViolation\n"
     '        raise GcdViolation(f"{what} applies to gapped families only")'),
    ("k-fold decisions shared across budgets", "src/nonbasis/verify.py",
     "@lru_cache(maxsize=DECISIONS_KEPT)\ndef decide_kX(",
     "def _keyed_without_budget(search):\n"
     "    last = [DEFAULT_BUDGET]\n"
     "    keyed = lru_cache(maxsize=DECISIONS_KEPT)(\n"
     "        lambda xspec, k, m: search(xspec, k, m, last[0]))\n"
     "    def call(xspec, k, m, budget=DEFAULT_BUDGET):\n"
     "        last[0] = budget\n"
     "        return keyed(xspec, k, m)\n"
     "    call.cache_info, call.cache_clear = keyed.cache_info, keyed.cache_clear\n"
     "    call.__wrapped__ = search\n"
     "    return call\n\n\n"
     "@_keyed_without_budget\ndef decide_kX("),
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
             "--ignore=tests/test_golden_reports.py", "--ignore=tests/test_mutation_sweep.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when a test fails; any other nonzero code is a broken run
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr)[-2000:]
        raise SystemExit(f"pytest exited {proc.returncode}:\n{tail}")
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m[0] for a in argv)]
    if not chosen:
        print(f"no mutant name holds any of {argv}", file=sys.stderr)
        return 2
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
