"""Time the single CLI invocations of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Each row runs in-process through `nonbasis.cli.main`, REPEATS times;
the fastest and the median wall time are printed, with the exit code.
The benchmark proper is run.py; this only re-measures those fixed rows.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3

ROWS = (
    "catalog --h 2 --s 0 --t 1 --domain n0 --gap geometric,2,1 --window 0:100000",
    "catalog --h 2 --s 0 --t 1 --domain n0 --gap geometric,2,1 --window 0:1000000",
    "catalog --h 5 --s 0 --t 1 --domain n0 --gap geometric,2,1 --window 0:1000000",
    "verify thm4 --h 3 --s 0 --t 1 --gap triangular --window 0:200000",
    "verify thm2 --h 2 --s 0 --t 1 --gap geometric,2,1 --window=-100000:100000",
    "verify lemma --h 4 --gap triangular --window 0:1000000",
)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from nonbasis import cli

    for row in ROWS:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(row.split())
            times.append(time.perf_counter() - start)
        print(f"min {min(times):6.2f} s  median {statistics.median(times):6.2f} s  exit {rc}  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
