"""Check the pinned CLI report digests without pytest.

    python3 tests/golden_check.py

GOLDEN in tests/test_golden_reports.py is a pure literal of (argv, exit
code, sha256 of stdout) entries; this script reads it with
ast.literal_eval, runs each call through nonbasis.cli.main in this
process, prints one line per call whose exit code or digest differs, then
a count, and exits 1 if any differs.  It uses only the standard library,
so it runs on an interpreter that has no pytest or hypothesis, and pytest
does not collect it (the name does not start with test_).
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))


def golden() -> list[tuple[str, int, str]]:
    with open(os.path.join(TESTS, "test_golden_reports.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GOLDEN"]:
            return ast.literal_eval(node.value)
    raise LookupError("no GOLDEN literal in test_golden_reports.py")


def main() -> int:
    from nonbasis import cli

    calls = golden()
    differ = 0
    for argv, code, digest in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = cli.main(argv.split())
        sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (got, sha) != (code, digest):
            differ += 1
            print(f"differs: {argv}: exit {got} (pinned {code}), sha256 {sha}")
    version = sys.version.split()[0]
    print(f"Python {version}: {len(calls) - differ} of {len(calls)} golden calls match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
