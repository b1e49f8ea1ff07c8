"""The mutation sweep's list stays current: each mutant's snippet occurs
exactly once in its file, so a refactor that rewrites a check cannot leave
its mutant stale without a failing test.  The files are read; no mutant is
run."""

from pathlib import Path

import mutation_sweep
from mutation_sweep import MUTANTS, ROOT


def test_every_mutant_snippet_occurs_once_in_its_file():
    stale = [
        name for name, file, old, new in MUTANTS
        if old == new or (Path(ROOT) / file).read_text().count(old) != 1
    ]
    assert len(MUTANTS) >= 10 and not stale, stale


def test_a_filter_that_selects_no_mutant_fails(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a mutant ran")

    monkeypatch.setattr(mutation_sweep, "run_mutant", refuse)
    assert mutation_sweep.main(["nosuch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no mutant name holds any of ['nosuch']" in err
