import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonbasis import cli, grammar, intset, sumset, verify
from nonbasis.families import Params, build_full, build_gapped
from nonbasis import gapset
from nonbasis.errors import DomainConstraint

FAM_ARGS = ["--h", "2", "--s", "0", "--t", "1", "--domain", "n0", "--gap", "geometric,2,1"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_round_trip(capsys):
    code, out, _ = run(capsys, ["construct", *FAM_ARGS])
    assert code == 0
    rep = json.loads(out)
    fam = build_gapped(Params(2, 0, 1, "n0"), gapset.Geometric(2, 1))
    assert grammar.parse_spec(rep["family"]["spec"]) == fam.spec
    assert grammar.parse_generator(rep["family"]["gap"]) == fam.y


def test_construct_gcd_violation_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["construct", "--h", "2", "--s", "1", "--t", "3", "--domain", "n0",
         "--gap", "geometric,2,1"],
    )
    assert code == 2
    assert "GcdViolation" in err


def test_classify_out_shifted_y(capsys):
    code, out, _ = run(capsys, ["classify", *FAM_ARGS, "--n", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == {"kind": "out_shifted_y", "y": 2}


def test_classify_budget_exhaustion(capsys):
    code, out, _ = run(capsys, ["classify", *FAM_ARGS, "--n", "444444", "--budget", "0"])
    assert code == 3
    assert json.loads(out)["verdict"]["kind"] == "unknown"


@pytest.mark.parametrize(
    "n, corrupted, kind",
    [
        (8, verify.InSumset(0, (1, 2)), "in_sumset"),  # sums to 8, but 1 and 2 lie in Y
        (7, verify.OutShiftedY(3), "out_shifted_y"),  # 2*3 + 1 = 7, but 3 is not in Y
        (8, verify.OutExceptional("F0"), "out_exceptional"),  # 8 = 1 + 7 is in hA
    ],
)
def test_classify_exits_1_when_its_verdict_fails_the_replay(
    capsys, monkeypatch, tmp_path, n, corrupted, kind
):
    # classify's verdict is replayed by verify_certificate before it is
    # written; a verdict the replay rejects prints nothing to stdout and
    # creates no --output file
    monkeypatch.setattr(verify, "classify", lambda fam, n, budget: corrupted)
    path = tmp_path / "report"
    for output in ([], ["--output", str(path)]):
        code, out, err = run(capsys, ["classify", *FAM_ARGS, "--n", str(n), *output])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and f"n={n}" in err and kind in err
    assert not path.exists()


def test_budget_env_var_is_not_read(capsys, monkeypatch):
    # --budget is the one way to set the probe budget
    monkeypatch.setenv("NONBASIS_BUDGET", "0")
    code, out, _ = run(capsys, ["classify", *FAM_ARGS, "--n", "444444"])
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] != "unknown"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *FAM_ARGS, "--n", "10", "--budget", "-5"],
        ["catalog", *FAM_ARGS, "--window", "0:20", "--budget", "-1"],
        ["verify", "thm4", *FAM_ARGS, "--window", "0:20", "--budget=-1"],
    ],
)
def test_negative_budget_flag_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "probe budget must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", *FAM_ARGS, "--budget", "5"],
        ["sumset", *FAM_ARGS, "--window", "0:10", "--budget", "-7"],
    ],
)
def test_budget_only_where_probes_are_spent(capsys, argv):
    # construct and sumset spend no probes, so they take no --budget
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "thm1", "--h", "3", "--s", "0", "--t", "1", "--gap", "geometric,2,1"], "gap"),
        (["verify", "thm3", "--h", "3", "--s", "0", "--t", "1", "--gap", "triangular"], "gap"),
        (["verify", "lemma", "--h", "3", "--gap", "triangular", "--s", "7"], "s"),
        (["verify", "lemma", "--h", "3", "--gap", "triangular", "--t", "9"], "t"),
        (["verify", "lemma", "--h", "3", "--gap", "triangular", "--domain", "z"], "domain"),
    ],
)
def test_preset_rejects_flags_it_ignores(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"takes no --{flag}" in err


def test_catalog_report(capsys):
    code, out, _ = run(capsys, ["catalog", *FAM_ARGS, "--window", "0:20"])
    assert code == 0
    rep = json.loads(out)
    assert rep["catalog"]["shifted_y"] == [3, 5, 9, 17]
    assert rep["catalog"]["exceptional"] == [4, 6, 10]
    assert rep["catalog"]["unknown"] == []
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_thm4_small_window(capsys):
    code, out, _ = run(capsys, ["verify", "thm4", *FAM_ARGS, "--window", "0:2000"])
    assert code == 0
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    assert "oracle_agreement" in names and "shifted_y_match" in names
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_thm1_dichotomy(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "thm1", "--h", "2", "--s", "1", "--t", "3", "--window=-500:500"],
    )
    assert code == 0
    rep = json.loads(out)
    assert {c["name"] for c in rep["checks"]} == {"residue_obstruction", "missed_classes"}


@pytest.mark.parametrize(
    "argv, name, details",
    [
        (["lemma", "--h", "2", "--gap", "geometric,2,1", "--window", "0:0"],
         "covered_above_threshold", "window 0:0 ends below the threshold 8"),
        (["lemma", "--h", "5", "--gap", "factorial", "--window", "0:5"],
         "covered_above_threshold", "window 0:5 ends below the threshold 6"),
        (["thm3", "--h", "6", "--s", "10", "--t", "9", "--window", "0:50"],
         "coverage_above_threshold", "window 0:50 ends below the threshold 59"),
    ],
)
def test_coverage_of_a_window_below_its_threshold_is_unknown(capsys, argv, name, details):
    # the window holds no point from the threshold on, so the coverage
    # check examines nothing and cannot pass
    code, out, err = run(capsys, ["verify", *argv])
    assert (code, err) == (3, "")
    checks = {c["name"]: (c["status"], c["details"]) for c in json.loads(out)["checks"]}
    assert checks[name] == ("unknown", details)


def test_coverage_from_a_window_ending_at_its_threshold_is_checked(capsys):
    code, out, _ = run(
        capsys, ["verify", "lemma", "--h", "5", "--gap", "factorial", "--window", "0:6"]
    )
    assert code == 0
    checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert checks["covered_above_threshold"] == "pass"


def test_verify_lemma(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "lemma", "--h", "2", "--gap", "geometric,2,1", "--window", "0:2000"],
    )
    assert code == 0
    rep = json.loads(out)
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_verify_thm2(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "thm2", "--h", "2", "--s", "0", "--t", "1",
         "--gap", "geometric,2,1", "--window=-400:400"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["catalog"]["exceptional"] == []
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_report_determinism(capsys):
    _, out1, _ = run(capsys, ["catalog", *FAM_ARGS, "--window", "0:300"])
    _, out2, _ = run(capsys, ["catalog", *FAM_ARGS, "--window", "0:300"])
    assert out1 == out2


GOLDEN_CATALOG = """\
{
  "family": {
    "h": 2,
    "s": 0,
    "t": 1,
    "domain": "n0",
    "gap": "geometric,2,1",
    "spec": "union(single:0,affine(2,1,diff(nonneg,gap(geometric,2,1))))"
  },
  "window": [
    0,
    30
  ],
  "catalog": {
    "shifted_y": [
      3,
      5,
      9,
      17
    ],
    "exceptional": [
      4,
      6,
      10
    ],
    "unknown": []
  },
  "checks": [
    {
      "name": "oracle_agreement",
      "status": "pass",
      "details": "classification agrees with the oracle pointwise"
    },
    {
      "name": "shifted_y_match",
      "status": "pass",
      "details": "4 shifted-Y complement points"
    },
    {
      "name": "disjoint_partition",
      "status": "pass",
      "details": "shifted-Y and exceptional parts are disjoint"
    },
    {
      "name": "no_unknowns",
      "status": "pass",
      "details": "0 unclassified complement points"
    },
    {
      "name": "exceptional_within_bound",
      "status": "pass",
      "details": "exceptional set 4,6,10 within certified bound 29"
    }
  ]
}
"""


def test_golden_catalog_json(capsys):
    code, out, _ = run(capsys, ["catalog", *FAM_ARGS, "--window", "0:30"])
    assert code == 0
    assert out == GOLDEN_CATALOG


def test_sumset_subcommand(capsys):
    code, out, _ = run(
        capsys,
        ["sumset", "--h", "2", "--s", "0", "--t", "1", "--domain", "n0",
         "--gap", "geometric,2,1", "--window", "0:20", "--source", "0:40"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["exactness"] == "exact"
    assert rep["ranges"] == "0-2,7-8,11-16,18-20"


def test_sumset_from_a_source_above_0_is_a_lower_bound(capsys):
    # A has 0, 1 and 7 below the source, so 2A on 10:20 is 11-16,18-20 and
    # the fold of the truncated set misses most of it
    code, out, _ = run(
        capsys,
        ["sumset", *FAM_ARGS, "--window", "0:20", "--source", "5:40", "--format", "text"],
    )
    assert code == 0
    assert out == "2-fold sumset on 0:20 (lower_bound)\nmembers: 14,18,20\n"


def test_sumset_target_outside_the_safe_range_exits_2(capsys):
    code, _, err = run(
        capsys, ["sumset", *FAM_ARGS, "--window", "100:200", "--source", "0:40"]
    )
    assert code == 2
    assert "TargetExceedsSafeRange" in err and "safe range 0:40" in err


def test_sumset_h_below_one_exits_2_naming_the_domain(capsys):
    code, out, err = run(capsys, ["sumset", "--h", "0", "--spec", "nonneg", "--window", "0:5"])
    assert (code, out) == (2, "")
    assert err == "error: DomainConstraint: h must be >= 1, got 0\n"


def test_sumset_with_spec_literal(capsys):
    code, out, _ = run(
        capsys,
        ["sumset", "--h", "2", "--spec", "union(single:0,single:1,single:3)",
         "--window", "0:6"],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ranges"] == "0-4,6"


def test_bad_window_exits_2(capsys):
    code, _, err = run(capsys, ["catalog", *FAM_ARGS, "--window", "20"])
    assert code == 2


def test_text_format(capsys):
    code, out, _ = run(
        capsys, ["catalog", *FAM_ARGS, "--window", "0:20", "--format", "text"]
    )
    assert code == 0
    assert "complement: 3-6,9-10,17" in out


def test_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["catalog", *FAM_ARGS, "--window", "0:20", "--output", str(path)]
    )
    assert code == 0
    assert out == ""
    rep = json.loads(path.read_text())
    assert rep["catalog"]["shifted_y"] == [3, 5, 9, 17]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["construct", *FAM_ARGS],
        ["sumset", *FAM_ARGS, "--window", "0:20", "--source", "0:40"],
        ["classify", *FAM_ARGS, "--n", "8"],  # in_sumset, exit 0
        ["classify", *FAM_ARGS, "--n", "444444", "--budget", "0"],  # unknown, exit 3
        ["catalog", *FAM_ARGS, "--window", "0:20"],
        ["verify", "thm4", *FAM_ARGS, "--window", "0:300"],
        ["verify", "lemma", "--h", "2", "--gap", "triangular", "--window", "0:500"],
    ],
    ids=["construct", "sumset", "classify-in", "classify-unknown", "catalog", "thm4", "lemma"],
)
def test_output_file_holds_the_bytes_stdout_would(tmp_path, capsys, argv, fmt):
    argv = [*argv, "--format", fmt]
    code, printed, _ = run(capsys, argv)
    path = tmp_path / "report"
    assert run(capsys, [*argv, "--output", str(path)])[:2] == (code, "")
    assert path.read_bytes() == printed.encode()
    assert printed and code == (3 if "--budget" in argv else 0)


def test_verify_thm3_nonbasis_case(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "thm3", "--h", "4", "--s", "1", "--t", "3", "--window", "0:800"],
    )
    assert code == 0
    rep = json.loads(out)
    names = {c["name"] for c in rep["checks"]}
    assert "residue_obstruction" in names


def test_uniqueness_vacuous_region_is_unknown():
    from nonbasis import report as rpt
    from nonbasis.families import Params

    c = rpt.uniqueness_check(build_full(Params(6, 10, 9, "n0")), 50)  # first residue 59 > 50
    assert c.status == "unknown"


def test_uniqueness_applies_to_full_families_only():
    from nonbasis import report as rpt

    with pytest.raises(DomainConstraint):
        rpt.uniqueness_check(build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular()), 50)


def test_uniqueness_region_below_the_first_residue_is_unknown(capsys):
    # The cap -2500 lies below the first checked residue 7, so there is no
    # region to check and no source window to build from the cap.
    code, out, err = run(
        capsys,
        ["verify", "thm1", "--h", "3", "--s", "0", "--t", "1", "--window=-3000:-2500"],
    )
    assert (code, err) == (3, "")
    checks = {c["name"]: (c["status"], c["details"]) for c in json.loads(out)["checks"]}
    assert checks["uniqueness"] == ("unknown", "no residues in [7, -2500]")


@pytest.mark.parametrize(
    "params,cap,marked,details",
    [
        (Params(2, 0, 1, "n0"), 200, (51, 101),
         "99 residues checked in [3, 200]; first failure at 51"),
        (Params(3, 0, 1, "z"), 300, (202, 100),
         "98 residues checked in [7, 300]; first failure at 100"),
    ],
)
def test_uniqueness_reports_its_first_failure(monkeypatch, params, cap, marked, details):
    from nonbasis import report as rpt
    from nonbasis import sumset
    from nonbasis.intset import DenseSet, dense_from_iter

    real = sumset.multiplicity_pair

    def represented_twice(chains, h, target):
        ge1, ge2 = real(chains, h, target)
        return ge1, DenseSet(target, ge2.bits | dense_from_iter(marked, target).bits)

    monkeypatch.setattr(sumset, "multiplicity_pair", represented_twice)
    c = rpt.uniqueness_check(build_full(params), cap)
    assert (c.status, c.details) == ("fail", details)


def test_escape_decisions_each_get_the_budget(capsys):
    # Each not_st decision needs at most 3 probes; one budget shared by all
    # of a b's decisions ran out and left b = 2, 5, 8 inconclusive
    code, out, _ = run(
        capsys,
        ["verify", "thm4", "--h", "3", "--s", "0", "--t", "1", "--gap", "geometric,2,1",
         "--window", "0:3000", "--budget", "12"],
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert [status[f"escape_not_st_b{b}"] for b in (2, 5, 8)] == ["pass"] * 3


def test_verify_budget_exhaustion_is_unknown(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "thm4", "--h", "3", "--s", "0", "--t", "1", "--gap", "triangular",
         "--budget", "3"],
    )
    assert code == 3
    rep = json.loads(out)
    agreement = rep["checks"][0]
    assert (agreement["name"], agreement["status"]) == ("oracle_agreement", "unknown")
    assert rep["catalog"]["shifted_y"][:3] == [1, 4, 10]
    assert all(c["status"] != "fail" for c in rep["checks"])


def test_verify_window_too_small_for_augmentation_is_unknown(capsys):
    code, out, _ = run(capsys, ["verify", "thm4", *FAM_ARGS, "--window", "0:2"])
    assert code == 3
    statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert statuses["augment_even_indices"] == "unknown"
    assert "fail" not in statuses.values()


def test_augment_on_a_window_ending_below_t_reads_no_y(capsys):
    # the source 0:2 ends below t = 5, so no y has h*y + t in it and the
    # augments adjoin nothing: Y' is empty whatever the filter
    argv = ["verify", "thm4", "--h", "3", "--s", "0", "--t", "5", "--gap", "triangular"]
    code, out, _ = run(capsys, [*argv, "--window", "0:2"])
    assert code == 3
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["augment_even_indices"]["status"] == "unknown"
    assert checks["augment_cofinite"] == {
        "name": "augment_cofinite",
        "status": "pass",
        "details": "verdict becomes_basis_on_window; leftover 1-2",
    }
    assert "fail" not in {c["status"] for c in checks.values()}


@pytest.mark.parametrize(
    "argv,line",
    [
        (["verify", "thm1", "--h", "3", "--s", "0", "--t", "1", "--gap", "triangular"],
         "preset thm1 takes no --gap"),
        (["verify", "lemma", "--h", "3", "--gap", "triangular", "--s", "7"],
         "preset lemma takes no --s"),
        (["verify", "thm3", "--h", "2", "--s", "0", "--t", "1", "--domain", "z"],
         "preset thm3 runs over domain 'n0'"),
        (["verify", "thm1", "--h", "2", "--s", "1"], "preset thm1 needs --s and --t"),
        (["verify", "thm2", "--h", "2", "--s", "0", "--t", "1"], "preset thm2 needs --gap"),
        (["verify", "lemma", "--h", "2"], "preset lemma needs --gap"),
        (["verify", "thm4", *FAM_ARGS, "--window", "20"],
         "window must look like LO:HI, got '20'"),
        (["verify", "thm4", *FAM_ARGS, "--budget=-1"], "probe budget must be >= 0, got -1"),
        (["verify", "thm3", "--h", "3", "--s", "0", "--t", "1", "--window=-5:100"],
         "preset thm3 needs a window in N0, got -5:100"),
    ],
)
def test_verify_error_line(capsys, argv, line):
    assert run(capsys, argv) == (2, "", f"error: NonbasisError: {line}\n")


def test_verify_reports_the_first_error_in_order(capsys):
    # thm2 lacks --s, --t and --gap; the --s/--t check comes first
    code, _, err = run(capsys, ["verify", "thm2", "--h", "2"])
    assert (code, err) == (2, "error: NonbasisError: preset thm2 needs --s and --t\n")


def test_sumset_folds_h_times_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sumset", *FAM_ARGS, "--window", "0:10", "--fold", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nonbasis sumset ")
    assert err.endswith("nonbasis sumset: error: unrecognized arguments: --fold 3\n")


@pytest.mark.parametrize(
    "flag,value", [("s", "5"), ("t", "3"), ("domain", "z"), ("gap", "triangular")]
)
def test_sumset_spec_rejects_family_flags(capsys, flag, value):
    argv = ["sumset", "--h", "2", "--spec", "single:1", "--window", "0:5", f"--{flag}", value]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: NonbasisError: sumset --spec takes no --{flag}\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, ["construct", *FAM_ARGS, "--output", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


TRIANGULAR = ["--h", "3", "--s", "0", "--t", "1", "--gap", "triangular"]


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", *FAM_ARGS, "--window", "0:400"],
        ["verify", "thm1", "--h", "3", "--s", "-5", "--t", "4", "--window=-300:300"],
        ["verify", "thm2", *TRIANGULAR, "--window=-200:400"],
        ["verify", "thm3", "--h", "3", "--s", "2", "--t", "6", "--window", "0:500"],
        ["verify", "thm4", *TRIANGULAR, "--window", "0:1500"],
        ["verify", "lemma", "--h", "4", "--gap", "triangular", "--window", "0:1500"],
    ],
)
def test_no_family_check_folds_a(capsys, monkeypatch, argv):
    # A = {s} u (h*X + t) is two residue classes mod h; every check folds
    # h*X, h*(X u Y') or the lemma's X instead, one class mod its stride
    inputs = []
    fold = sumset._fold
    monkeypatch.setattr(
        sumset, "_fold", lambda a, h, target, stride: inputs.append((a, stride))
        or fold(a, h, target, stride)
    )
    verify.base_oracle.cache_clear()
    verify.n0_fold.cache_clear()
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert inputs
    for a, stride in inputs:
        assert len({m % stride for m in a.members()}) <= 1, (argv, stride, a.window)


def fresh_cli(argv):
    """(exit code, stdout, stderr) of the CLI in a new process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    main = "import sys; from nonbasis import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", main, *argv],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_lemma_sweep_widens_its_fold_and_reports_as_fresh_calls(capsys):
    # tops a little apart, as a seeded sweep has them: the first call folds
    # X, a wider top widens that fold by its band, a narrower one reads it
    verify.n0_fold.cache_clear()
    for h, top in ((2, 50000), (3, 50100), (4, 50050), (5, 50200)):
        argv = ["verify", "lemma", "--h", str(h), "--gap", "triangular", "--window", f"0:{top}"]
        got = run(capsys, argv)
        assert got[0] == 0 and got == fresh_cli(argv)
    info = verify.n0_fold.cache_info()
    assert (info.builds, info.widenings, info.hits, info.steps) == (1, 2, 1, 3)


def test_thm2_passes_when_twice_its_source_exceeds_the_window_cap(capsys, monkeypatch):
    # the oracle's source on -1000:1000 fits 3000 bits, its double does not:
    # stability is read off that oracle, so no check needs the wider source
    monkeypatch.setattr(intset, "WINDOW_CAP", 3000)
    verify.base_oracle.cache_clear()
    argv = ["verify", "thm2", "--h", "2", "--s", "0", "--t", "1", "--gap", "geometric,2,1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert "truncation_stability" in checks
    assert all(c["status"] == "pass" for c in checks.values()), checks


# every command and every preset, each on a small window
EVERY_CALL = [
    ["construct", *FAM_ARGS],
    ["verify", "thm1", "--h", "3", "--s", "-5", "--t", "4", "--window=-300:300"],
    ["sumset", *FAM_ARGS, "--window", "0:60"],
    ["verify", "thm2", *TRIANGULAR, "--window=-200:400"],
    ["classify", *FAM_ARGS, "--n", "5", "--format", "text"],
    ["verify", "thm3", "--h", "3", "--s", "2", "--t", "6", "--window", "0:500"],
    ["catalog", *FAM_ARGS, "--window", "0:400", "--budget", "4"],
    ["verify", "thm4", *TRIANGULAR, "--window", "0:1500", "--budget", "3"],
    ["verify", "lemma", "--h", "4", "--gap", "triangular", "--window", "0:1500"],
    # the same commands again without the flags the calls above set
    ["classify", *FAM_ARGS, "--n", "6"],
    ["catalog", *FAM_ARGS, "--window", "0:400"],
    ["verify", "thm4", *TRIANGULAR, "--window", "0:1500"],
]


def subparsers(tree):
    return next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting_build():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv in EVERY_CALL:
            assert run(capsys, argv)[0] in (0, 3), argv
        info = cli._parser.cache_info()
    finally:
        cli._parser.cache_clear()
    assert (info.misses, info.hits, built) == (5, len(EVERY_CALL) - 5, [])
    # a first token that names no command parses with the whole tree
    for argv, code in (([], 2), (["-h"], 0), (["bogus"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code, argv
    assert len(built) == 3
    assert "usage: nonbasis [-h] {construct,sumset,classify,catalog,verify}" in (
        capsys.readouterr().out
    )


def test_a_family_flag_before_the_command_is_an_error(capsys):
    # the top level takes no abbreviations, so --h is not read as --help;
    # a command's own flags still abbreviate
    with pytest.raises(SystemExit) as exc:
        cli.main(["--h", "2", "classify", "--s", "0", "--t", "1", "--domain", "n0", "--n", "5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "error:" in err
    short = [a.replace("--domain", "--dom") for a in FAM_ARGS]
    assert run(capsys, ["classify", *short, "--n", "5"]) == run(
        capsys, ["classify", *FAM_ARGS, "--n", "5"]
    )


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_parser_prints_its_subparser_help(command):
    alone, sub = cli._parser(command), subparsers(cli.build_parser())[command]
    assert alone.format_help() == sub.format_help()
    assert alone.format_usage() == sub.format_usage()


@pytest.mark.parametrize(
    "argv",
    [["classify", *FAM_ARGS, "--n", "5"],
     ["verify", "lemma", "--h", "3", "--gap", "triangular", "--window", "0:600"]],
)
def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, argv):
    # the console script calls main() with no arguments
    expected = run(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["nonbasis", *argv])
    code = cli.main()
    captured = capsys.readouterr()
    assert expected[0] == 0
    assert (code, captured.out, captured.err) == expected


def test_interleaved_calls_report_as_fresh_calls(capsys):
    # the cached parsers carry no state from one call to the next
    for argv in EVERY_CALL:
        assert run(capsys, argv) == fresh_cli(argv), argv
