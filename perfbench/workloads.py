"""The four benchmark workloads.

Each workload builds its operations from a seed (set-up), runs them all
once (the timed pass), and then checks every output against the reference
oracle in `reference.py` and the theorem properties.  An operation is one
verification call; it fails when it raises, when the CLI exits non-zero,
or when its output disagrees with the reference.  Failures are counted,
never raised, so one bad output does not stop the pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref
from nonbasis import cli, families, grammar, report, verify
from nonbasis.intset import Window

# Reference prefixes and sample counts per pass; the seed picks the samples.
PREFIX = 3000
CATALOG_SAMPLES = 8
ESCAPE_SAMPLE_RATE = 0.25
DICHOTOMY_SAMPLE_RATE = 0.06
Z_MARGIN = 200


@dataclass
class Op:
    label: str
    width: int  # window integers this call gives a verdict on
    run: Callable[[], Any]
    check: Callable[[Any, random.Random], str | None]
    output: Any = None
    error: str | None = None


def jitter(rng: random.Random, hi: int) -> int:
    """A seeded window top within 1% above hi, so seeds differ in their inputs."""
    return hi + rng.randrange(hi // 100 + 1)


def cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_report(output) -> tuple[dict | None, str | None]:
    """The parsed JSON report, or why the call counts as failed."""
    rc, out, err = output
    if rc != 0:
        return None, f"exit code {rc}: {err.strip()[:200]}"
    rep = json.loads(out)
    bad = [c["name"] for c in rep["checks"] if c["status"] != "pass"]
    if bad:
        return None, f"checks not passing: {bad}"
    return rep, None


def window_arg(lo: int, hi: int) -> str:
    return f"--window={lo}:{hi}"


class Capture:
    """Keeps the reports a verify function returns to its report-layer caller."""

    def __init__(self, name: str):
        self.reports: list = []
        inner = getattr(verify, name)

        def capturing(*args, **kwargs):
            rep = inner(*args, **kwargs)
            self.reports.append(rep)
            return rep

        setattr(verify, name, capturing)

    def around(self, fn: Callable[[], Any]):
        start = len(self.reports)
        return fn(), self.reports[start:]


# ---------------------------------------------------------------- catalog


CATALOG_FAMILIES = (
    # (command, h, gap, domain, [(s, t), ...], window top)
    ("catalog", 5, ref.GEOMETRIC2, ref.N0,
     [(0, 1), (1, 0), (2, 1), (0, 3), (4, 2), (3, 1), (1, 2), (0, 4)], 2_500),
    ("catalog", 3, ref.TRIANGULAR, ref.N0, [(0, 1), (1, 0), (2, 0), (0, 2), (3, 1), (1, 3)], 2_000),
    ("thm2", 2, ref.GEOMETRIC2, ref.Z, [(0, 1), (1, 0), (3, 0), (-1, 2), (2, -1), (0, -1)], 1_000),
)


def catalog_build(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for command, h, gap, domain, sts, hi in CATALOG_FAMILIES:
        for s, t in sts[:1] if size == "tiny" else sts:
            fam = ref.Family(h, s, t, domain, gap)
            top = jitter(rng, 1000 if size == "tiny" else hi)
            lo = 0 if domain == ref.N0 else -top
            argv = ["catalog", "--domain", domain] if command == "catalog" else ["verify", "thm2"]
            argv += ["--h", str(h), "--s", str(s), "--t", str(t), "--gap", gap.literal(),
                     window_arg(lo, top)]
            ops.append(
                Op(
                    " ".join(argv),
                    top - lo + 1,
                    lambda argv=argv: cli_call(argv),
                    lambda out, rng, fam=fam, lo=lo, top=top: catalog_check(out, rng, fam, lo, top),
                )
            )
    return ops


def catalog_check(output, rng, fam: ref.Family, lo: int, hi: int) -> str | None:
    rep, why = cli_report(output)
    if why:
        return why
    cat = rep["catalog"]
    if cat["unknown"]:
        return f"unknown is not empty: {cat['unknown'][:8]}"
    shifted = fam.shifted(lo, hi)
    if cat["shifted_y"] != shifted:
        return "shifted_y differs from {(h-1)s + h*y + t : y in Y}"
    h = fam.h
    n0 = fam.domain == ref.N0
    comp = set(shifted) | set(cat["exceptional"])
    for n in cat["exceptional"]:
        floor = 0 if n0 else -(abs(n) + Z_MARGIN)
        if ref.find_rep(fam, h, n, floor) is not None:
            return f"exceptional {n} has a representation"
    # prefix (N0) or centre (Z) of the window against the reference fold
    if n0:
        plo, phi = lo, min(hi, lo + PREFIX)
        elems = fam.elements(0, phi)
    else:
        plo, phi = max(lo, -PREFIX // 2), min(hi, PREFIX // 2)
        elems = fam.elements(plo - Z_MARGIN, phi + Z_MARGIN)
    want = ref.complement(elems, h, plo, phi)
    if want != sorted(n for n in comp if plo <= n <= phi):
        return f"complement on {plo}:{phi} differs from the reference"
    # seeded points across the whole window, and both neighbours of some shifted points
    points = [rng.randint(lo, hi) for _ in range(CATALOG_SAMPLES)]
    for n in rng.sample(shifted, min(2, len(shifted))):
        points += [n - 1, n + 1]
    for n in points:
        if n in comp or not lo <= n <= hi:
            continue
        floor = 0 if n0 else -(abs(n) + Z_MARGIN)
        wit = ref.find_rep(fam, h, n, floor)
        if wit is None or sum(wit) != n:
            return f"{n} is outside the complement but has no representation"
    return None


def catalog_corrupt(ops: list[Op]) -> None:
    """Drop one shifted-Y point from the first report."""
    op = ops[0]
    rc, out, err = op.output
    rep = json.loads(out)
    rep["catalog"]["shifted_y"].pop()
    op.output = (rc, json.dumps(rep), err)


# ----------------------------------------------------------------- adjoin

AUGMENT_FAMILIES = (
    ref.Family(2, 0, 1, ref.N0, ref.GEOMETRIC2),
    ref.Family(3, 0, 1, ref.N0, ref.TRIANGULAR),
    ref.Family(4, 1, 0, ref.N0, ref.GEOMETRIC3),
    ref.Family(3, 2, 0, ref.N0, ref.FACTORIAL),
)


def lib_family(fam: ref.Family):
    params = families.Params(fam.h, fam.s, fam.t, fam.domain)
    return families.build_gapped(params, grammar.parse_generator(fam.gap.literal()))


def adjoin_build(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    tiny = size == "tiny"
    escapes = Capture("escape_check")
    augments = Capture("augment_check")
    ops = []
    w_hi = jitter(rng, 300 if tiny else 1000)
    hs = (2, 3) if tiny else range(2, 7)
    st = range(0, 3) if tiny else range(0, 8)
    for h in hs:
        for s in st:
            for t in st:
                if math.gcd(h, abs(s - t)) != 1:
                    continue
                # a seeded rotation: each seed gives every gap sequence to a quarter of the families
                gap = ref.GAPS[(len(ops) + seed) % len(ref.GAPS)]
                fam = ref.Family(h, s, t, ref.N0, gap)
                lib, window = lib_family(fam), Window(0, w_hi)
                ops.append(
                    Op(
                        f"escape_checks h={h} s={s} t={t} gap={fam.gap.literal()} 0:{w_hi}",
                        w_hi + 1,
                        lambda lib=lib, window=window: escapes.around(
                            lambda: report.escape_checks(lib, window)
                        ),
                        lambda out, rng, fam=fam, w_hi=w_hi: escape_check(out, rng, fam, w_hi),
                    )
                )
    a_hi = jitter(rng, 3000 if tiny else 30_000)
    for fam in AUGMENT_FAMILIES[:2] if tiny else AUGMENT_FAMILIES:
        lib, window = lib_family(fam), Window(0, a_hi)
        ops.append(
            Op(
                f"augment_checks h={fam.h} s={fam.s} t={fam.t} gap={fam.gap.literal()} 0:{a_hi}",
                a_hi + 1,
                lambda lib=lib, window=window: augments.around(
                    lambda: report.augment_checks(lib, window)
                ),
                lambda out, rng, fam=fam, a_hi=a_hi: augment_check(out, rng, fam, a_hi),
            )
        )
    return ops


def escape_check(output, rng, fam: ref.Family, hi: int) -> str | None:
    checks, reps = output
    bad = [c.name for c in checks if c.status != "pass"]
    if bad:
        return f"checks not passing: {bad}"
    if not reps or len(reps) != len(checks):
        return f"{len(checks)} checks but {len(reps)} escape reports"
    for rep in reps:
        if fam.contains(rep.b):
            return f"b = {rep.b} is already in A"
        case = ref.residue_case(fam.h, fam.s, fam.t, rep.b)
        expected = "stays_nonbasis" if case == "eq_t" else "becomes_basis"
        if rep.residue_case != case or rep.verdict != expected:
            return f"b = {rep.b}: {rep.residue_case}/{rep.verdict}, expected {case}/{expected}"
    if rng.random() < ESCAPE_SAMPLE_RATE:
        rep = rng.choice(reps)
        want = ref.complement(fam.with_extra({rep.b}).elements(0, hi), fam.h, 0, hi)
        if list(rep.leftover) != want:
            return f"b = {rep.b}: leftover differs from the reference complement of h(A u {{b}})"
    return None


def augment_check(output, rng, fam: ref.Family, hi: int) -> str | None:
    checks, reps = output
    bad = [c.name for c in checks if c.status != "pass"]
    if bad:
        return f"checks not passing: {bad}"
    even, cofinite = reps
    h, s, t = fam.h, fam.s, fam.t
    ys = fam.gap.values(hi)
    shifted_all = set(fam.shifted(0, hi))
    odd_shifted = [v for i, y in enumerate(ys) if i % 2 and (v := (h - 1) * s + h * y + t) <= hi]
    if even.verdict != "stays_nonbasis":
        return f"even-index verdict {even.verdict}"
    if sorted(set(even.leftover) & shifted_all) != odd_shifted:
        return "even-index augmentation does not miss exactly the odd-index shifted values"
    if list(even.missing_shifted) != odd_shifted[:64]:
        return "even-index missing_shifted is not the odd-index shifted values"
    if cofinite.verdict != "becomes_basis_on_window":
        return f"co-finite verdict {cofinite.verdict}"
    if set(cofinite.leftover) & shifted_all - {(h - 1) * s + h * ys[0] + t}:
        return "co-finite augmentation keeps a shifted value other than y_0's"
    phi = min(hi, PREFIX)
    for rep, adjoined in ((even, ys[0::2]), (cofinite, ys[1:])):
        extra = {h * y + t for y in adjoined if h * y + t <= phi}
        want = ref.complement(fam.with_extra(extra).elements(0, phi), h, 0, phi)
        if [n for n in rep.leftover if n <= phi] != want:
            return f"{rep.filter_kind}: leftover on 0:{phi} differs from the reference"
    return None


def adjoin_corrupt(ops: list[Op]) -> None:
    """Flip the verdict of one escape report."""
    op = next(op for op in ops if op.label.startswith("escape"))
    checks, reps = op.output
    flipped = "becomes_basis" if reps[0].verdict == "stays_nonbasis" else "stays_nonbasis"
    op.output = (checks, [dataclasses.replace(reps[0], verdict=flipped)] + reps[1:])


# -------------------------------------------------------------- dichotomy


def dichotomy_build(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []
    hi = jitter(rng, 200 if tiny else 2000)
    for domain, preset, st, lo in (
        (ref.Z, "thm1", range(-1, 2) if tiny else range(-1, 3), -hi),
        (ref.N0, "thm3", range(0, 3) if tiny else range(0, 4), 0),
    ):
        for h in (2, 3) if tiny else range(2, 7):
            for s in st:
                for t in st:
                    fam = ref.Family(h, s, t, domain)
                    argv = ["verify", preset, "--h", str(h), "--s", str(s), "--t", str(t),
                            window_arg(lo, hi)]
                    ops.append(
                        Op(
                            " ".join(argv),
                            hi - lo + 1,
                            lambda argv=argv: cli_call(argv),
                            lambda out, rng, fam=fam, lo=lo, hi=hi: dichotomy_check(
                                out, rng, fam, lo, hi
                            ),
                        )
                    )
    return ops


def dichotomy_check(output, rng, fam: ref.Family, lo: int, hi: int) -> str | None:
    rep, why = cli_report(output)
    if why:
        return why
    h, s, t = fam.h, fam.s, fam.t
    n0 = fam.domain == ref.N0
    d = math.gcd(h, abs(s - t))
    if d >= 2:
        expected = ["residue_obstruction", "missed_classes"]
    else:
        expected = ["coverage_above_threshold" if n0 else "full_coverage", "uniqueness"]
    names = [c["name"] for c in rep["checks"]]
    if names != expected:
        return f"checks {names}, expected {expected} for d = {d}"
    if rng.random() >= DICHOTOMY_SAMPLE_RATE:
        return None
    elems = fam.elements(0, hi) if n0 else fam.elements(lo - Z_MARGIN, hi + Z_MARGIN)
    base, bits = ref.hfold_bits(elems, h)

    def covered(n: int) -> bool:
        return n >= base and (bits >> (n - base)) & 1 == 1

    if d >= 2:
        missed = [c for c in range(h) if not any(covered(n) for n in range(lo + (c - lo) % h, hi + 1, h))]
        reported = int(re.search(r"missed (\d+) of", rep["checks"][1]["details"]).group(1))
        if len(missed) < h * (d - 1) // d or len(missed) != reported:
            return f"reference misses {len(missed)} classes, report says {reported}"
        return None
    thr = (h - 1) * abs(s - t) + h * t
    gaps = [n for n in range(max(lo, thr), hi + 1) if not covered(n)]
    if gaps:
        return f"reference sumset misses {gaps[:8]} above {thr}"
    # exhaustive representation count for a few n = t - s (mod h) just above thr
    first = thr + ((t - s) - thr) % h
    for n in rng.sample(range(first, first + 12 * h, h), 2):
        # the one representation has h-1 copies of s; over Z any other would show in this range
        pad = 0 if n0 else h * (abs(s) + abs(t) + 2)
        count = ref.count_reps(fam, h, n, -pad, n + pad + h * abs(s))
        if count != 1:
            return f"{n} has {count} representations, expected exactly one"
    return None


def dichotomy_corrupt(ops: list[Op]) -> None:
    """Drop the last check from the first report."""
    op = ops[0]
    rc, out, err = op.output
    rep = json.loads(out)
    rep["checks"].pop()
    op.output = (rc, json.dumps(rep), err)


# ------------------------------------------------------------------ lemma

LEMMA_WINDOWS = {
    ref.GEOMETRIC2: 250_000,
    ref.GEOMETRIC3: 100_000,
    ref.FACTORIAL: 100_000,
    ref.TRIANGULAR: 50_000,
}


def lemma_build(seed: int, size: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for gap, hi in LEMMA_WINDOWS.items():
        for h in range(2, 6):
            top = jitter(rng, 2000 if size == "tiny" else hi)
            argv = ["verify", "lemma", "--h", str(h), "--gap", gap.literal(), window_arg(0, top)]
            ops.append(
                Op(
                    " ".join(argv),
                    top + 1,
                    lambda argv=argv: cli_call(argv),
                    lambda out, rng, gap=gap, h=h, top=top: lemma_check(out, rng, gap, h, top),
                )
            )
    return ops


def _lemma_fields(rep: dict) -> tuple[int, list[int]]:
    details = {c["name"]: c["details"] for c in rep["checks"]}
    threshold = int(re.search(r"threshold (\d+)", details["bad_u_finite"]).group(1))
    comp = ref.parse_ranges(details["covered_above_threshold"].removeprefix("oracle complement "))
    return threshold, comp


def lemma_check(output, rng, gap: ref.Gap, h: int, hi: int) -> str | None:
    rep, why = cli_report(output)
    if why:
        return why
    threshold, comp = _lemma_fields(rep)
    if any(n >= threshold for n in comp):
        return f"reported complement reaches the threshold {threshold}"
    phi = min(hi, PREFIX)
    ys = set(gap.values(phi))
    want = ref.complement([x for x in range(phi + 1) if x not in ys], h, 0, phi)
    if [n for n in comp if n <= phi] != want:
        return f"complement on 0:{phi} differs from the reference"
    if any(n >= threshold for n in want):
        return f"reference complement reaches the threshold {threshold}"
    if gap == ref.GEOMETRIC2 and h == 2 and (comp != [1, 2, 4] or want != [1, 2, 4]):
        return f"geometric(2), h = 2 misses {comp}, expected [1, 2, 4]"
    return None


def lemma_corrupt(ops: list[Op]) -> None:
    """Drop the largest point of the first reported complement (or add one)."""
    op = ops[0]
    rc, out, err = op.output
    rep = json.loads(out)
    threshold, comp = _lemma_fields(rep)
    comp = comp[:-1] if comp else [threshold]
    rep["checks"][1]["details"] = "oracle complement " + report.format_ranges(comp)
    op.output = (rc, json.dumps(rep), err)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, str], list[Op]]
    corrupt: Callable[[list[Op]], None]


WORKLOADS = {
    "catalog": Workload(catalog_build, catalog_corrupt),
    "adjoin": Workload(adjoin_build, adjoin_corrupt),
    "dichotomy": Workload(dichotomy_build, dichotomy_corrupt),
    "lemma": Workload(lemma_build, lemma_corrupt),
}


def solve(ops: list[Op]) -> list[float]:
    """The timed pass: every call once, failures recorded, nothing checked.

    Returns the wall time of each call, in the order of `ops`.
    """
    times = []
    for op in ops:
        start = time.perf_counter()
        try:
            op.output = op.run()
        except Exception as exc:  # counted as a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
    return times


def check(ops: list[Op], rng: random.Random) -> list[str]:
    """Failure messages, one per failed operation."""
    failures = []
    for op in ops:
        why = op.error
        if why is None:
            try:
                why = op.check(op.output, rng)
            except ref.SearchLimit as exc:
                why = f"reference search gave up: {exc}"
            except Exception as exc:  # a malformed output is a failed operation
                why = f"unreadable output: {type(exc).__name__}: {exc}"
        if why is not None:
            failures.append(f"{op.label}: {why}")
    return failures
