"""Acceptance suite: the structural theorems verified at desk scale.

One test per criterion; each prints a single PASS/FAIL line with its
runtime.  Run `pytest tests/test_acceptance.py -v -s` to watch them live.
All checks are exact integer comparisons; the only tolerances are the
stated wall-clock budgets.
"""

import random
import time

import pytest

from nonbasis import gapset, report, sumset, verify
from nonbasis.families import Params, build_full, build_gapped, gcd_case
from nonbasis.intset import Window, dense_from_iter, materialize
from nonbasis.verify import YPrimeFilter

GEOM2 = gapset.Geometric(2, 1)


def announce(num, name, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {name}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_gcd_dichotomy():
    t0 = time.perf_counter()
    wz, wn = Window(-(10**4), 10**4), Window(0, 10**4)
    families = checks_run = failures = 0
    for domain, window, lo in (("z", wz, -10), ("n0", wn, 0)):
        for h in range(2, 7):
            for s in range(lo, 11):
                for t in range(lo, 11):
                    checks = report.dichotomy_checks(build_full(Params(h, s, t, domain)), window)
                    families += 1
                    checks_run += len(checks)
                    failures += sum(1 for c in checks if c.status != report.PASS)
    announce(
        1,
        "gcd dichotomy",
        failures == 0,
        f"{families} families, {checks_run} oracle checks, {failures} failures",
        t0,
        10.0,
    )


def test_criterion_2_uniqueness():
    t0 = time.perf_counter()
    families = failures = 0
    for domain, lo in (("z", -10), ("n0", 0)):
        for h in range(2, 7):
            for s in range(lo, 11):
                for t in range(lo, 11):
                    if gcd_case(h, s, t) != 1:
                        continue
                    c = report.uniqueness_check(build_full(Params(h, s, t, domain)), 2000)
                    families += 1
                    if c.status != report.PASS:
                        failures += 1
    announce(
        2,
        "unique representation",
        failures == 0,
        f"{families} d=1 families, every t-s residue in the safe region has "
        f"exactly one multiset representation; {failures} failures",
        t0,
        10.0,
    )


def test_criterion_3_gap_lemma():
    t0 = time.perf_counter()
    window = Window(0, 10**5)
    gens = [GEOM2, gapset.Geometric(3, 1), gapset.Triangular(), gapset.Factorial()]
    combos = failures = 0
    geom2_complement = None
    for gen in gens:
        for h in (2, 3, 4):
            rep = verify.lemma_basis_check(gen, h, window)
            combos += 1
            if not rep.covered_above_threshold:
                failures += 1
            if h == 2 and not rep.matches_prediction:
                failures += 1
            if h == 2 and gen is GEOM2:
                geom2_complement = rep.complement
    ok = failures == 0 and geom2_complement == (1, 2, 4)
    announce(
        3,
        "four-point gap lemma",
        ok,
        f"{combos} (Y, h) combos on [0, 10^5]; geom2 miss set {geom2_complement}",
        t0,
        10.0,
    )


def test_criterion_4_complement_characterization():
    t0 = time.perf_counter()
    window = Window(0, 10**5)
    fam = build_gapped(Params(2, 0, 1, "n0"), GEOM2)
    # the catalog compares classify with the oracle on every window point
    cat = verify.complement_catalog(fam, window)
    shifted_expected = tuple(
        2 * y + 1 for y in gapset.elements_in(GEOM2, Window(0, (10**5 - 1) // 2))
    )
    ok = (
        cat.shifted_y == shifted_expected
        and cat.exceptional == (4, 6, 10)
        and cat.unknown == ()
    )

    rng = random.Random(20260808)
    pool = [
        GEOM2,
        gapset.Geometric(3, 1),
        gapset.Geometric(2, 3),
        gapset.Triangular(),
        gapset.Factorial(),
        gapset.CustomPrefixTail((0, 2, 3), GEOM2),
        gapset.CustomPrefixTail((5, 6, 7), gapset.Geometric(3, 1)),
    ]
    randomized = 0
    while randomized < 20:
        h = rng.randint(2, 6)
        s, t = rng.randint(0, 10), rng.randint(0, 10)
        if gcd_case(h, s, t) != 1:
            continue
        gen = rng.choice(pool)
        sub = build_gapped(Params(h, s, t, "n0"), gen)
        subcat = verify.complement_catalog(sub, Window(0, 3000))
        ok = ok and subcat.unknown == ()
        randomized += 1
    announce(
        4,
        "N0 complement characterization",
        ok,
        f"main family exact on [0, 10^5] with F = {list(cat.exceptional)}; "
        f"{randomized} randomized families agree pointwise with zero Unknowns",
        t0,
        5.0,
    )


def test_criterion_5_z_soundness_and_stability():
    t0 = time.perf_counter()
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    window = Window(-(10**3), 10**3)
    complements = []
    sound = True
    for radius in (10**3, 10**4):
        src = Window(-radius, radius)
        dense = materialize(fam.spec, src)
        folded = sumset.hfold_truncated(dense, 2, window, stride=2)
        for n in range(window.lo, window.hi + 1):
            v = verify.classify(fam, n)
            if folded.member(n) and not isinstance(v, verify.InSumset):
                sound = False
        complements.append(folded.dense.complement().members())
    stable = complements[0] == complements[1]
    predicted = [2 * y + 1 for y in gapset.elements_in(GEOM2, Window(0, 499))]
    matches = complements[0] == predicted  # window-relative F is empty here

    rng = random.Random(5)
    for _ in range(20):
        lo = rng.randint(-900, 400)
        sub = Window(lo, lo + rng.randint(10, 400))
        pair = []
        for radius in (10**3, 10**4):
            dense = materialize(fam.spec, Window(-radius, radius))
            pair.append(sumset.hfold_truncated(dense, 2, sub, stride=2).dense.bits)
        stable = stable and pair[0] == pair[1]
    announce(
        5,
        "Z-case soundness and stability",
        sound and stable and matches,
        f"truncated oracle never contradicts classify; complement stable "
        f"across radii and equals the shifted-Y prediction ({len(predicted)} points)",
        t0,
        20.0,
    )


def test_criterion_6_escape_cases():
    t0 = time.perf_counter()
    window = Window(0, 3000)
    families = escapes = failures = 0
    for h in range(2, 7):
        for s in range(0, 11):
            for t in range(0, 11):
                if gcd_case(h, s, t) != 1:
                    continue
                fam = build_gapped(Params(h, s, t, "n0"), GEOM2)
                families += 1
                samples = report.sample_escape_bs(fam, 5, window)
                for case, expected in (
                    ("not_st", "becomes_basis"),
                    ("eq_s", "becomes_basis"),
                    ("eq_t", "stays_nonbasis"),
                ):
                    for b in samples[case]:
                        rep = verify.escape_check(fam, b, window)
                        escapes += 1
                        if rep.verdict != expected:
                            failures += 1
    announce(
        6,
        "escape cases",
        failures == 0 and escapes >= 5 * 2 * families,
        f"{escapes} adjunction checks across {families} families, {failures} failures",
        t0,
        30.0,
    )


def test_criterion_7_augmentation():
    t0 = time.perf_counter()
    window = Window(0, 10**5)
    fam = build_gapped(Params(2, 0, 1, "n0"), GEOM2)
    even = verify.augment_check(fam, YPrimeFilter("even_indices"), window)
    odd_shifted = [
        2 * y + 1
        for i, y in enumerate(gapset.elements_in(GEOM2, Window(0, (10**5 - 1) // 2)))
        if i % 2 == 1
    ]
    ok_even = even.verdict == "stays_nonbasis" and list(even.missing_shifted) == odd_shifted
    drop = verify.augment_check(fam, YPrimeFilter("drop_values", (1,)), window)
    ok_drop = drop.verdict == "becomes_basis_on_window" and set(drop.leftover) == {3, 4}
    announce(
        7,
        "augmentation criterion",
        ok_even and ok_drop,
        f"even-indexed Y' keeps {len(odd_shifted)} shifted points missing; "
        f"co-finite Y' leaves only {sorted(drop.leftover)}",
        t0,
        5.0,
    )


def test_criterion_8_kernel_properties():
    t0 = time.perf_counter()
    rng = random.Random(888)
    trials = failures = 0
    for _ in range(120):
        lo = rng.randint(-12, 8)
        width = rng.randint(1, 24)
        w = Window(lo, lo + width)
        vals = [v for v in range(w.lo, w.hi + 1) if rng.random() < 0.45]
        a = dense_from_iter(vals, w)
        h1, h2 = rng.randint(1, 3), rng.randint(1, 3)
        h = h1 + h2

        # associativity on the exact safe range (shift to a nonneg window)
        off = -min(0, w.lo)
        a_pos = dense_from_iter([v + off for v in vals], Window(w.lo + off, w.hi + off))
        whole = sumset.hfold_exact_bounded_below(a_pos, h, stride=1)
        p = sumset.hfold_exact_bounded_below(a_pos, h1, stride=1).dense
        q = sumset.hfold_exact_bounded_below(a_pos, h2, stride=1).dense
        part = sumset.pairwise_sum(p, q, whole.target, sumset.class_table(q, 1))
        if part.bits != whole.dense.bits:
            failures += 1

        # truncation monotonicity
        extra = {rng.randint(w.lo - 4, w.hi + 4) for _ in range(3)}
        wider = Window(w.lo - 4, w.hi + 4)
        bigger = dense_from_iter(set(vals) | extra, wider)
        target = Window(h * wider.lo, h * wider.hi)
        small_bits = sumset.hfold_truncated(a, h, target, stride=1).dense.bits
        large_bits = sumset.hfold_truncated(bigger, h, target, stride=1).dense.bits
        if small_bits & ~large_bits:
            failures += 1
        trials += 1
    announce(
        8,
        "kernel properties",
        failures == 0 and trials >= 100,
        f"{trials} randomized sets: associativity, monotonicity; "
        f"{failures} failures",
        t0,
        10.0,
    )
