import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonbasis import gapset, grammar, intset, report, sumset, verify
from nonbasis.errors import BNotOutside, DomainConstraint, GcdViolation, OracleDisagreement
from nonbasis.families import Params, build_full, build_gapped
from nonbasis.intset import Window, materialize
from nonbasis.verify import (
    InSumset,
    OutExceptional,
    OutShiftedY,
    Unknown,
    YPrimeFilter,
)

from test_families import FAMILY_GAPS, any_families

GEOM2 = gapset.Geometric(2, 1)


def fam201():
    return build_gapped(Params(2, 0, 1, "n0"), GEOM2)


def fam301():
    return build_gapped(Params(3, 0, 1, "n0"), GEOM2)


@pytest.mark.parametrize(
    "params,n,i,q,k",
    [
        (Params(3, 0, 1, "n0"), 5, 1, 2, 2),
        (Params(2, 0, 1, "n0"), 7, 1, 4, 1),
        (Params(2, 0, 1, "n0"), 6, 0, 3, 2),
    ],
)
def test_residue_decompose_examples(params, n, i, q, k):
    ri, rq = build_full(params).residue(n)
    assert (ri, rq, params.h - ri) == (i, q, k)


@settings(max_examples=200)
@given(
    st.integers(2, 7),
    st.integers(-12, 12),
    st.integers(-12, 12),
    st.integers(-500, 500),
)
def test_residue_decompose_reconstructs(h, s, t, n):
    import math

    if math.gcd(h, abs(s - t)) != 1:
        return
    i, q = build_full(Params(h, s, t, "z")).residue(n)
    assert i * (s - t) + h * q == n
    assert 0 <= i < h


def test_residue_decompose_needs_gcd_one():
    with pytest.raises(GcdViolation):
        build_full(Params(2, 1, 3, "z")).residue(5)


@pytest.mark.parametrize(
    "params,n,z1",
    [
        (Params(2, 0, 1, "n0"), 7, 3),
        (Params(3, 0, 1, "n0"), 7, 2),
    ],
)
def test_unique_rep_z1(params, n, z1):
    # In the t-s class n = (h-1)s + h*z1 + t is the only representation, so
    # classify certifies n through z1 in X or rules it out through z1 in Y.
    h, s, t = params.h, params.s, params.t
    assert (h - 1) * s + h * z1 + t == n
    v = verify.classify(build_gapped(params, GEOM2), n)
    assert v == (OutShiftedY(z1) if z1 in (1, 2, 4) else InSumset(h - 1, (z1,)))


def test_decide_2x_examples():
    xs = fam201().x_spec()
    assert verify.decide_kX(xs, 2, 8) == (3, 5)
    assert verify.decide_kX(xs, 2, 4) is None
    assert verify.decide_kX(xs, 2, 0) == (0, 0)


def test_decide_2x_matches_exhaustive():
    fam = fam201()
    xs = fam.x_spec()
    x0 = [x for x in range(300) if fam.x_contains(x)]
    for m in range(0, 200):
        want = any(fam.x_contains(m - x) for x in x0 if x <= m - x)
        got = verify.decide_kX(xs, 2, m)
        assert (got is not None) == want, m
        if got is not None:
            a, b = got
            assert a + b == m and fam.x_contains(a) and fam.x_contains(b)


def test_decide_3x_matches_exhaustive():
    for gen in (GEOM2, gapset.Triangular()):
        fam = build_gapped(Params(3, 0, 1, "n0"), gen)
        xs = fam.x_spec()
        x0 = [x for x in range(200) if fam.x_contains(x)]
        pair_sums = {a + b for a in x0 for b in x0 if a <= b}
        for m in range(0, 120):
            want = any(m - x in pair_sums for x in x0 if x <= m)
            got = verify.decide_kX(xs, 3, m)
            assert (got is not None) == want, (gen, m)
            if got is not None:
                assert len(got) == 3 and sum(got) == m
                assert all(fam.x_contains(x) for x in got)


def test_decide_kx_over_z_always_in():
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    xs = fam.x_spec()
    for m in (-50, -3, 0, 4, 9, 1000):
        got = verify.decide_kX(xs, 2, m)
        assert isinstance(got, tuple)
        assert sum(got) == m


def test_decide_kx_budget_exhaustion():
    xs = fam201().x_spec()
    got = verify.decide_kX(xs, 2, 8, 0)
    assert got == Unknown("probe budget exhausted")


def test_decide_kx_charges_the_smallest_x_scan():
    # Y = 0, 1, 3, ... makes x0 = 2; finding it costs three probes
    xs = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular()).x_spec()
    assert verify.decide_kX(xs, 3, 40, 2) == Unknown("probe budget exhausted")
    assert isinstance(verify.decide_kX(xs, 3, 40), tuple)


def test_decide_kx_needs_certified_x_shape():
    from nonbasis.errors import UncertifiableTail
    from nonbasis.intset import ModClass

    with pytest.raises(UncertifiableTail):
        verify.decide_kX(ModClass(2, 1), 2, 8)
    with pytest.raises(DomainConstraint):
        verify.decide_kX(fam201().x_spec(), 1, 8)


def test_classify_examples():
    fam = fam201()
    assert verify.classify(fam, 7) == InSumset(1, (3,))
    assert verify.classify(fam, 5) == OutShiftedY(2)
    assert verify.classify(fam, 4) == OutExceptional("F0")


def test_f0_certificate_is_replayed(monkeypatch):
    fam = fam201()
    assert isinstance(verify.classify(fam, 1000), InSumset)
    assert not verify.verify_certificate(fam, 1000, OutExceptional("F0"))
    assert verify.verify_certificate(fam, 4, OutExceptional("F0"))
    # n = 5 is off hA but in the F1 class
    assert not verify.verify_certificate(fam, 5, OutExceptional("F0"))
    # an F0 point above the exceptional bound is no certificate either
    monkeypatch.setattr(verify, "exceptional_bound", lambda family: 3)
    assert not verify.verify_certificate(fam, 4, OutExceptional("F0"))


def test_in_certificate_needs_a_nonnegative_s_count():
    # -2 copies of s make room for four x's: -2 + 4 = h, and the x's sum to 10
    fam = fam201()
    assert verify.classify(fam, 10) == OutExceptional("F0")
    assert not verify.verify_certificate(fam, 10, InSumset(-2, (0, 0, 0, 3)))


def test_z_f0_certificate_never_holds():
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    for n in (0, 2, 100):
        assert isinstance(verify.classify(fam, n), InSumset)
        assert not verify.verify_certificate(fam, n, OutExceptional("F0"))


def test_classify_f1_case():
    # s large: small n in the t-s class fall below (h-1)s + t
    fam = build_gapped(Params(2, 5, 2, "n0"), GEOM2)
    n = 5  # n = t-s = -3 = 1 mod 2... pick explicitly below threshold
    h, s, t = fam.h, fam.s, fam.t
    assert (n - (t - s)) % h == 0 and n < (h - 1) * s + t
    assert verify.classify(fam, n) == OutExceptional("F1")


def test_classify_all_s_representation():
    # n = h*s with n not congruent to t-s: the all-singleton sum
    fam = build_gapped(Params(2, 3, 0, "n0"), GEOM2)
    v = verify.classify(fam, 6)
    assert v == InSumset(2, ())


def test_classify_needs_gapped():
    with pytest.raises(GcdViolation):
        verify.classify(build_full(Params(2, 0, 1, "n0")), 5)


@pytest.mark.parametrize(
    "h,s,t,gen",
    [
        (2, 0, 1, GEOM2),
        (3, 0, 1, GEOM2),
        (2, 3, 2, gapset.Triangular()),
        (4, 1, 2, gapset.Factorial()),
        (5, 2, 0, gapset.Geometric(3, 1)),
    ],
)
def test_classify_agrees_with_oracle(h, s, t, gen):
    fam = build_gapped(Params(h, s, t, "n0"), gen)
    hi = 400
    a = materialize(fam.spec, Window(0, hi))
    folded = sumset.hfold_exact_bounded_below(a, h, target=Window(0, hi), stride=h)
    for n in range(hi + 1):
        v = verify.classify(fam, n)
        assert not isinstance(v, Unknown)
        assert isinstance(v, InSumset) == folded.member(n), (h, s, t, n)
        assert verify.verify_certificate(fam, n, v), (h, s, t, n, v)


def test_classify_z_soundness():
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    a = materialize(fam.spec, Window(-300, 300))
    folded = sumset.hfold_truncated(a, 2, Window(-100, 100), stride=2)
    for n in range(-100, 101):
        v = verify.classify(fam, n)
        if folded.member(n):
            assert isinstance(v, InSumset)
        assert verify.verify_certificate(fam, n, v)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 60), st.integers(0, 5))
def test_classify_translation_equivariance(n, c):
    base = build_gapped(Params(2, 0, 1, "n0"), GEOM2)
    moved = build_gapped(Params(2, 0 + c, 1 + c, "n0"), GEOM2)
    v1 = verify.classify(base, n)
    v2 = verify.classify(moved, n + 2 * c)
    assert type(v1) is type(v2)


def test_catalog_derives_the_family_facts_once(monkeypatch):
    # R(3) and x0 are memoized per gap set and X is kept on the family, so a
    # catalog walks Y a fixed number of times, not once per point
    fam = build_gapped(Params(5, 0, 1, "n0"), GEOM2)
    assert fam.x_spec() is fam.x_spec()
    walks = []
    values = gapset.values

    def counting(gen):
        walks.append(gen)
        return values(gen)

    monkeypatch.setattr(gapset, "values", counting)
    for memo in (
        gapset.gap_radius, gapset.least_non_member, gapset._walk, verify.base_oracle,
        verify.decide_kX,
    ):
        memo.cache_clear()
    verify.n0_fold.cache_clear()
    cat = verify.complement_catalog(fam, Window(0, 2000))
    assert cat.unknown == () and len(cat.exceptional) > 0
    assert len(walks) <= 6


def test_adjunction_checks_read_the_oracles_y_prefix(monkeypatch):
    # The escape samples, X for the fold of h*X and the oracle's Y prefix
    # read one walk of Y.  With R(3) and x0 memoized, the escape run walks
    # Y once; the augment run on the cached oracle does not walk it at all.
    fam = build_gapped(Params(5, 0, 1, "n0"), GEOM2)
    window = Window(0, 3000)
    for memo in (
        gapset.gap_radius, gapset.least_non_member, gapset._walk, verify.base_oracle,
        verify.decide_kX,
    ):
        memo.cache_clear()
    verify.n0_fold.cache_clear()
    verify.pair_bound(fam.y), gapset.least_non_member(fam.y)
    walks = []
    values = gapset.values

    def counting(gen):
        walks.append(gen)
        return values(gen)

    monkeypatch.setattr(gapset, "values", counting)
    escapes = report.escape_checks(fam, window)
    assert {c.name.split("_b")[0] for c in escapes} >= {"escape_eq_s", "escape_not_st"}
    assert walks == [fam.y]
    walks.clear()
    report.augment_checks(fam, window)
    assert walks == []


@pytest.mark.parametrize("domain, window", [("n0", Window(0, 3000)), ("z", Window(-1500, 1500))])
def test_a_familys_checks_walk_y_once(monkeypatch, domain, window):
    # the catalog, the escapes and the augments read Y through one walk,
    # and over Z the stability check reads the catalog's oracle, not Y;
    # x0 and R(3) have their own memos
    fam = build_gapped(Params(3, 0, 1, domain), gapset.Triangular())
    for memo in (gapset._walk, verify.base_oracle, verify.decide_kX):
        memo.cache_clear()
    verify.n0_fold.cache_clear()
    verify.pair_bound(fam.y), gapset.least_non_member(fam.y)
    walks = []
    values = gapset.values
    monkeypatch.setattr(gapset, "values", lambda gen: walks.append(gen) or values(gen))
    checks = report.catalog_checks(fam, window)[1]
    if domain == "z":
        built = verify.base_oracle.cache_info().misses
        checks.append(report.stability_check(fam, window))
        assert verify.base_oracle.cache_info().misses == built
    checks += report.escape_checks(fam, window) + report.augment_checks(fam, window)
    assert all(c.status == report.PASS for c in checks), checks
    assert walks == [fam.y]


def test_escape_samples_fold_nothing(monkeypatch):
    # the eq_t samples read Y itself, so a family's first escape_check is
    # the one that builds its oracle
    fam = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular())

    def refuse(*args, **kwargs):
        raise AssertionError("sample_escape_bs folded")

    for mod, name in [
        (verify, "base_oracle"),
        (verify, "n0_fold"),
        (sumset, "hfold_exact_bounded_below"),
        (sumset, "hfold_truncated"),
        (sumset, "hfold_point_union"),
    ]:
        monkeypatch.setattr(mod, name, refuse)
    samples = report.sample_escape_bs(fam, 3, Window(0, 3000))
    assert samples["eq_t"] == [1, 4, 10]


def test_catalog_example():
    cat = verify.complement_catalog(fam201(), Window(0, 20))
    assert cat.shifted_y == (3, 5, 9, 17)
    assert cat.exceptional == (4, 6, 10)
    assert cat.unknown == ()


def test_catalog_small_window_all_covered():
    cat = verify.complement_catalog(fam201(), Window(0, 2))
    assert cat == verify.Catalog((), (), ())


def test_full_family_has_empty_complement():
    fam = build_full(Params(2, 0, 1, "n0"))
    a = materialize(fam.spec, Window(0, 50))
    r = sumset.hfold_exact_bounded_below(a, 2, target=Window(0, 50), stride=2)
    assert r.dense.complement().members() == []


def test_catalog_partition_disjoint():
    cat = verify.complement_catalog(fam301(), Window(0, 400))
    assert not set(cat.shifted_y) & set(cat.exceptional)
    assert cat.unknown == ()


def test_escape_eq_s_example():
    rep = verify.escape_check(fam201(), 2, Window(0, 40))
    assert rep.residue_case == "eq_s"
    assert rep.verdict == "becomes_basis"
    assert rep.predicted_exceptions == (5,)
    # leftover complement is the predicted exception plus surviving F points
    assert set(rep.leftover) <= {5} | {4, 6, 10}


def test_escape_eq_t_example():
    rep = verify.escape_check(fam201(), 3, Window(0, 40))
    assert rep.residue_case == "eq_t"
    assert rep.verdict == "stays_nonbasis"
    assert set(rep.added) <= {3} | {4, 6, 10}
    assert 3 in rep.added


def test_escape_not_st_example():
    rep = verify.escape_check(fam301(), 2, Window(0, 60))
    assert rep.residue_case == "not_st"
    assert rep.verdict == "becomes_basis"
    assert rep.predicted_exceptions == (7,)


def test_escape_rejects_inside_b():
    with pytest.raises(BNotOutside):
        verify.escape_check(fam201(), 7, Window(0, 40))


def test_augment_even_indices():
    rep = verify.augment_check(fam201(), YPrimeFilter("even_indices"), Window(0, 200))
    assert rep.verdict == "stays_nonbasis"
    assert set(rep.missing_shifted) == {5, 17, 65}


def test_augment_cofinite():
    rep = verify.augment_check(
        fam201(), YPrimeFilter("drop_values", (1,)), Window(0, 200)
    )
    assert rep.verdict == "becomes_basis_on_window"
    assert set(rep.leftover) == {3, 4}


def test_augment_empty_matches_catalog():
    window = Window(0, 120)
    every_y = tuple(gapset.elements_in(GEOM2, window))
    rep = verify.augment_check(fam201(), YPrimeFilter("drop_values", every_y), window)
    cat = verify.complement_catalog(fam201(), window)
    assert sorted(rep.leftover) == sorted(cat.shifted_y + cat.exceptional)


def test_augment_all_becomes_full_family():
    rep = verify.augment_check(fam201(), YPrimeFilter("drop_values"), Window(0, 120))
    assert rep.verdict == "becomes_basis_on_window"


def test_augment_z_uses_full_truncation_for_b():
    # over Z, adjoined elements above the window still matter through
    # negative partners; the augmented oracle must include them
    fam = build_gapped(Params(3, 1, 0, "z"), GEOM2)
    rep = verify.augment_check(fam, YPrimeFilter("drop_values"), Window(-200, 200))
    assert rep.verdict == "becomes_basis_on_window"
    assert rep.extras == ()
    even = verify.augment_check(fam, YPrimeFilter("even_indices"), Window(-200, 200))
    assert even.verdict == "stays_nonbasis"


@pytest.mark.parametrize("kind", ["none", "all", "odd_indices", "keep_values"])
def test_yprime_filter_keeps_only_the_report_kinds(kind):
    with pytest.raises(DomainConstraint):
        YPrimeFilter(kind)


def test_lemma_geom2_h2():
    rep = verify.lemma_basis_check(GEOM2, 2, Window(0, 200))
    assert rep.bad_u == (0, 1, 2, 3)
    assert rep.complement == (1, 2, 4)
    assert rep.covered_above_threshold
    assert rep.matches_prediction


def test_lemma_factorial_h2():
    rep = verify.lemma_basis_check(gapset.Factorial(), 2, Window(0, 200))
    assert rep.bad_u == (0, 1, 2)
    assert rep.covered_above_threshold
    assert rep.matches_prediction


def test_lemma_geom2_h3():
    rep = verify.lemma_basis_check(GEOM2, 3, Window(0, 200))
    assert set(rep.complement) <= {1, 2, 4}
    assert rep.covered_above_threshold


@pytest.mark.parametrize(
    "gen", [GEOM2, gapset.Triangular(), gapset.CustomPrefixTail((0, 1, 2, 5, 13), GEOM2)]
)
@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_lemma_threshold_matches_a_brute_force_derivation(gen, h):
    # Y as a plain set, far past its last close pair: a bad u has two of
    # u - 1, u, u + 1, u + 2 in Y, 2 * (max bad u + 1) bounds the misses of
    # 2X, and each of h - 2 more summands adds at least the least x in X
    top = 10**4
    ys = set(gapset.elements_in(gen, Window(0, top)))
    bad = [u for u in range(top - 2) if len({u - 1, u, u + 1, u + 2} & ys) >= 2]
    x0 = next(x for x in itertools.count() if x not in ys)
    rep = verify.lemma_basis_check(gen, h, Window(0, 200))
    assert rep.bad_u == tuple(bad)
    assert rep.threshold == 2 * (max(bad) + 1) + (h - 2) * x0


def test_verdict_certificates_resum():
    fam = fam301()
    for n in range(0, 120):
        v = verify.classify(fam, n)
        if isinstance(v, InSumset):
            total = v.s_count * fam.s + sum(fam.h * x + fam.t for x in v.xs)
            assert total == n
            assert v.s_count + len(v.xs) == fam.h
        elif isinstance(v, OutShiftedY):
            assert fam.shifted_y_value(v.y) == n
            assert fam.y_contains(v.y)


ORACLE_GAPS = (GEOM2, gapset.Geometric(3, 1), gapset.Triangular(), gapset.Factorial())
# Every certified gap kind: geometric, triangular, factorial, custom prefix
GAP_GENERATORS = st.one_of(
    st.builds(gapset.Geometric, st.integers(2, 5), st.integers(1, 4)),
    st.just(gapset.Triangular()),
    st.just(gapset.Factorial()),
    st.builds(
        lambda prefix, tail: gapset.CustomPrefixTail(tuple(sorted(prefix)), tail),
        st.sets(st.integers(0, 30), min_size=1, max_size=8),
        st.sampled_from(ORACLE_GAPS),
    ),
)


@st.composite
def escape_cases(draw):
    """A small gapped family, a window and a b outside A, over N0 or Z."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 4))
    s = draw(st.integers(0 if n0 else -4, 4))
    t = draw(st.integers(0 if n0 else -4, 4))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0" if n0 else "z"), draw(st.sampled_from(ORACLE_GAPS)))
    lo = draw(st.integers(0, 20) if n0 else st.integers(-40, 10))
    window = Window(lo, lo + draw(st.integers(0, 50)))
    src = verify.oracle_source(fam, window)
    # b ranges past the source window on both sides (negative over Z)
    b = draw(st.integers(0 if n0 else src.lo - 10, src.hi + 10))
    assume(not fam.a_contains(b))
    return fam, window, b


@st.composite
def n0_gapped_families(draw):
    """A random N0 gapped family over any of the certified gap generators."""
    h = draw(st.integers(2, 5))
    s = draw(st.integers(0, 10))
    t = draw(st.integers(0, 10))
    assume(math.gcd(h, abs(s - t)) == 1)
    return build_gapped(Params(h, s, t, "n0"), draw(GAP_GENERATORS))


@st.composite
def classify_windows(draw):
    """A random gapped family over N0 or Z and a small window of it."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 5))
    s = draw(st.integers(0 if n0 else -6, 6))
    t = draw(st.integers(0 if n0 else -6, 6))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0" if n0 else "z"), draw(GAP_GENERATORS))
    lo = draw(st.integers(0, 200) if n0 else st.integers(-200, 200))
    return fam, Window(lo, lo + draw(st.integers(0, 40)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(0, 39), st.integers(0, 8), GAP_GENERATORS)
def test_below_threshold_verdicts_match_the_residue_route(h, s, t, gen):
    # Over N0 below (h-2)s + ht, classify reads In or F0 off the prefix
    # oracle.  Off the F1 class the residue route decides the same points
    # exactly: i copies of s plus k = h - i summands h*x + t, so a k-fold
    # decision on q - t, or h copies of s when n = h*s.
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0"), gen)
    for n in range((h - 2) * s + h * t):
        if (n - (t - s)) % h == 0:
            continue
        i, q = fam.residue(n)
        wit = verify.decide_kX(fam.x_spec(), h - i, q - t)
        assert not isinstance(wit, Unknown), n
        want = wit is not None or (i == 0 and n == h * s)
        v = verify.classify(fam, n)
        assert isinstance(v, InSumset if want else OutExceptional), (n, v)


@settings(max_examples=60, deadline=None)
@given(classify_windows())
def test_classify_matches_the_oracle_on_random_windows(case):
    # Over N0 the oracle is exact; over Z it is truncated and may miss
    # members, so it must only not contain a point classified Out
    fam, window = case
    folded = verify.base_oracle(fam, window).folded
    for n in range(window.lo, window.hi + 1):
        v = verify.classify(fam, n)
        assert not isinstance(v, Unknown), n
        if fam.domain == "n0":
            assert isinstance(v, InSumset) == folded.member(n), (n, v)
        elif not isinstance(v, InSumset):
            assert not folded.member(n), (n, v)
        assert verify.verify_certificate(fam, n, v), (n, v)


@settings(max_examples=100, deadline=None)
@given(classify_windows())
@example((fam201(), Window(6, 8)))  # between the shifted values 5 and 9
@example((fam201(), Window(5, 40)))  # starts at 5, above the first shifted value 3
@example((build_gapped(Params(2, -5, 0, "z"), GEOM2), Window(-40, -1)))  # holds -3 and -1
def test_base_oracle_reads_the_shifted_image_and_f(case):
    fam, window = case
    oracle = verify.base_oracle(fam, window)
    top = abs(window.hi) + abs(fam.shifted_y_value(0))
    shifted = [
        v
        for y in range(top + 1)
        if fam.y_contains(y) and window.contains(v := fam.shifted_y_value(y))
    ]
    assert oracle.shifted.window == oracle.f_window.window == window
    assert oracle.shifted.members() == shifted
    complement = oracle.folded.dense.complement().members()
    assert oracle.f_window.members() == [n for n in complement if n not in shifted]


@settings(max_examples=150, deadline=None)
@given(n0_gapped_families())
def test_exceptional_bound_covers_the_oracle_complement(fam):
    h, s, t = fam.h, fam.s, fam.t
    bound = verify.exceptional_bound(fam)
    oracle = verify.base_oracle(fam, Window(0, 2 * bound + 50))

    def shifted_y(n):
        z = n - (h - 1) * s - t
        return z % h == 0 and fam.y_contains(z // h)

    outside = [n for n in oracle.folded.dense.complement().members() if not shifted_y(n)]
    assert all(n <= bound for n in outside), (bound, outside[-5:])


@settings(max_examples=80, deadline=None)
@given(escape_cases())
def test_escape_check_matches_direct_fold(case):
    fam, window, b = case
    oracle = verify.base_oracle(fam, window)
    src, h = oracle.folded.source, fam.h
    a = materialize(fam.spec, src)
    folds = [{0}]
    for _ in range(h):  # per-element reference loop
        folds.append({x + v for x in folds[-1] for v in a.members()})
    for k, part in enumerate(oracle.folded.partials):
        assert part is not None
        assert part.members() == sorted(v for v in folds[k] if part.window.contains(v))

    bits = a.bits | (1 << (b - src.lo) if src.contains(b) else 0)
    fold = (
        sumset.hfold_exact_bounded_below if fam.domain == "n0" else sumset.hfold_truncated
    )
    fa = fold(a, h, target=window, stride=h)
    fab = fold(intset.DenseSet(src, bits), h, target=window, stride=h)
    rep = verify.escape_check(fam, b, window)
    assert rep.leftover == tuple(fab.dense.complement().members())
    if rep.residue_case == "eq_t":
        assert rep.added == tuple(
            intset.DenseSet(window, fab.dense.bits & ~fa.dense.bits).members()
        )


@settings(max_examples=80, deadline=None)
@given(escape_cases(), st.booleans())
# y = 1 is the last y whose h*y + t lies in the source 0:3
@example((build_gapped(Params(2, 0, 1, "n0"), gapset.Triangular()), Window(0, 3), 1), False)
def test_augment_check_matches_direct_fold(case, even):
    # the augment folds h*(X u Y') read off the oracle's first partial and
    # adds s and t by shifts; its complement is that of A u (h*Y' + t)
    # materialized on the oracle source and folded directly
    fam, window, _ = case
    src = verify.oracle_source(fam, window)
    ys = y_prefix(fam, src)
    yprime = YPrimeFilter("even_indices") if even else YPrimeFilter("drop_values", ys[:1])
    b = [fam.h * y + fam.t for i, y in enumerate(ys) if yprime.selects(i, y)]
    ab = intset.DenseSet(src, materialize(fam.spec, src).bits | intset.dense_from_iter(b, src).bits)
    fold = (
        sumset.hfold_exact_bounded_below if fam.domain == "n0" else sumset.hfold_truncated
    )
    want = fold(ab, fam.h, target=window, stride=fam.h)
    rep = verify.augment_check(fam, yprime, window)
    assert rep.leftover == tuple(want.dense.complement().members())


def y_prefix(fam, src):
    """Y up to (src.hi - t) // h: every y whose h*y + t can lie in src."""
    top = (src.hi - fam.t) // fam.h
    return gapset.elements_in(fam.y, Window(0, top)) if top >= 0 else []


def counting_folds(monkeypatch) -> list[str]:
    """Names of the h-fold kernels called from now on, with every oracle
    memo cleared."""
    calls = []
    for name in ("hfold_exact_bounded_below", "hfold_truncated"):
        real = getattr(sumset, name)
        monkeypatch.setattr(
            sumset, name, lambda *a, real=real, **k: calls.append(real.__name__) or real(*a, **k)
        )
    verify.base_oracle.cache_clear()
    verify.n0_fold.cache_clear()
    return calls


def test_escape_checks_fold_once(monkeypatch):
    calls = counting_folds(monkeypatch)
    checks = report.escape_checks(fam301(), Window(0, 3000))
    assert len(checks) == 9
    assert calls == ["hfold_exact_bounded_below"]


def test_escape_sweep_over_s_and_t_folds_once(monkeypatch):
    # every N0 oracle of one (h, Y, window) is built by shifts of one fold of h*X
    calls = counting_folds(monkeypatch)
    window, runs = Window(0, 600), 0
    for s in range(8):
        for t in range(8):
            if math.gcd(3, s - t) == 1:
                checks = report.escape_checks(build_gapped(Params(3, s, t, "n0"), GEOM2), window)
                assert checks and all(c.status == "pass" for c in checks)
                runs += 1
    assert runs > 30
    assert calls == ["hfold_exact_bounded_below"]


def test_a_catalog_and_its_prefix_oracle_fold_once(monkeypatch):
    # classify reads the band points below (h-2)s + ht = 10 off the oracle
    # of [0, 9], cut from the catalog's own fold of h*X; a narrower window
    # afterwards folds nothing either
    calls = counting_folds(monkeypatch)
    fam = build_gapped(Params(5, 0, 2, "n0"), GEOM2)
    classify = verify.classify
    below = []
    monkeypatch.setattr(
        verify, "classify", lambda f, n, budget=None: below.append(n < 10) or classify(f, n, budget)
    )
    verify.complement_catalog(fam, Window(0, 3000))
    assert any(below)
    verify.complement_catalog(build_gapped(Params(5, 1, 2, "n0"), GEOM2), Window(0, 2000))
    assert calls == ["hfold_exact_bounded_below"]


def test_thm3_sweep_over_s_and_t_folds_once(monkeypatch):
    calls = counting_folds(monkeypatch)
    window = Window(0, 2000)
    for s in range(6):
        for t in range(6):
            checks = report.dichotomy_checks(build_full(Params(4, s, t, "n0")), window)
            assert all(c.status == "pass" for c in checks)
    assert calls == ["hfold_exact_bounded_below"]


CUSTOM_GAP = grammar.parse_generator("custom,[0,1,2,5,13],tail=geometric,2,1")


@pytest.mark.parametrize("h", range(2, 8))
def test_n0_oracles_by_shifts_match_the_fold_of_a(h):
    # base_oracle builds A and hA from the partials of h*X by shifts; every
    # field equals A materialized and folded, partials and all
    windows = [Window(0, 0), Window(0, 3), Window(2, 57), Window(300, 900), Window(0, 1003)]
    seen = 0
    for s in range(10):
        for t in range(10):
            fams = [build_full(Params(h, s, t, "n0"))]
            if math.gcd(h, s - t) == 1:
                fams.append(build_gapped(Params(h, s, t, "n0"), CUSTOM_GAP))
            for fam in fams:
                for window in windows:
                    oracle = verify.base_oracle(fam, window)
                    dense = materialize(fam.spec, verify.oracle_source(fam, window))
                    want = sumset.hfold_exact_bounded_below(dense, h, target=window, stride=h)
                    assert oracle.folded.partials[1] == dense
                    assert oracle.folded == want and oracle.folded.partials == want.partials
                    seen += 1
    assert seen > 500  # 500 full-family oracles and the gapped ones


@st.composite
def z_oracle_cases(draw):
    """A full or gapped Z family with s and t in [-30, 30], and a window
    that need not be symmetric about 0."""
    h = draw(st.integers(2, 7))
    s, t = draw(st.integers(-30, 30)), draw(st.integers(-30, 30))
    params = Params(h, s, t, "z")
    if math.gcd(h, abs(s - t)) == 1 and draw(st.booleans()):
        fam = build_gapped(params, draw(GAP_GENERATORS))
    else:
        fam = build_full(params)
    lo = draw(st.integers(-80, 60))
    return fam, Window(lo, lo + draw(st.integers(0, 90)))


@settings(max_examples=150, deadline=None)
@given(z_oracle_cases())
def test_z_oracles_by_shifts_match_the_fold_of_a(case):
    # over Z, base_oracle folds h*X on its source moved down by t and adds
    # s and t by shifts; hA equals A materialized on the source and folded,
    # partials and all
    fam, window = case
    oracle = verify.base_oracle(fam, window)
    src = verify.oracle_source(fam, window)
    want = sumset.hfold_truncated(materialize(fam.spec, src), fam.h, window, stride=fam.h)
    assert oracle.folded == want and oracle.folded.partials == want.partials
    assert oracle.folded.exactness == sumset.LOWER_BOUND


def test_z_oracle_and_augment_folds_each_sum_one_residue_class(monkeypatch):
    # A is two residue classes mod h, so a fold of A pays a fill per class
    # of each partial; the Z oracle and every augment fold h*X (with h*Y')
    # instead, one class
    inputs = []
    fold = sumset._fold
    monkeypatch.setattr(
        sumset, "_fold", lambda a, h, *rest: inputs.append((a, h)) or fold(a, h, *rest)
    )
    verify.base_oracle.cache_clear()
    verify.n0_fold.cache_clear()
    cases = [
        (build_full(Params(3, -5, 4, "z")), Window(-40, 90)),
        (build_gapped(Params(2, 0, 1, "z"), GEOM2), Window(-200, 200)),
        (build_gapped(Params(4, -7, -2, "z"), gapset.Triangular()), Window(-30, 150)),
        (build_gapped(Params(3, 2, 6, "n0"), GEOM2), Window(0, 300)),
    ]
    for fam, window in cases:
        verify.base_oracle(fam, window)
        if fam.is_gapped:
            first = y_prefix(fam, verify.oracle_source(fam, window))[:1]
            verify.augment_check(fam, YPrimeFilter("even_indices"), window)
            verify.augment_check(fam, YPrimeFilter("drop_values", first), window)
    assert len(inputs) == 10  # 3 Z oracles, 1 fold of h*X, 6 augments
    for a, h in inputs:
        assert len({m % h for m in a.members()}) == 1, (h, a.window)


def lemma_x(gen):
    return intset.Diff(intset.ModClassNonneg(1, 0), intset.GapTail(gen))


def test_the_fold_store_counts_hits_steps_builds_and_evictions():
    # an h-sweep on one window of X builds one fold and deepens it; a
    # shallower request reads it as it is, and a wider window widens it
    store = verify.n0_fold
    store.cache_clear()
    xspec = lemma_x(gapset.Triangular())
    for h in range(2, 6):
        store(xspec, h, 5000)
    assert store.cache_info() == verify.FoldStoreInfo(3, 3, 1, 0, 0, 1, 8)
    store(xspec, 3, 5000)
    assert store.cache_info() == verify.FoldStoreInfo(4, 3, 1, 0, 0, 1, 8)
    store(xspec, 3, 5001)
    assert store.cache_info() == verify.FoldStoreInfo(4, 3, 1, 1, 0, 1, 8)
    # eight more sets: the least recently used one goes, the others stay
    others = [intset.ShiftScale(xspec, 0, m) for m in range(2, 10)]
    for spec in others[:7]:
        store(spec, 2, 100)
    store(xspec, 2, 100)
    store(others[7], 2, 100)
    assert store.cache_info() == verify.FoldStoreInfo(5, 3, 9, 1, 1, 8, 8)
    store(xspec, 2, 100)
    store(others[0], 2, 100)
    assert store.cache_info() == verify.FoldStoreInfo(6, 3, 10, 1, 2, 8, 8)
    store.cache_clear()
    assert store.cache_info() == verify.FoldStoreInfo(0, 0, 0, 0, 0, 0, 8)


# The sets the store folds: the lemma's X = N0 minus Y for each gap kind,
# an oracle's h*X, N0 itself, and an h*X + t with t > 0
STORE_SETS = (
    *(lemma_x(gen) for gen in ORACLE_GAPS + (gapset.CustomPrefixTail((0, 1, 2, 5, 13), GEOM2),)),
    *(intset.ShiftScale(lemma_x(gen), 0, h) for gen, h in ((GEOM2, 2), (gapset.Triangular(), 3))),
    intset.ModClassNonneg(1, 0),
    intset.ShiftScale(lemma_x(gapset.Triangular()), 5, 3),
)
STORE_REQUESTS = st.lists(
    st.tuples(
        st.integers(0, len(STORE_SETS) - 1),
        st.integers(1, 6),
        st.one_of(st.integers(0, 3000), st.sampled_from([0, 1, 700, 3000])),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(STORE_REQUESTS)
@example([(0, 2, 700), (0, 5, 700), (0, 2, 700), (0, 3, 3000), (0, 1, 3000)])
@example([(5, 3, 0), (5, 3, 1), (4, 6, 1), (6, 1, 3000), (7, 2, 50), (5, 2, 3000)])
@example([(2, 3, 700), (2, 3, 701)])  # widened by one point
@example([(0, 6, 700), (0, 2, 3000)])  # a kept fold deeper than the request widens
@example([(8, 3, 400), (8, 2, 1200), (8, 4, 1201)])  # h*X + t, t > 0
@example([(1, 1, 500), (1, 3, 900)])  # built at h = 1, so with no class table yet
def test_every_view_of_the_fold_store_is_a_fresh_exact_fold(requests):
    # widening, deepening and shallower-after-deeper requests over three
    # kept folds at most, in any order
    store = verify.N0FoldStore(3)
    for i, h, hi in requests:
        spec = STORE_SETS[i]
        view = store(spec, h, hi)
        a = materialize(spec, Window(0, hi))
        fresh = sumset.hfold_exact_bounded_below(a, h, stride=intset.stride(spec))
        assert view.h == h and len(view.partials) == h + 1
        assert view.dense.restrict(fresh.target) == fresh.dense
        for got, want in zip(view.partials, fresh.partials):
            assert got.restrict(want.window) == want


def test_escape_samples_below_t_take_no_eq_t_b():
    # samples reach window.hi // 2 = 5 < t: the oracle's Y prefix holds
    # y = 0 and 1, but no y with h*y + t <= 5
    fam = build_gapped(Params(3, 0, 7, "n0"), gapset.Triangular())
    samples = report.sample_escape_bs(fam, 5, Window(0, 11))
    assert samples["eq_t"] == []
    assert samples["eq_s"] == [3] and samples["not_st"] == [2, 5]


def test_escape_check_decodes_only_its_own_sets(monkeypatch):
    # predictions read the oracle's shifted-Y pairs instead of decoding its
    # bits, and the leftover is decoded only when read: an escape decodes
    # nothing but the added points when b = t
    fam = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular())
    window = Window(0, 3000)
    oracle = verify.base_oracle(fam, window)
    samples = report.sample_escape_bs(fam, 1, window)
    calls = []
    real = intset.DenseSet.members
    monkeypatch.setattr(intset.DenseSet, "members", lambda self: calls.append(1) or real(self))
    for case, decoded in (("not_st", 0), ("eq_s", 0), ("eq_t", 1)):
        calls.clear()
        rep = verify.escape_check(fam, samples[case][0], window)
        assert rep.residue_case == case
        assert len(calls) == decoded, case
        calls.clear()
        fab = sumset.adjoin(oracle.folded, rep.b)
        assert rep.leftover == tuple(real(fab.complement()))
        assert rep.leftover == rep.leftover
        assert len(calls) == 1, case


def per_value_escape(fam, b, window, budget_probes):
    """escape_check with a k-fold decision on every shifted-Y value from the
    threshold up, and an eagerly decoded leftover: the reference loop."""
    h, s, t = fam.h, fam.s, fam.t
    n0 = fam.domain == "n0"
    oracle = verify.base_oracle(fam, window)
    fab = sumset.adjoin(oracle.folded, b)
    comp = fab.complement()
    leftover = tuple(comp.members())
    if (b - t) % h == 0:
        added = fab.bits & ~oracle.folded.dense.bits
        v = (h - 1) * s + b
        cover = 1 << (v - window.lo) if window.contains(v) else 0
        ok = added & ~(oracle.f_window.bits | cover) == 0
        added_points = tuple(intset.DenseSet(window, added).members())
        return "eq_t", "stays_nonbasis" if ok else "inconclusive", (), leftover, added_points
    predicted = []
    threshold = window.lo
    if (b - s) % h == 0:
        case = "eq_s"
        u = (b - s) // h
        for y, n in fam.shifted_ys(window):
            w_val = y - (h - 1) * u
            if (n0 and w_val < 0) or fam.y_contains(w_val):
                predicted.append(n)
    else:
        case = "not_st"
        i = (fam.residue(t - b)[0] - 1) % h
        if n0:
            threshold = b + (h - 3) * s + (h - 1) * t
        for _, n in fam.shifted_ys(window):
            if n < threshold:
                continue
            wit = verify.decide_kX(
                fam.x_spec(), h - i - 1, (n - b - i * s - (h - i - 1) * t) // h,
                budget_probes,
            )
            if wit is None:
                predicted.append(n)
            elif isinstance(wit, Unknown):
                return case, "inconclusive", tuple(predicted), leftover, ()
    allowed = oracle.f_window.bits | intset.dense_from_iter(predicted, window).bits
    ok = (comp.bits & ~allowed) >> max(threshold - window.lo, 0) == 0
    return case, "becomes_basis" if ok else "inconclusive", tuple(predicted), leftover, ()


@st.composite
def band_escape_cases(draw):
    """A gapped family with h up to 6, a window reaching past the not_st
    band, and a b outside A, over N0 or Z."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 6))
    s = draw(st.integers(0 if n0 else -4, 4))
    t = draw(st.integers(0 if n0 else -4, 4))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0" if n0 else "z"), draw(GAP_GENERATORS))
    lo = draw(st.integers(0, 20) if n0 else st.integers(-200, 20))
    window = Window(lo, lo + draw(st.integers(0, 400)))
    b = draw(st.integers(0 if n0 else -60, 120))
    assume(not fam.a_contains(b))
    return fam, window, b


@settings(max_examples=80, deadline=None)
@given(band_escape_cases())
@example((build_gapped(Params(5, 0, 1, "n0"), gapset.Triangular()), Window(0, 400), 2))
@example((build_gapped(Params(3, 1, 0, "z"), gapset.Factorial()), Window(-200, 200), 2))
def test_escape_check_matches_the_per_value_loop(case):
    # Below the fixed branch's x0 + 3 probes, at its edge and above it
    fam, window, b = case
    x0 = gapset.least_non_member(fam.y)
    for budget in (0, 2, x0 + 2, x0 + 3, verify.DEFAULT_BUDGET):
        rep = verify.escape_check(fam, b, window, budget)
        got = (rep.residue_case, rep.verdict, rep.predicted_exceptions, rep.leftover, rep.added)
        assert got == per_value_escape(fam, b, window, budget), budget


@pytest.mark.parametrize(
    "params,window,b,predicted",
    [
        # the largest shifted y is 2, and y = 2 predicts through 4 in Y
        (Params(2, 4, 1, "n0"), Window(0, 12), 0, (9,)),
        # the largest shifted y is 1, and y = 1 predicts through 2, just past it
        (Params(2, 7, 2, "n0"), Window(0, 12), 5, (11,)),
        # shifted ys 1, 2, 4, 8 and oracle.ys up to 16: w_val = y + 8 gives
        # 9, 10, 12 outside Y and 16 in it, all past 8 and at most 16
        (Params(2, 18, 1, "n0"), Window(0, 50), 2, (35,)),
        # over Z, b far below s sends w_val = y + 248 past oracle.ys, which
        # ends at 16; y = 8 predicts through 256 in Y
        (Params(2, 0, 1, "z"), Window(-40, 40), -496, (17,)),
    ],
)
def test_eq_s_predictions_reach_past_the_oracles_y_set(params, window, b, predicted):
    # b < s makes y - (h-1)u larger than y, past the largest shifted y
    fam = build_gapped(params, GEOM2)
    rep = verify.escape_check(fam, b, window)
    assert (rep.residue_case, rep.predicted_exceptions) == ("eq_s", predicted)
    got = (rep.residue_case, rep.verdict, rep.predicted_exceptions, rep.leftover, rep.added)
    assert got == per_value_escape(fam, b, window, verify.DEFAULT_BUDGET)


@settings(max_examples=150, deadline=None)
@given(any_families(gapped_only=True), st.integers(-60, 120), st.integers(0, 300))
@example(build_gapped(Params(3, 2, 1, "n0"), GEOM2), 40, 60)
def test_base_oracle_reads_one_y_prefix(fam, lo, width):
    # N0 windows may start above (h-1)s + t, where the shifted-Y values
    # begin past the first elements of Y; the augment reads Y's prefix up
    # to the last y whose h*y + t can lie in the oracle source
    if fam.domain == "n0":
        lo = abs(lo)
    window = Window(lo, lo + width)
    oracle = verify.base_oracle(fam, window)
    top = (verify.oracle_source(fam, window).hi - fam.t) // fam.h
    reads = []
    real = gapset.elements_in
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapset, "elements_in", lambda gen, w: reads.append(w) or real(gen, w))
        verify.augment_check(fam, YPrimeFilter("even_indices"), window)
    assert reads == ([Window(0, top)] if top >= 0 else [])
    image = intset.ShiftScale(intset.GapTail(fam.y), (fam.h - 1) * fam.s + fam.t, fam.h)
    assert oracle.shifted == materialize(image, window)
    assert oracle.shifted_ys == tuple(fam.shifted_ys(window))


def test_an_s_sweep_walks_y_once(monkeypatch):
    # every N0 oracle of one (h, t, window) reads its shifted-Y pairs off
    # one prefix of Y
    window = Window(0, 3000)
    fams = [build_gapped(Params(3, s, 1, "n0"), GEOM2) for s in range(40) if s % 3 != 1]
    verify.base_oracle.cache_clear()
    # the fold of h*X walks Y too
    verify.n0_fold(intset.ShiftScale(fams[0].xspec, 0, 3), 3, window.hi)
    gapset._walk.cache_clear()
    walks = []
    values = gapset.values
    monkeypatch.setattr(gapset, "values", lambda gen: walks.append(gen) or values(gen))
    oracles = [verify.base_oracle(fam, window) for fam in fams]
    assert walks == [GEOM2]
    ys = y_prefix(fams[0], verify.oracle_source(fams[0], window))
    assert len(oracles) > 20
    for fam, oracle in zip(fams, oracles):
        pairs = ((y, fam.shifted_y_value(y)) for y in ys)
        assert oracle.shifted_ys == tuple((y, n) for y, n in pairs if window.contains(n))


def with_dense(folded, dense):
    """The fold result folded with hA replaced by dense."""
    f = folded
    return sumset.SumsetResult(f.h, f.source, f.target, dense, f.exactness, f.partials, f.table)


def replace_folded(oracle, bits):
    """oracle with hA replaced by bits on its window."""
    folded = with_dense(oracle.folded, intset.DenseSet(oracle.folded.dense.window, bits))
    return verify.BaseOracle(folded, oracle.shifted_ys, oracle.shifted, oracle.f_window)


def test_missed_classes_fails_when_the_sumset_meets_every_class(monkeypatch):
    # d = gcd(4, 2 - 0) = 2: hA meets 2 of the 4 classes mod 4, so the
    # checks pass; an oracle that holds the whole window meets all 4
    fam = build_full(Params(4, 2, 0, "n0"))
    window = Window(0, 400)
    status = {c.name: c.status for c in report.dichotomy_checks(fam, window)}
    assert status == {"residue_obstruction": "pass", "missed_classes": "pass"}
    real = verify.base_oracle
    monkeypatch.setattr(
        verify, "base_oracle", lambda f, w: replace_folded(real(f, w), (1 << w.width) - 1)
    )
    status = {c.name: c.status for c in report.dichotomy_checks(fam, window)}
    assert status == {"residue_obstruction": "fail", "missed_classes": "fail"}


def test_eq_t_escape_is_inconclusive_when_it_adds_an_unexplained_point(monkeypatch):
    # b = 2*2 + 1 may add only F points and its own shifted image 5; an
    # h(A u {b}) that also holds the shifted-Y value 17 = 2*8 + 1 is not
    # explained by the prediction
    fam, window, b = fam201(), Window(0, 400), 5
    assert verify.escape_check(fam, b, window).verdict == "stays_nonbasis"
    adjoin = sumset.adjoin

    def with_17(fa, b):
        got = adjoin(fa, b)
        return intset.DenseSet(got.window, got.bits | 1 << (17 - got.window.lo))

    monkeypatch.setattr(sumset, "adjoin", with_17)
    rep = verify.escape_check(fam, b, window)
    assert rep.residue_case == "eq_t"
    assert rep.verdict == "inconclusive"
    assert 17 in rep.added


@pytest.mark.parametrize("change", ["drop_a_member", "gain_a_shifted_y"])
def test_truncation_stability_is_unknown_unless_the_complement_is_the_shifted_ys(
    monkeypatch, change
):
    # an oracle whose window complement gains a point off the shifted-Y
    # set, or loses one of that set, leaves the check unknown
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    window = Window(-200, 200)
    oracle = verify.base_oracle(fam, window)
    assert report.stability_check(fam, window).status == "pass"
    hit = oracle.folded.dense.bits
    flip = hit & ~oracle.shifted.bits if change == "drop_a_member" else oracle.shifted.bits
    bits = hit ^ (flip & -flip)
    folded = with_dense(oracle.folded, intset.DenseSet(window, bits))
    f_window = intset.DenseSet(window, folded.dense.complement().bits & ~oracle.shifted.bits)
    changed = verify.BaseOracle(folded, oracle.shifted_ys, oracle.shifted, f_window)
    monkeypatch.setattr(verify, "base_oracle", lambda family, w: changed)
    got = report.stability_check(fam, window)
    off, held = (1, 0) if change == "drop_a_member" else (0, 1)
    assert (got.status, got.details) == (
        "unknown",
        f"{off} complement points off the shifted-Y set; {held} shifted-Y values in the oracle",
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from(FAMILY_GAPS),
    st.integers(50, 400),
    st.integers(50, 400),
    st.integers(2, 3),
)
def test_a_stable_truncation_matches_a_wider_independent_fold(h, s, t, gen, below, above, k):
    # the check's derivation, tested: whenever it passes, A materialized
    # from its spec on k times the oracle's source folds to the same window
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "z"), gen)
    window = Window(-below, above)
    assume(report.stability_check(fam, window).status == "pass")
    oracle = verify.base_oracle(fam, window).folded
    wide = Window(k * oracle.source.lo, k * oracle.source.hi)
    a = materialize(fam.spec, wide)
    fold = sumset.hfold_truncated(a, h, window, stride=intset.stride(fam.spec))
    assert fold.dense == oracle.dense


def test_disjoint_partition_fails_on_overlapping_parts(monkeypatch):
    real = verify.complement_catalog

    def overlapping(fam, window, budget):
        cat = real(fam, window, budget)
        exceptional = cat.exceptional + cat.shifted_y[:1]
        return verify.Catalog(cat.shifted_y, exceptional, cat.unknown, cat.unknown_members)

    monkeypatch.setattr(verify, "complement_catalog", overlapping)
    _, checks = report.catalog_checks(fam201(), Window(0, 400))
    status = {c.name: c.status for c in checks}
    assert status["disjoint_partition"] == "fail"


@pytest.mark.parametrize("domain", ["n0", "z"])
@pytest.mark.parametrize(
    "gen", ORACLE_GAPS + (gapset.CustomPrefixTail((0, 1, 2, 5, 13), GEOM2),), ids=repr
)
def test_decide_kx_is_in_from_the_pair_bound_on(domain, gen):
    # the fixed branch: In within x0 + 3 probes for every pair target at or
    # above pair_bound, so the escape predictions skip those values
    fam = build_gapped(Params(3, 0, 1, domain), gen)
    x0 = gapset.least_non_member(gen)
    bound = verify.pair_bound(gen)
    for k in range(2, 7):
        for p in range(bound, bound + 60):
            m = p + (k - 2) * x0
            got = verify.decide_kX(fam.x_spec(), k, m, x0 + 3)
            assert isinstance(got, tuple), (k, p)
            assert sum(got) == m and all(fam.x_contains(x) for x in got)


DECISION_BUDGETS = st.one_of(
    st.integers(0, 40), st.integers(0, verify.DEFAULT_BUDGET), st.just(verify.DEFAULT_BUDGET)
)


@st.composite
def decision_calls(draw):
    """X over N0 or Z minus any gap kind, a k in 2..6, and (m, budget) calls
    with targets around the pair bound, two budgets per target, shuffled."""
    gen = draw(GAP_GENERATORS)
    xspec = build_gapped(Params(2, 0, 1, draw(st.sampled_from(["n0", "z"]))), gen).x_spec()
    k = draw(st.integers(2, 6))
    top = verify.pair_bound(gen) + (k - 2) * gapset.least_non_member(gen)
    ms = draw(st.lists(st.integers(-3, top + 8), min_size=1, max_size=5))
    calls = [(m, draw(DECISION_BUDGETS)) for m in ms for _ in range(2)]
    return xspec, k, draw(st.permutations(calls))


@settings(max_examples=80, deadline=None)
@given(decision_calls())
# the same target with enough probes and with none: In, then Unknown
@example((fam201().x_spec(), 2, [(8, verify.DEFAULT_BUDGET), (8, 0)]))
# k = 3: finding x0 = 0 takes the one probe, and the pair search runs out
@example((fam301().x_spec(), 3, [(40, 40), (40, 1)]))
def test_memoized_decisions_equal_the_search(case):
    # the memo keys on the budget too: a decision made under one budget is
    # never returned under another, in either order
    xspec, k, calls = case
    search = verify.decide_kX.__wrapped__
    for order in (calls, calls[::-1]):
        verify.decide_kX.cache_clear()
        for m, budget in order:
            assert verify.decide_kX(xspec, k, m, budget) == search(xspec, k, m, budget), (m, budget)


def recording_decisions(monkeypatch):
    """decide_kX's memo, emptied, and the list of (xspec, k, m, budget) that
    each later call through verify.decide_kX asks it."""
    memo = verify.decide_kX
    memo.cache_clear()
    calls = []
    monkeypatch.setattr(verify, "decide_kX", lambda *args: calls.append(args) or memo(*args))
    return memo, calls


def test_a_catalog_sweep_over_one_y_searches_each_decision_once(monkeypatch):
    # the h = 5 geometric(2) catalogs of the benchmark's catalog workload:
    # X = N0 minus Y for all eight, so they share their k-fold decisions
    memo, calls = recording_decisions(monkeypatch)
    for s, t in [(0, 1), (1, 0), (2, 1), (0, 3), (4, 2), (3, 1), (1, 2), (0, 4)]:
        fam = build_gapped(Params(5, s, t, "n0"), GEOM2)
        checks = report.catalog_checks(fam, Window(0, 2500))[1]
        assert all(c.status == report.PASS for c in checks), checks
    info = memo.cache_info()
    assert info.misses == len(set(calls)) < len(calls) == info.misses + info.hits


def test_an_escape_sweep_over_h_searches_each_decision_once(monkeypatch):
    # X does not depend on h, s or t, so escape checks of every h share it
    memo, calls = recording_decisions(monkeypatch)
    for h in range(3, 7):
        for s, t in [(0, 1), (1, 0), (2, 1)]:
            fam = build_gapped(Params(h, s, t, "n0"), GEOM2)
            checks = report.escape_checks(fam, Window(0, 1000))
            assert all(c.status == report.PASS for c in checks), checks
    info = memo.cache_info()
    assert info.misses == len(set(calls)) < len(calls) == info.misses + info.hits


def test_not_st_escape_decides_only_inside_the_band(monkeypatch):
    # exactly the shifted-Y values from the threshold up whose pair target
    # m - (k-2)*x0 lies below 2*R(3) + 4 get a k-fold decision
    fam = build_gapped(Params(5, 0, 1, "n0"), gapset.Triangular())
    h, t = fam.h, fam.t
    window = Window(0, 3000)
    x0 = gapset.least_non_member(fam.y)
    bound = 2 * gapset.gap_radius(fam.y, 3) + 4
    calls = []
    real = verify.decide_kX
    monkeypatch.setattr(
        verify, "decide_kX",
        lambda xspec, k, m, budget=None: calls.append((k, m)) or real(xspec, k, m, budget),
    )
    for b in range(60):
        if b % h in (0, 1):
            continue
        calls.clear()
        rep = verify.escape_check(fam, b, window)
        assert (rep.residue_case, rep.verdict) == ("not_st", "becomes_basis")
        i = (fam.residue(t - b)[0] - 1) % h
        k = h - i - 1
        threshold = b + (h - 1) * t
        targets = [(n - b - k * t) // h for _, n in fam.shifted_ys(window) if n >= threshold]
        assert calls == [(k, m) for m in targets if m - (k - 2) * x0 < bound], b
        assert len(calls) < len(targets) / 4, b


@st.composite
def residue_route_cases(draw):
    """A gapped family with h in 2..8 and s, t in -7..7, and an n and a b in
    -80..80, over Z or N0 (nonnegative there)."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 8))
    s = draw(st.integers(0 if n0 else -7, 7))
    t = draw(st.integers(0 if n0 else -7, 7))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0" if n0 else "z"), draw(GAP_GENERATORS))
    n = draw(st.integers(0 if n0 else -80, 80))
    b = draw(st.integers(0 if n0 else -80, 80))
    return fam, n, b


@settings(max_examples=150, deadline=None)
@given(residue_route_cases())
@example((build_gapped(Params(8, 7, 0, "n0"), GEOM2), 62, 2))  # h = 8, both not_st
@example((build_gapped(Params(5, -7, 6, "z"), gapset.Triangular()), -80, -79))  # Z corner
def test_residue_route_matches_the_modular_formulas(case):
    # classify's branch, escape_check's case and its not_st decisions agree
    # with the congruences mod h and the inverse of s - t mod h
    fam, n, b = case
    h, s, t = fam.h, fam.s, fam.t
    n0 = fam.domain == "n0"
    inv = pow((s - t) % h, -1, h)
    calls = []
    decide, witness = verify.decide_kX, sumset.witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            verify, "decide_kX",
            lambda xspec, k, m, budget: calls.append((k, m)) or decide(xspec, k, m, budget),
        )
        mp.setattr(sumset, "witness", lambda res, v: calls.append("witness") or witness(res, v))
        verdict = verify.classify(fam, n)
        if (n - (t - s)) % h == 0:
            z1 = (n - (h - 1) * s - t) // h
            if n0 and z1 < 0:
                want = OutExceptional("F1")
            else:
                want = OutShiftedY(z1) if fam.y_contains(z1) else InSumset(h - 1, (z1,))
            assert (verdict, calls) == (want, [])
        elif n0 and n < (h - 2) * s + h * t:
            assert calls == ["witness"]
        else:
            i = n % h * inv % h
            q = (n - i * (s - t)) // h
            if i == 0 and n == h * s:
                assert (verdict, calls) == (InSumset(h, ()), [])
            else:
                assert calls == [(h - i, q - t)]
                assert not isinstance(verdict, InSumset) or verdict.s_count == i
        if fam.a_contains(b):
            return
        window = Window(0, 300) if n0 else Window(-150, 150)
        calls.clear()
        rep = verify.escape_check(fam, b, window)
    if (b - s) % h == 0:
        assert (rep.residue_case, calls) == ("eq_s", [])
    elif (b - t) % h == 0:
        assert (rep.residue_case, calls) == ("eq_t", [])
    else:
        # b + i copies of s + k summands h*x + t, one k-fold decision per
        # shifted-Y value from the threshold to the end of the band
        i = ((t - b) % h * inv % h - 1) % h
        k = h - i - 1
        threshold = b + (h - 3) * s + (h - 1) * t if n0 else window.lo
        x0 = gapset.least_non_member(fam.y)
        band_end = b + i * s + k * t + h * (verify.pair_bound(fam.y) + (k - 2) * x0)
        assert rep.residue_case == "not_st"
        assert calls == [
            (k, (v - b - i * s - k * t) // h)
            for _, v in fam.shifted_ys(window)
            if threshold <= v < band_end
        ]


@st.composite
def z_windows(draw, h_max):
    h = draw(st.integers(2, h_max))
    s = draw(st.integers(-6, 6))
    t = draw(st.integers(-6, 6))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "z"), draw(GAP_GENERATORS))
    lo = draw(st.integers(-400, 400))
    return fam, Window(lo, lo + draw(st.integers(0, 40)))


def witness_summands(fam, v):
    return [fam.s] * v.s_count + [fam.h * x + fam.t for x in v.xs]


@settings(max_examples=80, deadline=None)
@given(z_windows(h_max=8))
# a climb witness that needs the last term, h*(pair_bound + 1) + |t|
@example((build_gapped(Params(4, 0, -3, "z"), gapset.Factorial()), Window(0, 8)))
def test_z_witness_summands_stay_within_the_derived_bound(case):
    fam, window = case
    for n in range(window.lo, window.hi + 1):
        v = verify.classify(fam, n)
        if isinstance(v, InSumset):
            assert max(map(abs, witness_summands(fam, v))) <= verify.z_summand_bound(fam, n), (n, v)


@settings(max_examples=80, deadline=None)
@given(z_windows(h_max=8))
def test_z_oracle_pad_covers_the_witness_bound(case):
    # The pad reaches z_summand_bound at both window ends, and the bound
    # grows with |n|, so it covers every point of the window
    fam, window = case
    src = verify.oracle_source(fam, window)
    for n in range(window.lo, window.hi + 1):
        bound = verify.z_summand_bound(fam, n)
        assert src.contains(-bound) and src.contains(bound), (n, bound, src)
        v = verify.classify(fam, n)
        if isinstance(v, InSumset):
            assert all(src.contains(a) for a in witness_summands(fam, v)), (n, v)


def test_z_oracle_source_holds_a_witness_past_the_fixed_pad():
    # (h-2)*x0 > h + 1 here: the pad h*(|s| + |t| + h + 2) = 88 around
    # -200:200 ends at -288, and classify(-200) takes the summand
    # 8*(-37) + 1 = -295
    fam = build_gapped(Params(8, 0, 1, "z"), gapset.Triangular())
    window = Window(-200, 200)
    v = verify.classify(fam, -200)
    assert min(witness_summands(fam, v)) == -295
    assert verify.base_oracle(fam, window).folded.source.contains(-295)


def test_window_relative_f_fails_on_a_z_exceptional_entry(monkeypatch):
    # over Z no F0 verdict holds, so one in the catalog fails the check.
    # The catalog classifies class h-1 only where the oracle's complement
    # differs from the shifted-Y values, so the oracle is made to miss the
    # In point 7 = 2*3 + 1 (3 is not in Y), and classify calls it F0 there
    fam = build_gapped(Params(2, 0, 1, "z"), GEOM2)
    window = Window(-200, 200)
    bad = fam.shifted_y_value(3)
    assert not fam.y_contains(3) and fam.residue(bad)[0] == fam.h - 1
    corrupt_oracle(monkeypatch, window, bad)
    real = verify.classify
    monkeypatch.setattr(
        verify,
        "classify",
        lambda f, n, budget=None: OutExceptional("F0") if n == bad else real(f, n, budget),
    )
    catalog, checks = report.catalog_checks(fam, window)
    assert catalog.exceptional == (bad,)
    relative_f = next(c for c in checks if c.name == "window_relative_f")
    assert relative_f.status == "fail"
    assert str(bad) in relative_f.details


@pytest.fixture
def fresh_decisions():
    """decide_kX's memo, empty before the test and after it: a test that
    patches what decide_kX reads neither sees an earlier decision nor
    leaves one made under its patch."""
    verify.decide_kX.cache_clear()
    yield
    verify.decide_kX.cache_clear()


def test_bad_u_finite_catches_a_short_radius(monkeypatch, fresh_decisions):
    # geometric,2,1 has bad u 0..3 (2 and 4 in Y make 3 bad); a radius of
    # 0 scans only u <= 2
    monkeypatch.setattr(gapset, "gap_radius", lambda gen, c: 0)
    assert verify.lemma_basis_check(GEOM2, 2, Window(0, 200)).bad_u == (0, 1, 2)
    checks = report.lemma_checks(GEOM2, 2, Window(0, 200))
    assert (checks[0].name, checks[0].status) == ("bad_u_finite", "fail")


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_bad_u_scan_reaches_past_a_slightly_short_radius(monkeypatch, radius, fresh_decisions):
    # the scan runs to R(3) + 2, so radii 1..3 still find u = 3
    monkeypatch.setattr(gapset, "gap_radius", lambda gen, c: radius)
    assert verify.lemma_basis_check(GEOM2, 2, Window(0, 200)).bad_u == (0, 1, 2, 3)
    assert report.lemma_checks(GEOM2, 2, Window(0, 200))[0].status == "pass"


def test_bad_u_finite_passes_on_a_tiny_window():
    assert report.lemma_checks(GEOM2, 2, Window(0, 1))[0].status == "pass"


def test_catalog_budget_exhaustion_on_members_is_not_disagreement():
    fam = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular())
    cat = verify.complement_catalog(fam, Window(0, 2000), budget=3)
    assert 14 in cat.unknown_members
    assert cat.shifted_y[:4] == (1, 4, 10, 19)
    oracle = verify.base_oracle(fam, Window(0, 2000)).folded
    assert all(oracle.member(n) for n in cat.unknown_members)


def test_catalog_disagreement_raises_its_own_error(monkeypatch):
    monkeypatch.setattr(verify, "classify", lambda fam, n, budget=None: OutExceptional("F0"))
    with pytest.raises(OracleDisagreement):
        verify.complement_catalog(fam201(), Window(0, 40))
    catalog, checks = report.catalog_checks(fam201(), Window(0, 40))
    assert catalog == verify.Catalog((), (), ())
    assert [(c.name, c.status) for c in checks] == [("oracle_agreement", "fail")]


def per_point_catalog(fam, window, budget_probes):
    """The catalog with one classify per window point: the reference loop."""
    n0 = fam.domain == "n0"
    complement = set(verify.base_oracle(fam, window).folded.dense.complement().members())
    shifted, exceptional, unknown, unknown_members = [], [], [], []
    for n in range(window.lo, window.hi + 1):
        v = verify.classify(fam, n, budget_probes)
        if isinstance(v, InSumset):
            if n in complement:
                raise OracleDisagreement(
                    f"classify says {n} is a member but the "
                    f"{'exact' if n0 else 'truncated'} oracle disagrees"
                )
        elif n not in complement:
            if not isinstance(v, Unknown):
                raise OracleDisagreement(
                    f"oracle contains {n} but classify returned {type(v).__name__}"
                )
            unknown_members.append(n)
        elif isinstance(v, OutShiftedY):
            shifted.append(n)
        elif isinstance(v, OutExceptional):
            exceptional.append(n)
        else:
            unknown.append(n)
    return verify.Catalog(
        tuple(shifted), tuple(exceptional), tuple(unknown), tuple(unknown_members)
    )


def catalog_outcome(catalog_fn, fam, window, budget_probes):
    try:
        return catalog_fn(fam, window, budget_probes)
    except OracleDisagreement as exc:
        return str(exc)


def corrupt_oracle(mp, window, *points):
    """Make the base oracle of window wrong at points, each flipped in or out of hA."""
    real = verify.base_oracle

    def corrupted(fam, w):
        oracle = real(fam, w)
        if w != window:
            return oracle
        bits = oracle.folded.dense.bits
        for n in points:
            bits ^= 1 << (n - w.lo)
        folded = with_dense(oracle.folded, intset.DenseSet(w, bits))
        return verify.BaseOracle(folded, oracle.shifted_ys, oracle.shifted, oracle.f_window)

    mp.setattr(verify, "base_oracle", corrupted)


@st.composite
def catalog_cases(draw):
    """A random gapped family, a window reaching past its search band, and
    maybe one window point where the oracle is made wrong."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 5))
    s = draw(st.integers(0 if n0 else -6, 6))
    t = draw(st.integers(0 if n0 else -6, 6))
    assume(math.gcd(h, abs(s - t)) == 1)
    fam = build_gapped(Params(h, s, t, "n0" if n0 else "z"), draw(GAP_GENERATORS))
    lo = draw(st.integers(0, 300) if n0 else st.integers(-400, 300))
    window = Window(lo, lo + draw(st.integers(0, 500)))
    flip = draw(st.none() | st.integers(window.lo, window.hi))
    # classify reads N0 points below (h-2)s + ht off the oracle of that
    # prefix, which a flip must leave exact
    assume(flip is None or not n0 or (window.lo, window.hi) != (0, (h - 2) * s + h * t - 1))
    return fam, window, () if flip is None else (flip,)


@settings(max_examples=60, deadline=None)
@given(catalog_cases())
# an extra Z complement point: a member the truncated oracle lacks disagrees
@example((build_gapped(Params(2, -41, 10, "z"), GEOM2), Window(-100, 200), (150,)))
def test_catalog_matches_the_per_point_loop(case):
    # Below the fixed branch's x0 + 3 probes, at its edge and above it
    fam, window, flips = case
    x0 = gapset.least_non_member(fam.y)
    with pytest.MonkeyPatch.context() as mp:
        corrupt_oracle(mp, window, *flips)
        for budget in (0, 4, x0 + 2, x0 + 3, verify.DEFAULT_BUDGET):
            got = catalog_outcome(verify.complement_catalog, fam, window, budget)
            assert got == catalog_outcome(per_point_catalog, fam, window, budget), budget


def test_search_band_examples():
    # fam201: x0 = 0 and R(3) = 4, so pair_bound = 12.  Class 0 (n = 2q)
    # starts at the first point from (h-2)s + ht = 2 on and ends at q - t = 11
    assert verify.search_band(fam201()) == ((2, 24),)
    # Over Z, h = 2: n = 2(t + m) with m in [-1, 2*R(3) + 3]
    assert verify.search_band(build_gapped(Params(2, 0, 1, "z"), GEOM2)) == ((0, 24),)
    assert verify.search_band(build_gapped(Params(2, -41, 10, "z"), GEOM2)) == ((18, 42),)
    # Triangular Y: x0 = 2, R(3) = 6, pair_bound = 16.  With h = 3, s = 1001,
    # t = 1, class 0 (n = 3q) runs from its front q - t = 3*x0 to the pair
    # target 15 past one x0, q - t = 17; class 1 (n = 1000 + 3q) from 1006,
    # the first class point from (h-2)s + ht = 1004 on, below its front, to
    # q - t = 15.  Class 2 (F1 below (h-1)s + t = 2003) has no interval.
    n0 = build_gapped(Params(3, 1001, 1, "n0"), gapset.Triangular())
    assert verify.class_fronts(n0) == (21, 1015, 2003)
    assert verify.search_band(n0) == ((21, 54), (1006, 1048))
    z = build_gapped(Params(3, 1001, 1, "z"), gapset.Triangular())
    assert verify.search_band(z) == ((6, 54), (1000, 1048))


def counting_classify(monkeypatch) -> list[int]:
    """The points classify is called on from now on."""
    calls = []
    classify = verify.classify

    def counting(fam, n, budget=None):
        calls.append(n)
        return classify(fam, n, budget)

    monkeypatch.setattr(verify, "classify", counting)
    return calls


def band_points(fam, window) -> list[int]:
    return sorted(
        n
        for lo, hi in verify.search_band(fam)
        for n in range(lo, hi + 1, fam.h)
        if window.contains(n)
    )


def test_catalog_classifies_only_the_band_and_the_disagreements(monkeypatch):
    # A correct oracle differs from the predicted complement only inside
    # the band, so the band is all the catalog classifies; a point made
    # wrong outside it is classified too, and disagrees
    calls = counting_classify(monkeypatch)
    for fam, window, flip in (
        (build_gapped(Params(5, 0, 1, "n0"), GEOM2), Window(0, 10**5), 5000),
        (build_gapped(Params(2, 0, 1, "z"), GEOM2), Window(-(10**4), 10**4), -5000),
    ):
        with pytest.MonkeyPatch.context() as mp:
            calls.clear()
            verify.complement_catalog(fam, window)
            assert sorted(calls) == band_points(fam, window)
            assert flip not in calls

            calls.clear()
            corrupt_oracle(mp, window, flip)
            with pytest.raises(OracleDisagreement):
                verify.complement_catalog(fam, window)
            assert sorted(calls) == sorted(band_points(fam, window) + [flip])


@pytest.mark.parametrize(
    "params,gen,window",
    [
        (Params(5, 0, 1, "n0"), GEOM2, Window(0, 20000)),
        (Params(5, 0, 1, "n0"), gapset.Triangular(), Window(0, 20000)),
        (Params(6, 20000, 1, "n0"), GEOM2, Window(0, 90000)),
        (Params(3, 100000, 0, "n0"), gapset.Triangular(), Window(0, 250000)),
        (Params(2, 0, 1, "z"), GEOM2, Window(-(10**4), 10**4)),
        (Params(5, 100000, 1, "z"), gapset.Triangular(), Window(-3000, 3000)),
        (Params(3, -100000, 1, "z"), GEOM2, Window(-3000, 3000)),
    ],
)
def test_catalog_classify_calls_stay_within_h_pair_bounds(monkeypatch, params, gen, window):
    # At most h*(pair_bound + 2) points need a search, whatever s is, plus
    # one per point where the oracle is made wrong
    fam = build_gapped(params, gen)
    cap = fam.h * (verify.pair_bound(gen) + 2)
    calls = counting_classify(monkeypatch)
    cat = verify.complement_catalog(fam, window)
    assert len(calls) <= cap
    assert not cat.unknown

    calls.clear()
    flips = (window.lo + window.width // 3, window.hi - 1)
    corrupt_oracle(monkeypatch, window, *flips)
    with pytest.raises(OracleDisagreement):
        verify.complement_catalog(fam, window)
    assert len(calls) <= cap + len(flips)


def test_a_moved_class_front_is_classified(monkeypatch):
    # Class 0 of this family is F0 below its front 21 and has the band
    # [21, 54].  Moving the front down by h in the predicted bits leaves 18
    # out of the prediction while the oracle's complement holds it, so the
    # catalog classifies 18: a classify that follows the moved front and
    # calls 18 In disagrees with the oracle, and the real one leaves the
    # catalog as it was.
    fam = build_gapped(Params(3, 1001, 1, "n0"), gapset.Triangular())
    window = Window(0, 3000)
    moved = verify.class_fronts(fam)[0] - fam.h
    assert moved < verify.search_band(fam)[0][0]
    before = verify.complement_catalog(fam, window)
    assert moved in before.exceptional
    predicted = verify.predicted_exceptional
    monkeypatch.setattr(
        verify,
        "predicted_exceptional",
        lambda f, w: predicted(f, w) & ~(1 << (moved - w.lo)),
    )
    calls = counting_classify(monkeypatch)
    assert verify.complement_catalog(fam, window) == before
    assert moved in calls

    classify = verify.classify
    monkeypatch.setattr(
        verify,
        "classify",
        lambda f, n, budget=None: InSumset(0, ()) if n == moved else classify(f, n, budget),
    )
    with pytest.raises(OracleDisagreement) as exc:
        verify.complement_catalog(fam, window)
    assert str(exc.value) == "classify says 18 is a member but the exact oracle disagrees"


# fam201 on 0:400 has the search band [2, 24] and the shifted-Y values
# 3, 5, 9, ..., 257; the Z family 2y - 31 has the band [18, 42] and the
# shifted-Y values -29, -27, -23, -15, 1, 33, 97.
@pytest.mark.parametrize(
    "fam,window,flips,message",
    [
        (fam201(), Window(0, 400), (100,),
         "classify says 100 is a member but the exact oracle disagrees"),
        (fam201(), Window(0, 400), (129,),
         "oracle contains 129 but classify returned OutShiftedY"),
        (fam201(), Window(0, 400), (129, 20),
         "classify says 20 is a member but the exact oracle disagrees"),
        (build_gapped(Params(2, -41, 10, "z"), GEOM2), Window(-100, 200), (97,),
         "oracle contains 97 but classify returned OutShiftedY"),
        (build_gapped(Params(2, -41, 10, "z"), GEOM2), Window(-100, 200), (97, 33),
         "oracle contains 33 but classify returned OutShiftedY"),
        (build_gapped(Params(2, -41, 10, "z"), GEOM2), Window(-100, 200), (33, -15),
         "oracle contains -15 but classify returned OutShiftedY"),
        # an In point of the band taken out of the truncated Z oracle
        (build_gapped(Params(2, -41, 10, "z"), GEOM2), Window(-100, 200), (20,),
         "classify says 20 is a member but the truncated oracle disagrees"),
    ],
)
def test_catalog_names_the_first_bulk_disagreement(monkeypatch, fam, window, flips, message):
    corrupt_oracle(monkeypatch, window, *flips)
    with pytest.raises(OracleDisagreement) as exc:
        verify.complement_catalog(fam, window)
    assert str(exc.value) == message


def test_shifted_y_match_rederives_the_values_from_y(monkeypatch):
    # The oracle is made wrong at 100, above fam201's search band [2, 24],
    # in its complement and in its shifted-Y image alike.  The catalog reads
    # that part of the window off those bits, so only Y itself can tell.
    window = Window(0, 400)
    real = verify.base_oracle

    def extra_shifted_point(fam, w):
        oracle = real(fam, w)
        bit = 1 << (100 - w.lo)
        dense = intset.DenseSet(w, oracle.folded.dense.bits & ~bit)
        shifted = intset.DenseSet(w, oracle.shifted.bits | bit)
        folded = with_dense(oracle.folded, dense)
        return verify.BaseOracle(folded, oracle.shifted_ys, shifted, oracle.f_window)

    monkeypatch.setattr(verify, "base_oracle", extra_shifted_point)
    catalog, checks = report.catalog_checks(fam201(), window)
    assert 100 in catalog.shifted_y
    status = {c.name: c.status for c in checks}
    assert status["oracle_agreement"] == "pass"
    assert status["shifted_y_match"] == "fail"


def test_catalog_checks_lets_internal_errors_through(monkeypatch):
    def broken(fam, n, budget=None):
        raise AssertionError("internal")

    monkeypatch.setattr(verify, "classify", broken)
    with pytest.raises(AssertionError):
        report.catalog_checks(fam201(), Window(0, 40))


def test_augment_window_without_dropped_values():
    rep = verify.augment_check(fam201(), YPrimeFilter("even_indices"), Window(0, 2))
    assert rep.dropped_in_window == 0
    checks = report.augment_checks(fam201(), Window(0, 2))
    even = checks[0]
    assert (even.name, even.status) == ("augment_even_indices", "unknown")
    assert "no dropped shifted-Y value" in even.details
