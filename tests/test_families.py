import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nonbasis import gapset, sumset
from nonbasis.errors import DomainConstraint, GcdViolation
from nonbasis.families import (
    Family,
    Params,
    build_full,
    build_gapped,
    gcd_case,
)
from nonbasis.grammar import format_spec
from nonbasis.intset import GapTail, ShiftScale, Window, materialize

from test_intset import member

GEOM2 = gapset.Geometric(2, 1)


@pytest.mark.parametrize(
    "h,s,t,d,tag",
    [
        (2, 1, 3, 2, "nonbasis"),
        (3, 0, 1, 1, "basis"),
        (6, 2, 10, 2, "nonbasis"),
        (4, 3, 3, 4, "nonbasis"),  # gcd(h, 0) = h
        (5, 9, 2, 1, "basis"),
    ],
)
def test_gcd_case(h, s, t, d, tag):
    assert gcd_case(h, s, t) == d
    assert (d >= 2) == (tag == "nonbasis")


def test_build_full_z():
    fam = build_full(Params(2, 1, 3, "z"))
    # the singleton 1 is absorbed into the odd class
    assert materialize(fam.spec, Window(-5, 5)).members() == [-5, -3, -1, 1, 3, 5]


def test_build_full_n0():
    fam = build_full(Params(3, 0, 1, "n0"))
    assert materialize(fam.spec, Window(0, 10)).members() == [0, 1, 4, 7, 10]
    fam2 = build_full(Params(2, 0, 1, "n0"))
    assert materialize(fam2.spec, Window(0, 7)).members() == [0, 1, 3, 5, 7]


def test_build_gapped_examples():
    fam = build_gapped(Params(2, 0, 1, "n0"), GEOM2)
    assert materialize(fam.spec, Window(0, 12)).members() == [0, 1, 7, 11]
    fam3 = build_gapped(Params(3, 0, 1, "n0"), GEOM2)
    assert materialize(fam3.spec, Window(0, 16)).members() == [0, 1, 10, 16]


def test_gcd_violation():
    with pytest.raises(GcdViolation):
        build_gapped(Params(2, 1, 3, "n0"), GEOM2)


def test_domain_constraints():
    with pytest.raises(DomainConstraint):
        Params(2, -1, 1, "n0")
    with pytest.raises(DomainConstraint):
        Params(1, 0, 1, "z")
    with pytest.raises(DomainConstraint):
        Params(2, 0, 1, "q")
    Params(2, -5, -3, "z")  # negatives fine over Z


def test_membership_helpers():
    fam = build_gapped(Params(2, 0, 1, "n0"), GEOM2)
    assert fam.x_contains(3) and not fam.x_contains(4) and not fam.x_contains(-1)
    assert fam.y_contains(4) and not fam.y_contains(3)
    assert fam.a_contains(7) and not fam.a_contains(9)
    assert fam.shifted_y_value(2) == 5
    assert fam.is_gapped
    assert not build_full(Params(2, 0, 1, "n0")).is_gapped


PARAM_GRID = [
    (h, s, t, dom)
    for h in (2, 3, 4, 5)
    for s, t in ((0, 1), (2, 1), (3, 7), (1, 0))
    for dom in ("z", "n0")
]


@pytest.mark.parametrize("h,s,t,dom", PARAM_GRID)
def test_sumset_residues_confined(h, s, t, dom):
    """Every oracle sumset member is i(s-t) + ht mod h for some i."""
    params = Params(h, s, t, dom)
    fam = build_full(params)
    if dom == "n0":
        a = materialize(fam.spec, Window(0, 300))
        r = sumset.hfold_exact_bounded_below(a, h, target=Window(0, 300), stride=h)
    else:
        a = materialize(fam.spec, Window(-300, 300))
        r = sumset.hfold_truncated(a, h, Window(-150, 150), stride=h)
    allowed = {(i * (s - t) + h * t) % h for i in range(h)}
    assert all(n % h in allowed for n in r.members())
    d = gcd_case(h, s, t)
    if d >= 2:
        assert all((n - h * t) % d == 0 for n in r.members())


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 5),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from([GEOM2, gapset.Triangular(), gapset.Factorial()]),
)
def test_gapped_is_full_minus_shifted_y(h, s, t, gen):
    """On any window the gapped family is the full family minus {h*y + t}."""
    if gcd_case(h, s, t) != 1:
        return
    params = Params(h, s, t, "n0")
    gapped = build_gapped(params, gen)
    full = build_full(params)
    w = Window(0, 160)
    got = materialize(gapped.spec, w)
    whole = materialize(full.spec, w)
    removed = {
        h * y + t
        for y in gapset.elements_in(gen, Window(0, 160))
        if w.contains(h * y + t) and h * y + t != s
    }
    assert set(got.members()) == set(whole.members()) - removed


def test_gapped_union_disjoint():
    # gcd(h, s - t) = 1 forces s out of the progression part
    fam = build_gapped(Params(3, 2, 1, "n0"), GEOM2)
    h, s, t = fam.h, fam.s, fam.t
    assert (s - t) % h != 0


FAMILY_GAPS = [
    GEOM2,
    gapset.Triangular(),
    gapset.Factorial(),
    gapset.CustomPrefixTail((0, 2, 3), gapset.Geometric(3, 1)),
]


@st.composite
def any_families(draw, gapped_only=False):
    """A full or gapped family over Z or N0 with h in 2..5."""
    n0 = draw(st.booleans())
    h = draw(st.integers(2, 5))
    s = draw(st.integers(0 if n0 else -9, 9))
    t = draw(st.integers(0 if n0 else -9, 9))
    params = Params(h, s, t, "n0" if n0 else "z")
    gen = draw(st.sampled_from(FAMILY_GAPS if gapped_only else [None] + FAMILY_GAPS))
    if gen is None:
        return build_full(params)
    assume(math.gcd(h, abs(s - t)) == 1)
    return build_gapped(params, gen)


@settings(max_examples=150, deadline=None)
@given(any_families(), st.integers(-40, 0), st.integers(0, 80))
def test_a_contains_matches_the_spec(fam, below, above):
    # the window reaches below 0 and past both s and t
    for n in range(min(fam.s, fam.t) + below - 1, max(fam.s, fam.t) + above + 1):
        assert fam.a_contains(n) == member(fam.spec, n), n


@settings(max_examples=150, deadline=None)
@given(any_families(gapped_only=True), st.integers(-60, 120), st.integers(0, 300))
def test_shifted_ys_match_the_materialized_image(fam, lo, width):
    # lo may sit below the first shifted value (h-1)s + h*y0 + t, and below 0
    if fam.domain == "n0":
        lo = abs(lo)
    window = Window(lo, lo + width)
    off = (fam.h - 1) * fam.s + fam.t
    image = materialize(ShiftScale(GapTail(fam.y), off, fam.h), window).members()
    assert fam.shifted_ys(window) == [((n - off) // fam.h, n) for n in image]
    assert all(fam.y_contains(y) for y, _ in fam.shifted_ys(window))


def test_full_families_have_no_shifted_ys():
    assert build_full(Params(3, 0, 1, "z")).shifted_ys(Window(-50, 50)) == []


def test_family_hash_is_computed_once(monkeypatch):
    from nonbasis import verify

    a = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular())
    b = build_gapped(Params(3, 0, 1, "n0"), gapset.Triangular())
    assert a is not b and a == b and hash(a) == hash(b)
    verify.base_oracle.cache_clear()
    window = Window(0, 200)
    assert verify.base_oracle(a, window) is verify.base_oracle(b, window)
    info = verify.base_oracle.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # later hashes read the cached value: neither the fields, y among them,
    # nor the spec is walked
    walked = []
    for cls in (Params, ShiftScale, type(a.y)):
        real = cls.__hash__
        monkeypatch.setattr(cls, "__hash__", lambda self, real=real: walked.append(1) or real(self))
    assert hash(a) == hash(a) == hash(b)
    assert walked == []


def test_a_family_is_built_from_its_fields():
    with pytest.raises(GcdViolation, match=r"gcd\(3, 0-0\) = 3; gapped families need 1"):
        Family(3, 0, 0, "n0", gapset.Triangular())
    with pytest.raises(DomainConstraint):
        Family(3, -1, 0, "n0", None)
    assert Family(3, 0, 0, "n0", None).spec == build_full(Params(3, 0, 0, "n0")).spec
    assert Family(h=3, s=2, t=1, domain="n0", y=GEOM2) == Family(3, 2, 1, "n0", GEOM2)
    for params, y in ((Params(4, 1, 0, "z"), None), (Params(3, 2, 1, "n0"), GEOM2)):
        built = build_full(params) if y is None else build_gapped(params, y)
        direct = Family(params.h, params.s, params.t, params.domain, y)
        assert built == direct and hash(built) == hash(direct)
    assert Family(3, 2, 1, "n0", None) != Family(3, 2, 1, "n0", GEOM2)
    assert Family(3, 2, 1, "n0", None) != Family(3, 2, 1, "z", None)


@pytest.mark.parametrize(
    "fam,spec,xspec",
    [
        (build_full(Params(3, 2, 1, "z")), "union(single:2,class(3,1))", "ints"),
        (build_full(Params(3, 2, 1, "n0")), "union(single:2,classnn(3,1))", "nonneg"),
        (
            build_gapped(Params(3, 2, 1, "z"), gapset.Triangular()),
            "union(single:2,affine(3,1,diff(ints,gap(triangular))))",
            "diff(ints,gap(triangular))",
        ),
        (
            build_gapped(Params(3, 2, 1, "n0"), GEOM2),
            "union(single:2,affine(3,1,diff(nonneg,gap(geometric,2,1))))",
            "diff(nonneg,gap(geometric,2,1))",
        ),
    ],
)
def test_derived_specs_print_as_before(fam, spec, xspec):
    assert (format_spec(fam.spec), format_spec(fam.x_spec())) == (spec, xspec)
