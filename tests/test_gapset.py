import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonbasis import gapset
from nonbasis.errors import MalformedSpec, UncertifiableTail
from nonbasis.intset import Window

GENS = [
    gapset.Geometric(2, 1),
    gapset.Geometric(3, 1),
    gapset.Geometric(2, 3),
    gapset.Triangular(),
    gapset.Factorial(),
    gapset.CustomPrefixTail((0, 1, 2, 10), gapset.Geometric(2, 1)),
    gapset.CustomPrefixTail((4, 7), gapset.Triangular()),
]


def close_pairs(gen, c, hi):
    """The gap_radius reference: all pairs y < y' <= hi in Y with y' - y <= c, sorted."""
    elems = gapset.elements_in(gen, Window(0, hi))
    return [(y, yp) for i, y in enumerate(elems) for yp in elems[i + 1 :] if yp - y <= c]


def test_elements_geometric():
    assert gapset.elements_in(gapset.Geometric(2, 1), Window(0, 20)) == [1, 2, 4, 8, 16]


def test_elements_factorial():
    assert gapset.elements_in(gapset.Factorial(), Window(0, 30)) == [1, 2, 6, 24]


def test_elements_triangular():
    # partial sums of 1, 2, 3, 4 starting from 0
    assert gapset.elements_in(gapset.Triangular(), Window(0, 12)) == [0, 1, 3, 6, 10]


@pytest.mark.parametrize(
    "gen,n,expected",
    [
        (gapset.Geometric(2, 1), 8, True),
        (gapset.Geometric(2, 1), 6, False),
        (gapset.Factorial(), 24, True),
        (gapset.Factorial(), 25, False),
        (gapset.Triangular(), 10, True),
        (gapset.Triangular(), 11, False),
        (gapset.Geometric(2, 3), 12, True),
        (gapset.Geometric(2, 3), 8, False),
    ],
)
def test_membership(gen, n, expected):
    assert gapset.is_member(gen, n) is expected


def test_close_pairs_geometric():
    g = gapset.Geometric(2, 1)
    assert close_pairs(g, 3, 100) == [(1, 2), (1, 4), (2, 4)]
    assert close_pairs(g, 1, 100) == [(1, 2)]


def test_close_pairs_factorial():
    assert close_pairs(gapset.Factorial(), 3, 1000) == [(1, 2)]


def test_gap_radius_examples():
    g = gapset.Geometric(2, 1)
    assert gapset.gap_radius(g, 3) == 4
    assert gapset.gap_radius(g, 1) == 2
    assert gapset.gap_radius(gapset.Factorial(), 3) == 2


@pytest.mark.parametrize("gen", GENS)
def test_sequence_increasing_nonnegative(gen):
    it = gapset.values(gen)
    vals = [next(it) for _ in range(20)]
    assert vals[0] >= 0
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("gen", GENS)
@pytest.mark.parametrize("c", [1, 2, 3, 5, 9])
def test_close_pairs_confined_to_radius(gen, c):
    r = gapset.gap_radius(gen, c)
    hi = max(1000, 4 * r + 100)
    pairs = close_pairs(gen, c, hi)
    assert all(yp <= r for _, yp in pairs)
    assert all(0 < yp - y <= c for y, yp in pairs)


@pytest.mark.parametrize("gen", GENS)
def test_radius_monotone_in_c(gen):
    radii = [gapset.gap_radius(gen, c) for c in range(1, 14)]
    assert radii == sorted(radii)


@pytest.mark.parametrize("gen", GENS)
def test_elements_agree_with_membership(gen):
    w = Window(0, 300)
    assert gapset.elements_in(gen, w) == [
        n for n in range(301) if gapset.is_member(gen, n)
    ]


@settings(max_examples=200)
@given(st.integers(min_value=-5, max_value=3000), st.sampled_from(GENS))
def test_membership_matches_enumeration(n, gen):
    elems = set(gapset.elements_in(gen, Window(0, 3000)))
    assert gapset.is_member(gen, n) == (n in elems)


@pytest.mark.parametrize("gen", GENS)
def test_least_non_member(gen):
    x0 = gapset.least_non_member(gen)
    assert not gapset.is_member(gen, x0)
    assert all(gapset.is_member(gen, n) for n in range(x0))


def test_indexed_elements():
    got = list(enumerate(gapset.elements_in(gapset.Geometric(2, 1), Window(0, 20))))
    assert got == [(0, 1), (1, 2), (2, 4), (3, 8), (4, 16)]


@st.composite
def generators(draw):
    """A closed-form generator, or one behind a custom prefix."""
    closed = draw(
        st.one_of(
            st.builds(gapset.Geometric, st.integers(2, 4), st.integers(1, 5)),
            st.just(gapset.Triangular()),
            st.just(gapset.Factorial()),
        )
    )
    if not draw(st.booleans()):
        return closed
    prefix = draw(st.lists(st.integers(0, 60), min_size=1, max_size=5, unique=True))
    return gapset.CustomPrefixTail(tuple(sorted(prefix)), closed)


def fresh_walk(gen, lo, hi):
    """The elements of gen in [lo, hi], from a new walk."""
    return [v for v in itertools.takewhile(lambda v: v <= hi, gapset.values(gen)) if v >= lo]


WINDOWS = st.builds(lambda hi, width: Window(hi - width, hi), st.integers(-30, 400), st.integers(0, 200))


@settings(max_examples=200, deadline=None)
@given(generators(), st.lists(WINDOWS, min_size=1, max_size=8))
@example(
    gapset.CustomPrefixTail((4, 7), gapset.Triangular()),
    # grows to 91, an element; shrinks; ends below the first element; below 0
    [Window(0, 10), Window(5, 91), Window(7, 30), Window(0, 3), Window(-9, -1)],
)
def test_elements_in_grows_one_walk_past_the_largest_hi(gen, windows):
    # every window reads the same walk of gen, which stops at the first
    # element past the largest hi asked for (a custom prefix's walk calls
    # values again for its tail, which is not counted)
    expected = [fresh_walk(gen, w.lo, w.hi) for w in windows]
    top = max(w.hi for w in windows)
    walked = fresh_walk(gen, 0, top) + [next(v for v in gapset.values(gen) if v > top)]
    drawn = []
    values = gapset.values

    def counting(g):
        for v in values(g):
            if g is gen:
                drawn.append(v)
            yield v

    gapset._walk.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gapset, "values", counting)
        got = [gapset.elements_in(gen, w) for w in windows]
    gapset._walk.cache_clear()
    assert got == expected
    assert drawn == walked


def test_custom_prefix_merges_with_tail():
    gen = gapset.CustomPrefixTail((0, 1, 2, 10), gapset.Geometric(2, 1))
    # tail values 1, 2, 4, 8 at or below 10 are dropped
    assert gapset.elements_in(gen, Window(0, 40)) == [0, 1, 2, 10, 16, 32]


def test_custom_prefix_validation():
    with pytest.raises(MalformedSpec):
        gapset.CustomPrefixTail((3, 3), gapset.Geometric(2, 1))
    with pytest.raises(MalformedSpec):
        gapset.CustomPrefixTail((), gapset.Geometric(2, 1))
    with pytest.raises(MalformedSpec):
        gapset.CustomPrefixTail((-1, 4), gapset.Geometric(2, 1))


def test_nested_custom_tail_rejected():
    inner = gapset.CustomPrefixTail((0, 5), gapset.Geometric(2, 1))
    with pytest.raises(UncertifiableTail):
        gapset.CustomPrefixTail((0, 1), inner)


def test_geometric_validation():
    with pytest.raises(MalformedSpec):
        gapset.Geometric(1, 1)
    with pytest.raises(MalformedSpec):
        gapset.Geometric(2, 0)


def test_bad_c_rejected():
    with pytest.raises(MalformedSpec):
        gapset.gap_radius(gapset.Geometric(2, 1), 0)
