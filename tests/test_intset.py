from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonbasis import gapset, grammar, intset, sumset
from nonbasis.errors import MalformedSpec, WindowTooLarge
from nonbasis.families import Params, build_gapped
from nonbasis.intset import (
    DenseSet,
    Diff,
    Empty,
    GapTail,
    ModClass,
    ModClassNonneg,
    ShiftScale,
    Singleton,
    Window,
    dense_from_iter,
    materialize,
    union_of,
)

GEOM2 = gapset.Geometric(2, 1)


def member(spec, n):
    """Exact membership of n in the described set, node by node: the pointwise
    reference that materialize and Family.a_contains are compared against."""
    if isinstance(spec, Empty):
        return False
    if isinstance(spec, Singleton):
        return n == spec.a
    if isinstance(spec, ModClass):
        return (n - spec.r) % spec.m == 0
    if isinstance(spec, ModClassNonneg):
        return n >= spec.r and (n - spec.r) % spec.m == 0
    if isinstance(spec, GapTail):
        return gapset.is_member(spec.gen, n)
    if isinstance(spec, intset.Union):
        return any(member(p, n) for p in spec.parts)
    if isinstance(spec, Diff):
        return member(spec.keep, n) and not member(spec.drop, n)
    if isinstance(spec, ShiftScale):
        q, rem = divmod(n - spec.c, spec.d)
        return rem == 0 and member(spec.inner, q)
    raise MalformedSpec(f"unknown spec node {spec!r}")


def a_x0_spec():
    return build_gapped(Params(2, 0, 1, "n0"), GEOM2).spec


def test_materialize_odd_class():
    assert materialize(ModClass(2, 1), Window(0, 6)).members() == [1, 3, 5]


def test_materialize_gapped_family():
    # X0 meets [0, 5] in {0, 3, 5}; map x to 2x + 1 and adjoin the singleton 0
    assert materialize(a_x0_spec(), Window(0, 12)).members() == [0, 1, 7, 11]


def test_materialize_empty():
    assert materialize(Empty(), Window(-3, 9)).members() == []


@pytest.mark.parametrize(
    "spec,n,expected",
    [
        (ModClass(3, 1), 7, True),
        (GapTail(GEOM2), 6, False),
        (GapTail(GEOM2), 8, True),
    ],
)
def test_member_examples(spec, n, expected):
    assert member(spec, n) is expected


def test_member_gapped_family():
    # 9 = 2*4 + 1 and 4 is a power of two, so 9 is excluded
    assert member(a_x0_spec(), 9) is False
    assert member(a_x0_spec(), 7) is True


def test_enumerate_and_complement():
    d = materialize(ModClass(2, 1), Window(0, 6))
    assert d.members() == [1, 3, 5]
    assert d.complement().members() == [0, 2, 4, 6]
    assert dense_from_iter([], Window(0, 3)).members() == []
    full = dense_from_iter(range(0, 7), Window(0, 6))
    assert full.complement().members() == []


def test_modclass_normalization():
    assert ModClass(4, 7) == ModClass(4, 3)
    w = Window(-9, 9)
    assert materialize(ModClass(4, 7), w).bits == materialize(ModClass(4, 3), w).bits


def test_modclass_nonneg_keeps_start():
    # {2z + 3 : z >= 0} starts at 3, not at 1
    assert materialize(ModClassNonneg(2, 3), Window(0, 9)).members() == [3, 5, 7, 9]
    assert not member(ModClassNonneg(2, 3), 1)


def test_union_flattening():
    u = union_of(Singleton(1), union_of(Singleton(2), Singleton(3)), Empty())
    assert isinstance(u, intset.Union)
    assert len(u.parts) == 3
    assert union_of() == Empty()
    assert union_of(Singleton(5)) == Singleton(5)


def test_negative_windows():
    d = materialize(ModClass(3, 1), Window(-10, -1))
    assert d.members() == [-8, -5, -2]
    assert materialize(ModClassNonneg(3, 1), Window(-10, -1)).members() == []


def test_shiftscale_negative_dilation():
    # -2 * {0, 1, 2, ...} + 3 descends: 3, 1, -1, -3, ...
    spec = ShiftScale(ModClassNonneg(1, 0), 3, -2)
    assert materialize(spec, Window(-6, 6)).members() == [-5, -3, -1, 1, 3]
    assert member(spec, 3) and member(spec, -5) and not member(spec, 5)


@pytest.mark.parametrize(
    "spec,stride",
    [
        (Empty(), 1),
        (Singleton(5), 1),
        (ModClass(6, 1), 6),
        (ModClassNonneg(4, 9), 4),
        (GapTail(GEOM2), 1),
        (ShiftScale(ModClass(3, 0), 2, -5), 15),  # |d| times the inner stride
        (ShiftScale(GapTail(GEOM2), 1, 4), 4),
        (Diff(ModClassNonneg(6, 0), ModClass(4, 0)), 6),  # the kept part's
        (intset.Union((ModClass(6, 0), ModClassNonneg(4, 1))), 2),  # the gcd of the parts'
        (intset.Union((Singleton(0), Empty(), ModClassNonneg(9, 3))), 9),  # points skipped
        (intset.Union((Singleton(0), Singleton(5))), 1),  # nothing left
        (a_x0_spec(), 2),  # a family's A: h
        (Diff(ModClassNonneg(1, 0), GapTail(GEOM2)), 1),  # the lemma's X
    ],
)
def test_stride_of_each_spec_node(spec, stride):
    assert intset.stride(spec) == stride


def test_window_validation():
    with pytest.raises(MalformedSpec):
        Window(3, 2)
    with pytest.raises(WindowTooLarge):
        Window(0, intset.WINDOW_CAP + 5)
    with pytest.raises(MalformedSpec):
        ModClass(0, 1)
    with pytest.raises(MalformedSpec):
        ShiftScale(Singleton(1), 0, 0)
    with pytest.raises(MalformedSpec):
        ModClassNonneg(2, -1)


def test_restrict():
    d = materialize(ModClass(2, 1), Window(0, 20))
    r = d.restrict(Window(5, 11))
    assert r.members() == [5, 7, 9, 11]
    assert d.restrict(Window(-1, 5)).members() == [1, 3, 5]
    assert d.restrict(Window(21, 30)).members() == []


_LEAVES = st.one_of(
    st.builds(Empty),
    st.builds(Singleton, st.integers(-25, 25)),
    st.builds(ModClass, st.integers(1, 7), st.integers(-10, 10)),
    st.builds(ModClassNonneg, st.integers(1, 7), st.integers(0, 10)),
    st.sampled_from(
        [
            GapTail(GEOM2),
            GapTail(gapset.Triangular()),
            GapTail(gapset.Factorial()),
            GapTail(gapset.Geometric(3, 2)),
        ]
    ),
)

SPECS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(lambda a, b: union_of(a, b), kids, kids),
        st.builds(Diff, kids, kids),
        st.builds(
            ShiftScale,
            kids,
            st.integers(-6, 6),
            st.integers(-3, 3).filter(lambda d: d != 0),
        ),
    ),
    max_leaves=6,
)

WINDOWS = st.integers(-60, 60).flatmap(
    lambda lo: st.integers(0, 80).map(lambda w: Window(lo, lo + w))
)


@settings(max_examples=300, deadline=None)
@given(SPECS, WINDOWS)
def test_member_matches_materialize(spec, w):
    dense = materialize(spec, w)
    for n in range(w.lo, w.hi + 1):
        assert member(spec, n) == dense.member(n)


@settings(max_examples=200, deadline=None)
@given(SPECS, WINDOWS, st.integers(-6, 6), st.integers(-3, 3).filter(lambda d: d != 0))
def test_shiftscale_matches_pointwise_image(spec, w, c, d):
    wrapped = ShiftScale(spec, c, d)
    dense = materialize(wrapped, w)
    # windows stay within [-60, 140] and |c| <= 6, so scanning x in
    # [-320, 320] covers every preimage of the window for any |d| >= 1
    expected = sorted(
        d * x + c
        for x in range(-320, 321)
        if member(spec, x) and w.contains(d * x + c)
    )
    assert dense.members() == expected


@settings(max_examples=150, deadline=None)
@given(SPECS, WINDOWS)
def test_double_complement_identity(spec, w):
    dense = materialize(spec, w)
    assert dense.complement().complement() == dense


@settings(max_examples=150, deadline=None)
@given(WINDOWS, st.sets(st.integers(-80, 80)))
def test_dense_roundtrip(w, values):
    inside = sorted(v for v in values if w.contains(v))
    dense = dense_from_iter(values, w)
    assert dense.members() == inside
    assert dense.popcount() == len(inside)


# Byte chunks of all-zero runs, full 0xFF bytes and random bytes.
_CHUNKS = st.one_of(
    st.integers(1, 300).map(lambda n: b"\x00" * n),
    st.integers(1, 40).map(lambda n: b"\xff" * n),
    st.binary(min_size=1, max_size=40),
)


@st.composite
def dense_sets(draw):
    """A DenseSet of width 1..3000, not a multiple of 8, often with negative lo."""
    lo = draw(st.integers(-3000, 3000))
    width = draw(st.integers(1, 3000).filter(lambda w: w % 8 != 0))
    raw = b"".join(draw(st.lists(_CHUNKS, max_size=20)))
    bits = int.from_bytes(raw, "little") & ((1 << width) - 1)
    return DenseSet(Window(lo, lo + width - 1), bits)


@st.composite
def wide_sparse_sets(draw):
    """A DenseSet of width 10^5 to 3*10^5 with a handful of members, often
    at bit 0 or the top bit, on a window that often starts below 0."""
    lo = draw(st.integers(-(10**6), 10**6))
    width = draw(st.integers(10**5, 3 * 10**5))
    offsets = set(draw(st.lists(st.integers(0, width - 1), max_size=6)))
    if draw(st.booleans()):
        offsets.add(0)
    if draw(st.booleans()):
        offsets.add(width - 1)
    return DenseSet(Window(lo, lo + width - 1), sum(1 << k for k in offsets))


def per_bit_members(d):
    """The members of d, one bit of its binary digits at a time."""
    digits = bin(d.bits)[:1:-1]  # bit 0 first
    return [d.window.lo + i for i, c in enumerate(digits) if c == "1"]


@settings(max_examples=300, deadline=None)
@given(dense_sets())
def test_members_matches_per_bit_loop(d):
    want = [d.window.lo + i for i in range(d.window.width) if (d.bits >> i) & 1]
    assert per_bit_members(d) == want
    assert d.members() == want


@settings(max_examples=50, deadline=None)
@given(wide_sparse_sets())
@example(DenseSet(Window(-(10**5), 10**5), 1 | 1 << (2 * 10**5)))
@example(DenseSet(Window(-7, 3 * 10**5 - 8), 1 << 150_001))
@example(DenseSet(Window(0, 10**5 - 1), 0))
def test_members_matches_per_bit_loop_on_wide_sparse_sets(d):
    assert d.members() == per_bit_members(d)


def test_a_wide_dense_set_prints_its_bits_in_hex():
    # a decimal str() of an int past 4300 digits raises ValueError; hex has no limit
    d = DenseSet(Window(0, 20000), 1 << 20000)
    assert repr(d) == f"DenseSet(window=Window(lo=0, hi=20000), bits={1 << 20000:#x})"
    fold = sumset.hfold_truncated(d, 2, Window(0, 40000), stride=1)
    bits = 1 << 40000  # 2 * 20000
    assert repr(fold).endswith(f"bits={bits:#x}))")


@settings(max_examples=300, deadline=None)
@given(
    dense_sets(),
    st.sampled_from(["inside", "low_edge", "high_edge", "disjoint", "around"]),
    st.integers(0, 400),
    st.integers(0, 400),
)
def test_restrict_matches_filtered_members(d, kind, a, b):
    lo, hi = d.window.lo, d.window.hi
    if kind == "inside":
        first = min(lo + a, hi)
        w = Window(first, min(first + b, hi))
    elif kind == "low_edge":
        w = Window(lo - a - 1, min(lo + b, hi))
    elif kind == "high_edge":
        w = Window(max(hi - b, lo), hi + a + 1)
    elif kind == "disjoint":
        w = Window(hi + a + 1, hi + a + b + 1) if a % 2 else Window(lo - a - b - 1, lo - a - 1)
    else:
        w = Window(lo - a, hi + b)
    r = d.restrict(w)
    assert r.window == w
    assert r.bits >> w.width == 0
    assert r.members() == [n for n in d.members() if w.contains(n)]


def test_dilate_or_matches_loop():
    for gap in (1, 2, 3, 7):
        for count in (1, 2, 3, 5, 16, 37):
            base = 0b1011001
            maxbits = 260
            want = 0
            for i in range(count):
                want |= base << (gap * i)
            want &= (1 << maxbits) - 1
            assert intset.dilate_or(base, gap, count, maxbits) == want


@settings(max_examples=150, deadline=None)
@given(SPECS)
def test_specs_built_apart_compare_and_hash_equal(spec):
    # the grammar's round trip builds every node of the tree afresh
    again = grammar.parse_spec(grammar.format_spec(spec))
    assert again == spec and hash(again) == hash(spec)


def test_spec_lookups_do_not_rehash_the_tree():
    # a node with children hashes them once, when it is built
    hashed = []

    @dataclass(frozen=True)
    class Leaf(intset.SetSpec):
        n: int

        def __hash__(self):
            hashed.append(self.n)
            return hash(self.n)

    spec = Diff(union_of(Leaf(1), ShiftScale(Leaf(2), 1, 3)), GapTail(GEOM2))
    assert sorted(hashed) == [1, 2]
    memo = {spec: "kept"}
    for _ in range(3):
        assert memo[spec] == "kept" and hash(spec) == hash(spec)
    assert sorted(hashed) == [1, 2]
