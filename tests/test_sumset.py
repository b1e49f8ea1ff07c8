import collections
import functools
import itertools
import operator
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonbasis import gapset, grammar, intset, report, sumset, verify
from nonbasis.errors import DomainConstraint, TargetExceedsSafeRange
from nonbasis.families import Params, build_full, build_gapped, gcd_case
from nonbasis.intset import (
    DenseSet,
    Diff,
    GapTail,
    ModClassNonneg,
    Window,
    dense_from_iter,
    materialize,
)


def brute_sumset(values, h, target):
    """Independent oracle: enumerate all h-tuples."""
    sums = {0}
    for _ in range(h):
        sums = {x + v for x in sums for v in values}
    return sorted(v for v in sums if target.lo <= v <= target.hi)


def brute_sumset_of(ps, qs, target):
    """Independent oracle for p + q on target: enumerate all pairs."""
    return sorted({x + y for x in ps for y in qs if target.contains(x + y)})


def representation_counts(a, h):
    """Number of multisets of h elements of a, by their sum."""
    return collections.Counter(map(sum, itertools.combinations_with_replacement(a.members(), h)))


def test_exact_small_example():
    a = dense_from_iter([0, 1, 3], Window(0, 6))
    r = sumset.hfold_exact_bounded_below(a, 2)
    assert r.members() == [0, 1, 2, 3, 4, 6]
    assert r.exactness == sumset.EXACT
    assert r.members() == brute_sumset([0, 1, 3], 2, r.target)


def test_exact_singleton():
    a = dense_from_iter([0], Window(0, 4))
    assert sumset.hfold_exact_bounded_below(a, 5, target=Window(0, 4)).members() == [0]


def test_exact_gapped_family_complement():
    fam = build_gapped(Params(2, 0, 1, "n0"), gapset.Geometric(2, 1))
    a = materialize(fam.spec, Window(0, 40))
    r = sumset.hfold_exact_bounded_below(a, 2, target=Window(0, 20))
    comp = r.dense.complement().members()
    assert comp == [3, 4, 5, 6, 9, 10, 17]
    assert comp == [
        n for n in range(21) if n not in brute_sumset(a.members(), 2, Window(0, 20))
    ]


def test_truncated_full_family_covers_window():
    fam = build_full(Params(2, 0, 1, "z"))
    a = materialize(fam.spec, Window(-9, 9))
    r = sumset.hfold_truncated(a, 2, Window(-4, 4))
    assert r.members() == list(range(-4, 5))
    assert r.exactness == sumset.LOWER_BOUND


def test_truncated_empty_and_tiny():
    empty = dense_from_iter([], Window(-5, 5))
    assert sumset.hfold_truncated(empty, 3, Window(-9, 9)).members() == []
    pm1 = dense_from_iter([-1, 1], Window(-1, 1))
    assert sumset.hfold_truncated(pm1, 2, Window(-2, 2)).members() == [-2, 0, 2]


def test_safe_range_enforced():
    a = dense_from_iter([0, 1, 3], Window(0, 3))
    with pytest.raises(TargetExceedsSafeRange):
        sumset.hfold_exact_bounded_below(a, 2, target=Window(0, 6))
    with pytest.raises(DomainConstraint):
        sumset.hfold_exact_bounded_below(a, 0)
    with pytest.raises(DomainConstraint):
        sumset.hfold_truncated(a, 0, Window(0, 3))


def test_representation_counts():
    fam = build_full(Params(2, 0, 1, "z"))
    a = materialize(fam.spec, Window(-9, 9))
    assert representation_counts(a, 2)[7] == 1
    assert representation_counts(a, 2)[6] == 4
    assert representation_counts(dense_from_iter([0], Window(0, 0)), 3)[0] == 1


def test_witness_examples():
    a = sumset.hfold_exact_bounded_below(dense_from_iter([0, 1, 3], Window(0, 6)), 2)
    assert sumset.witness(a, 4) == (1, 3)
    assert sumset.witness(a, 5) is None
    assert sumset.witness(a, 99) is None  # outside the target
    two = sumset.hfold_exact_bounded_below(dense_from_iter([2], Window(2, 2)), 2)
    assert sumset.witness(two, 4) == (2, 2)


SMALL_SETS = st.integers(-8, 6).flatmap(
    lambda lo: st.integers(0, 16).flatmap(
        lambda w: st.sets(st.integers(lo, lo + w)).map(
            lambda vals: dense_from_iter(vals, Window(lo, lo + w))
        )
    )
)


@settings(max_examples=250, deadline=None)
@given(SMALL_SETS, st.integers(1, 5))
def test_kernel_matches_brute_force(a, h):
    target = Window(h * a.window.lo, h * a.window.hi)
    got = sumset.hfold_truncated(a, h, target)
    vals = a.members()
    want = brute_sumset(vals, h, target) if vals else []
    assert got.members() == want


@settings(max_examples=150, deadline=None)
@given(SMALL_SETS, st.integers(1, 4))
def test_fold_matches_per_element_loop(a, h):
    target = Window(h * a.window.lo, h * a.window.hi)
    want = dense_from_iter(per_element_kfold(a.members(), h), target)
    assert sumset.hfold_truncated(a, h, target).dense.bits == want.bits


@settings(max_examples=150, deadline=None)
@given(SMALL_SETS, st.sets(st.integers(-8, 22), max_size=6), st.integers(1, 4))
def test_truncation_monotone(a, extra, h):
    wider = Window(a.window.lo - 4, a.window.hi + 4)
    bigger = dense_from_iter(set(a.members()) | extra, wider)
    target = Window(h * wider.lo, h * wider.hi)
    small = sumset.hfold_truncated(a, h, target)
    large = sumset.hfold_truncated(bigger, h, target)
    assert small.dense.bits & ~large.dense.bits == 0


def test_one_fold_is_identity():
    a = dense_from_iter([2, 5, 9], Window(0, 10))
    r = sumset.hfold_exact_bounded_below(a, 1)
    assert r.members() == [2, 5, 9]


@settings(max_examples=120, deadline=None)
@given(
    st.sets(st.integers(0, 14)),
    st.integers(1, 3),
    st.integers(1, 3),
)
def test_associativity(vals, h1, h2):
    w = Window(0, 14)
    a = dense_from_iter(vals, w)
    h = h1 + h2
    whole = sumset.hfold_exact_bounded_below(a, h)
    p = sumset.hfold_exact_bounded_below(a, h1)
    q = sumset.hfold_exact_bounded_below(a, h2)
    combined = sumset.pairwise_sum(p.dense, q.dense, whole.target)
    assert combined.bits == whole.dense.bits


@settings(max_examples=200, deadline=None)
@given(SMALL_SETS, st.integers(1, 4), st.integers(-40, 60))
def test_count_and_witness_consistent(a, h, n):
    count = representation_counts(a, h)[n]
    wit = sumset.witness(sumset.hfold_truncated(a, h, Window(n, n)), n)
    assert (count >= 1) == (wit is not None)
    if wit is not None:
        assert len(wit) == h
        assert sum(wit) == n
        assert all(a.member(v) for v in wit)
        assert tuple(sorted(wit)) == wit


@settings(max_examples=200, deadline=None)
@given(SMALL_SETS, st.integers(1, 4), st.data())
def test_witness_is_the_least_multiset(a, h, data):
    # truncated folds on one point, the whole hull and a cut into the middle
    # of the hull, and exact folds on the same targets cut to the safe range
    hull = Window(h * a.window.lo, h * a.window.hi)
    n = data.draw(st.integers(hull.lo, hull.hi))
    lo = data.draw(st.integers(hull.lo, n))
    hi = data.draw(st.integers(n, hull.hi))
    want = min(
        (m for m in itertools.combinations_with_replacement(a.members(), h) if sum(m) == n),
        default=None,
    )
    safe_hi = a.window.hi + (h - 1) * a.window.lo
    for target in (Window(n, n), hull, Window(lo, hi)):
        got = sumset.witness(sumset.hfold_truncated(a, h, target), n)
        assert got == want, target
        if n <= safe_hi:
            cut = Window(target.lo, min(target.hi, safe_hi))
            assert sumset.witness(sumset.hfold_exact_bounded_below(a, h, cut), n) == want, cut


@settings(max_examples=150, deadline=None)
@given(SMALL_SETS, st.integers(1, 4))
def test_multiplicity_pair_matches_counts(a, h):
    target = Window(h * a.window.lo, h * a.window.hi)
    ge1, ge2 = sumset.multiplicity_pair(sumset.arith_chains(a), h, target)
    assert ge1.window == ge2.window == target
    counts = representation_counts(a, h)
    for n in range(target.lo, target.hi + 1):
        c = counts[n]
        assert ge1.member(n) == (c >= 1)
        assert ge2.member(n) == (c >= 2)


def per_copy_multiplicity_pair(a, h, hi):
    """The reference for multiplicity_pair: (>= 1, >= 2) bits at
    n - h*a.window.lo for n <= hi, by a DP that adds c = 1..u copies of each
    member to the u-element rows, u descending."""
    lo = a.window.lo
    relmax = hi - h * lo
    if relmax < 0:
        return 0, 0
    mask = (1 << (relmax + 1)) - 1
    ge1 = [1] + [0] * h
    ge2 = [0] * (h + 1)
    for v in a.members():
        p = v - lo
        for u in range(h, 0, -1):
            acc1, acc2 = ge1[u], ge2[u]
            shift = 0
            for c in range(1, u + 1):
                shift += p
                if p > 0 and shift > relmax:
                    break
                t1 = (ge1[u - c] << shift) & mask
                t2 = (ge2[u - c] << shift) & mask
                if t1 or t2:
                    acc2 |= t2 | (acc1 & t1)
                    acc1 |= t1
            ge1[u], ge2[u] = acc1, acc2
    return ge1[h], ge2[h]


@st.composite
def wide_sets(draw):
    """A set on a window of up to about 3000 points: random members at one
    density, or the union of up to a dozen arithmetic chains."""
    lo = draw(st.integers(-30, 30))
    w = Window(lo, lo + draw(st.integers(0, 3000)))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.002, 0.05, 0.5, 0.95]))
        vals = [v for v in range(w.lo, w.hi + 1) if rng.random() < density]
    else:
        vals = set()
        for _ in range(draw(st.integers(1, 12))):
            g = rng.randint(1, 9)
            first = rng.randint(w.lo, w.hi)
            vals.update(range(first, rng.randint(first, w.hi) + 1, g))
    return dense_from_iter(vals, w)


@settings(max_examples=40, deadline=None)
@given(wide_sets(), st.integers(1, 6), st.data())
def test_multiplicity_pair_matches_the_per_copy_dp(a, h, data):
    lo, hi = h * a.window.lo, h * a.window.hi
    target = Window(data.draw(st.integers(lo - 40, hi)), data.draw(st.integers(hi, hi + 40)))
    target = Window(target.lo, data.draw(st.integers(target.lo, target.hi)))
    ge1, ge2 = sumset.multiplicity_pair(sumset.arith_chains(a), h, target)
    if target.hi < lo:
        assert ge1 == ge2 == DenseSet(target, 0)
        return
    rows = Window(lo, target.hi)
    want1, want2 = per_copy_multiplicity_pair(a, h, target.hi)
    assert ge1 == DenseSet(rows, want1).restrict(target)
    assert ge2 == DenseSet(rows, want2).restrict(target)


def test_multiplicity_pair_on_uniqueness_inputs(monkeypatch):
    # The kernel's inputs from uniqueness_check on full families: each is
    # {s} plus one progression, handed over as its two chains, the case the
    # kernel is fast on.
    real = sumset.multiplicity_pair
    calls = []

    def spy(chains, h, target):
        calls.append((chains, h, target))
        return real(chains, h, target)

    monkeypatch.setattr(sumset, "multiplicity_pair", spy)
    for domain, sts in (("n0", range(0, 5)), ("z", range(-3, 5))):
        for h in range(2, 7):
            for s, t in itertools.product(sts, sts):
                if gcd_case(h, s, t) == 1:
                    for cap in (0, 3, 57, 400):
                        report.uniqueness_check(build_full(Params(h, s, t, domain)), cap)
    assert len(calls) > 500
    for chains, h, target in calls:
        assert len(chains) == 2 and chains == sorted(chains)
        members = [a0 + i * g for a0, g, cnt in chains for i in range(cnt)]
        a = dense_from_iter(members, Window(min(members), max(members)))
        assert sumset.arith_chains(a) == chains
        rows = Window(h * a.window.lo, target.hi)
        want1, want2 = per_copy_multiplicity_pair(a, h, target.hi)
        assert real(chains, h, target) == (
            DenseSet(rows, want1).restrict(target),
            DenseSet(rows, want2).restrict(target),
        )


@pytest.mark.parametrize("h", range(2, 7))
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_multiplicity_pair_on_one_chain(length, stride, h):
    # c copies of a chain of length 3 reach c*a0 + g*j twice only in the
    # middle band 2 <= j <= 2c - 2, a single point at c = 2.
    a = dense_from_iter(range(4, 4 + stride * length, stride), Window(-2, 20))
    assert [(a0, n) for a0, _, n in sumset.arith_chains(a)] == [(4, length)]
    target = Window(-2 * h, 20 * h)
    ge1, ge2 = sumset.multiplicity_pair(sumset.arith_chains(a), h, target)
    counts = representation_counts(a, h)
    for n in range(target.lo, target.hi + 1):
        c = counts[n]
        assert (ge1.member(n), ge2.member(n)) == (c >= 1, c >= 2), n


def one_shift_at_a_time(x1, x2, gap, count, maxbits):
    mask = (1 << maxbits) - 1
    r1 = r2 = 0
    for i in range(count):
        y1, y2 = (x1 << (i * gap)) & mask, (x2 << (i * gap)) & mask
        r2 |= y2 | (r1 & y1)
        r1 |= y1
    return r1, r2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**48 - 1),
    st.integers(0, 2**48 - 1),
    st.integers(1, 9),
    st.integers(0, 70),
    st.integers(1, 700),
)
@example(0b1011, 0b0011, 1, 3, 64)
@example(0b110101, 0b100001, 2, 70, 90)
def test_dilate_pair_matches_one_shift_at_a_time(x1, sub, gap, count, maxbits):
    x2 = x1 & sub
    want = one_shift_at_a_time(x1, x2, gap, count, maxbits)
    assert sumset._dilate_pair(x1, x2, gap, count, maxbits) == want


@pytest.mark.parametrize(
    "target,at_least_one,at_least_two",
    [
        (Window(10, 16), [10, 11, 12, 13, 14, 15, 16], [12, 13, 14]),
        (Window(12, 20), [12, 13, 14, 15, 16], [12, 13, 14]),  # lo above 2 * 5
        (Window(6, 11), [10, 11], []),
        (Window(0, 9), [], []),  # hi below 2 * 5
        (Window(13, 13), [13], [13]),
        (Window(15, 15), [15], []),
    ],
)
def test_multiplicity_pair_targets(target, at_least_one, at_least_two):
    # 2 * {5, 6, 7, 8}: 12, 13 and 14 have two representations each
    a = dense_from_iter(range(5, 9), Window(5, 8))
    ge1, ge2 = sumset.multiplicity_pair(sumset.arith_chains(a), 2, target)
    assert ge1.window == ge2.window == target
    assert (ge1.members(), ge2.members()) == (at_least_one, at_least_two)


def test_arith_chains():
    def chains(vals, window=Window(0, 20)):
        return sumset.arith_chains(dense_from_iter(vals, window))

    assert chains([]) == []
    assert chains([5]) == [(5, 1, 1)]
    assert chains([1, 3, 5, 7]) == [(1, 2, 4)]
    # one stride for every run: the one with the fewest runs
    assert chains([0, 1, 3, 6, 7, 8]) == [(0, 1, 2), (3, 1, 1), (6, 1, 3)]
    # runs of different residue classes interleave
    assert chains([10, 11, 12, 13, 14, 16, 18], Window(8, 20)) == [(10, 2, 5), (11, 2, 2)]
    # a stride above the small ones is found from the gaps of the lowest members
    assert chains([3, 13, 23, 33, 43], Window(-5, 50)) == [(3, 10, 5)]
    # a stride among the small ones is tried even when no gap between the
    # lowest members shows it: two points far apart below a long class mod 7
    spec = grammar.parse_spec("union(single:0,single:5000,classnn(7,10000))")
    assert sumset.arith_chains(intset.materialize(spec, Window(0, 200000))) == [
        (0, 7, 1), (5000, 7, 1), (10000, 7, 27143)
    ]


@settings(max_examples=200, deadline=None)
@given(SMALL_SETS)
def test_arith_chains_partition_members_in_order(a):
    chains = sumset.arith_chains(a)
    starts = [c[0] for c in chains]
    assert starts == sorted(set(starts))
    assert len({g for _, g, _ in chains}) <= 1
    covered = [b + i * g for b, g, cnt in chains for i in range(cnt)]
    assert all(cnt >= 1 for _, _, cnt in chains)
    assert sorted(covered) == a.members()


def per_element_kfold(values, k):
    """kA by the per-element shift-OR loop, as a set of integers."""
    if k == 0:
        return {0}
    if not values:
        return set()
    m = min(values)
    acc = 1  # bit i is the value i + j*m after j folds
    for _ in range(k):
        acc = functools.reduce(operator.or_, (acc << (v - m) for v in values), 0)
    return {i + k * m for i in range(acc.bit_length()) if (acc >> i) & 1}


TARGETS = st.integers(-30, 30).flatmap(
    lambda lo: st.integers(0, 40).map(lambda w: Window(lo, lo + w))
)


@settings(max_examples=200, deadline=None)
@given(SMALL_SETS, st.integers(1, 4), TARGETS)
def test_partials_are_clipped_kfolds(a, h, target):
    r = sumset.hfold_truncated(a, h, target)
    vals = a.members()
    assert len(r.partials) == h + 1
    folds = [per_element_kfold(vals, k) for k in range(h + 1)]
    for k, part in enumerate(r.partials):
        # every k-element subtotal that h-k more elements complete to a
        # target value lies in the partial's window, and the partial is
        # exactly kA there
        needed = {
            v for v in folds[k] if any(target.contains(v + u) for u in folds[h - k])
        }
        if part is None:
            assert not needed
            continue
        assert part.members() == sorted(v for v in folds[k] if part.window.contains(v))
        assert needed <= set(part.members())
    assert r.members() == sorted(v for v in folds[h] if target.contains(v))


@settings(max_examples=200, deadline=None)
@given(SMALL_SETS, st.integers(1, 4), TARGETS, st.integers(-20, 30))
def test_adjoin_matches_direct_fold(a, h, target, b):
    base = sumset.hfold_truncated(a, h, target)
    got = sumset.adjoin(base, b)
    bits = a.bits | (1 << (b - a.window.lo) if a.window.contains(b) else 0)
    direct = sumset.hfold_truncated(DenseSet(a.window, bits), h, target)
    assert got == direct.dense


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 60).flatmap(lambda hi: st.tuples(
        st.just(hi), st.sets(st.integers(0, hi)), st.integers(0, hi), st.integers(0, hi)
    )),
    st.integers(1, 5),
    st.integers(0, 70),
    st.integers(0, 70),
)
def test_point_union_matches_the_fold_of_a(b_and_target, h, s, t):
    # {s} u (B + t) on [0, hi], folded by shifts of hB's partials, equals
    # its direct fold, partials and all, and the brute-force sumset
    hi, b, lo, top = b_and_target
    target = Window(min(lo, top), max(lo, top))
    src = Window(0, hi)
    fold = sumset.hfold_exact_bounded_below(dense_from_iter(b, src), h)
    got = sumset.hfold_point_union(fold, s, t, target)
    a = dense_from_iter({s} | {v + t for v in b}, src)
    want = sumset.hfold_exact_bounded_below(a, h, target)
    assert got == want and got.partials == want.partials
    assert got.members() == brute_sumset(a.members(), h, target)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 60).flatmap(lambda top: st.tuples(
        st.just(top), st.sets(st.integers(0, top)), st.integers(0, top)
    )),
    st.integers(1, 5),
)
def test_restrict_fold_matches_the_fold_on_the_narrower_source(case, h):
    # a whole-source fold of a nonnegative set cut to [0, hi] equals the
    # fold of the set on [0, hi], partials and all
    top, b, hi = case
    wide = sumset.hfold_exact_bounded_below(dense_from_iter(b, Window(0, top)), h)
    got = sumset.restrict_fold(wide, hi)
    want = sumset.hfold_exact_bounded_below(dense_from_iter(b, Window(0, hi)), h)
    assert got == want and got.partials == want.partials
    assert sumset.restrict_fold(wide, top) == wide


def test_restrict_fold_needs_a_whole_source_fold():
    b = dense_from_iter([0, 3, 6], Window(0, 20))
    with pytest.raises(DomainConstraint):
        sumset.restrict_fold(sumset.hfold_exact_bounded_below(b, 2, Window(0, 10)), 5)
    with pytest.raises(DomainConstraint):
        sumset.restrict_fold(sumset.hfold_exact_bounded_below(b, 2), 21)


def test_point_union_needs_a_whole_source_fold():
    b = dense_from_iter([0, 3, 6], Window(0, 20))
    fold = sumset.hfold_exact_bounded_below(b, 2)
    with pytest.raises(DomainConstraint):
        sumset.hfold_point_union(sumset.hfold_exact_bounded_below(b, 2, Window(0, 10)), 1, 0, Window(0, 5))
    with pytest.raises(DomainConstraint):
        sumset.hfold_point_union(fold, -1, 0, Window(0, 5))
    with pytest.raises(TargetExceedsSafeRange):
        sumset.hfold_point_union(fold, 1, 0, Window(0, 21))


@pytest.mark.parametrize("h", [2, 3, 5, 11])
def test_stride_h_family_matches_reference_loop(h):
    # every member is its own stride-1 run, while stride h has one run per
    # gap of Y; h = 11 is found only from the gaps of the lowest members
    fam = build_gapped(Params(h, 0, 1, "n0"), gapset.Geometric(2, 1))
    a = materialize(fam.spec, Window(0, 40 * h))
    chains = sumset.arith_chains(a)
    assert {g for _, g, _ in chains} == {h}
    assert 4 * len(chains) < a.popcount()
    r = sumset.hfold_exact_bounded_below(a, h)
    assert r.dense == dense_from_iter(per_element_kfold(a.members(), h), r.target)


def test_fold_walks_the_partial_with_fewer_runs():
    # N0 minus the triangular numbers has a stride-1 run per gap of Y; 2A
    # is nearly one interval, so every step fills the middle of the sum and
    # walks A's runs only near its ends, where the low holes of Y sit
    a = materialize(Diff(ModClassNonneg(1, 0), GapTail(gapset.Triangular())), Window(0, 400))
    r = sumset.hfold_exact_bounded_below(a, 4)
    assert len(sumset.arith_chains(r.partials[2])) < len(sumset.arith_chains(a))
    assert r.dense == dense_from_iter(per_element_kfold(a.members(), 4), r.target)


def chain_walk(p, q, target):
    """The reference for pairwise_sum: p dilated by every arithmetic chain of
    q over the full width, the kernel before the class split."""
    acc = 0
    for a0, g, cnt in sumset.arith_chains(q):
        frame_lo = p.window.lo + a0
        if frame_lo > target.hi:
            continue
        span = target.hi - frame_lo + 1
        r = intset.dilate_or(p.bits & ((1 << span) - 1), g, cnt, span)
        off = frame_lo - target.lo
        acc |= (r << off) if off >= 0 else (r >> -off)
    return DenseSet(target, acc & ((1 << target.width) - 1))


@st.composite
def holed_classes(draw, g):
    """A set on a window of up to 400 points: one, two or three long
    stride-g progressions, each minus a few holes, or one such progression
    beside a single point, or random members at one density."""
    lo = draw(st.integers(-30, 30))
    w = Window(lo, lo + draw(st.integers(0, 400)))
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["classes", "classes", "point and class", "random"]))
    if kind == "random":
        density = draw(st.sampled_from([0.05, 0.5, 0.95]))
        return dense_from_iter((v for v in range(w.lo, w.hi + 1) if rng.random() < density), w)
    vals = set()
    for _ in range(draw(st.integers(1, 3)) if kind == "classes" else 1):
        first = rng.randint(w.lo, (3 * w.lo + w.hi) // 4)
        ap = range(first, rng.randint((w.lo + 3 * w.hi) // 4, w.hi) + 1, g)
        holes = rng.randint(0, min(2, len(ap))) if len(ap) < 30 else rng.randint(3, len(ap) // 10)
        vals |= set(ap) - set(rng.sample(ap, holes))
    if kind == "point and class":
        vals.add(rng.randint(w.lo, w.hi))
    return dense_from_iter(vals, w)


def end_cutting_target(data, lo, hi):
    """A target whose ends lie near the ends of the sum hull [lo, hi]."""
    t_lo = lo + data.draw(st.integers(-10, 60))
    return Window(t_lo, max(t_lo, hi - data.draw(st.integers(-10, 60))))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pairwise_sum_matches_brute_force_and_the_chain_walk(data):
    g = data.draw(st.integers(1, 16))
    p, q = data.draw(holed_classes(g)), data.draw(holed_classes(g))
    target = end_cutting_target(data, p.window.lo + q.window.lo, p.window.hi + q.window.hi)
    got = sumset.pairwise_sum(p, q, target)
    assert got == chain_walk(p, q, target)
    assert got.members() == brute_sumset_of(p.members(), q.members(), target)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(holed_classes), st.integers(2, 4), st.data())
def test_fold_partials_match_the_chain_walk(a, h, data):
    target = end_cutting_target(data, h * a.window.lo, h * a.window.hi)
    r = sumset.hfold_truncated(a, h, target)
    for k in range(2, h + 1):
        part = r.partials[k]
        if part is None:
            break
        assert part == chain_walk(r.partials[k - 1], a, part.window)
    assert r.members() == sorted(v for v in per_element_kfold(a.members(), h) if target.contains(v))


def test_fill_spans_the_pigeonhole_middle(monkeypatch):
    # 400 terms of 3x + 1 with 3 holes: 4 chains, one at each end of the
    # hull, so A + A is one filled progression between ends of m = 6 terms
    a = dense_from_iter(
        (3 * x + 1 for x in range(400) if x not in (100, 200, 300)), Window(0, 1200)
    )
    fills = []
    real = sumset.ap_bits
    monkeypatch.setattr(
        sumset, "ap_bits", lambda *args: fills.append((args[0], args[2])) or real(*args)
    )
    target = Window(0, 2400)
    got = sumset.pairwise_sum(a, a, target)
    m, lo, hi = 6, 2 * 1, 2 * (3 * 399 + 1)
    assert fills == [(lo + 3 * m, hi - 3 * m)]
    assert got.members() == brute_sumset_of(a.members(), a.members(), target)


def test_lemma_fold_makes_few_wide_dilations(monkeypatch):
    # one filled progression per fold step; every chain walk stays near the
    # ends of a sum (the chain walk made one full-width dilation per run)
    h, window = 4, Window(0, 10**5)
    wide = []
    real = sumset.dilate_or

    def counting(bits, gap, count, maxbits):
        if maxbits > window.width // 10:
            wide.append(maxbits)
        return real(bits, gap, count, maxbits)

    monkeypatch.setattr(sumset, "dilate_or", counting)
    assert verify.lemma_basis_check(gapset.Triangular(), h, window).covered_above_threshold
    assert len(wide) <= h - 1


def two_decode_stride(x):
    """The stride search of the two-decode walk: run starts counted per
    candidate stride, the first minimum in ascending order."""
    if not x:
        return 1
    strides = set(sumset._SMALL_STRIDES)
    head = (x >> ((x & -x).bit_length() - 1)) & ((1 << sumset._HEAD_BITS) - 1)
    prev = 0
    for _ in range(sumset._HEAD_MEMBERS - 1):
        head &= head - 1
        if not head:
            break
        at = (head & -head).bit_length() - 1
        strides.add(at - prev)
        prev = at
    runs = {g: (x & ~(x << g)).bit_count() for g in sorted(strides)}
    return min(runs, key=runs.get)


def two_decode_chains(a):
    """The reference for arith_chains: run starts (no g-predecessor) and run
    ends (no g-successor) decoded bit by bit, each end paired with the next
    start of its residue class."""

    def decode(bits):
        return [a.window.lo + i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"]

    x = a.bits
    g = two_decode_stride(x)
    ends_of = {}
    for e in decode(x & ~(x >> g)):
        ends_of.setdefault(e % g, []).append(e)
    ends = {r: iter(es) for r, es in ends_of.items()}
    return [(b, g, (next(ends[b % g]) - b) // g + 1) for b in decode(x & ~(x << g))]


def has_tied_fewest_runs(a):
    x = a.bits
    counts = sorted((x & ~(x << g)).bit_count() for g in sumset._SMALL_STRIDES)
    return a.popcount() >= 2 and counts[0] == counts[1]


@st.composite
def two_progressions(draw):
    """Two progressions of one length and strides g1 < g2, one above the
    other: often tied on run count at g1 and g2."""
    g1 = draw(st.integers(1, 7))
    g2 = draw(st.integers(g1 + 1, 8))
    length = draw(st.integers(2, 40))
    first, gap = draw(st.integers(-30, 30)), draw(st.integers(1, 50))
    second = first + g1 * length + gap
    w = Window(first - draw(st.integers(0, 9)), second + g2 * length + draw(st.integers(0, 9)))
    vals = [*range(first, first + g1 * length, g1), *range(second, second + g2 * length, g2)]
    return dense_from_iter(vals, w)


CHAIN_SETS = st.one_of(
    wide_sets(),
    st.integers(1, 6).flatmap(holed_classes),
    st.one_of(SMALL_SETS, two_progressions()).filter(has_tied_fewest_runs),
)


@settings(max_examples=200, deadline=None)
@given(CHAIN_SETS, st.integers(-(10**6), 10**6))
@example(dense_from_iter([0, 2, 5], Window(0, 5)), -3)  # strides 2, 3 and 5 tie
@example(dense_from_iter([*range(0, 30, 3), *range(100, 150, 5)], Window(-4, 160)), -10**5)
@example(dense_from_iter([], Window(0, 9)), -20)
def test_arith_chains_match_the_two_decode_walk(a, shift):
    a = DenseSet(Window(a.window.lo + shift, a.window.hi + shift), a.bits)
    assert sumset.arith_chains(a) == two_decode_chains(a)


def test_one_decode_per_chain_split_and_one_class_table_per_fold(monkeypatch):
    decodes, tables = [], []
    real_members = DenseSet.members
    monkeypatch.setattr(DenseSet, "members", lambda d: decodes.append(d) or real_members(d))
    sets = [
        dense_from_iter([], Window(0, 9)),
        dense_from_iter([5], Window(-9, 9)),
        dense_from_iter((v for v in range(-50, 900) if v % 7 != 3), Window(-50, 1000)),
        materialize(Diff(ModClassNonneg(1, 0), GapTail(gapset.Triangular())), Window(0, 10**4)),
    ]
    for a in sets:
        decodes.clear()
        sumset.arith_chains(a)
        assert len(decodes) == 1
    # N0 minus the triangular numbers: every fold step splits its partial
    # into classes.  A's are decoded once, with its class table; the exact
    # fold's first partial is A itself and reads them, and every other
    # partial is decoded once
    real_table = sumset._class_table
    monkeypatch.setattr(sumset, "_class_table", lambda a: tables.append(a) or real_table(a))
    a = sets[-1]
    for h in range(2, 9):
        decodes.clear()
        tables.clear()
        sumset.hfold_exact_bounded_below(a, h)
        assert len(tables) == 1, h
        assert len(decodes) <= h - 1, h
        decodes.clear()
        tables.clear()
        sumset.hfold_truncated(a, h, Window(h * 10**4 - 500, h * 10**4))
        assert len(tables) == 1, h
        assert len(decodes) <= h, h


def per_residue_classes(p, g):
    """The reference for the classes of p that pairwise_sum reads: per
    residue class mod g of p's members, read bit by bit, its hull (lo, hi)
    of `terms` points and `holes`."""
    by_residue = {}
    for i, c in enumerate(bin(p.bits)[:1:-1]):
        if c == "1":
            v = p.window.lo + i
            by_residue.setdefault(v % g, []).append(v)
    out = []
    for vs in by_residue.values():
        terms = (vs[-1] - vs[0]) // g + 1
        out.append((vs[0], vs[-1], terms, terms - len(vs)))
    return sorted(out)


@settings(max_examples=200, deadline=None)
@given(st.one_of(SMALL_SETS, st.integers(1, 16).flatmap(holed_classes)), st.integers(1, 16))
@example(dense_from_iter([], Window(-9, 9)), 5)
@example(dense_from_iter([-7], Window(-9, 9)), 16)
@example(dense_from_iter([-20, -4, 12, 3], Window(-20, 12)), 16)
def test_partial_classes_match_a_per_residue_reference(p, g):
    # q is one stride-g progression far from p, with its table set to
    # split: so p is split into its classes mod g, each decoded from p's runs
    q = dense_from_iter(range(5000, 5000 + 3 * g, g), Window(4990, 5000 + 3 * g))
    q_g, classes, _ = sumset._class_table(q)
    assert q_g == g
    read = []
    real = sumset._classes
    target = Window(p.window.lo + q.window.lo, p.window.hi + q.window.hi)
    with mock.patch.object(sumset, "_classes", lambda runs, g: read.append(real(runs, g)) or read[-1]):
        got = sumset.pairwise_sum(p, q, target, (g, classes, True))
    assert len(read) == 1
    assert sorted((c.lo, c.hi, c.terms, c.holes) for c in read[0]) == per_residue_classes(p, g)
    assert got.members() == brute_sumset_of(p.members(), q.members(), target)


def test_witnesses_reverse_the_source_once_and_probe_only_the_target(monkeypatch):
    # no decode of A, one reversal of A per result, and one member test per
    # witness: its entry test of n
    a = dense_from_iter([0, 1, 3, 7, 8, 40, 41, 60], Window(0, 60))
    r = sumset.hfold_exact_bounded_below(a, 3)
    reversals, decodes, probes = [], [], []
    real_reversal = sumset.SumsetResult.reversed_source.func
    counting = functools.cached_property(lambda res: reversals.append(res) or real_reversal(res))
    counting.__set_name__(sumset.SumsetResult, "reversed_source")
    monkeypatch.setattr(sumset.SumsetResult, "reversed_source", counting)
    real_members, real_member = DenseSet.members, DenseSet.member
    monkeypatch.setattr(DenseSet, "members", lambda d: decodes.append(d) or real_members(d))
    monkeypatch.setattr(DenseSet, "member", lambda d, n: probes.append(n) or real_member(d, n))
    assert sumset.witness(r, 5) == (1, 1, 3)
    assert sumset.witness(r, 8) == (0, 0, 8)
    assert sumset.witness(r, 57) == (8, 8, 41)
    assert (reversals, decodes, probes) == ([r], [], [5, 8, 57])


def per_element_witness(result, n):
    """witness by probing A one element at a time: the reference walk."""
    if not result.member(n):
        return None
    vals = result.partials[1].members()
    out, i = [], 0
    for k in range(result.h - 1, -1, -1):
        while not result.partials[k].member(n - vals[i]):
            i += 1
        out.append(vals[i])
        n -= vals[i]
    return tuple(out)


@st.composite
def wide_sparse_folds(draw):
    """Folds of at most a dozen members spread over up to 4000 points of a
    window that may reach below 0: truncated to a cut of the hull, or exact
    on the part of that cut in the safe range when the window starts at 0
    or above."""
    h = draw(st.integers(1, 4))
    lo = draw(st.integers(-400, 50))
    w = Window(lo, lo + draw(st.integers(0, 4000)))
    a = dense_from_iter(draw(st.sets(st.integers(w.lo, w.hi), max_size=12)), w)
    hull = Window(h * w.lo, h * w.hi)
    cut_lo = draw(st.integers(hull.lo, hull.hi))
    cut = Window(cut_lo, draw(st.integers(cut_lo, hull.hi)))
    safe_hi = w.hi + (h - 1) * w.lo
    if w.lo >= 0 and cut.lo <= safe_hi and draw(st.booleans()):
        return sumset.hfold_exact_bounded_below(a, h, Window(cut.lo, min(cut.hi, safe_hi)))
    return sumset.hfold_truncated(a, h, cut)


@settings(max_examples=150, deadline=None)
@given(wide_sparse_folds(), st.data())
def test_witness_matches_the_per_element_walk(r, data):
    points = r.members()
    points += data.draw(st.lists(st.integers(r.target.lo, r.target.hi), max_size=5))
    for n in points:
        assert sumset.witness(r, n) == per_element_witness(r, n), n
