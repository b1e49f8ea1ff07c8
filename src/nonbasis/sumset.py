"""Brute-force h-fold sumset kernels on windowed bitsets.

The ground truth the structural theorems are checked against.  hA is
computed by one loop: kA is (k-1)A + A, the OR of one operand shifted by
every member of the other.  Members that form a run with a common stride
are shifted as a group via doubling, which is an algebraic identity on
OR-over-shifts.  The stride is the caller's, read off the set's description
(intset.stride: h for a family's A, 1 for N0 minus Y); any stride gives the
same sums, so none is searched for.  A fold step sums the two operands'
residue classes mod the stride pair by pair, by one rule: two classes with
more points each than holes together sum to a progression full in its
middle, which is set at once, so only its ends are walked run by run,
however many runs; any other pair is walked whole.
Results are bit-identical to the per-element loop (property-tested), and
keep their k-fold partials: h(A u {b}) is h shifts of them, as bits, a
witness one bit search per summand, and the fold of {s} u (B + t) two
shifts per partial of a fold of B.  Representation multiplicities,
saturated at two, are added run by run too: the sums of c copies from one
run are a saturating dilation by an AP.
"""

from __future__ import annotations

import bisect
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property

from .errors import DomainConstraint, TargetExceedsSafeRange
from .intset import DenseSet, Window, ap_bits, dilate_or
from .record import Record


class SumsetResult(Record):
    """An h-fold sumset on target, folded from a set on source.

    partials[k] is the k-fold sumset kA on the clip window of the k-th fold
    step (the k-element subtotals that h-k more source elements can still
    complete to a target value), or None where that window is empty, for
    k = 0..h; adjoin and witness read them.  table is the class_table of A
    that a fold's steps read: every fold carries it, from the one builder,
    and it is None only on a result no fold built (a point union or a
    store's view).  Neither is compared or printed.  Whether hA is exact
    is the claim of the entry point that folded it, not of the result.
    """

    _fields = ("h", "source", "target", "dense")

    def __init__(self, h, source, target, dense, partials, table=None):
        self.h, self.source, self.target, self.dense = h, source, target, dense
        self.partials, self.table = partials, table

    def member(self, n: int) -> bool:
        return self.dense.member(n)

    def members(self) -> list[int]:
        return self.dense.members()

    @cached_property
    def reversed_source(self) -> int:
        """partials[1] (A on its clip window) bit-reversed, so bit j stands
        for its window's hi - j; built once per result for witness."""
        a = self.partials[1]
        return int(format(a.bits, f"0{a.window.width}b")[::-1], 2)


def arith_chains(a: DenseSet, g: int) -> list[tuple[int, int, int]]:
    """The members of a as (start, g, count) runs, in ascending order.

    The stride g comes from the caller, who reads it off the set's
    description (intset.stride): h for a family's A, 1 for N0 minus Y.
    Any g >= 1 gives a's members; a good one gives few runs.  The runs
    come from their edges bits ^ (bits << g), decoded once: each run has
    exactly two edges, its first member b and the point past its last one;
    within one residue class mod g they alternate, so they pair up in
    order as (b, stop) with count (stop - b) // g.  A stop past the window
    is not decoded: it is the one point of its class in [hi + 1, hi + g],
    where hi is the window's top."""
    w = a.window
    edges = (a.bits ^ (a.bits << g)) & ((1 << w.width) - 1)
    out: list = []  # a run's start until its stop is read, then the run
    open_at: dict[int, int] = {}  # residue mod g -> index in out of its open run
    for e in DenseSet(w, edges).members():
        r = e % g
        i = open_at.pop(r, None)
        if i is None:
            open_at[r] = len(out)
            out.append(e)
        else:
            out[i] = (out[i], g, (e - out[i]) // g)
    past = w.hi + 1
    for r, i in open_at.items():
        out[i] = (out[i], g, (past + (r - past) % g - out[i]) // g)
    return out


_Class = namedtuple("_Class", "starts counts lo hi terms holes")


def _class(starts: tuple[int, ...], counts: tuple[int, ...], g: int) -> _Class:
    # one residue class from its runs' starts and counts, ascending
    lo, hi = starts[0], starts[-1] + (counts[-1] - 1) * g
    terms = (hi - lo) // g + 1
    return _Class(starts, counts, lo, hi, terms, terms - sum(counts))


def class_table(a: DenseSet, g: int, below: Sequence[_Class] = ()) -> tuple[int, list[_Class]]:
    """The stride g and, per nonempty class mod g of a's stride-g chains,
    its runs' starts and counts and its hull [lo, hi] of `terms` points and
    `holes`: the q_table that pairwise_sum reads for a as its q.

    With below, the classes of A on [0, H], and a = A on [H + 1, hi], it
    is A's table on [0, hi], from a's chains only: a class's first run in
    a joins its last in below when it continues it, and a class first met
    in a comes after the kept ones."""
    grouped: dict[int, list[tuple[int, int]]] = {}
    for a0, _, cnt in arith_chains(a, g):
        grouped.setdefault(a0 % g, []).append((a0, cnt))
    classes = []
    for c in below:
        runs = grouped.pop(c.lo % g, None)
        if runs is not None:
            starts, counts = zip(*runs)
            last = c.counts[-1]
            if starts[0] == c.hi + g:  # a continues the class's last kept run
                starts, counts, last = starts[1:], counts[1:], last + counts[0]
            c = _class(c.starts + starts, c.counts[:-1] + (last,) + counts, g)
        classes.append(c)
    return g, classes + [_class(*zip(*runs), g) for runs in grouped.values()]


def _cut(c: _Class, g: int, x0: int, x1: int) -> Iterator[tuple[int, int]]:
    """c's chains cut to [x0, x1], as (start, count)."""
    first = max(bisect.bisect_right(c.starts, x0) - 1, 0)
    for i in range(first, bisect.bisect_right(c.starts, x1)):
        a0, cnt = c.starts[i], c.counts[i]
        k0, k1 = max(0, -((a0 - x0) // g)), min(cnt - 1, (x1 - a0) // g)
        if k0 <= k1:
            yield a0 + k0 * g, k1 - k0 + 1


def _splits(c: _Class, terms: int, m: int) -> bool:
    """Whether c plus a class of `terms` points, m holes between the two,
    is filled in its middle and walked only at its ends.

    A sum point j steps above the low end of the hull, m <= j <= c.terms +
    terms - 2 - m, has over m representations in the hulls and a hole
    spoils one each, so the middle is full when both classes have over m
    points."""
    return min(c.terms, terms) - 1 >= m


def _walk(p: DenseSet, lo: int, hi: int, chains, g: int, target: Window) -> int:
    """Bits on target of (p cut to [lo, hi]) + the (start, count) chains of
    stride g, one dilation per chain; bits above target may remain."""
    lo, hi = max(lo, p.window.lo), min(hi, p.window.hi)
    if lo > hi:
        return 0
    if hi - p.window.lo < p.window.hi - lo:  # cut from the nearer end: O(hi - lo) bits
        bits = (p.bits & ((2 << (hi - p.window.lo)) - 1)) >> (lo - p.window.lo)
    else:
        bits = (p.bits >> (lo - p.window.lo)) & ((1 << (hi - lo + 1)) - 1)
    nbits, width, acc = bits.bit_length(), target.width, 0
    for a0, cnt in chains:
        off = lo + a0 - target.lo
        if off >= width:
            break
        reach = nbits + (cnt - 1) * g
        if off + reach > 0:
            r = dilate_or(bits, g, cnt, min(width - off, reach)) if cnt > 1 else bits
            acc |= (r << off) if off >= 0 else (r >> -off)
    return acc


def pairwise_sum(
    p: DenseSet,
    q: DenseSet,
    target: Window,
    q_table: tuple[int, list[_Class]],
) -> DenseSet:
    """(p + q) intersected with target; exact as a set sum of the two sets.

    q_table = class_table(q, g) holds q's classes mod the stride g of its
    chains; p's are read the same way, or are q's own when p equals q.
    Each pair of a class of q and a class of p is summed by one rule.  A
    one-point class is one shift of the other class (of all of p, for a
    class of q: its pairs with every class of p at once).  A pair that
    _splits, m holes between its classes, is one filled progression plus
    two end walks over p cut to the end windows, m - 1 steps wide; any
    other pair is walked whole over p cut to the hull.  Each bit ORed in
    is a sum of a member of p and one of q, and every such sum is covered."""
    g, classes = q_table
    p_table = classes if p == q else class_table(p, g)[1]
    acc = 0
    for c in classes:
        if c.terms == 1:
            acc |= _walk(p, p.window.lo, p.window.hi, ((c.lo, 1),), g, target)
            continue
        for pc in p_table:
            m = c.holes + pc.holes
            if pc.terms == 1:
                acc |= _walk(q, c.lo, c.hi, ((pc.lo, 1),), g, target)
            elif _splits(c, pc.terms, m):
                acc |= ap_bits(c.lo + pc.lo + m * g, g, c.hi + pc.hi - m * g, target)
                w = (m - 1) * g
                acc |= _walk(p, pc.lo, pc.lo + w, _cut(c, g, c.lo, c.lo + w), g, target)
                acc |= _walk(p, pc.hi - w, pc.hi, _cut(c, g, c.hi - w, c.hi), g, target)
            else:
                acc |= _walk(p, pc.lo, pc.hi, zip(c.starts, c.counts), g, target)
    return DenseSet(target, acc & ((1 << target.width) - 1))


def _clip_window(k: int, h: int, src: Window, target: Window) -> Window | None:
    # Values of a k-element subtotal that can still be completed to a target
    # sum with h-k more elements from the source window.
    lo = max(k * src.lo, target.lo - (h - k) * src.hi)
    hi = min(k * src.hi, target.hi - (h - k) * src.lo)
    if lo > hi:
        return None
    return Window(lo, hi)


def _fold(
    a: DenseSet, h: int, target: Window, stride: int
) -> tuple[tuple[DenseSet | None, ...], tuple | None]:
    # kA on its clip window for k = 0..h, each step one pairwise sum with a
    # through a's class table at stride, built once and handed back with
    # the partials.  Each clip window is nonempty just when the target meets
    # [h*lo, h*hi], a's window being [lo, hi]: all are empty or none is.
    windows = [_clip_window(k, h, a.window, target) for k in range(h + 1)]
    if windows[0] is None:
        return (None,) * (h + 1), None
    table = class_table(a, stride)
    out = [DenseSet(windows[0], 1), a.restrict(windows[1])]  # windows[0] is [0, 0]
    for wk in windows[2:]:
        out.append(pairwise_sum(out[-1], a, wk, table))
    return tuple(out), table


def _result(partials, table, source: Window, target: Window) -> SumsetResult:
    # the fold result whose partials are kA for k = 0..h; hA is the last
    top = partials[-1]
    dense = DenseSet(target, 0) if top is None else top.restrict(target)
    return SumsetResult(len(partials) - 1, source, target, dense, tuple(partials), table)


def hfold_exact_bounded_below(
    a: DenseSet,
    h: int,
    target: Window | None = None,
    *,
    stride: int,
) -> SumsetResult:
    """Exact h-fold sumset of a set bounded below by its window.

    The caller asserts the underlying set has no elements below
    a.window.lo.  Then for targets up to a.window.hi + (h-1)*a.window.lo
    every representation of a target element uses only summands inside the
    window, so the windowed computation is exact there.  The fold walks a
    in runs of the given stride, which the caller reads off a's description
    (intset.stride); the result is the same at any stride.
    """
    if h < 1:
        raise DomainConstraint(f"h must be >= 1, got {h}")
    m, n = a.window.lo, a.window.hi
    safe = Window(h * m, n + (h - 1) * m)
    if target is None:
        target = safe
    if target.lo < safe.lo or target.hi > safe.hi:
        raise TargetExceedsSafeRange(
            f"target {target.lo}:{target.hi} outside safe range {safe.lo}:{safe.hi}"
        )
    return _result(*_fold(a, h, target, stride), a.window, target)


def hfold_truncated(a: DenseSet, h: int, target: Window, *, stride: int) -> SumsetResult:
    """Exact h-fold sumset of the truncated set a, clipped to target.

    Sound lower bound for the sumset of any superset of a: every reported
    member is a real sum of h window elements.  stride is as for
    hfold_exact_bounded_below.
    """
    if h < 1:
        raise DomainConstraint(f"h must be >= 1, got {h}")
    return _result(*_fold(a, h, target, stride), a.window, target)


def widen(fold: SumsetResult, band: DenseSet) -> SumsetResult:
    """fold, the exact fold of A >= 0 on [0, H], widened to [0, hi] at its
    depth, given band, A on (H, hi].  A sum in (H, hi] of k points of A >= 0
    has every summand <= hi, so the band of kA is that of (k-1)A + A, both
    on [0, hi]: one pairwise_sum step per partial k >= 2, through fold's
    class table joined with the band's chains (class_table with below)."""
    wide = Window(0, band.window.hi)
    a = DenseSet(wide, fold.partials[1].bits | band.bits << band.window.lo)
    table = class_table(band, *fold.table)
    grown = [fold.partials[0], a]
    for low in fold.partials[2:]:
        step = pairwise_sum(grown[-1], a, band.window, table)
        grown.append(DenseSet(wide, low.bits | step.bits << band.window.lo))
    return _result(grown, table, wide, wide)


def deepen(fold: SumsetResult, h: int) -> SumsetResult:
    """fold, the exact fold of A >= 0 on [0, H], deepened to depth h: one
    pairwise_sum step per missing k, through the class table the fold
    carries (one built at h = 1 carries it too)."""
    partials, a = list(fold.partials), fold.partials[1]
    while len(partials) <= h:
        partials.append(pairwise_sum(partials[-1], a, a.window, fold.table))
    return _result(partials, fold.table, a.window, a.window)


def _shift_union(terms, target: Window) -> DenseSet:
    """The union of p + c over the (p, c) terms, cut to target, one shift
    each; a None p is empty."""
    bits = 0
    for p, c in terms:
        if p is not None:
            off = p.window.lo + c - target.lo
            bits |= (p.bits << off) if off >= 0 else (p.bits >> -off)
    return DenseSet(target, bits & ((1 << target.width) - 1))


def hfold_point_union(
    fold: SumsetResult, s: int, t: int, source: Window, target: Window
) -> SumsetResult:
    """hA on target for A = {s} u (B + t) on source, by shifts of the
    partials of a fold of B; equal, partials too, to the fold of A.

    A k-element sum with no copy of s is k*t plus one of kB, and one with a
    copy is s plus a (k-1)-element sum: kA = (k*t + kB) u (s + (k-1)A) on
    A's k-th clip window C, two shifts per k (one for s outside source).
    That holds for B cut to source - t while fold's partial k is kB on
    C - k*t.  The truncated fold of B on source - t with target
    target - h*t has exactly those windows; over N0 (t >= 0, A on [0, hi])
    so does the fold of B >= 0 on any whole source [0, H], H >= hi, since a
    sum of B up to hi - k*t has no summand past hi - t.  A partial that
    misses a point of C - k*t that k elements of fold's source can sum to
    raises DomainConstraint.
    """
    h, fs, with_s = fold.h, fold.source, source.contains(s)
    partials: list[DenseSet | None] = []
    for k, part in enumerate(fold.partials):
        clip = _clip_window(k, h, source, target)
        if clip is not None:
            lo, hi = max(clip.lo - k * t, k * fs.lo), min(clip.hi - k * t, k * fs.hi)
            if lo <= hi and (part is None or lo < part.window.lo or hi > part.window.hi):
                raise DomainConstraint(f"fold partial {k} does not cover {lo}:{hi}")
            terms = ((part, k * t), (partials[-1] if k and with_s else None, s))
            clip = _shift_union(terms, clip)  # kA on its clip window
        partials.append(clip)
    return _result(partials, None, source, target)


def adjoin(result: SumsetResult, b: int) -> DenseSet:
    """h(A u {b}) on result's target, as bits, built from the partials of hA.

    A u {b} is taken on the same source window, so a b outside it adds
    nothing.  h(A u {b}) is the union over j = 0..h of j*b + (h-j)A, and
    with b in the source every (h-j)A value that lands in the target lies
    in the clip window of its partial, so this is h shifts and no fold.
    """
    h = result.h
    terms = [(result.dense, 0)]
    if result.source.contains(b):
        terms += [(result.partials[h - j], j * b) for j in range(1, h + 1)]
    return _shift_union(terms, result.target)


def witness(result: SumsetResult, n: int) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted multiset of h source elements
    summing to n, read off the fold's partials; None when n is not in result.

    The least v in A with n - v in (h-1)A is the least element of every
    representation of n, and any representation of n - v by h-1 elements
    plus v is one of n, so the walk takes v and repeats on n - v.  The
    elements taken never decrease, since a smaller one would have been
    taken a step earlier.  Every subtotal the walk visits can still
    complete to n, so it lies in its partial's clip window.  Each step is
    one bit search: kA ANDed with A reversed about n marks the subtotals p
    with n - p in A, and the highest one gives the least v = n - p.
    """
    if not result.member(n):
        return None
    top = result.partials[1].window.hi
    rev = result.reversed_source
    out: list[int] = []
    for k in range(result.h - 1, -1, -1):
        rest = result.partials[k]
        # bit i of the AND stands for p = rest.window.lo + i, whose n - p is
        # bit top - n + p of rev
        shift = top - n + rest.window.lo
        hits = rest.bits & (rev >> shift if shift >= 0 else rev << -shift)
        p = rest.window.lo + hits.bit_length() - 1
        out.append(n - p)
        n = p
    return tuple(out)


def _dilate_pair(x1: int, x2: int, gap: int, count: int, maxbits: int) -> tuple[int, int]:
    """Saturated sum of the count pair (x1, x2) shifted by 0, gap, ...,
    (count-1)*gap, with counts capped at two, as a (>= 1, >= 2) pair.

    The shifts are split into binary blocks, so every combine adds two
    pairs over disjoint shift sets: z1 = x1|y1, z2 = x2|y2|(x1&y1).  Bits at
    or above maxbits are dropped, which is safe because bits only move up.
    """
    mask = (1 << maxbits) - 1
    b1, b2 = x1 & mask, x2 & mask  # the pair over shifts 0..span-1
    r1 = r2 = 0  # the pair over shifts 0..done-1
    span = 1
    done = 0
    while count:
        if count & 1:
            y1, y2 = (b1 << (gap * done)) & mask, (b2 << (gap * done)) & mask
            r2 |= y2 | (r1 & y1)
            r1 |= y1
            done += span
        count >>= 1
        if count:
            y1, y2 = (b1 << (gap * span)) & mask, (b2 << (gap * span)) & mask
            b2 |= y2 | (b1 & y1)
            b1 |= y1
            span *= 2
    return r1, r2


def multiplicity_pair(
    chains: list[tuple[int, int, int]], h: int, target: Window
) -> tuple[DenseSet, DenseSet]:
    """(at_least_one, at_least_two) representation multiplicities on target.

    The set is given as its chains (start, stride, count): disjoint
    arithmetic progressions in ascending order of start, as arith_chains
    returns them or a caller that knows its set's shape names them.  The
    first result holds each n in target with at least one multiset
    representation as a sum of h elements of the set, the second each n
    with at least two.  Counts are saturated at two, and the chains are
    added one at a time: row u gains, for c = 1..u, row u-c (still without
    this chain, as u runs h..1) plus c copies from the chain.

    c copies from the chain (a0, g, L) sum to c*a0 + g*j for j in
    [0, c(L-1)], in as many ways as j has partitions into at most c parts
    of at most L-1.  That is one way at j = 0, 1, c(L-1)-1 and c(L-1), and
    at least two strictly between when c >= 2 and L >= 3; for c = 1 or
    L <= 2 it is one way everywhere.  So the step is a saturating dilation
    by the AP 0, g, ..., c(L-1)g, plus the >= 1 row dilated by the middle
    AP 2g, ..., (c(L-1)-2)g into >= 2.  Saturated counts depend only on
    saturated inputs, so the chains combine exactly.  The rows keep bit
    n - u*lo for a u-element sum n, lo the least member, and are cut at
    the bit of target.hi.  Cost: O(chains * h^2 * log L) big-int shifts,
    where the per-element recurrence took O(|set| * h); a set of many
    short chains is slower this way.
    """
    if not chains or target.hi < h * chains[0][0]:
        return DenseSet(target, 0), DenseSet(target, 0)
    lo = chains[0][0]
    relmax = target.hi - h * lo
    maxbits = relmax + 1
    ge1 = [1] + [0] * h
    ge2 = [0] * (h + 1)
    for a0, g, L in chains:
        p = a0 - lo
        if p > relmax:
            break
        for u in range(h, 0, -1):
            n1, n2 = ge1[u], ge2[u]
            for c in range(1, u + 1):
                if c * p > relmax:
                    break
                if not ge1[u - c]:
                    continue
                x1, x2 = ge1[u - c] << (c * p), ge2[u - c] << (c * p)
                span = c * (L - 1)
                t1, t2 = _dilate_pair(x1, x2, g, span + 1, maxbits)
                if c >= 2 and L >= 3:
                    t2 |= dilate_or(x1 << (2 * g), g, span - 3, maxbits)
                n2 |= t2 | (n1 & t1)
                n1 |= t1
            ge1[u], ge2[u] = n1, n2
    rows = Window(h * lo, target.hi)
    return DenseSet(rows, ge1[h]).restrict(target), DenseSet(rows, ge2[h]).restrict(target)
