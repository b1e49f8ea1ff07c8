"""Brute-force h-fold sumset kernels on windowed bitsets.

The ground truth the structural theorems are checked against.  hA is
computed by one loop: kA is (k-1)A + A, the OR of one operand shifted by
every member of the other.  Members that form a run with a common stride
are shifted as a group via doubling, which is an algebraic identity on
OR-over-shifts; a sum of two residue classes with few holes is full in its
middle, which is set at once, so only its ends are walked run by run.
Results are bit-identical to the per-element loop (property-tested), and
keep their k-fold partials: h(A u {b}) is h shifts of them, as bits, a
witness one bit search per summand, and the fold of {s} u (B + t) over N0
two shifts per partial of the fold of B.  Representation multiplicities,
saturated at two, are added run by run too: the sums of c copies from one
run are a saturating dilation by an AP.
"""

from __future__ import annotations

import bisect
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainConstraint, TargetExceedsSafeRange
from .intset import DenseSet, Window, ap_bits, dilate_or

EXACT = "exact"
LOWER_BOUND = "lower_bound"

# Strides always tried when splitting a set into runs.  The gaps between
# its lowest _HEAD_MEMBERS members (those within _HEAD_BITS of the
# smallest) are tried too, so a family of stride h > 8 finds h.
_SMALL_STRIDES = range(1, 9)
_HEAD_MEMBERS = 9
_HEAD_BITS = 4096


@dataclass(frozen=True)
class SumsetResult:
    """An h-fold sumset on target, folded from a set on source.

    partials[k] is the k-fold sumset kA on the clip window of the k-th fold
    step (the k-element subtotals that h-k more source elements can still
    complete to a target value), or None where that window is empty, for
    k = 0..h; adjoin and witness read them.
    """

    h: int
    source: Window
    target: Window
    dense: DenseSet
    exactness: str
    partials: tuple[DenseSet | None, ...] = field(compare=False, repr=False)

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


def _fewest_runs(bits: int) -> tuple[int, int]:
    """The candidate stride g with the fewest runs, and the edges of its runs.

    The edges at g are bits ^ (bits << g): each stride-g run has exactly
    two, its first member b and the point e + g past its last member e.  So
    the runs at g are counted by one popcount, halved, and the first
    minimum in ascending g wins.
    """
    if not bits:
        return 1, 0
    strides = set(_SMALL_STRIDES)
    # the lowest members, shifted so that the first one is bit 0
    head = (bits >> ((bits & -bits).bit_length() - 1)) & ((1 << _HEAD_BITS) - 1)
    prev = 0
    for _ in range(_HEAD_MEMBERS - 1):
        head &= head - 1  # drop the member at prev
        if not head:
            break
        at = (head & -head).bit_length() - 1
        strides.add(at - prev)
        prev = at
    best = None
    for g in sorted(strides):
        edges = bits ^ (bits << g)
        runs = edges.bit_count()
        if best is None or runs < best[0]:
            best = runs, g, edges
    return best[1], best[2]


def _runs_at(a: DenseSet, g: int, edges: int) -> list[tuple[int, int, int]]:
    """The stride-g runs of a as (start, g, count), in ascending order, from
    their edges bits ^ (bits << g), decoded once.

    Within one residue class mod g the edges alternate between a run's first
    member b and the point past its last one, so they pair up in order as
    (b, stop) with count (stop - b) // g.  A stop past the window is not
    decoded: it is the one point of its class in [hi + 1, hi + g], where hi
    is the window's top.
    """
    w = a.window
    out: list = []  # a run's start until its stop is read, then the run
    open_at: dict[int, int] = {}  # residue mod g -> index in out of its open run
    for e in DenseSet(w, edges & ((1 << w.width) - 1)).members():
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


def arith_chains(a: DenseSet) -> list[tuple[int, int, int]]:
    """The members of a as (start, stride, count) runs, in ascending order,
    all at the stride g of _fewest_runs."""
    return _runs_at(a, *_fewest_runs(a.bits))


_Class = namedtuple("_Class", "starts counts lo hi terms holes")


def _classes(runs: list[tuple[int, int, int]], g: int) -> list[_Class]:
    """Per nonempty residue class mod g of the stride-g runs: its runs'
    starts and counts, and its hull [lo, hi] of `terms` points and `holes`."""
    grouped: dict[int, list[tuple[int, int]]] = {}
    for a0, _, cnt in runs:
        grouped.setdefault(a0 % g, []).append((a0, cnt))
    out = []
    for starts, counts in (zip(*run_list) for run_list in grouped.values()):
        lo, hi = starts[0], starts[-1] + (counts[-1] - 1) * g
        terms = (hi - lo) // g + 1
        out.append(_Class(starts, counts, lo, hi, terms, terms - sum(counts)))
    return out


def _class_table(a: DenseSet) -> tuple[int, list[_Class], bool]:
    """The stride g of a's chains, a's classes mod g, and whether some class
    splits against a copy of itself."""
    chains = arith_chains(a)
    g = chains[0][1] if chains else 1
    classes = _classes(chains, g)
    return g, classes, any(_splits(c, g, c.terms, 2 * c.holes) for c in classes)


def _cut(c: _Class, g: int, x0: int, x1: int) -> Iterator[tuple[int, int]]:
    """c's chains cut to [x0, x1], as (start, count)."""
    first = max(bisect.bisect_right(c.starts, x0) - 1, 0)
    for i in range(first, bisect.bisect_right(c.starts, x1)):
        a0, cnt = c.starts[i], c.counts[i]
        k0, k1 = max(0, -((a0 - x0) // g)), min(cnt - 1, (x1 - a0) // g)
        if k0 <= k1:
            yield a0 + k0 * g, k1 - k0 + 1


def _splits(c: _Class, g: int, terms: int, m: int) -> bool:
    """Whether c plus a class of `terms` points, m holes between the two,
    is filled in its middle and walked only at its ends.

    A sum point j steps above the low end of the hull, m <= j <= c.terms +
    terms - 2 - m, has over m representations in the hulls and a hole
    spoils one each, so the middle is full when both classes have over m
    points.  Walking c's chains within (m - 1) * g of its ends pays only
    while they are at most half of c's chains, so c needs four or more."""
    if min(c.terms, terms) - 1 < m:
        return False
    n = len(c.starts)
    w = (m - 1) * g  # chains starting in the low end, plus those meeting the high end
    ends = bisect.bisect_right(c.starts, c.lo + w) + n + 1 - bisect.bisect_right(c.starts, c.hi - w)
    return 2 * ends <= n


def _walk(p: DenseSet, lo: int, hi: int, chains, g: int, target: Window) -> int:
    """Bits on target of (p cut to [lo, hi]) + the (start, count) chains of
    stride g, one dilation per chain; bits above target may remain."""
    lo, hi = max(lo, p.window.lo), min(hi, p.window.hi)
    bits = (p.bits >> (lo - p.window.lo)) & ((1 << max(hi - lo + 1, 0)) - 1)
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
    q_table: tuple[int, list[_Class], bool] | None = None,
) -> DenseSet:
    """(p + q) intersected with target; exact as a set sum of the two sets.

    p is split into residue classes mod the stride g of q's chains, from
    q_table = _class_table(q), when some class of q splits against a copy
    of itself, else it is one class of no terms.  p's classes come from its
    stride-g runs, decoded as q's are, or are q's own when p equals q.  A
    one-point class of p is one shift of q.  A class of q that _splits
    against each other class of p is one filled progression per pair plus
    two end walks, each over p cut to the hull of the end windows; any
    other class of q is walked whole.  Each bit ORed in is a sum of a
    member of p and one of q, and every such sum is covered."""
    g, classes, can_split = q_table if q_table is not None else _class_table(q)
    if not can_split:
        p_classes = [_Class((), (), p.window.lo, p.window.hi, 0, 0)]
    elif p == q:
        p_classes = classes
    else:
        p_classes = _classes(_runs_at(p, g, p.bits ^ (p.bits << g)), g)
    points = sorted((pc.lo, 1) for pc in p_classes if pc.terms == 1)
    acc = _walk(q, q.window.lo, q.window.hi, points, g, target) if points else 0
    p_classes = [pc for pc in p_classes if pc.terms != 1]
    if not p_classes:
        return DenseSet(target, acc & ((1 << target.width) - 1))
    p_lo, p_hi = min(pc.lo for pc in p_classes), max(pc.hi for pc in p_classes)
    for c in classes:
        split = [(pc.lo, pc.hi, c.holes + pc.holes) for pc in p_classes
                 if _splits(c, g, pc.terms, c.holes + pc.holes)]
        if len(split) < len(p_classes):  # walking all of c over p covers every pair
            acc |= _walk(p, p_lo, p_hi, zip(c.starts, c.counts), g, target)
            continue
        for lo, hi, m in split:
            acc |= ap_bits(c.lo + lo + m * g, g, c.hi + hi - m * g, target)
        w = (max(m for _, _, m in split) - 1) * g
        low_hi = max(lo + (m - 1) * g for lo, _, m in split)
        acc |= _walk(p, p_lo, low_hi, _cut(c, g, c.lo, c.lo + w), g, target)
        high_lo = min(hi - (m - 1) * g for _, hi, m in split)
        acc |= _walk(p, high_lo, p_hi, _cut(c, g, c.hi - w, c.hi), g, target)
    return DenseSet(target, acc & ((1 << target.width) - 1))


def _clip_window(k: int, h: int, src: Window, target: Window) -> Window | None:
    # Values of a k-element subtotal that can still be completed to a target
    # sum with h-k more elements from the source window.
    lo = max(k * src.lo, target.lo - (h - k) * src.hi)
    hi = min(k * src.hi, target.hi - (h - k) * src.lo)
    if lo > hi:
        return None
    return Window(lo, hi)


def _fold(a: DenseSet, h: int, target: Window) -> tuple[DenseSet | None, ...]:
    # kA on its clip window for k = 0..h, each step one pairwise sum with a
    # through a's class table, built once.  A nonempty clip window has a
    # nonempty one before it, so the empty windows are a suffix.
    windows = [_clip_window(k, h, a.window, target) for k in range(h + 1)]
    table = _class_table(a) if h > 1 and windows[2] is not None else None
    out: list[DenseSet | None] = []
    for k, wk in enumerate(windows):
        if wk is None:
            return tuple(out) + (None,) * (h + 1 - k)
        if k == 0:
            out.append(DenseSet(wk, 1))  # the window is [0, 0]
        elif k == 1:
            out.append(a.restrict(wk))
        else:
            out.append(pairwise_sum(out[-1], a, wk, table))
    return tuple(out)


def _folded(a: DenseSet, h: int, target: Window, exactness: str) -> SumsetResult:
    partials = _fold(a, h, target)
    top = partials[h]
    dense = DenseSet(target, 0) if top is None else top.restrict(target)
    return SumsetResult(h, a.window, target, dense, exactness, partials)


def hfold_exact_bounded_below(
    a: DenseSet,
    h: int,
    target: Window | None = None,
) -> SumsetResult:
    """Exact h-fold sumset of a set bounded below by its window.

    The caller asserts the underlying set has no elements below
    a.window.lo.  Then for targets up to a.window.hi + (h-1)*a.window.lo
    every representation of a target element uses only summands inside the
    window, so the windowed computation is exact there.
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
    return _folded(a, h, target, EXACT)


def hfold_truncated(a: DenseSet, h: int, target: Window) -> SumsetResult:
    """Exact h-fold sumset of the truncated set a, clipped to target.

    Sound lower bound for the sumset of any superset of a: every reported
    member is a real sum of h window elements.
    """
    if h < 1:
        raise DomainConstraint(f"h must be >= 1, got {h}")
    return _folded(a, h, target, LOWER_BOUND)


def _shift_union(terms, target: Window) -> DenseSet:
    """The union of p + c over the (p, c) terms, cut to target, one shift
    each; a None p is empty."""
    bits = 0
    for p, c in terms:
        if p is not None:
            off = p.window.lo + c - target.lo
            bits |= (p.bits << off) if off >= 0 else (p.bits >> -off)
    return DenseSet(target, bits & ((1 << target.width) - 1))


def restrict_fold(fold: SumsetResult, hi: int) -> SumsetResult:
    """fold cut to [0, hi]: equal, partials too, to the fold on [0, hi].

    fold is hB folded on its whole source [0, H] (no target), for a set B
    of nonnegative integers, and hi <= H.  Every summand and subtotal of a
    sum up to hi lies in [0, hi], so kB on [0, hi] is read off B there, and
    every partial's clip window is [0, hi] (k >= 1) or [0, 0].
    """
    src = fold.source
    if src.lo != 0 or fold.target != src or not 0 <= hi <= src.hi:
        raise DomainConstraint(f"cannot cut a fold on {src.lo}:{src.hi} to 0:{hi}")
    w = Window(0, hi)
    partials = fold.partials[:1] + tuple(p.restrict(w) for p in fold.partials[1:])
    return SumsetResult(fold.h, w, w, partials[-1], fold.exactness, partials)


def hfold_point_union(fold: SumsetResult, s: int, t: int, target: Window) -> SumsetResult:
    """Exact h-fold of A = {s} u (B + t) on target, by shifts of the
    partials of hB; equal, partials too, to hfold_exact_bounded_below of A
    on fold's source.

    fold is hB folded on its whole source [0, hi] (no target), s and t are
    >= 0, and target lies in [0, hi].  Then every summand of a sum of A up
    to hi lies in [0, hi], and so does every subtotal.  A k-element sum
    with no copy of s is k*t plus one of kB, and one with a copy is s plus
    a (k-1)-element sum: kA = (k*t + kB) u (s + (k-1)A), two shifts per k.
    """
    h, src = fold.h, fold.source
    if src.lo != 0 or fold.target != src:
        raise DomainConstraint("hfold_point_union needs hB folded on its whole source [0, hi]")
    if s < 0 or t < 0:
        raise DomainConstraint(f"s and t must be >= 0, got s={s} t={t}")
    if target.lo < 0 or target.hi > src.hi:
        raise TargetExceedsSafeRange(
            f"target {target.lo}:{target.hi} outside safe range 0:{src.hi}"
        )
    partials = [fold.partials[0]]
    for k in range(1, h + 1):
        terms = ((fold.partials[k], k * t), (partials[-1], s))
        partials.append(_shift_union(terms, _clip_window(k, h, src, target)))
    return SumsetResult(h, src, target, partials[h], EXACT, tuple(partials))


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
