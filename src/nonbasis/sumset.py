"""Brute-force h-fold sumset kernels on windowed bitsets.

The ground truth the structural theorems are checked against.  hA is
computed by one loop: kA is (k-1)A + A, the OR of one operand shifted by
every member of the other.  Members that form a run with a common stride
are shifted as a group via doubling, which is an algebraic identity on
OR-over-shifts, and each step walks the runs of whichever operand has
fewer.  Results are bit-identical to the per-element loop (property-tested).
Representation multiplicities, saturated at two, are added run by run too:
the sums of c copies from one run are a saturating dilation by an AP.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import TargetExceedsSafeRange
from .intset import DenseSet, Window, dilate_or

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
    k = 0..h.  Every fold fills it; a result built by adjoin has none.
    """

    h: int
    source: Window
    target: Window
    dense: DenseSet
    exactness: str
    partials: tuple[DenseSet | None, ...] = field(default=(), compare=False, repr=False)

    def member(self, n: int) -> bool:
        return self.dense.member(n)

    def members(self) -> list[int]:
        return self.dense.members()


def _fewest_runs(bits: int) -> tuple[int, int]:
    """(stride, run count) of the candidate stride with the fewest runs.

    A stride-g run starts at each member whose g-predecessor is not a
    member, so the runs are counted by one popcount per candidate.
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
    runs = {g: (bits & ~(bits << g)).bit_count() for g in sorted(strides)}
    g = min(runs, key=runs.get)
    return g, runs[g]


def arith_chains(a: DenseSet) -> list[tuple[int, int, int]]:
    """The members of a as (start, stride, count) runs, in ascending order.

    Every run has the candidate stride g with the fewest runs.  Run starts
    are the members without a g-predecessor and run ends the members
    without a g-successor, both read off the bits; within one residue class
    mod g the starts and ends alternate, so they pair up in order.
    """
    x = a.bits
    g, _ = _fewest_runs(x)
    ends_of: dict[int, list[int]] = {}
    for e in DenseSet(a.window, x & ~(x >> g)).members():
        ends_of.setdefault(e % g, []).append(e)
    ends = {r: iter(es) for r, es in ends_of.items()}
    return [
        (b, g, (next(ends[b % g]) - b) // g + 1)
        for b in DenseSet(a.window, x & ~(x << g)).members()
    ]


def pairwise_sum(
    p: DenseSet,
    q: DenseSet,
    target: Window,
    q_chains: list[tuple[int, int, int]] | None = None,
) -> DenseSet:
    """(p + q) intersected with target; exact as a set sum of the two sets."""
    if q_chains is None:
        q_chains = arith_chains(q)
    acc = 0
    for a0, g, cnt in q_chains:
        frame_lo = p.window.lo + a0
        if frame_lo > target.hi:
            continue
        span = target.hi - frame_lo + 1
        base = p.bits & ((1 << span) - 1)
        if base == 0:
            continue
        r = dilate_or(base, g, cnt, span) if cnt > 1 else base
        off = frame_lo - target.lo
        acc |= (r << off) if off >= 0 else (r >> -off)
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
    # kA on its clip window for k = 0..h, each step one pairwise sum with a.
    # A nonempty clip window has a nonempty one before it, so the empty
    # windows are a suffix.  The set sum is symmetric, so walking the runs
    # of (k-1)A instead of A's, when it has fewer, gives the same bits.
    src = a.window
    chains = arith_chains(a) if h > 1 else []
    out: list[DenseSet | None] = []
    for k in range(h + 1):
        wk = _clip_window(k, h, src, target)
        if wk is None:
            return tuple(out) + (None,) * (h + 1 - k)
        if k == 0:
            out.append(DenseSet(wk, 1))  # the window is [0, 0]
        elif k == 1:
            out.append(a.restrict(wk))
        elif _fewest_runs(out[-1].bits)[1] < len(chains):
            out.append(pairwise_sum(a, out[-1], wk, arith_chains(out[-1])))
        else:
            out.append(pairwise_sum(out[-1], a, wk, chains))
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
        raise TargetExceedsSafeRange(f"h must be >= 1, got {h}")
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
        raise TargetExceedsSafeRange(f"h must be >= 1, got {h}")
    return _folded(a, h, target, LOWER_BOUND)


def adjoin(result: SumsetResult, b: int) -> SumsetResult:
    """h(A u {b}) on result's target, built from the partials of hA.

    A u {b} is taken on the same source window, so a b outside it adds
    nothing.  h(A u {b}) is the union over j = 0..h of j*b + (h-j)A, and
    with b in the source every (h-j)A value that lands in the target lies
    in the clip window of its partial, so this is h shifts and no fold.
    """
    if not result.partials:
        raise ValueError("adjoin needs the k-fold partials of a fold")
    h, target = result.h, result.target
    bits = result.dense.bits
    if result.source.contains(b):
        for j in range(1, h + 1):
            part = result.partials[h - j]
            if part is None:
                continue
            bits |= part.restrict(Window(target.lo - j * b, target.hi - j * b)).bits
    return SumsetResult(h, result.source, target, DenseSet(target, bits), result.exactness)


def _multisets(a: DenseSet, h: int, n: int) -> Iterator[tuple[int, ...]]:
    # Sorted multisets of h elements of a summing to n, lexicographically.
    if h == 0:
        if n == 0:
            yield ()
        return
    vals = a.members()
    if not vals:
        return
    vmax = vals[-1]

    def search(k: int, rest: int, idx: int) -> Iterator[tuple[int, ...]]:
        if k == 1:
            j = bisect.bisect_left(vals, rest, idx)
            if j < len(vals) and vals[j] == rest:
                yield (rest,)
            return
        for j in range(idx, len(vals)):
            v = vals[j]
            if k * v > rest:
                break
            if rest - v > (k - 1) * vmax:
                continue
            for sub in search(k - 1, rest - v, j):
                yield (v,) + sub

    yield from search(h, n, 0)


def representation_count(a: DenseSet, h: int, n: int) -> int:
    """Number of multisets of h elements of a summing to n."""
    return sum(1 for _ in _multisets(a, h, n))


def witness(a: DenseSet, h: int, n: int) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted multiset of h elements summing to n."""
    return next(_multisets(a, h, n), None)


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


def multiplicity_pair(a: DenseSet, h: int, target: Window) -> tuple[DenseSet, DenseSet]:
    """(at_least_one, at_least_two) representation multiplicities on target.

    The first set holds each n in target with at least one multiset
    representation as a sum of h elements of a, the second each n with at
    least two.  Counts are saturated at two, and a's arithmetic chains are
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
    n - u*a.window.lo for a u-element sum n and are cut at the bit of
    target.hi.  Cost: O(chains * h^2 * log L) big-int shifts, where the
    per-element recurrence took O(|a| * h); a set of many short chains is
    slower this way.
    """
    lo = a.window.lo
    relmax = target.hi - h * lo
    if relmax < 0:
        return DenseSet(target, 0), DenseSet(target, 0)
    maxbits = relmax + 1
    ge1 = [1] + [0] * h
    ge2 = [0] * (h + 1)
    for a0, g, L in arith_chains(a):
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
