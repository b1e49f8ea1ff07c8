"""Brute-force h-fold sumset kernels on windowed bitsets.

The ground truth the structural theorems are checked against.  Sumsets are
computed as iterated shift-ORs over a bitset: to add one more copy of A,
OR together the accumulator shifted by every element of A.  Runs of set
bits with a common stride are shifted as a group via doubling, which is an
algebraic identity on OR-over-shifts and keeps dense inputs cheap; results
are bit-identical to the per-element loop (property-tested).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .errors import TargetExceedsSafeRange
from .intset import DenseSet, Window, dilate_or

EXACT = "exact"
LOWER_BOUND = "lower_bound"

# Above this many chains the binary-powering fold usually wins, because
# intermediate sumsets collapse into long runs with few chains.
_DOUBLING_CHAIN_THRESHOLD = 48


@dataclass(frozen=True)
class SumsetResult:
    """An h-fold sumset on target, folded from a set on source.

    partials[k] is the k-fold sumset kA on the clip window of the k-th fold
    step (the k-element subtotals that h-k more source elements can still
    complete to a target value), or None where that window is empty, for
    k = 0..h.  The iterate strategy fills it; other folds leave it empty.
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


def arith_chains(positions: list[int]) -> list[tuple[int, int, int]]:
    """Greedy split of sorted positions into (start, stride, count) runs."""
    chains = []
    i, n = 0, len(positions)
    while i < n:
        if i + 1 == n:
            chains.append((positions[i], 1, 1))
            break
        stride = positions[i + 1] - positions[i]
        j = i + 1
        while j + 1 < n and positions[j + 1] - positions[j] == stride:
            j += 1
        chains.append((positions[i], stride, j - i + 1))
        i = j + 1
    return chains


def pairwise_sum(
    p: DenseSet,
    q: DenseSet,
    target: Window,
    q_chains: list[tuple[int, int, int]] | None = None,
) -> DenseSet:
    """(p + q) intersected with target; exact as a set sum of the two sets."""
    if q_chains is None:
        q_chains = arith_chains(q.members())
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


def _empty_on(target: Window) -> DenseSet:
    return DenseSet(target, 0)


def _fold(
    a: DenseSet, h: int, target: Window, strategy: str
) -> tuple[DenseSet, tuple[DenseSet | None, ...]]:
    chains = arith_chains(a.members()) if h > 1 else []
    if strategy == "auto":
        strategy = (
            "double"
            if h >= 4 and len(chains) > _DOUBLING_CHAIN_THRESHOLD
            else "iterate"
        )
    if strategy == "iterate":
        partials = _iterate_partials(a, h, target, chains)
        top = partials[h]
        return (_empty_on(target) if top is None else _align(top, target)), partials
    return _fold_double(a, h, target), ()


def _iterate_partials(
    a: DenseSet, h: int, target: Window, chains: list[tuple[int, int, int]]
) -> tuple[DenseSet | None, ...]:
    # kA on its clip window for k = 0..h, each step one pairwise sum with a.
    # A nonempty clip window has a nonempty one before it, so the empty
    # windows are a suffix.
    src = a.window
    out: list[DenseSet | None] = []
    for k in range(h + 1):
        wk = _clip_window(k, h, src, target)
        if wk is None:
            return tuple(out) + (None,) * (h + 1 - k)
        if k == 0:
            out.append(DenseSet(wk, 1))  # the window is [0, 0]
        elif k == 1:
            out.append(DenseSet(wk, _slice_bits(a, wk)))
        else:
            out.append(pairwise_sum(out[-1], a, wk, chains))
    return tuple(out)


def _fold_double(a: DenseSet, h: int, target: Window) -> DenseSet:
    # binary powering on the fold count
    src = a.window
    if h == 1:
        return DenseSet(target, _slice_bits(a, target))
    w1 = _clip_window(1, h, src, target)
    if w1 is None or a.bits == 0:
        return _empty_on(target)
    pow_set = DenseSet(w1, _slice_bits(a, w1))
    pow_k = 1
    acc: DenseSet | None = None
    acc_k = 0
    e = h
    while e:
        if e & 1:
            new_k = acc_k + pow_k
            wk = _clip_window(new_k, h, src, target)
            if wk is None:
                return _empty_on(target)
            if acc is None:
                acc = DenseSet(wk, _slice_bits(pow_set, wk))
            else:
                sparser, other = (
                    (pow_set, acc) if pow_set.popcount() < acc.popcount() else (acc, pow_set)
                )
                acc = pairwise_sum(other, sparser, wk)
            acc_k = new_k
        e >>= 1
        if e:
            new_k = 2 * pow_k
            wk = _clip_window(new_k, h, src, target)
            if wk is None:
                # remaining powers are unreachable; only valid if acc already done
                if acc is None or e:
                    return _empty_on(target)
                break
            pow_set = pairwise_sum(pow_set, pow_set, wk)
            pow_k = new_k
    assert acc is not None and acc_k == h
    return _align(acc, target)


def _slice_bits(a: DenseSet, w: Window) -> int:
    lo = max(a.window.lo, w.lo)
    hi = min(a.window.hi, w.hi)
    if lo > hi:
        return 0
    piece = (a.bits >> (lo - a.window.lo)) & ((1 << (hi - lo + 1)) - 1)
    return piece << (lo - w.lo)


def _align(s: DenseSet, target: Window) -> DenseSet:
    return DenseSet(target, _slice_bits(s, target))


def hfold_exact_bounded_below(
    a: DenseSet,
    h: int,
    target: Window | None = None,
    chunks: int = 1,
    strategy: str = "auto",
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
    dense, partials = _fold_chunked(a, h, target, chunks, strategy)
    return SumsetResult(h, a.window, target, dense, EXACT, partials)


def hfold_truncated(
    a: DenseSet,
    h: int,
    target: Window,
    chunks: int = 1,
    strategy: str = "auto",
) -> SumsetResult:
    """Exact h-fold sumset of the truncated set a, clipped to target.

    Sound lower bound for the sumset of any superset of a: every reported
    member is a real sum of h window elements.
    """
    if h < 1:
        raise TargetExceedsSafeRange(f"h must be >= 1, got {h}")
    dense, partials = _fold_chunked(a, h, target, chunks, strategy)
    return SumsetResult(h, a.window, target, dense, LOWER_BOUND, partials)


def _fold_chunked(
    a: DenseSet, h: int, target: Window, chunks: int, strategy: str
) -> tuple[DenseSet, tuple[DenseSet | None, ...]]:
    if chunks <= 1 or target.width <= chunks:
        return _fold(a, h, target, strategy)
    acc = 0
    step = (target.width + chunks - 1) // chunks
    lo = target.lo
    while lo <= target.hi:
        piece = Window(lo, min(lo + step - 1, target.hi))
        part, _ = _fold(a, h, piece, strategy)
        acc |= part.bits << (piece.lo - target.lo)
        lo = piece.hi + 1
    return DenseSet(target, acc), ()


def adjoin(result: SumsetResult, b: int) -> SumsetResult:
    """h(A u {b}) on result's target, built from the partials of hA.

    A u {b} is taken on the same source window, so a b outside it adds
    nothing.  h(A u {b}) is the union over j = 0..h of j*b + (h-j)A, and
    with b in the source every (h-j)A value that lands in the target lies
    in the clip window of its partial, so this is h shifts and no fold.
    """
    if not result.partials:
        raise ValueError("adjoin needs the k-fold partials of an iterate fold")
    h, target = result.h, result.target
    bits = result.dense.bits
    if result.source.contains(b):
        for j in range(1, h + 1):
            part = result.partials[h - j]
            if part is None:
                continue
            moved = Window(part.window.lo + j * b, part.window.hi + j * b)
            bits |= _slice_bits(DenseSet(moved, part.bits), target)
    return SumsetResult(h, result.source, target, DenseSet(target, bits), result.exactness)


def representation_count(a: DenseSet, h: int, n: int) -> int:
    """Number of multisets of h elements of a summing to n."""
    if h == 0:
        return 1 if n == 0 else 0
    vals = a.members()
    if not vals:
        return 0
    vmax = vals[-1]

    def count(k: int, rest: int, idx: int) -> int:
        if k == 1:
            j = bisect.bisect_left(vals, rest, idx)
            return 1 if j < len(vals) and vals[j] == rest else 0
        total = 0
        for j in range(idx, len(vals)):
            v = vals[j]
            if k * v > rest:
                break
            if rest - v > (k - 1) * vmax:
                continue
            total += count(k - 1, rest - v, j)
        return total

    return count(h, n, 0)


def witness(a: DenseSet, h: int, n: int) -> tuple[int, ...] | None:
    """Lexicographically smallest sorted multiset of h elements summing to n."""
    if h == 0:
        return () if n == 0 else None
    vals = a.members()
    if not vals:
        return None
    vmax = vals[-1]

    def search(k: int, rest: int, idx: int) -> tuple[int, ...] | None:
        if k == 1:
            j = bisect.bisect_left(vals, rest, idx)
            if j < len(vals) and vals[j] == rest:
                return (rest,)
            return None
        for j in range(idx, len(vals)):
            v = vals[j]
            if k * v > rest:
                break
            if rest - v > (k - 1) * vmax:
                continue
            sub = search(k - 1, rest - v, j)
            if sub is not None:
                return (v,) + sub
        return None

    return search(h, n, 0)


def multiplicity_pair(a: DenseSet, h: int, hi: int) -> tuple[int, int]:
    """Bitsets (at_least_one, at_least_two) of representation multiplicities.

    Bit n - h*a.window.lo of the first int is set iff n has >= 1 multiset
    representation as a sum of h elements of a with n <= hi; the second int
    marks >= 2.  Computed by a copies-per-element DP with counts saturated
    at two, so it is exact for uniqueness questions on the whole range at
    once.
    """
    lo = a.window.lo
    relmax = hi - h * lo
    if relmax < 0:
        return 0, 0
    mask = (1 << (relmax + 1)) - 1
    ge1 = [0] * (h + 1)
    ge2 = [0] * (h + 1)
    ge1[0] = 1
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
