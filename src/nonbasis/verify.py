"""Certificate-producing membership classification and structural checks.

Everything here decides questions about h-fold sumsets of the gapped
families through the residue decomposition and the gap structure of Y,
and returns certificates that can be re-verified by plain arithmetic:
an explicit representation for members, a shifted-Y witness or an
exceptional-set tag for non-members.  The finite searches are budgeted;
running out of probes yields a first-class Unknown, never a guess.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import gapset, intset, sumset
from .errors import (
    BNotOutside,
    DomainConstraint,
    OracleDisagreement,
    UncertifiableTail,
)
from .families import DOMAIN_N0, DOMAIN_Z, Family
from .intset import DenseSet, Diff, GapTail, ModClass, ModClassNonneg, SetSpec, Window
from .record import Record

DEFAULT_BUDGET = 1_000_000
# decide_kX's memo size.  One pass of the benchmark's catalog workload asks
# 93 distinct decisions and one adjoin pass 171, so a sweep keeps all of its
# own; past the bound the least recently used decision goes.
DECISIONS_KEPT = 1024


class _BudgetExhausted(Exception):
    pass


class InSumset(Record):
    """n = s_count * s + sum(h * x + t for x in xs), every x in X."""

    __slots__ = _fields = ("s_count", "xs")

    def __init__(self, s_count: int, xs: tuple[int, ...]):
        self.s_count, self.xs = s_count, xs


class OutShiftedY(Record):
    """n = (h-1)s + h*y + t with y in Y."""

    __slots__ = _fields = ("y",)

    def __init__(self, y: int):
        self.y = y


class OutExceptional(Record):
    __slots__ = _fields = ("tag",)

    def __init__(self, tag: str):
        self.tag = tag  # "F0" or "F1"


class Unknown(Record):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


Verdict = InSumset | OutShiftedY | OutExceptional | Unknown


def _xparts(xspec: SetSpec) -> tuple[str, gapset.GapGenerator]:
    if (
        isinstance(xspec, Diff)
        and isinstance(xspec.drop, GapTail)
        and isinstance(xspec.keep, (ModClass, ModClassNonneg))
        and xspec.keep.m == 1
    ):
        domain = DOMAIN_Z if isinstance(xspec.keep, ModClass) else DOMAIN_N0
        return domain, xspec.drop.gen
    raise UncertifiableTail(
        "X must be Z or N0 minus a certified gap set for structural decisions"
    )


def pair_bound(gen: gapset.GapGenerator) -> int:
    """Least pair target m that decide_kX's pair search settles by its fixed branch.

    From m = 2*R(3) + 4 on, u = m // 2 has u - 1 > R(3): the four points
    u-1..u+2 lie past the close-pair radius, and the pair decision is In
    after at most two probes.
    """
    return 2 * gapset.gap_radius(gen, 3) + 4


def fixed_branch_probes(gen: gapset.GapGenerator) -> int:
    """Most probes decide_kX spends on a pair target from pair_bound on.

    That is x0 + 1 to find the least X element x0, then at most two for the
    pair: its fixed branch.
    """
    return gapset.least_non_member(gen) + 3


@lru_cache(maxsize=DECISIONS_KEPT)
def decide_kX(
    xspec: SetSpec, k: int, m: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None | Unknown:
    """k elements of X summing to m, as a tuple, or None if there are none.

    Exact over N0; over Z there always are.  k = 2 is the four-point
    argument around m/2 with an exhaustive scan of the finite region below
    the close-pair radius.  k >= 3 first tries k-2 copies of the smallest
    nonnegative X element x0 plus a pair, then falls back to an exhaustive
    scan over the smallest summand.  Each membership test of X spends one
    of the budget's probes, and a decision that would overspend returns
    Unknown("probe budget exhausted").  Finding x0 is charged x0 + 1
    probes, one per integer its scan rules out or accepts, also when the
    memoized scan does not rerun, so a verdict never depends on what ran
    before it.  Decisions are memoized per (xspec, k, m, budget), so the
    families and points that share them search once; decide_kX.cache_info()
    counts the hits and misses.
    """
    if k < 2:
        raise DomainConstraint(f"decide_kX needs k >= 2, got {k}")
    domain, gen = _xparts(xspec)
    n0 = domain == DOMAIN_N0
    r3 = gapset.gap_radius(gen, 3)

    def in_x(v: int) -> bool:
        nonlocal budget
        if n0 and v < 0:
            return False
        budget -= 1
        if budget < 0:
            raise _BudgetExhausted()
        return not gapset.is_member(gen, v)

    def search(k: int, m: int) -> tuple[int, ...] | None:
        # k elements of X summing to m, or None; over Z, k = 2 always finds them
        if n0 and m < 0:
            return None
        if k > 2:
            for x in range(m // k + 1):
                rest = search(k - 1, m - x) if in_x(x) else None
                if rest is not None:
                    return (x,) + rest
            return None
        u = m // 2
        if u - 1 > r3:
            # All four of {u-1, u, u+1, u+2} sit beyond the close-pair radius,
            # so at most one lies in Y and one decomposition must survive.
            if m % 2 == 0:
                return (u, u) if in_x(u) else (u - 1, u + 1)
            return (u, u + 1) if in_x(u) and in_x(u + 1) else (u - 1, u + 2)
        if n0:
            for x in range(u + 1):
                if in_x(x) and in_x(m - x):
                    return x, m - x
            return None
        # Over Z every negative integer is in X; climb until m + j clears Y.
        j = 1
        while not in_x(m + j):
            j += 1
        return (-j, m + j)

    try:
        if k > 2 and not (n0 and m < 0):
            x0 = gapset.least_non_member(gen)
            budget -= x0 + 1
            if budget < 0:
                raise _BudgetExhausted()
            pair = search(2, m - (k - 2) * x0)
            if pair is not None:
                return (x0,) * (k - 2) + pair
        return search(k, m)
    except _BudgetExhausted:
        return Unknown("probe budget exhausted")


def _require_gapped(family: Family, what: str) -> None:
    # a full family is a domain error here, whatever its gcd case
    if not family.is_gapped:
        raise DomainConstraint(f"{what} applies to gapped families only")


def classify(family: Family, n: int, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Theorem-backed membership verdict for n against the h-fold sumset."""
    _require_gapped(family, "classification")
    h, s, t = family.h, family.s, family.t
    n0 = family.domain == DOMAIN_N0
    if n0 and n < 0:
        raise DomainConstraint(f"{n} is outside N0")

    i, q = family.residue(n)
    if i == h - 1:
        z1 = q - t
        if n0 and z1 < 0:
            return OutExceptional("F1")
        if family.y_contains(z1):
            return OutShiftedY(z1)
        return InSumset(h - 1, (z1,))

    thr = (h - 2) * s + h * t
    if n0 and n < thr:
        # Below the structural threshold: read the answer off the exact oracle.
        wit = sumset.witness(base_oracle(family, Window(0, thr - 1)).folded, n)
        if wit is None:
            return OutExceptional("F0")
        s_count = sum(1 for v in wit if v == s)
        xs = tuple((v - t) // h for v in wit if v != s)
        return InSumset(s_count, xs)

    if i == 0 and n == h * s:
        return InSumset(h, ())
    wit = decide_kX(family.x_spec(), h - i, q - t, budget)
    if wit is None:
        return OutExceptional("F0")
    if isinstance(wit, Unknown):
        return wit
    return InSumset(i, wit)


def verify_certificate(family: Family, n: int, verdict: Verdict) -> bool:
    """Re-check a verdict by plain arithmetic and membership tests.

    An F0 verdict over N0 is replayed: n must be off the F1 class, at most
    exceptional_bound, and outside hA as folded afresh from A on [0, n].
    Over Z no F0 verdict holds: X contains every negative integer and Y has
    unbounded gaps, so every k-fold decision with k >= 2 is In and hA misses
    only shifted-Y values.
    """
    h, s, t = family.h, family.s, family.t
    if isinstance(verdict, InSumset):
        if verdict.s_count < 0 or verdict.s_count + len(verdict.xs) != h:
            return False
        total = verdict.s_count * s + sum(h * x + t for x in verdict.xs)
        return total == n and all(family.x_contains(x) for x in verdict.xs)
    if isinstance(verdict, OutShiftedY):
        return (
            n == family.shifted_y_value(verdict.y)
            and family.y_contains(verdict.y)
        )
    if isinstance(verdict, OutExceptional):
        if verdict.tag == "F1":
            return (
                family.domain == DOMAIN_N0
                and (n - (t - s)) % h == 0
                and n < (h - 1) * s + t
            )
        return (
            family.domain == DOMAIN_N0
            and (n - (t - s)) % h != 0
            and 0 <= n <= exceptional_bound(family)
            and not sumset.hfold_exact_bounded_below(
                intset.materialize(family.spec, Window(0, n)), h, target=Window(n, n),
                stride=intset.stride(family.spec),
            ).member(n)
        )
    return isinstance(verdict, Unknown)


def exceptional_bound(family: Family) -> int:
    """Certified upper bound for every exceptional complement element (N0).

    Above the structural threshold an exceptional n forces a k-fold X
    decision to fail, which confines q - t below the close-pair region
    2*R(3) + 5 plus the repeated-minimum slack; below the threshold n is
    bounded by the threshold itself, and the wrong-sign class F1 by
    (h-1)s + t, which never binds: f0_high exceeds it by
    (h-1)(|s-t| - s + t) + h*out_cap >= h*out_cap > 0 for every s and t.
    """
    _require_gapped(family, "exceptional bound")
    h, s, t = family.h, family.s, family.t
    x0 = gapset.least_non_member(family.y)
    out_cap = pair_bound(family.y) + 1 + (h - 2) * x0
    f0_high = (h - 1) * abs(s - t) + h * t + h * out_cap
    f0_low = (h - 2) * s + h * t
    return max(f0_high, f0_low)


def class_fronts(family: Family) -> tuple[int, ...]:
    """Per residue class i, the least point of the class that hA can reach over N0.

    Class i holds n = i(s-t) + h*q, stepping by h, and n is In when some
    k = h - i elements of X sum to q - t.  With x0 the least element of X
    no k of them sum below k*x0, so for i < h-1 the front is q - t = k*x0
    and the class points below it are F0 (n = h*s aside, which is In).  On
    class h-1 a single x = q - t is In from 0 on, unless it lies in Y, and
    the points below are the F1 progression.
    """
    h, s, t = family.h, family.s, family.t
    x0 = gapset.least_non_member(family.y)
    return tuple(
        i * (s - t) + h * (t + ((h - i) * x0 if i < h - 1 else 0)) for i in range(h)
    )


def search_band(family: Family) -> tuple[tuple[int, int], ...]:
    """Per residue class i < h-1, the class points [lo, hi] that may need a search.

    classify decides n = i(s-t) + h*q by k = h - i summands of X summing to
    m = q - t; class h-1 (k = 1) never searches, so it has no interval.
    With x0 the least nonnegative element of X, decide_kX's fixed branch
    gives In within fixed_branch_probes once the pair target
    m - (k-2)*x0 reaches pair_bound, so each interval ends at the class
    point before that.  Over N0 the class points below the front (see
    class_fronts) are F0: with no probe where m < 0, and read off the
    exact prefix oracle below (h-2)s + ht.  So the interval starts at the
    front, or lower at the first class point from (h-2)s + ht on, where
    decide_kX spends probes, but not below m = 0.  Over Z the pair
    decision searches only in its climb branch, and only when the first
    climb probe m' + 1 may lie in Y (a negative one lies in X), so the
    interval is the pair target m' in [-1, pair_bound - 1].
    """
    h, s, t = family.h, family.s, family.t
    x0 = gapset.least_non_member(family.y)
    fronts = class_fronts(family)
    top = pair_bound(family.y) - 1
    thr = (h - 2) * s + h * t
    bands = []
    for i in range(h - 1):
        base = i * (s - t) + h * t  # the class point with m = 0
        hi = base + h * ((h - i - 2) * x0 + top)
        if family.domain == DOMAIN_N0:
            lo = max(base, min(fronts[i], thr + (base - thr) % h))
        else:
            lo = base + h * ((h - i - 2) * x0 - 1)
        bands.append((lo, hi))
    return tuple(bands)


def predicted_exceptional(family: Family, window: Window) -> int:
    """The exceptional points the paper predicts on window, as bits.

    Over N0 that is each class's progression below its front (see
    class_fronts), one ap_bits per class, without n = h*s, which is In.
    Over Z no F0 or F1 verdict holds, so there are none.  The prediction
    leaves out the F0 points past the fronts, which lie in search_band.
    """
    if family.domain != DOMAIN_N0:
        return 0
    h = family.h
    bits = 0
    for front in class_fronts(family):
        first = window.lo + (front - window.lo) % h
        bits |= intset.ap_bits(first, h, front - h, window)
    if window.contains(h * family.s):
        bits &= ~(1 << (h * family.s - window.lo))
    return bits


class Catalog(Record):
    __slots__ = _fields = ("shifted_y", "exceptional", "unknown", "unknown_members")

    def __init__(self, shifted_y, exceptional, unknown, unknown_members=()):
        # window points; unknown_members: in the oracle, left Unknown by classify
        self.shifted_y, self.exceptional, self.unknown = shifted_y, exceptional, unknown
        self.unknown_members = unknown_members

    def as_dict(self) -> dict:
        return {name: list(getattr(self, name)) for name in ("shifted_y", "exceptional", "unknown")}


def z_summand_bound(family: Family, n: int) -> int:
    """A bound on |a| for every summand a of classify's witness for the Z point n.

    classify writes n as i copies of s plus k = h - i summands h*x + t.  On
    the shifted class the X part is one x, and that summand is n - (h-1)s.
    Otherwise it is k - 2 copies of x0 (each summand h*x0 + t) and a pair
    x1 + x2 = m' whose two summands add up to P = n - i*s - (k-2)(h*x0 + t),
    so |P| <= |n| + (h-2)(|s| + |t| + h*x0):
    - past pair_bound the fixed branch takes x1, x2 among u-1..u+2 with
      u = m' // 2, so both summands lie within 2h of P/2, and
      |P|/2 + 2h <= |P| + |t| + h there;
    - otherwise over Z the climb takes (-j, m' + j) for the least j >= 1
      with m' + j outside Y.  When m' + 1 < 0, j = 1: the summands are
      t - h and P - t + h.  When m' >= -1, m' + j <= max(m' + 2, R(1) + 1),
      because three or more consecutive Y elements lie at or below R(1), so
      j <= R(3) + 2 and m' + j <= 2*R(3) + 5 (m' < pair_bound).
    A copy of x0 (summand h*x0 + t) is within the last term: x0 <= R(3) + 1
    < pair_bound + 1, as x0 - 2 and x0 - 1 are a close pair of Y if x0 >= 2.
    The bound depends on n only through |n|, and grows with it.
    """
    h, s, t = family.h, family.s, family.t
    x0 = gapset.least_non_member(family.y)
    return max(
        abs(n) + (h - 1) * abs(s),
        abs(n) + (h - 2) * (abs(s) + abs(t) + h * x0) + abs(t) + h,
        h * (pair_bound(family.y) + 1) + abs(t),
    )


def oracle_source(family: Family, window: Window) -> Window:
    """The window a family is materialized on for its oracle sumset on window.

    Over N0 the set is bounded below, so [0, window.hi] makes the fold
    exact on the window.  Over Z the truncation reaches past the window by
    a slack that holds the representations the structural checks rely on;
    for a gapped family it reaches at least z_summand_bound of the window
    end farther from 0, so every summand of a classify witness on the
    window lies inside.
    """
    if family.domain == DOMAIN_N0:
        return Window(0, window.hi)
    h, s, t = family.h, family.s, family.t
    reach = max(abs(window.lo), abs(window.hi))
    radius = reach + h * (abs(s) + abs(t) + h + 2)
    if family.is_gapped:
        radius = max(radius, z_summand_bound(family, reach))
    return Window(-radius, radius)


FoldStoreInfo = namedtuple(
    "FoldStoreInfo", "hits steps builds widenings evictions currsize maxsize"
)


class N0FoldStore:
    """Exact h-fold sumsets of sets >= 0, one kept fold per set spec.

    Every summand of a sum <= H of a set >= 0 is itself <= H.  So the fold
    of A cut to [0, H] holds kA on [0, H] exactly for every k, whatever the
    depth it was folded to, and its first h + 1 partials answer every
    request (spec, h, hi) with hi <= H.  The store keeps one such fold per
    spec, for at most maxsize specs, and evicts the least recently used;
    it only chooses how a request is served.  A spec with no kept fold
    folds A on [0, hi] to depth h (sumset.hfold_exact_bounded_below).  A
    request whose kept fold reaches hi is a hit.  A request past the kept
    top H materializes only the band (H, hi] of A and widens the fold
    (sumset.widen).  A kept fold shallower than h then deepens
    (sumset.deepen), one step per missing k.  The caller gets a depth-h
    view: source and target [0, H], exactly the partials kA for k = 0..h,
    and hA as dense.  cache_info() counts the hits, the deepening steps,
    the builds, the widenings and the evictions; cache_clear() empties the
    store and zeroes them.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.cache_clear()

    def cache_clear(self) -> None:
        self._kept: OrderedDict[SetSpec, sumset.SumsetResult] = OrderedDict()
        self._hits = self._steps = self._builds = self._widenings = self._evictions = 0

    def cache_info(self) -> FoldStoreInfo:
        return FoldStoreInfo(
            self._hits, self._steps, self._builds, self._widenings, self._evictions,
            len(self._kept), self.maxsize,
        )

    def __call__(self, spec: SetSpec, h: int, hi: int) -> sumset.SumsetResult:
        fold = self._kept.pop(spec, None)
        if fold is None:
            a = intset.materialize(spec, Window(0, hi))
            fold = sumset.hfold_exact_bounded_below(a, h, stride=intset.stride(spec))
            self._builds += 1
        elif fold.target.hi < hi:
            band = intset.materialize(spec, Window(fold.target.hi + 1, hi))
            fold = sumset.widen(fold, band)
            self._widenings += 1
        else:
            self._hits += 1
        if fold.h < h:
            self._steps += h - fold.h
            fold = sumset.deepen(fold, h)
        self._kept[spec] = fold  # the most recently used
        if len(self._kept) > self.maxsize:
            self._kept.popitem(last=False)
            self._evictions += 1
        view = fold.partials[: h + 1]
        return sumset.SumsetResult(h, fold.source, fold.target, view[h], view)


# The one store of N0 folds: the oracles' folds of h*X and the lemma's of X.
n0_fold = N0FoldStore(8)


def fold_by_shifts(family: Family, bt: DenseSet, window: Window) -> sumset.SumsetResult:
    """hA on window for A = {s} u (B + t), given B + t on A's source.

    B, one residue class mod h, is folded as a truncated set on the source
    moved down by t, with target window - h*t, so its k-th partial is kB
    on A's k-th clip window moved down by k*t; s and t are added by shifts
    (sumset.hfold_point_union).
    """
    h, t, src = family.h, family.t, bt.window
    b = DenseSet(Window(src.lo - t, src.hi - t), bt.bits)
    fold = sumset.hfold_truncated(b, h, Window(window.lo - h * t, window.hi - h * t), stride=h)
    return sumset.hfold_point_union(fold, family.s, t, src, window)


class BaseOracle:
    """hA of one family on one window, and the sets read off it.

    folded is hA on the window with its k-fold partials, for A on its
    oracle_source (folded.source).  shifted_ys holds the Family.shifted_ys
    pairs (y, (h-1)s + h*y + t) with the value in the window, and shifted
    and f_window are bitsets on the window: shifted holds the shifted-Y
    values, and f_window the points outside hA that are not shifted-Y
    values.  Y itself is read through gapset, which walks it once.  Oracles
    compare by identity.
    """

    __slots__ = ("folded", "shifted_ys", "shifted", "f_window")

    def __init__(self, folded: sumset.SumsetResult, shifted_ys, shifted: DenseSet, f_window):
        self.folded, self.shifted_ys = folded, shifted_ys
        self.shifted, self.f_window = shifted, f_window


@lru_cache(maxsize=8)
def base_oracle(family: Family, window: Window) -> BaseOracle:
    """The oracle shared by the catalog and every adjunction check of a window.

    classify also reads N0 points below the structural threshold off the
    oracle of [0, threshold - 1].  A = {s} u (h*X + t) and hA are built by
    shifts from a fold of h*X (sumset.hfold_point_union), so every fold
    step sums one residue class mod h.  Over N0 that fold is n0_fold's
    depth-h view of h*X, kept on [0, H] for some H >= window.hi and shared
    by every s and t, every window up to H and classify's prefix oracle;
    a wider window widens it by the band past H instead of refolding it.
    Over Z the source depends on s and t, so h*X + t is materialized on it
    (fold_by_shifts).  The shifted-Y pairs are Family.shifted_ys on the
    window, read off gapset's one walk of Y.
    """
    src = oracle_source(family, window)
    if family.domain == DOMAIN_N0:
        hx = n0_fold(intset.ShiftScale(family.xspec, 0, family.h), family.h, src.hi)
        folded = sumset.hfold_point_union(hx, family.s, family.t, src, window)
    else:
        bt = intset.materialize(intset.ShiftScale(family.xspec, family.t, family.h), src)
        folded = fold_by_shifts(family, bt, window)
    shifted_ys = tuple(family.shifted_ys(window))
    shifted = intset.dense_from_iter((n for _, n in shifted_ys), window)
    f_window = DenseSet(window, folded.dense.complement().bits & ~shifted.bits)
    return BaseOracle(folded, shifted_ys, shifted, f_window)


def complement_catalog(
    family: Family,
    window: Window,
    budget: int = DEFAULT_BUDGET,
) -> Catalog:
    """Partition of window minus hA into shifted-Y / exceptional / unknown.

    The complement the paper predicts is built on the window as bits: the
    base oracle's shifted-Y values and predicted_exceptional.  Outside the
    per-class search_band intervals classify's verdict is that prediction,
    so classify runs only on the intervals and on the points where the
    base oracle's complement differs from it, one XOR on the window;
    everywhere else the parts are read off the bits.  A budget below
    fixed_branch_probes can leave any point Unknown, so then every window
    point is classified.  classify and the oracle must agree on every
    classified point: for N0 families the oracle is exact, and for Z
    families its source reaches z_summand_bound (see oracle_source), so
    the truncated oracle holds every classify witness.  classify's In and
    Out points are collected as bits and XORed with the oracle's
    complement, and the lowest disagreeing bit names the first
    disagreeing point in window order.
    """
    _require_gapped(family, "catalog")
    n0 = family.domain == DOMAIN_N0
    if n0 and window.lo < 0:
        raise DomainConstraint("N0 catalog window must start at 0 or above")
    oracle = base_oracle(family, window)
    comp = oracle.folded.dense.complement().bits
    exceptional = predicted_exceptional(family, window)
    if budget >= fixed_branch_probes(family.y):
        todo = comp ^ (oracle.shifted.bits | exceptional)
        for lo, hi in search_band(family):
            todo |= intset.ap_bits(lo, family.h, hi, window)
    else:
        todo = (1 << window.width) - 1

    kinds = (InSumset, OutShiftedY, OutExceptional, Unknown)
    points: dict[type, list[int]] = {kind: [] for kind in kinds}
    for n in DenseSet(window, todo).members():
        points[type(classify(family, n, budget))].append(n)
    got = {kind: intset.dense_from_iter(ns, window).bits for kind, ns in points.items()}
    bad = got[InSumset] & comp | (got[OutShiftedY] | got[OutExceptional]) & ~comp
    if bad:
        low = bad & -bad
        n = window.lo + low.bit_length() - 1
        if got[InSumset] & low:
            raise OracleDisagreement(
                f"classify says {n} is a member but the "
                f"{'exact' if n0 else 'truncated'} oracle disagrees"
            )
        kind = OutShiftedY if got[OutShiftedY] & low else OutExceptional
        raise OracleDisagreement(f"oracle contains {n} but classify returned {kind.__name__}")
    return Catalog(
        tuple(DenseSet(window, oracle.shifted.bits & ~todo | got[OutShiftedY]).members()),
        tuple(DenseSet(window, exceptional & ~todo | got[OutExceptional]).members()),
        tuple(DenseSet(window, got[Unknown] & comp).members()),
        tuple(DenseSet(window, got[Unknown] & ~comp).members()),
    )


@dataclass(frozen=True)
class EscapeReport:
    b: int
    residue_case: str  # "not_st" | "eq_s" | "eq_t"
    verdict: str  # "becomes_basis" | "stays_nonbasis" | "inconclusive"
    predicted_exceptions: tuple[int, ...]
    # The window complement of h(A u {b}); leftover decodes it when read.
    complement: DenseSet = field(repr=False)
    added: tuple[int, ...]

    @cached_property
    def leftover(self) -> tuple[int, ...]:
        return tuple(self.complement.members())



def escape_check(
    family: Family,
    b: int,
    window: Window,
    budget: int = DEFAULT_BUDGET,
) -> EscapeReport:
    """What adjoining one element b outside A does to the h-fold sumset.

    Family.residue writes b - t = j(s - t) + h*q, and j names the case:
    j = 0 is b = t (mod h), j = 1 is b = s (mod h), and any other j
    (possible only for h >= 3) is not_st, b not congruent to either.
    not_st and b = s make the window complement above a computed threshold
    collapse to a finite predicted exception list; b = t adds at most the
    single shifted image of its y' plus part of the exceptional set.  The
    predictions walk the oracle's shifted-Y pairs, and each k-fold
    decision behind a predicted exception gets its own probe budget.  A
    not_st decision runs only while its pair target is below pair_bound:
    from there on, decide_kX's fixed branch gives In within
    fixed_branch_probes, so with at least that budget the later values
    predict nothing.
    """
    _require_gapped(family, "escape check")
    h, s, t = family.h, family.s, family.t
    n0 = family.domain == DOMAIN_N0
    if n0 and b < 0:
        raise DomainConstraint(f"b = {b} is outside N0")
    if family.a_contains(b):
        raise BNotOutside(f"b = {b} already belongs to the family")

    j, q = family.residue(b - t)
    case = "eq_t" if j == 0 else "eq_s" if j == 1 else "not_st"

    oracle = base_oracle(family, window)
    fa = oracle.folded
    fab = sumset.adjoin(fa, b)
    comp_ab = fab.complement()

    if case == "eq_t":
        added = fab.bits & ~fa.dense.bits
        v = (h - 1) * s + b
        cover = 1 << (v - window.lo) if window.contains(v) else 0
        ok = added & ~(oracle.f_window.bits | cover) == 0
        added_points = tuple(DenseSet(window, added).members())
        verdict = "stays_nonbasis" if ok else "inconclusive"
        return EscapeReport(b, case, verdict, (), comp_ab, added_points)

    predicted: list[int] = []
    threshold = window.lo
    if case == "eq_s":
        # b = s + h*q; n predicts an exception when w_val lies in Y, or below
        # 0 over N0
        for y, n in oracle.shifted_ys:
            w_val = y - (h - 1) * q
            if (n0 and w_val < 0) or family.y_contains(w_val):
                predicted.append(n)
    else:
        # n = b + (h-1-j)*s + (j summands h*x + t), the x summing to y - q
        if n0:
            threshold = b + (h - 3) * s + (h - 1) * t
        x0 = gapset.least_non_member(family.y)
        y_end = math.inf
        if budget >= fixed_branch_probes(family.y):
            # the first y whose pair target y - q - (j-2)*x0 reaches pair_bound
            y_end = q + pair_bound(family.y) + (j - 2) * x0
        for y, n in oracle.shifted_ys:
            if n < threshold:
                continue
            if y >= y_end:
                break
            wit = decide_kX(family.x_spec(), j, y - q, budget)
            if wit is None:
                predicted.append(n)
            elif isinstance(wit, Unknown):
                return EscapeReport(b, case, "inconclusive", tuple(predicted), comp_ab, ())

    allowed = oracle.f_window.bits | intset.dense_from_iter(predicted, window).bits
    ok = (comp_ab.bits & ~allowed) >> max(threshold - window.lo, 0) == 0
    verdict = "becomes_basis" if ok else "inconclusive"
    return EscapeReport(b, case, verdict, tuple(predicted), comp_ab, ())


class YPrimeFilter(Record):
    """Index/value selection of a subset Y' of Y.

    "even_indices" leaves infinitely many elements of Y out;
    "drop_values" leaves out only the listed values, so Y minus Y' is finite.
    """

    __slots__ = _fields = ("kind", "values")

    def __init__(self, kind: str, values: tuple[int, ...] = ()):
        if kind not in ("even_indices", "drop_values"):
            raise DomainConstraint(f"unknown y-prime filter {kind!r}")
        self.kind, self.values = kind, values

    def selects(self, index: int, y: int) -> bool:
        if self.kind == "even_indices":
            return index % 2 == 0
        return y not in self.values

    @property
    def complement_is_finite(self) -> bool:
        return self.kind == "drop_values"


class AugmentReport(Record):
    # verdict is "stays_nonbasis" | "becomes_basis_on_window" | "inconclusive",
    # dropped_in_window the count of shifted-Y values of Y minus Y' in the window
    __slots__ = _fields = ("filter_kind", "verdict", "missing_shifted", "extras", "leftover",
                           "dropped_in_window")

    def __init__(self, filter_kind, verdict, missing_shifted, extras, leftover, dropped_in_window):
        self.filter_kind, self.verdict, self.missing_shifted = filter_kind, verdict, missing_shifted
        self.extras, self.leftover, self.dropped_in_window = extras, leftover, dropped_in_window



def augment_check(
    family: Family,
    yprime: YPrimeFilter,
    window: Window,
) -> AugmentReport:
    """Adjoin B = {h*y' + t : y' in Y'} and see what the complement keeps.

    Shifted images of the dropped part of Y must survive in the complement
    for the augmented set to stay a nonbasis; a co-finite Y' leaves only
    finitely many of them plus exceptional-set residue.
    """
    _require_gapped(family, "augment check")
    oracle = base_oracle(family, window)
    # Over Z, adjoined elements above the window can still reach it with
    # negative partners, so B is collected across the whole oracle source:
    # Y's prefix up to top holds every y whose h*y + t can lie in it.
    src = oracle.folded.source
    top = (src.hi - family.t) // family.h
    selected: list[int] = []  # the y' of Y' in that prefix
    dropped_shifted: list[int] = []
    for idx, y in enumerate(gapset.elements_in(family.y, Window(0, top)) if top >= 0 else ()):
        if yprime.selects(idx, y):
            selected.append(y)
        else:
            dropped_shifted.append(family.shifted_y_value(y))
    dropped = intset.dense_from_iter(dropped_shifted, window)

    # A u B = {s} u (h*(X u Y') + t), folded by shifts.  A's first partial
    # holds every summand that a sum in the window can use, and s is not
    # h*x + t since gcd(h, s - t) = 1, so (A u B) - {s} is h*(X u Y') + t
    # there; a y' past the prefix has h*y' + t past the source.
    hy = intset.dense_from_iter((family.h * y + family.t for y in selected), src)
    ab = oracle.folded.partials[1].restrict(src).bits | hy.bits
    bt = DenseSet(src, ab & ~intset.dense_from_iter([family.s], src).bits)
    folded = fold_by_shifts(family, bt, window)
    comp_ab = folded.dense.complement()
    beyond_f = comp_ab.bits & ~oracle.f_window.bits
    missing = DenseSet(window, beyond_f & dropped.bits).members()
    extras = DenseSet(window, beyond_f & ~dropped.bits).members()

    if extras:
        verdict = "inconclusive"
    elif yprime.complement_is_finite:
        verdict = "becomes_basis_on_window"
    else:
        verdict = "stays_nonbasis" if missing else "becomes_basis_on_window"
    return AugmentReport(
        yprime.kind,
        verdict,
        tuple(missing[:64]),
        tuple(extras[:64]),
        tuple(comp_ab.members()),
        dropped.popcount(),
    )


class LemmaReport(Record):
    __slots__ = _fields = ("bad_u", "threshold", "complement", "covered_above_threshold",
                           "predicted_complement", "matches_prediction")

    def __init__(self, bad_u, threshold, complement, covered_above_threshold,
                 predicted_complement, matches_prediction):
        self.bad_u, self.threshold, self.complement = bad_u, threshold, complement
        self.covered_above_threshold = covered_above_threshold
        self.predicted_complement, self.matches_prediction = predicted_complement, matches_prediction



def lemma_basis_check(
    gen: gapset.GapGenerator, h: int, window: Window
) -> LemmaReport:
    """Check that X0 = N0 minus Y is a basis of order h above a threshold.

    The u with at least two of {u-1, u, u+1, u+2} in Y are finite and
    computed from the close-pair radius; above 2*(max bad u + 1), plus
    (h-2) copies of the smallest X element for h > 2, the sumset has to
    cover everything.  The oracle complement is compared against that, and
    for h = 2 against the exhaustively predicted miss set.  A window that
    ends below the threshold leaves the coverage undecided (None).  hX on
    the window is read off n0_fold's depth-h view of X, so a sweep of h
    and windows over one Y keeps one fold of X: a deeper h deepens it and
    a wider window widens it by the band past its top, instead of
    refolding it.
    """
    if h < 2:
        raise DomainConstraint(f"lemma check needs h >= 2, got {h}")
    if window.lo < 0:
        raise DomainConstraint("lemma check runs over N0 windows")
    r3 = gapset.gap_radius(gen, 3)
    bad = []
    for u in range(0, r3 + 3):
        hits = sum(
            1 for v in (u - 1, u, u + 1, u + 2) if v >= 0 and gapset.is_member(gen, v)
        )
        if hits >= 2:
            bad.append(u)
    max_bad = max(bad, default=0)
    thr2 = 2 * (max_bad + 1)
    x0 = gapset.least_non_member(gen)
    threshold = thr2 + (h - 2) * x0

    xspec = Diff(ModClassNonneg(1, 0), GapTail(gen))
    comp = n0_fold(xspec, h, window.hi).dense.restrict(window).complement().members()
    covered = all(c < threshold for c in comp) if window.hi >= threshold else None

    predicted = None
    matches = None
    if h == 2:
        predicted = []
        for m in range(window.lo, min(threshold, window.hi + 1)):
            if not any(
                not gapset.is_member(gen, x) and not gapset.is_member(gen, m - x)
                for x in range(0, m // 2 + 1)
            ):
                predicted.append(m)
        matches = comp == predicted
        predicted = tuple(predicted)
    return LemmaReport(
        tuple(bad), threshold, tuple(comp), covered, predicted, matches
    )
