"""Algebraic descriptions of integer sets and exact windowed bitsets.

A SetSpec is a small algebraic tree (residue classes, singletons, gap
sequences, union/difference, affine images) whose membership is decidable
pointwise.  A DenseSet is the exact materialization of such a set on a
finite window [lo, hi], stored as one membership bit per integer inside a
single Python int.  No value changes once it is built.
"""

from __future__ import annotations

import math

from . import gapset
from .errors import MalformedSpec, WindowTooLarge
from .record import Record

WINDOW_CAP = 1 << 26


class Window(Record):
    """Inclusive integer interval [lo, hi]; the finite viewport onto Z."""

    __slots__ = ("lo", "hi", "width")
    _fields = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise MalformedSpec(f"window {lo}:{hi} has lo > hi")
        self.lo, self.hi, self.width = lo, hi, hi - lo + 1
        if self.width > WINDOW_CAP:
            raise WindowTooLarge(f"window width {self.width} exceeds cap {WINDOW_CAP}")

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi


class SetSpec(Record):
    """Marker base class for set descriptions."""

    __slots__ = ()


class _HashOnce(SetSpec):
    # A node with children hashes its fields once, when built: the memos
    # keyed by a spec (verify.decide_kX, verify.n0_fold) would otherwise
    # hash the whole tree on every lookup.  Equal nodes still hash alike.
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash


class Empty(SetSpec):
    __slots__ = ()


class Singleton(SetSpec):
    __slots__ = _fields = ("a",)

    def __init__(self, a: int):
        self.a = a


class ModClass(SetSpec):
    """{m*z + r : z in Z}; r is normalized into [0, m)."""

    __slots__ = _fields = ("m", "r")

    def __init__(self, m: int, r: int):
        if m < 1:
            raise MalformedSpec(f"modulus must be >= 1, got {m}")
        self.m, self.r = m, r % m


class ModClassNonneg(SetSpec):
    """{m*z + r : z >= 0}.

    r is the smallest element and is deliberately not reduced mod m:
    reducing it would change the set.
    """

    __slots__ = _fields = ("m", "r")

    def __init__(self, m: int, r: int):
        if m < 1:
            raise MalformedSpec(f"modulus must be >= 1, got {m}")
        if r < 0:
            raise MalformedSpec(f"nonneg class start must be >= 0, got {r}")
        self.m, self.r = m, r


class GapTail(_HashOnce):
    """The set of values of a gap generator."""

    __slots__ = _fields = ("gen",)

    def __init__(self, gen: gapset.GapGenerator):
        self.gen, self._hash = gen, hash((gen,))


class Union(_HashOnce):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[SetSpec, ...]):
        self.parts, self._hash = parts, hash((parts,))


class Diff(_HashOnce):
    __slots__ = _fields = ("keep", "drop")

    def __init__(self, keep: SetSpec, drop: SetSpec):
        self.keep, self.drop, self._hash = keep, drop, hash((keep, drop))


class ShiftScale(_HashOnce):
    """{d*x + c : x in inner}; the dilation-plus-shift image."""

    __slots__ = _fields = ("inner", "c", "d")

    def __init__(self, inner: SetSpec, c: int, d: int):
        if d == 0:
            raise MalformedSpec("shift-scale with d = 0 is rejected")
        self.inner, self.c, self.d, self._hash = inner, c, d, hash((inner, c, d))


def union_of(*parts: SetSpec) -> SetSpec:
    """Union with nested unions flattened and empties dropped."""
    flat: list[SetSpec] = []
    for p in parts:
        if isinstance(p, Union):
            flat.extend(p.parts)
        elif not isinstance(p, Empty):
            flat.append(p)
    if not flat:
        return Empty()
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def stride(spec: SetSpec) -> int:
    """The chain stride of the described set, read off its tree: m for a
    residue class mod m, |d| times the inner stride for an affine image, the
    kept part's for a difference, the gcd over a union's parts that are not
    single points, and 1 for anything else.  The folds walk a set in runs
    at this stride; they are exact at any stride, so it need only be good."""
    if isinstance(spec, (ModClass, ModClassNonneg)):
        return spec.m
    if isinstance(spec, ShiftScale):
        return stride(spec.inner) * abs(spec.d)
    if isinstance(spec, Diff):
        return stride(spec.keep)
    if isinstance(spec, Union):
        return math.gcd(*(stride(p) for p in spec.parts
                          if not isinstance(p, (Singleton, Empty)))) or 1
    return 1


_BYTE_OFFSETS = [tuple(i for i in range(8) if (b >> i) & 1) for b in range(256)]
_NONZERO_FLAG = bytes(1) + b"\x01" * 255  # translate table: every nonzero byte to 1


def _bits_at(offsets, width: int) -> int:
    # One int with the given bit offsets set, all below width; the bits are
    # set in a bytearray, so the cost is linear in offsets plus width.
    buf = bytearray((width + 7) // 8)
    for k in offsets:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


class DenseSet(Record):
    """Exact bitset on a window: bit i set iff window.lo + i is a member.

    This class owns that layout: members() decodes it, dense_from_iter and
    materialize encode it, and restrict moves a set onto another window.
    """

    __slots__ = _fields = ("window", "bits")

    def __init__(self, window: Window, bits: int):
        self.window, self.bits = window, bits

    def __repr__(self) -> str:  # hex: str() of an int past 4300 digits raises
        return f"DenseSet(window={self.window!r}, bits={self.bits:#x})"

    def member(self, n: int) -> bool:
        return self.window.contains(n) and (self.bits >> (n - self.window.lo)) & 1 == 1

    def popcount(self) -> int:
        return self.bits.bit_count()

    def members(self) -> list[int]:
        """Ascending list of all members.

        The bytes of the bits are flagged nonzero or zero by one translate,
        and each run of nonzero bytes is found by two memchr scans
        (bytes.find) of the flags, so the Python loop costs per run and per
        member, not per byte of the window.
        """
        lo = self.window.lo
        raw = self.bits.to_bytes((self.window.width + 7) // 8, "little")
        find = raw.translate(_NONZERO_FLAG).find
        out = []
        start = find(1)
        while start >= 0:
            stop = find(0, start)
            if stop < 0:
                stop = len(raw)
            for bi in range(start, stop):
                base = lo + 8 * bi
                for off in _BYTE_OFFSETS[raw[bi]]:
                    out.append(base + off)
            start = find(1, stop)
        return out

    def complement(self) -> "DenseSet":
        mask = (1 << self.window.width) - 1
        return DenseSet(self.window, ~self.bits & mask)

    def restrict(self, window: Window) -> "DenseSet":
        """This set intersected with window, as bits on window.

        Points of window outside this set's window are not members.
        """
        if window == self.window:
            return self
        lo = max(self.window.lo, window.lo)
        hi = min(self.window.hi, window.hi)
        if lo > hi:
            return DenseSet(window, 0)
        piece = (self.bits >> (lo - self.window.lo)) & ((1 << (hi - lo + 1)) - 1)
        return DenseSet(window, piece << (lo - window.lo))


def dense_from_iter(values, window: Window) -> DenseSet:
    offsets = (v - window.lo for v in values if window.contains(v))
    return DenseSet(window, _bits_at(offsets, window.width))


def dilate_or(bits: int, gap: int, count: int, maxbits: int) -> int:
    """OR of `bits` shifted by 0, gap, 2*gap, ..., (count-1)*gap.

    Doubling on the covered shift set keeps this O(log count) big-int ops.
    Everything at or above bit `maxbits` is truncated, which is safe while
    dilating because bits only move upward.
    """
    mask = (1 << maxbits) - 1
    r = bits & mask
    if count <= 1:
        return r
    span = 1
    while span < count:
        step = min(span, count - span)
        r = (r | (r << (gap * step))) & mask
        span += step
    return r


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def ap_bits(first: int, stride: int, last: int, w: Window) -> int:
    """Bits of the progression first, first+stride, ... up to `last`, in w."""
    if first > w.hi or first > last:
        return 0
    if first < w.lo:
        k = _ceil_div(w.lo - first, stride)
        first += k * stride
    top = min(last, w.hi)
    if first > top:
        return 0
    count = (top - first) // stride + 1
    return dilate_or(1 << (first - w.lo), stride, count, top - w.lo + 1)


def _affine_bits(spec: SetSpec, c: int, d: int, w: Window) -> int:
    """Bits of (d*spec + c) intersected with w, relative to w.lo.

    Affine maps are pushed through the tree instead of materializing
    preimages, so residue classes stay O(log width) and gap sets stay
    O(elements in window).  d is nonzero; injectivity makes the image of a
    difference the difference of the images.
    """
    if isinstance(spec, Empty):
        return 0
    if isinstance(spec, Singleton):
        v = d * spec.a + c
        return (1 << (v - w.lo)) if w.contains(v) else 0
    if isinstance(spec, ModClass):
        g = abs(d) * spec.m
        v0 = d * spec.r + c
        first = w.lo + ((v0 - w.lo) % g)
        return ap_bits(first, g, w.hi, w)
    if isinstance(spec, ModClassNonneg):
        g = abs(d) * spec.m
        v0 = d * spec.r + c
        if d > 0:
            return ap_bits(v0, g, w.hi, w)
        # image descends from v0; keep the in-window part of {v <= v0, v = v0 mod g}
        first = w.lo + ((v0 - w.lo) % g)
        return ap_bits(first, g, v0, w)
    if isinstance(spec, GapTail):
        if d > 0:
            ylo, yhi = _ceil_div(w.lo - c, d), (w.hi - c) // d
        else:
            ylo, yhi = _ceil_div(w.hi - c, d), (w.lo - c) // d
        if ylo > yhi:
            return 0
        ys = gapset.elements_in(spec.gen, Window(ylo, yhi))
        return _bits_at((d * y + c - w.lo for y in ys), w.width)
    if isinstance(spec, Union):
        bits = 0
        for p in spec.parts:
            bits |= _affine_bits(p, c, d, w)
        return bits
    if isinstance(spec, Diff):
        mask = (1 << w.width) - 1
        return _affine_bits(spec.keep, c, d, w) & ~_affine_bits(spec.drop, c, d, w) & mask
    if isinstance(spec, ShiftScale):
        return _affine_bits(spec.inner, d * spec.c + c, d * spec.d, w)
    raise MalformedSpec(f"unknown spec node {spec!r}")


def materialize(spec: SetSpec, window: Window) -> DenseSet:
    """Exact membership bits of the described set on the window."""
    return DenseSet(window, _affine_bits(spec, 0, 1, window))
