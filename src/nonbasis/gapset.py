"""Strictly increasing integer sequences with certified gap growth.

Every generator here produces a strictly increasing sequence of nonnegative
integers whose consecutive gaps are eventually monotone increasing, with a
closed form for the first index where the gap exceeds a given C.  That closed
form is what turns "Y has infinite gaps" into a finite, checkable statement:
all pairs at distance <= C live below a computable radius.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Iterator

from .errors import MalformedSpec, UncertifiableTail
from .record import Record


class GapGenerator(Record):
    """Marker base class for gap sequence generators."""

    __slots__ = ()


class Geometric(GapGenerator):
    """y_i = scale * base**i for i >= 0."""

    __slots__ = _fields = ("base", "scale")

    def __init__(self, base: int, scale: int = 1):
        if base < 2:
            raise MalformedSpec(f"geometric base must be >= 2, got {base}")
        if scale < 1:
            raise MalformedSpec(f"geometric scale must be >= 1, got {scale}")
        self.base, self.scale = base, scale


class Triangular(GapGenerator):
    """0, 1, 3, 6, 10, ...: consecutive gaps 1, 2, 3, ..."""

    __slots__ = ()


class Factorial(GapGenerator):
    """1, 2, 6, 24, ...: the factorials i! for i >= 1."""

    __slots__ = ()


class CustomPrefixTail(GapGenerator):
    """A finite sorted prefix followed by one of the certified families.

    Tail elements <= max(prefix) are dropped so the merged sequence stays
    strictly increasing.  The tail must itself have a certified gap bound,
    i.e. nesting custom prefixes is rejected.
    """

    __slots__ = _fields = ("prefix", "tail")

    def __init__(self, prefix: tuple[int, ...], tail: GapGenerator):
        if not prefix:
            raise MalformedSpec("custom prefix must be non-empty")
        if any(b <= a for a, b in zip(prefix, prefix[1:])):
            raise MalformedSpec("custom prefix must be strictly increasing")
        if prefix[0] < 0:
            raise MalformedSpec("custom prefix must be nonnegative")
        if isinstance(tail, CustomPrefixTail) or not isinstance(tail, GapGenerator):
            raise UncertifiableTail("custom tail must be a certified closed-form family")
        self.prefix, self.tail = prefix, tail


def values(gen: GapGenerator) -> Iterator[int]:
    """Yield the sequence in increasing order, forever."""
    if isinstance(gen, Geometric):
        v = gen.scale
        while True:
            yield v
            v *= gen.base
    elif isinstance(gen, Triangular):
        v, step = 0, 1
        while True:
            yield v
            v += step
            step += 1
    elif isinstance(gen, Factorial):
        v, i = 1, 2
        while True:
            yield v
            v *= i
            i += 1
    elif isinstance(gen, CustomPrefixTail):
        yield from gen.prefix
        top = gen.prefix[-1]
        for v in values(gen.tail):
            if v > top:
                yield v
    else:
        raise MalformedSpec(f"unknown generator {gen!r}")


def is_member(gen: GapGenerator, n: int) -> bool:
    """Exact membership test; closed form, no unbounded iteration."""
    if isinstance(gen, Geometric):
        if n < gen.scale or n % gen.scale != 0:
            return False
        v = n // gen.scale
        while v % gen.base == 0:
            v //= gen.base
        return v == 1
    if isinstance(gen, Triangular):
        if n < 0:
            return False
        k = (math.isqrt(8 * n + 1) - 1) // 2
        return k * (k + 1) // 2 == n
    if isinstance(gen, Factorial):
        if n < 1:
            return False
        f, i = 1, 2
        while f < n:
            f *= i
            i += 1
        return f == n
    if isinstance(gen, CustomPrefixTail):
        if n <= gen.prefix[-1]:
            return n in gen.prefix
        return is_member(gen.tail, n)
    raise MalformedSpec(f"unknown generator {gen!r}")


@functools.cache
def least_non_member(gen: GapGenerator) -> int:
    """The smallest nonnegative integer outside the sequence (memoized)."""
    n = 0
    for v in values(gen):
        if v != n:
            return n
        n += 1
    raise AssertionError("unreachable: certified sequences have unbounded gaps")


@functools.cache
def _walk(gen: GapGenerator) -> tuple[list[int], Iterator[int]]:
    # The elements of gen walked so far, and the values iterator that
    # continues them; elements_in extends the list in place.
    it = values(gen)
    return [next(it)], it


def elements_in(gen: GapGenerator, window) -> list[int]:
    """Sequence elements inside [window.lo, window.hi], ascending.

    Each generator is walked once (memoized, like least_non_member): the
    walk grows only past the largest window.hi asked for, and each window
    is a bisect slice of it.
    """
    ys, rest = _walk(gen)
    while ys[-1] <= window.hi:
        ys.append(next(rest))
    return ys[bisect.bisect_left(ys, window.lo) : bisect.bisect_right(ys, window.hi)]


def _monotone_gap_radius(gen: GapGenerator, c: int) -> int:
    # Walk the sequence until the (monotone increasing) consecutive gap
    # exceeds c; every pair at distance <= c lies at or below that element.
    it = values(gen)
    prev = next(it)
    for v in it:
        if v - prev > c:
            return prev
        prev = v
    raise AssertionError("unreachable: certified sequences have unbounded gaps")


@functools.cache
def gap_radius(gen: GapGenerator, c: int) -> int:
    """Certified R such that every pair with |y - y'| <= c has y, y' <= R.

    For the closed-form families the consecutive gaps are monotone
    increasing, so R is the element just before the first gap > c.  For a
    custom prefix R = max(prefix[-1] + c, the tail's R): a close pair lies
    in the prefix (both at most prefix[-1]), across prefix and tail (the
    later one at most prefix[-1] + c) or in the tail (within the tail's R).
    Generators are frozen values, so R is memoized per (gen, c).
    """
    if c < 1:
        raise MalformedSpec(f"gap_radius needs C >= 1, got {c}")
    if isinstance(gen, (Geometric, Triangular, Factorial)):
        return _monotone_gap_radius(gen, c)
    if isinstance(gen, CustomPrefixTail):
        boundary = gen.prefix[-1] + c
        tail_r = gap_radius(gen.tail, c)
        return max(boundary, tail_r)
    raise UncertifiableTail(f"no certified gap bound for {gen!r}")
