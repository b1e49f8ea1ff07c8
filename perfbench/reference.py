"""Reference oracle for the benchmark, written without the nonbasis package.

Everything here is derived from the definitions in the paper and nothing
else: the gap sequences from their closed forms, the family
A = {s} u {h*x + t : x in carrier minus Y} from its defining formula, the
h-fold sumset by a per-element shift-OR (no arithmetic chains, no doubling,
no window clipping), and representations by an exhaustive multiset search.
It is slow on purpose; the workloads apply it to a prefix or a seeded
sample of each window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

N0 = "n0"
Z = "z"


@dataclass(frozen=True)
class Gap:
    """A gap sequence Y, given by the closed form of its i-th element."""

    kind: str  # "geometric" | "triangular" | "factorial"
    base: int = 0
    scale: int = 1

    def literal(self) -> str:
        """The same sequence written as a `nonbasis --gap` argument."""
        if self.kind == "geometric":
            return f"geometric,{self.base},{self.scale}"
        return self.kind

    def element(self, i: int) -> int:
        if self.kind == "geometric":
            return self.scale * self.base**i
        if self.kind == "triangular":
            return i * (i + 1) // 2
        if self.kind == "factorial":
            return math.factorial(i + 1)
        raise ValueError(f"unknown gap kind {self.kind!r}")

    def values(self, hi: int) -> list[int]:
        """y_0 < y_1 < ... up to hi, in index order."""
        out = []
        i = 0
        while (y := self.element(i)) <= hi:
            out.append(y)
            i += 1
        return out


GEOMETRIC2 = Gap("geometric", 2, 1)
GEOMETRIC3 = Gap("geometric", 3, 1)
TRIANGULAR = Gap("triangular")
FACTORIAL = Gap("factorial")
GAPS = (GEOMETRIC2, GEOMETRIC3, TRIANGULAR, FACTORIAL)


@dataclass
class Family:
    """A = {s} u {h*x + t : x in X}, X = carrier minus Y (Y empty if gap is None)."""

    h: int
    s: int
    t: int
    domain: str
    gap: Gap | None = None
    extra: frozenset = frozenset()  # adjoined elements (A u B)
    _ys: set = field(default_factory=set, repr=False)
    _ys_hi: int = field(default=-1, repr=False)

    def in_y(self, x: int) -> bool:
        if self.gap is None or x < 0:
            return False
        if x > self._ys_hi:
            self._ys_hi = max(2 * x, 64)
            self._ys = set(self.gap.values(self._ys_hi))
        return x in self._ys

    def in_x(self, x: int) -> bool:
        return (self.domain == Z or x >= 0) and not self.in_y(x)

    def contains(self, n: int) -> bool:
        if n == self.s or n in self.extra:
            return True
        return (n - self.t) % self.h == 0 and self.in_x((n - self.t) // self.h)

    def elements(self, lo: int, hi: int) -> list[int]:
        """Members of A in [lo, hi], ascending."""
        return [n for n in range(lo, hi + 1) if self.contains(n)]

    def with_extra(self, extra) -> "Family":
        return Family(self.h, self.s, self.t, self.domain, self.gap, frozenset(extra))

    def shifted(self, lo: int, hi: int) -> list[int]:
        """{(h-1)s + h*y + t : y in Y} in [lo, hi], ascending."""
        if self.gap is None:
            return []
        base = (self.h - 1) * self.s + self.t
        return [
            base + self.h * y
            for y in self.gap.values(max((hi - base) // self.h, -1))
            if base + self.h * y >= lo
        ]


def hfold_bits(elements: list[int], h: int) -> tuple[int, int]:
    """The whole h-fold sumset of a finite set, by per-element shift-OR.

    Returns (base, bits): bit i of bits is set iff base + i is a sum of h
    elements (with repetition).  One shift per element per fold step.
    """
    if not elements:
        return 0, 0
    lo = min(elements)
    offsets = [e - lo for e in elements]
    acc = 1
    for _ in range(h):
        nxt = 0
        for o in offsets:
            nxt |= acc << o
        acc = nxt
    return h * lo, acc


def complement(elements: list[int], h: int, lo: int, hi: int) -> list[int]:
    """Points of [lo, hi] that are not a sum of h of the given elements."""
    base, bits = hfold_bits(elements, h)
    return [n for n in range(lo, hi + 1) if n < base or not (bits >> (n - base)) & 1]


class SearchLimit(Exception):
    """The exhaustive search ran past its node budget."""


def find_rep(family: Family, k: int, m: int, floor: int, nodes: int = 200_000):
    """A multiset of k elements of A, all >= floor, summing to m, or None.

    Exhaustive over the largest summand a (which is at least m/k), tried
    from the top down, with every (k, m) subproblem memoized.  Exact when
    every element of A below `floor` can be ignored (N0 with floor 0).
    """
    memo: dict[tuple[int, int], tuple | None] = {}
    budget = [nodes]

    def go(k: int, m: int):
        if k == 1:
            return (m,) if m >= floor and family.contains(m) else None
        key = (k, m)
        if key in memo:
            return memo[key]
        memo[key] = None
        a = m - (k - 1) * floor
        low = -((-m) // k)
        while a >= low:
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchLimit(f"no decision for {k} summands of {m}")
            if family.contains(a):
                sub = go(k - 1, m - a)
                if sub is not None:
                    memo[key] = (a,) + sub
                    break
            a -= 1
        return memo[key]

    return go(k, m)


def count_reps(family: Family, k: int, m: int, lo: int, hi: int, cap: int = 2) -> int:
    """Number of multisets of k elements of A in [lo, hi] summing to m, saturated at cap."""
    elems = family.elements(lo, hi)
    memo: dict[tuple[int, int, int], int] = {}

    def go(k: int, m: int, top: int) -> int:
        # summands chosen in non-increasing order; elems[top] is the largest allowed
        if k == 0:
            return 1 if m == 0 else 0
        key = (k, m, top)
        if key in memo:
            return memo[key]
        total = 0
        for j in range(top, -1, -1):
            a = elems[j]
            if k * a < m:
                break
            if m - a < (k - 1) * lo:
                continue
            total += go(k - 1, m - a, j)
            if total >= cap:
                break
        memo[key] = min(total, cap)
        return memo[key]

    return go(k, m, len(elems) - 1) if elems else 0


def residue_case(h: int, s: int, t: int, b: int) -> str:
    """Which of the three escape cases an adjoined b falls in."""
    if (b - s) % h == 0:
        return "eq_s"
    if (b - t) % h == 0:
        return "eq_t"
    return "not_st"


def parse_ranges(text: str) -> list[int]:
    """Inverse of the report's run notation "3-6,9,17" for nonnegative values."""
    if text == "(empty)":
        return []
    out = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        out.extend(range(int(lo), int(hi if sep else lo) + 1))
    return out
