"""Constructors and validation for the {s} u {h*x + t : x in X} families.

Four shapes: the full families over Z and N0 (X is the whole carrier) and
the gapped families where X is the carrier minus an infinite set Y with
certified gaps.  Gapped families require gcd(h, s - t) = 1; with that, s
never lands in {h*x + t}, so the defining union is disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import gapset, intset
from .errors import DomainConstraint, GcdViolation

DOMAIN_Z = "z"
DOMAIN_N0 = "n0"


@dataclass(frozen=True)
class Params:
    h: int
    s: int
    t: int
    domain: str

    def __post_init__(self):
        if self.h < 2:
            raise DomainConstraint(f"h must be >= 2, got {self.h}")
        if self.domain not in (DOMAIN_Z, DOMAIN_N0):
            raise DomainConstraint(f"domain must be 'z' or 'n0', got {self.domain!r}")
        if self.domain == DOMAIN_N0 and (self.s < 0 or self.t < 0):
            raise DomainConstraint(
                f"domain n0 needs nonnegative s and t, got s={self.s} t={self.t}"
            )


def gcd_case(h: int, s: int, t: int) -> int:
    """The dichotomy pivot d = gcd(h, s - t), with gcd(h, 0) = h.

    d >= 2 makes the full families nonbases; d = 1 makes them bases.
    """
    return math.gcd(h, abs(s - t))


@dataclass(frozen=True)
class Family:
    """A realized family: parameters, optional gap set Y, the set spec and X."""

    params: Params
    y: gapset.GapGenerator | None
    spec: intset.SetSpec
    # X itself: the carrier, or the carrier minus Y.  It is a function of
    # params and y, so it takes no part in equality or hashing.
    xspec: intset.SetSpec = field(compare=False, repr=False)

    def __post_init__(self):
        # Caches keyed by a family hash it on every lookup; a frozen value
        # walks its params and spec tree for that once.
        object.__setattr__(self, "_hash", hash((self.params, self.y, self.spec)))
        # residue's (s - t)^-1 mod h; None when gcd(h, s - t) != 1
        h, s, t = self.params.h, self.params.s, self.params.t
        inv = pow(s - t, -1, h) if gcd_case(h, s, t) == 1 else None
        object.__setattr__(self, "_st_inv", inv)

    def __hash__(self) -> int:
        return self._hash

    @property
    def h(self) -> int:
        return self.params.h

    @property
    def s(self) -> int:
        return self.params.s

    @property
    def t(self) -> int:
        return self.params.t

    @property
    def domain(self) -> str:
        return self.params.domain

    @property
    def is_gapped(self) -> bool:
        return self.y is not None

    def residue(self, n: int) -> tuple[int, int]:
        """The unique (i, q) with n = i(s - t) + h*q and 0 <= i < h.

        That is n as i copies of s plus h - i summands h*x + t whose x sum
        to q - t.  Needs gcd(h, s - t) = 1.
        """
        if self._st_inv is None:
            h, s, t = self.h, self.s, self.t
            raise GcdViolation(f"residue decomposition needs gcd({h},{s}-{t}) = 1")
        i = n * self._st_inv % self.h
        return i, (n - i * (self.s - self.t)) // self.h

    def x_spec(self) -> intset.SetSpec:
        """The spec for X: the carrier, minus Y for gapped families."""
        return self.xspec

    def x_contains(self, x: int) -> bool:
        if self.domain == DOMAIN_N0 and x < 0:
            return False
        if self.y is None:
            return True
        return not gapset.is_member(self.y, x)

    def y_contains(self, x: int) -> bool:
        return self.y is not None and gapset.is_member(self.y, x)

    def a_contains(self, n: int) -> bool:
        """n in A = {s} u (h*X + t)."""
        x, rem = divmod(n - self.t, self.h)
        return n == self.s or (rem == 0 and self.x_contains(x))

    def shifted_y_value(self, y: int) -> int:
        """The structured complement element produced by y in Y."""
        return (self.h - 1) * self.s + self.h * y + self.t

    def shifted_ys(self, window: intset.Window) -> list[tuple[int, int]]:
        """(y, shifted_y_value(y)) for each y in Y whose value lies in window, ascending."""
        if self.y is None:
            return []
        off = (self.h - 1) * self.s + self.t
        ys = gapset.elements_in(
            self.y, intset.Window((window.lo - off) // self.h, (window.hi - off) // self.h)
        )
        return [(y, n) for y in ys if window.contains(n := self.h * y + off)]


def _carrier(params: Params) -> intset.SetSpec:
    if params.domain == DOMAIN_Z:
        return intset.ModClass(1, 0)
    return intset.ModClassNonneg(1, 0)


def build_full(params: Params) -> Family:
    """A = {s} u {h*z + t : z in carrier}."""
    if params.domain == DOMAIN_Z:
        tail: intset.SetSpec = intset.ModClass(params.h, params.t)
    else:
        tail = intset.ModClassNonneg(params.h, params.t)
    spec = intset.union_of(intset.Singleton(params.s), tail)
    return Family(params, None, spec, _carrier(params))


def build_gapped(params: Params, y: gapset.GapGenerator) -> Family:
    """A = {s} u {h*x + t : x in carrier minus Y}; needs gcd(h, s - t) = 1."""
    d = gcd_case(params.h, params.s, params.t)
    if d != 1:
        raise GcdViolation(f"gcd({params.h}, {params.s}-{params.t}) = {d}; gapped families need 1")
    xspec = intset.Diff(_carrier(params), intset.GapTail(y))
    spec = intset.union_of(
        intset.Singleton(params.s),
        intset.ShiftScale(xspec, params.t, params.h),
    )
    return Family(params, y, spec, xspec)
