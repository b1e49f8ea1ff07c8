"""The {s} u {h*x + t : x in X} families and their validation.

A Family is (h, s, t, domain, Y): X is the carrier, Z or N0, minus Y when
Y is given, and X's spec and A's follow from those values when it is
built.  That gives four shapes, full or gapped over Z or N0.  The Family
itself enforces gcd(h, s - t) = 1 for gapped families; with that, s never
lands in {h*x + t}, so the defining union is disjoint.
"""

from __future__ import annotations

import math

from . import gapset, intset
from .errors import DomainConstraint, GcdViolation
from .record import Record

DOMAIN_Z = "z"
DOMAIN_N0 = "n0"


class Params(Record):
    __slots__ = _fields = ("h", "s", "t", "domain")

    def __init__(self, h: int, s: int, t: int, domain: str):
        if h < 2:
            raise DomainConstraint(f"h must be >= 2, got {h}")
        if domain not in (DOMAIN_Z, DOMAIN_N0):
            raise DomainConstraint(f"domain must be 'z' or 'n0', got {domain!r}")
        if domain == DOMAIN_N0 and (s < 0 or t < 0):
            raise DomainConstraint(f"domain n0 needs nonnegative s and t, got s={s} t={t}")
        self.h, self.s, self.t, self.domain = h, s, t, domain


def gcd_case(h: int, s: int, t: int) -> int:
    """The dichotomy pivot d = gcd(h, s - t), with gcd(h, 0) = h.

    d >= 2 makes the full families nonbases; d = 1 makes them bases.
    """
    return math.gcd(h, abs(s - t))


class Family(Params):
    """A = {s} u {h*x + t : x in X}, fixed by (h, s, t, domain, y).

    X is the carrier (Z or N0), minus the gap set Y when y is set.
    Construction derives X's spec (`xspec`), A's (`spec`) and `is_gapped`
    from the fields once, and raises GcdViolation for a gapped family whose
    gcd(h, s - t) is not 1.
    """

    __slots__ = ("y", "is_gapped", "xspec", "spec", "_st_inv", "_hash")
    _fields = Params._fields + ("y",)

    def __init__(self, h: int, s: int, t: int, domain: str, y: gapset.GapGenerator | None):
        super().__init__(h, s, t, domain)
        d = gcd_case(h, s, t)
        z = domain == DOMAIN_Z
        xspec = intset.ModClass(1, 0) if z else intset.ModClassNonneg(1, 0)
        if y is None:
            tail = intset.ModClass(h, t) if z else intset.ModClassNonneg(h, t)
        elif d != 1:
            raise GcdViolation(f"gcd({h}, {s}-{t}) = {d}; gapped families need 1")
        else:
            xspec = intset.Diff(xspec, intset.GapTail(y))
            tail = intset.ShiftScale(xspec, t, h)
        self.y, self.is_gapped, self.xspec = y, y is not None, xspec
        self.spec = intset.union_of(intset.Singleton(s), tail)
        self._st_inv = pow(s - t, -1, h) if d == 1 else None  # residue's (s - t)^-1 mod h
        # Caches keyed by a family hash it on every lookup; y is walked once, here.
        self._hash = hash((h, s, t, domain, y))

    def __hash__(self) -> int:
        return self._hash

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


def build_full(params: Params) -> Family:
    """A = {s} u {h*z + t : z in carrier}."""
    return Family(params.h, params.s, params.t, params.domain, None)


def build_gapped(params: Params, y: gapset.GapGenerator) -> Family:
    """A = {s} u {h*x + t : x in carrier minus Y}; needs gcd(h, s - t) = 1."""
    return Family(params.h, params.s, params.t, params.domain, y)
