"""Preset verification runs and the shared report shape.

A report is a plain dict with stable key order:

    {"family": {...}, "window": [lo, hi], "catalog": {...} | null,
     "checks": [{"name", "status", "details"}, ...]}

so identical configurations serialize to byte-identical JSON.
"""

from __future__ import annotations

import json

from . import gapset, grammar, intset, sumset, verify
from .errors import DomainConstraint, OracleDisagreement
from .families import DOMAIN_N0, Family, gcd_case
from .intset import Window
from .record import Record

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


class Check(Record):
    __slots__ = _fields = ("name", "status", "details")

    def __init__(self, name: str, status: str, details: str):
        self.name, self.status, self.details = name, status, details

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


def check(name: str, ok: bool, details: str) -> Check:
    return Check(name, PASS if ok else FAIL, details)


def family_dict(h: int, s=None, t=None, domain=None, gap=None, spec=None) -> dict:
    """A report's "family" entry: a field the call does not fix is None."""
    return {"h": h, "s": s, "t": t, "domain": domain, "gap": gap, "spec": spec}


def family_to_dict(family: Family) -> dict:
    gap = None if family.y is None else grammar.format_generator(family.y)
    return family_dict(family.h, family.s, family.t, family.domain, gap,
                       grammar.format_spec(family.spec))


def report_dict(
    family: dict | None,
    window: Window | None,
    catalog: verify.Catalog | None,
    checks: list[Check],
) -> dict:
    return {
        "family": family,
        "window": None if window is None else [window.lo, window.hi],
        "catalog": None if catalog is None else catalog.as_dict(),
        "checks": [c.as_dict() for c in checks],
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def format_ranges(values: list[int]) -> str:
    """Compact run notation for a sorted integer list: "3-6,9-10,17"."""
    if not values:
        return "(empty)"
    parts = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        parts.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = v
    parts.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ",".join(parts)


def render_text(report: dict) -> str:
    lines = []
    fam = report.get("family")
    if fam:
        bits = [f"{k}={fam[k]}" for k in ("h", "s", "t", "domain") if fam.get(k) is not None]
        lines.append("family: " + " ".join(bits))
        if fam.get("gap"):
            lines.append(f"gap: {fam['gap']}")
        if fam.get("spec"):
            lines.append(f"spec: {fam['spec']}")
    if report.get("window"):
        lo, hi = report["window"]
        lines.append(f"window: {lo}:{hi}")
    cat = report.get("catalog")
    if cat is not None:
        whole = sorted(cat["shifted_y"] + cat["exceptional"] + cat["unknown"])
        lines.append(f"complement: {format_ranges(whole)}")
        lines.append(f"  shifted_y:   {cat['shifted_y']}")
        lines.append(f"  exceptional: {cat['exceptional']}")
        lines.append(f"  unknown:     {cat['unknown']}")
    for c in report.get("checks", []):
        lines.append(f"[{c['status']:>7}] {c['name']}: {c['details']}")
    return "\n".join(lines) + "\n"


def _above_threshold(name: str, thr: int, window: Window, ok: bool | None, details: str) -> Check:
    """A check of the window points from thr on: unknown when the window
    ends below thr, since then it examines none; ok is read otherwise."""
    if window.hi < thr:
        return Check(
            name, UNKNOWN, f"window {window.lo}:{window.hi} ends below the threshold {thr}"
        )
    return check(name, ok, details)


def exit_code(checks: list[Check]) -> int:
    if any(c.status == FAIL for c in checks):
        return 1
    if any(c.status == UNKNOWN for c in checks):
        return 3
    return 0


def dichotomy_checks(family: Family, window: Window) -> list[Check]:
    """The gcd dichotomy against the oracle on a window.

    d >= 2: the sumset touches no residue class outside the h/d admissible
    ones, so at least h(d-1)/d classes are missed entirely.  d = 1: the
    complement above (h-1)|s-t| + ht is empty (exactly, for N0; for Z the
    truncated oracle must cover the whole window).
    """
    h, s, t = family.h, family.s, family.t
    d = gcd_case(h, s, t)
    oracle = verify.base_oracle(family, window).folded
    checks = []
    if d >= 2:
        allowed = {(i * (s - t) + h * t) % h for i in range(h)}
        # class c meets hA when hA, shifted down to c's first window point,
        # meets the comb of every h-th bit
        comb = intset.ap_bits(window.lo, h, window.hi, window)
        bits = oracle.dense.bits
        hits = [(bits >> ((c - window.lo) % h)) & comb != 0 for c in range(h)]
        ok_bad = not any(hits[c] for c in range(h) if c not in allowed)
        missed = [c for c in range(h) if not hits[c]]
        need = h * (d - 1) // d
        checks.append(
            check(
                "residue_obstruction",
                ok_bad,
                f"d={d}; sumset avoids all {h - len(allowed)} inadmissible classes mod {h}",
            )
        )
        checks.append(
            check(
                "missed_classes",
                len(missed) >= need,
                f"missed {len(missed)} of {h} classes, need >= {need}",
            )
        )
    else:
        thr = (h - 1) * abs(s - t) + h * t
        comp = oracle.dense.complement()
        if family.domain == DOMAIN_N0:
            above = (comp.bits >> max(thr - window.lo, 0)).bit_count()
            checks.append(
                _above_threshold(
                    "coverage_above_threshold",
                    thr,
                    window,
                    not above,
                    f"complement meets [{thr}, {window.hi}] in {above} points",
                )
            )
        else:
            missed = comp.popcount()
            checks.append(
                check(
                    "full_coverage",
                    not missed,
                    f"truncated oracle misses {missed} window points",
                )
            )
    return checks


def uniqueness_check(family: Family, cap_hi: int) -> Check:
    """Representation multiplicity along n = t-s (mod h) above the threshold.

    Each such n in the safe region must have exactly one multiset
    representation against the truncated set of a full family; checked for
    the whole region at once with the saturating-multiplicity sweep.
    """
    if family.is_gapped:
        raise DomainConstraint("uniqueness check applies to full families only")
    h, s, t = family.h, family.s, family.t
    if gcd_case(h, s, t) != 1:
        return Check("uniqueness", FAIL, "gcd case is not 1")
    thr = (h - 1) * abs(s - t) + h * t
    start = thr + ((t - s) - thr) % h
    if start > cap_hi:
        return Check("uniqueness", UNKNOWN, f"no residues in [{start}, {cap_hi}]")
    pad = (h + 1) * (abs(s) + abs(t) + 1) + h
    # The canonical representation of every checked n fits inside
    # [-pad, cap_hi + pad]; any second multiset inside the truncation would
    # already disprove uniqueness, so a modest truncation is a fair test.
    # The truncated set is two chains: s, which lies in src and off the
    # progression h*z + t since gcd(h, s - t) = 1, and that progression on
    # src, which starts at t over N0.
    if family.domain == DOMAIN_N0:
        src = Window(0, cap_hi + pad)
        first = t
    else:
        src = Window(-pad, cap_hi + pad)
        first = src.lo + (t - src.lo) % h
    chains = sorted([(s, h, 1), (first, h, (src.hi - first) // h + 1)])
    # No clip at h * src.lo: start >= 0 = h * src.lo over N0, start >= h*t >= -h*pad over Z
    region = intset.materialize(intset.ModClass(h, t - s), Window(start, cap_hi))
    ge1, ge2 = sumset.multiplicity_pair(chains, h, region.window)
    bad = region.bits & (~ge1.bits | ge2.bits)
    first_bad = region.window.lo + (bad & -bad).bit_length() - 1
    return check(
        "uniqueness",
        bad == 0,
        f"{region.popcount()} residues checked in [{start}, {cap_hi}]"
        + (f"; first failure at {first_bad}" if bad else ""),
    )


def lemma_checks(gen: gapset.GapGenerator, h: int, window: Window) -> list[Check]:
    rep = verify.lemma_basis_check(gen, h, window)
    # The bad u, with two or more of u-1, u, u+1, u+2 in Y, recomputed from
    # Y's bits on the whole window rather than below the close-pair radius.
    top = max(window.hi, gapset.gap_radius(gen, 3) + 2)
    y = intset.materialize(intset.GapTail(gen), Window(0, top)).bits
    a, b, c, d = y << 1, y, y >> 1, y >> 2  # bit u: u-1, u, u+1, u+2 in Y
    bad = (a & (b | c | d)) | (b & (c | d)) | (c & d)  # b, c, d end at bit top
    checks = [
        check(
            "bad_u_finite",
            bad == sum(1 << u for u in rep.bad_u),
            f"bad u set {list(rep.bad_u)}; threshold {rep.threshold}",
        ),
        _above_threshold(
            "covered_above_threshold",
            rep.threshold,
            window,
            rep.covered_above_threshold,
            f"oracle complement {format_ranges(list(rep.complement))}",
        ),
    ]
    if rep.matches_prediction is not None:
        checks.append(
            check(
                "prediction_matches",
                bool(rep.matches_prediction),
                f"predicted {list(rep.predicted_complement or ())}",
            )
        )
    return checks


# Sampled b values per residue case in a preset's escape checks.
ESCAPES_PER_CASE = 3


def sample_escape_bs(family: Family, per_case: int, window: Window) -> dict[str, list[int]]:
    """Deterministic b samples per residue case up to window.hi // 2, all outside A."""
    h, s, t = family.h, family.s, family.t
    hi = window.hi // 2
    n0 = family.domain == DOMAIN_N0
    out: dict[str, list[int]] = {"not_st": [], "eq_s": [], "eq_t": []}
    u = 1
    while len(out["eq_s"]) < per_case and h * u + s <= hi:
        for cand in (s + h * u, s - h * u):
            if len(out["eq_s"]) >= per_case:
                break
            if cand >= 0 or not n0:
                out["eq_s"].append(cand)
        u += 1
    if hi >= t:
        ys = gapset.elements_in(family.y, Window(0, (hi - t) // h))
        out["eq_t"] = [h * y + t for y in ys[:per_case]]
    if h >= 3:
        # not_st is residue j >= 2 of b - t, which needs h >= 3
        b = 0
        while len(out["not_st"]) < per_case and b <= hi:
            if family.residue(b - t)[0] >= 2:
                out["not_st"].append(b)
            b += 1
    return out


def escape_checks(
    family: Family,
    window: Window,
    budget: int = verify.DEFAULT_BUDGET,
) -> list[Check]:
    samples = sample_escape_bs(family, ESCAPES_PER_CASE, window)
    checks = []
    for case, expected in (
        ("not_st", "becomes_basis"),
        ("eq_s", "becomes_basis"),
        ("eq_t", "stays_nonbasis"),
    ):
        for b in samples[case]:
            rep = verify.escape_check(family, b, window, budget)
            status = PASS if rep.verdict == expected else (
                UNKNOWN if rep.verdict == "inconclusive" else FAIL
            )
            detail = f"verdict {rep.verdict}"
            if rep.predicted_exceptions:
                detail += f", predicted exceptions {list(rep.predicted_exceptions)}"
            if case == "eq_t":
                detail += f", adds {list(rep.added)}"
            checks.append(Check(f"escape_{case}_b{b}", status, detail))
    return checks


def augment_checks(family: Family, window: Window) -> list[Check]:
    checks = []
    even = verify.augment_check(family, verify.YPrimeFilter("even_indices"), window)
    if even.dropped_in_window:
        checks.append(
            check(
                "augment_even_indices",
                even.verdict == "stays_nonbasis",
                f"verdict {even.verdict}; missing {list(even.missing_shifted[:8])}",
            )
        )
    else:
        checks.append(
            Check(
                "augment_even_indices",
                UNKNOWN,
                f"verdict {even.verdict}; no dropped shifted-Y value lies in "
                f"window {window.lo}:{window.hi}, too small to tell",
            )
        )
    # Y' is Y without its least element, which is at or below R(3), since
    # gap_radius walks Y from it; one past the oracle's prefix drops nothing.
    first = gapset.elements_in(family.y, Window(0, gapset.gap_radius(family.y, 3)))[:1]
    drop = verify.augment_check(family, verify.YPrimeFilter("drop_values", first), window)
    checks.append(
        check(
            "augment_cofinite",
            drop.verdict == "becomes_basis_on_window",
            f"verdict {drop.verdict}; leftover {format_ranges(list(drop.leftover))}",
        )
    )
    return checks


def catalog_checks(
    family: Family,
    window: Window,
    budget: int = verify.DEFAULT_BUDGET,
) -> tuple[verify.Catalog, list[Check]]:
    """Complement characterization plus certificate hygiene on a window."""
    try:
        catalog = verify.complement_catalog(family, window, budget)
    except OracleDisagreement as exc:
        return verify.Catalog((), (), ()), [check("oracle_agreement", False, str(exc))]
    if catalog.unknown_members:
        agreement = Check(
            "oracle_agreement",
            UNKNOWN,
            f"classify left {len(catalog.unknown_members)} points the oracle "
            "contains unknown (probe budget exhausted)",
        )
    else:
        agreement = check(
            "oracle_agreement", True, "classification agrees with the oracle pointwise"
        )
    checks = [agreement]

    # The shifted-Y values re-derived from Y itself: outside the search band
    # the catalog reads them off the oracle's bits.
    expected = [n for _, n in family.shifted_ys(window)]
    checks.append(
        check(
            "shifted_y_match",
            list(catalog.shifted_y) == expected,
            f"{len(catalog.shifted_y)} shifted-Y complement points",
        )
    )
    checks.append(
        check(
            "disjoint_partition",
            set(catalog.shifted_y).isdisjoint(catalog.exceptional),
            "shifted-Y and exceptional parts are disjoint",
        )
    )
    no_unknown = Check(
        "no_unknowns",
        PASS if not catalog.unknown else UNKNOWN,
        f"{len(catalog.unknown)} unclassified complement points",
    )
    checks.append(no_unknown)
    if family.domain == DOMAIN_N0:
        bound = verify.exceptional_bound(family)
        checks.append(
            check(
                "exceptional_within_bound",
                all(n <= bound for n in catalog.exceptional),
                f"exceptional set {format_ranges(list(catalog.exceptional))} "
                f"within certified bound {bound}",
            )
        )
    else:
        # Over Z every k-fold decision with k >= 2 is In, so hA misses only
        # shifted-Y values and no F0 or F1 verdict holds.
        details = (
            "exceptional entries carry per-entry Out certificates and are "
            "relative to this window"
        )
        if catalog.exceptional:
            details = (
                f"exceptional entries {format_ranges(list(catalog.exceptional))} "
                "over Z, where no F0 or F1 verdict holds"
            )
        checks.append(check("window_relative_f", not catalog.exceptional, details))
    return catalog, checks


def stability_check(family: Family, window: Window) -> Check:
    """Z-case: the window complement is stable at every truncation radius.

    With S the shifted-Y values on the window W, R the oracle's source radius
    and R' >= R, as Python sets:  hA_R & W <= hA_R' & W <= hA & W <= W - S.
    The first two steps hold as a truncated fold is a lower bound (each
    member is a real sum); the third as gcd(h, s-t) = 1 puts n in S on
    residue i = h-1, whose one possible representation is h-1 copies of s
    plus h*y + t, and y is not in X.  The check's test, W - S == hA_R & W on
    the base oracle, makes every step an equality, with no refold.  If it
    fails the check is unknown: a complement point off S is classified or
    read as exceptional, and a value of S in the oracle fails oracle_agreement."""
    oracle = verify.base_oracle(family, window)
    r, held = oracle.folded.source.hi, oracle.folded.dense.bits & oracle.shifted.bits
    if oracle.folded.dense.complement().bits == oracle.shifted.bits:
        details = f"complement stable across source radii {r} and {2 * r}"
        return Check("truncation_stability", PASS, details)
    return Check("truncation_stability", UNKNOWN, f"{oracle.f_window.popcount()} complement points"
                 f" off the shifted-Y set; {held.bit_count()} shifted-Y values in the oracle")
