"""Command-line front door: construct families, compute sumsets, verify theorems.

Exit codes: 0 all checks pass, 1 a check failed, 2 invalid parameters,
3 Unknown verdicts present.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import grammar, intset, report, sumset, verify
from .errors import NonbasisError
from .families import DOMAIN_N0, DOMAIN_Z, Family, Params, build_full, build_gapped, gcd_case
from .intset import Window

# preset: (domain, default window, family flags it does not read). A preset needs
# each of --s, --t and --gap it reads; passing one it does not read is an error.
_PRESETS = {
    "thm1": (DOMAIN_Z, "-2000:2000", ("gap",)),
    "lemma": (DOMAIN_N0, "0:20000", ("s", "t", "domain")),
    "thm2": (DOMAIN_Z, "-1000:1000", ()),
    "thm3": (DOMAIN_N0, "0:2000", ("gap",)),
    "thm4": (DOMAIN_N0, "0:20000", ()),
}


def _parse_window(text: str) -> Window:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise NonbasisError(f"window must look like LO:HI, got {text!r}")
    try:
        return Window(int(lo), int(hi))
    except ValueError as exc:
        raise NonbasisError(f"bad window {text!r}: {exc}") from exc


def _add_family_args(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--h", type=int, required=True, help="order of the sumset")
    p.add_argument("--s", type=int, required=required, help="the singleton element")
    p.add_argument("--t", type=int, required=required, help="offset of the h-progression")
    p.add_argument(
        "--domain",
        choices=[DOMAIN_Z, DOMAIN_N0],
        required=required,
        help="carrier: z or n0",
    )
    p.add_argument("--gap", help="gap generator literal, e.g. geometric,2,1")


def _add_io_args(p: argparse.ArgumentParser, budget: bool = False):
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--output", help="write the report here instead of stdout")
    if budget:
        p.add_argument(
            "--budget", type=int, default=verify.DEFAULT_BUDGET, help="probe budget per decision"
        )


def _add_construct_args(p: argparse.ArgumentParser):
    _add_family_args(p)
    _add_io_args(p)


def _add_sumset_args(p: argparse.ArgumentParser):
    _add_family_args(p, required=False)
    p.add_argument("--spec", help="set spec literal instead of family parameters")
    p.add_argument("--window", required=True, help="target window LO:HI")
    p.add_argument("--source", help="source window LO:HI (defaults to target)")
    _add_io_args(p)


def _add_classify_args(p: argparse.ArgumentParser):
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_io_args(p, budget=True)


def _add_catalog_args(p: argparse.ArgumentParser):
    _add_family_args(p)
    p.add_argument("--window", required=True)
    _add_io_args(p, budget=True)


def _add_verify_args(p: argparse.ArgumentParser):
    p.add_argument("preset", choices=list(_PRESETS))
    _add_family_args(p, required=False)
    p.add_argument("--window")
    _add_io_args(p, budget=True)


def _family_from_args(args, domain: str | None = None) -> Family:
    dom = domain or args.domain
    params = Params(args.h, args.s, args.t, dom)
    if args.gap:
        return build_gapped(params, grammar.parse_generator(args.gap))
    return build_full(params)


def _budget(args) -> int:
    if args.budget < 0:
        raise NonbasisError(f"probe budget must be >= 0, got {args.budget}")
    return args.budget


def _reject_unread(args, command: str, flags) -> None:
    for flag in flags:
        if getattr(args, flag) is not None:
            raise NonbasisError(f"{command} takes no --{flag}")


# A handler returns (report or None, its own text form or None, exit code).
def _cmd_construct(args):
    fam = _family_from_args(args)
    return report.report_dict(report.family_to_dict(fam), None, None, []), None, 0


def _cmd_sumset(args):
    target = _parse_window(args.window)
    if args.spec:
        _reject_unread(args, "sumset --spec", ("s", "t", "domain", "gap"))
        spec = grammar.parse_spec(args.spec)
        fam_dict = report.family_dict(args.h, spec=grammar.format_spec(spec))
        bounded_below = False
    else:
        if args.s is None or args.t is None or args.domain is None:
            raise NonbasisError("sumset needs either --spec or full family parameters")
        fam = _family_from_args(args)
        spec = fam.spec
        fam_dict = report.family_to_dict(fam)
        bounded_below = fam.domain == DOMAIN_N0
    source = _parse_window(args.source) if args.source else target
    dense, stride = intset.materialize(spec, source), intset.stride(spec)
    if bounded_below and source.lo == 0:
        # No member of an N0 family lies below 0, so the fold is exact on its
        # safe range 0:source.hi; a target that misses it raises there.
        lo, hi = max(target.lo, 0), min(target.hi, source.hi)
        tgt = Window(lo, hi) if lo <= hi else target
        result = sumset.hfold_exact_bounded_below(dense, args.h, target=tgt, stride=stride)
        exactness = "exact"
    else:
        result = sumset.hfold_truncated(dense, args.h, target=target, stride=stride)
        exactness = "lower_bound"
    members, window = result.members(), result.target
    rep = {
        "family": fam_dict,
        "window": [window.lo, window.hi],
        "source": [source.lo, source.hi],
        "h": args.h,
        "exactness": exactness,
        "count": len(members),
        "ranges": report.format_ranges(members),
    }
    text = f"{args.h}-fold sumset on {window.lo}:{window.hi} ({exactness})\n"
    return rep, text + f"members: {rep['ranges']}\n", 0


def _verdict_dict(v: verify.Verdict) -> dict:
    if isinstance(v, verify.InSumset):
        return {"kind": "in_sumset", "s_count": v.s_count, "xs": list(v.xs)}
    if isinstance(v, verify.OutShiftedY):
        return {"kind": "out_shifted_y", "y": v.y}
    if isinstance(v, verify.OutExceptional):
        return {"kind": "out_exceptional", "tag": v.tag}
    return {"kind": "unknown", "reason": v.reason}


def _cmd_classify(args):
    fam = _family_from_args(args)
    verdict = verify.classify(fam, args.n, _budget(args))
    vd = _verdict_dict(verdict)
    if not verify.verify_certificate(fam, args.n, verdict):
        print(f"error: the {vd['kind']} verdict for n={args.n} fails its replay", file=sys.stderr)
        return None, None, 1
    rep = {"family": report.family_to_dict(fam), "n": args.n, "verdict": vd}
    return rep, f"n={args.n}: {vd}\n", 3 if isinstance(verdict, verify.Unknown) else 0


def _cmd_catalog(args):
    fam = _family_from_args(args)
    window = _parse_window(args.window)
    catalog, checks = report.catalog_checks(fam, window, _budget(args))
    rep = report.report_dict(report.family_to_dict(fam), window, catalog, checks)
    return rep, None, report.exit_code(checks)


def _cmd_verify(args):
    preset = args.preset
    domain, default_window, unread = _PRESETS[preset]
    window = _parse_window(args.window or default_window)
    budget = _budget(args)
    _reject_unread(args, f"preset {preset}", unread)
    if args.domain and args.domain != domain:
        raise NonbasisError(f"preset {preset} runs over domain {domain!r}")
    if domain == DOMAIN_N0 and window.lo < 0:
        raise NonbasisError(f"preset {preset} needs a window in N0, got {window.lo}:{window.hi}")
    if "s" not in unread and (args.s is None or args.t is None):
        raise NonbasisError(f"preset {preset} needs --s and --t")
    if "gap" not in unread and not args.gap:
        raise NonbasisError(f"preset {preset} needs --gap")

    if preset == "lemma":
        gen = grammar.parse_generator(args.gap)
        catalog, checks = None, report.lemma_checks(gen, args.h, window)
        fam_dict = report.family_dict(args.h, domain=domain, gap=grammar.format_generator(gen))
    else:
        fam = _family_from_args(args, domain)
        fam_dict = report.family_to_dict(fam)
        if preset in ("thm1", "thm3"):
            catalog, checks = None, report.dichotomy_checks(fam, window)
            if gcd_case(args.h, args.s, args.t) == 1:
                checks.append(report.uniqueness_check(fam, min(window.hi, 4000)))
        else:
            # thm2 / thm4: gapped complement structure, escapes, augmentation
            catalog, checks = report.catalog_checks(fam, window, budget)
            if preset == "thm2":
                checks.append(report.stability_check(fam, window))
            checks.extend(report.escape_checks(fam, window, budget))
            checks.extend(report.augment_checks(fam, window))
    return report.report_dict(fam_dict, window, catalog, checks), None, report.exit_code(checks)


# command: (help line, argument adder, handler)
_COMMANDS = {
    "construct": ("build a family and print its spec", _add_construct_args, _cmd_construct),
    "sumset": ("brute-force h-fold sumset on a window", _add_sumset_args, _cmd_sumset),
    "classify": ("membership verdict for one integer", _add_classify_args, _cmd_classify),
    "catalog": ("complement catalog on a window", _add_catalog_args, _cmd_catalog),
    "verify": ("run a theorem verification preset", _add_verify_args, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """The command tree, for the calls whose first token names no command: they
    only print help or an error, so it holds each command's help line only."""
    # No abbreviations at the top level: a family flag before the command,
    # such as --h, would otherwise be read as --help.
    ap = argparse.ArgumentParser(
        prog="nonbasis",
        description="Construct nonbasis families, compute h-fold sumsets, "
        "and verify their structure on integer windows.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_line)
    return ap


@functools.cache
def _parser(command: str) -> argparse.ArgumentParser:
    # The parser of every call that names this command, under the prog
    # "nonbasis CMD". Parsing leaves a parser unchanged, so one serves every call.
    p = argparse.ArgumentParser(prog=f"nonbasis {command}")
    _COMMANDS[command][1](p)
    p.set_defaults(command=command)
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args = _parser(argv[0]).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
    try:
        rep, text, code = _COMMANDS[args.command][2](args)
        if rep is not None:
            if args.format == "json":
                text = report.render_json(rep)
            elif text is None:
                text = report.render_text(rep)
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        return code
    except NonbasisError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
