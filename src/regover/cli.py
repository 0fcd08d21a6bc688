"""Command-line interface.

Subcommands: expand (eta-quotient coefficients), value (single sequence
values), verify (registry congruence/identity claims), hunt (progression
search), identities (identity claims only).  Output is plain text by
default; --json emits one JSON object per line, --csv comma-separated rows
(the two exclude each other).

Exit codes: 0 success / all pass, 1 verification failure, 2 usage or parse
error, 141 (128 + SIGPIPE) when the reader of standard output closed it
before the output was written, as ``regover ... | head`` can.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import claims as claims_mod
from . import registry
from .products import EtaSpecParseError, eta_quotient, parse_eta_spec
from .sequences import SequenceRef, sequence_value
from .series import ZZ, Zmod

_SEQ_CHOICES = ("p", "pbar", "b", "A", "r", "dstar", "sigma3m", "chi")


def _seq_from_args(args) -> SequenceRef:
    name = args.seq
    for flag, value, takers in (("--ell", args.ell, ("b", "A")), ("--k", args.k, ("r",))):
        if value is not None and name not in takers:
            raise _UsageError(f"sequence {name!r} takes no {flag}")
    if name in ("b", "A"):
        if args.ell is None:
            raise _UsageError(f"sequence {name!r} requires --ell")
        return SequenceRef(name, args.ell)
    if name == "r":
        if args.k is None:
            raise _UsageError("sequence 'r' requires --k")
        return SequenceRef(name, args.k)
    return SequenceRef(name)


class _UsageError(Exception):
    pass


# (attribute, flag, least value by subcommand or sequence where it is not
# 0, what the message adds).  An identity is checked on at least one
# coefficient, while expand --order 0 is the constant term alone; d* and
# sigma3m start at n = 1; hunt's step and instance count start at 1, and a
# --mod names a ring Z/m, so m >= 2.
_LEAST = (
    ("order", "--order", {"verify": 1, "identities": 1}, ""),
    ("n", "--n", {"dstar": 1, "sigma3m": 1}, " for sequence {seq!r}"),
    ("bound", "--bound", {}, ""),
    ("prime_cap", "--prime-cap", {}, ""),
    ("k_cap", "--k-cap", {}, ""),
    ("max_step", "--max-step", {"hunt": 1}, ""),
    ("min_instances", "--min-instances", {"hunt": 1}, ""),
    ("mod", "--mod", {"hunt": 2, "expand": 2}, ""),
)


def _check_sizes(args):
    seq = getattr(args, "seq", None)
    for attr, flag, least_by, where in _LEAST:
        value = getattr(args, attr, None)
        least = least_by.get(args.command, least_by.get(seq, 0))
        if value is not None and value < least:
            where = where.format(seq=seq)
            raise _UsageError(f"{flag} must be >= {least}{where}, got {value}")


def _emit_rows(rows, header, fmt):
    """rows: list of tuples; header: column names."""
    if fmt == "json":
        for row in rows:
            print(json.dumps(dict(zip(header, row))))
    elif fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
    else:
        widths = [
            max([len(h)] + [len(str(r[i])) for r in rows]) for i, h in enumerate(header)
        ]
        for row in rows:
            print("  ".join(str(x).rjust(w) for x, w in zip(row, widths)))


def _format_of(args) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "csv", False):
        return "csv"
    return "text"


def cmd_expand(args) -> int:
    spec = parse_eta_spec(args.spec)
    ring = ZZ if args.mod is None else Zmod(args.mod)
    series = eta_quotient(spec, ring, args.order)
    fmt = _format_of(args)
    if fmt == "json":
        print(json.dumps(series.to_json_obj()))
    else:
        rows = [(n, c) for n, c in enumerate(series.coeffs)]
        _emit_rows(rows, ("n", "coefficient"), fmt)
    return 0


def cmd_value(args) -> int:
    ref = _seq_from_args(args)
    value = sequence_value(ref, args.n)
    if _format_of(args) == "json":
        print(json.dumps({"seq": ref.name, "param": ref.param, "n": args.n, "value": value}))
    else:
        print(value)
    return 0


def _print_report(report, fmt):
    if fmt == "json":
        print(json.dumps(report.to_json_obj()))
        return
    line = f"{report.claim_id:<10} {report.status:<7} instances={report.instances} bound={report.bound}"
    if report.counterexample:
        ce = report.counterexample
        line += (
            f"  counterexample: params={ce['params']} index={ce['index']}"
            f" lhs={ce['lhs']} rhs={ce['rhs']}"
        )
    print(line)


def _run_claims(selected, caps, args) -> int:
    fmt = _format_of(args)
    # verify_claims builds every table inside a claims.verify_claim call, so
    # the benchmark's stamp at the first call leaves out no table; identity
    # claims read at --order, or else at their default order
    failed = False
    for report in claims_mod.verify_claims(selected, caps, args.order):
        failed = failed or report.failed
        _print_report(report, fmt)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.claims == ["all"] or args.claims == []:
        selected = registry.builtin_registry()
    else:
        selected = registry.claims_by_id(args.claims)
    caps = claims_mod.Caps(prime_cap=args.prime_cap, k_cap=args.k_cap, bound=args.bound)
    return _run_claims(selected, caps, args)


def cmd_identities(args) -> int:
    idents = [c for c in registry.builtin_registry() if isinstance(c, claims_mod.IdentityClaim)]
    if args.claims and args.claims != ["all"]:
        wanted = registry.claims_by_id(args.claims)
        bad = [c.id for c in wanted if not isinstance(c, claims_mod.IdentityClaim)]
        if bad:
            raise _UsageError(f"not identity claims: {', '.join(bad)}")
        idents = wanted
    return _run_claims(idents, claims_mod.Caps(), args)


def cmd_hunt(args) -> int:
    ref = _seq_from_args(args)
    found = claims_mod.hunt(
        ref, args.mod, args.max_step, args.bound, args.min_instances
    )
    _emit_rows(found, ("a", "b", "instances"), _format_of(args))
    return 0


def _add_format_flags(p, csv=True):
    formats = p.add_mutually_exclusive_group()
    formats.add_argument("--json", action="store_true", help="one JSON object per line")
    if csv:
        formats.add_argument("--csv", action="store_true", help="comma-separated output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regover",
        description="Truncated q-series arithmetic and congruence verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an eta quotient, e.g. '5^2 2^1 1^-2 10^-1'")
    p.add_argument("spec", help="eta-quotient spec: optional q^t, then scale^exponent tokens")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mod", type=int, default=None)
    _add_format_flags(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("value", help="one sequence value")
    p.add_argument("seq", choices=_SEQ_CHOICES)
    p.add_argument("--ell", type=int, default=None, help="regularity parameter for b/A")
    p.add_argument("--k", type=int, default=None, help="number of squares for r")
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p, csv=False)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("verify", help="verify registry claims")
    p.add_argument("claims", nargs="*", help="claim ids, or 'all' (default)")
    p.add_argument("--bound", type=int, default=claims_mod.DEFAULT_BOUND)
    p.add_argument("--prime-cap", dest="prime_cap", type=int, default=claims_mod.DEFAULT_PRIME_CAP)
    p.add_argument("--k-cap", dest="k_cap", type=int, default=claims_mod.DEFAULT_K_CAP)
    p.add_argument("--order", type=int, default=None, help="order override for identity claims")
    _add_format_flags(p, csv=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="verify identity claims only")
    p.add_argument("claims", nargs="*", help="identity ids, or 'all' (default)")
    p.add_argument("--order", type=int, default=None, help="evaluation order (default: per claim)")
    _add_format_flags(p, csv=False)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("hunt", help="search for vanishing progressions")
    p.add_argument("seq", choices=_SEQ_CHOICES)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--max-step", dest="max_step", type=int, required=True)
    p.add_argument("--bound", type=int, default=claims_mod.DEFAULT_BOUND)
    p.add_argument("--min-instances", dest="min_instances", type=int, default=10)
    _add_format_flags(p)
    p.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull, so that the interpreter's final flush of
        # what is still buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except EtaSpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
