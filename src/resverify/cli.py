"""verify: command-line harness for the sweeps and named checks.

Exit codes: 0 all pass, 1 mathematical mismatch, 2 usage error,
3 timeout, failed sweep case or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import MANIFEST_TEXT
from .checks import CHECK_NAMES, CheckOutcome, UnknownCheck, run_check
from .parser import format_poly, load_manifest
from .poly import VAR_NAMES
from .ratio import rat_str
from .sweep import (SweepConfig, UsageError, expected_exceptions,
                    report_to_dict, report_to_text, run_sweep)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected A..B") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(",") if piece.strip())
    except ValueError:
        raise UsageError(f"bad integer list {text!r}") from None


def _open(path: str, mode: str):
    """open() a file named on the command line; failing to is a usage
    error, not an internal one."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise UsageError(str(exc)) from None


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification of the resultant sweeps and named "
                    "polynomial identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="resultant(H, K, var) over a (m, r, c) grid")
    sw.add_argument("--var", required=True, choices=("k", "f"),
                    help="elimination variable")
    sw.add_argument("--m", default="4..15", help="m range A..B (default 4..15)")
    sw.add_argument("--r", default="all", help="'all' or comma list of r values")
    sw.add_argument("--c", default="-1,0,1", help="comma list from {-1,0,1}")
    sw.add_argument("--jobs", type=int, default=1, help="worker processes")
    sw.add_argument("--format", choices=("json", "text"), default="text")
    sw.add_argument("--stable-output", action="store_true",
                    help="omit elapsed-time fields for byte-identical output")
    sw.add_argument("--case-timeout", type=float, default=300.0,
                    help="per-case timeout in seconds (0 disables)")

    ck = sub.add_parser("check", help="run one named identity check")
    ck.add_argument("name", choices=CHECK_NAMES)
    ck.add_argument("--format", choices=("json", "text"), default="text")

    rs = sub.add_parser("resultant", help="resultant of two manifest entries")
    rs.add_argument("--manifest", required=True, help="manifest file path")
    rs.add_argument("--a", required=True, help="first entry name")
    rs.add_argument("--b", required=True, help="second entry name")
    rs.add_argument("--var", required=True, help="elimination variable")

    ex = sub.add_parser("export-manifest", help="write the embedded manifest")
    ex.add_argument("path", nargs="?", help="output file (default stdout)")
    return ap


def _emit_check(outcome: CheckOutcome, fmt: str, out) -> None:
    if fmt == "json":
        payload = {"check": outcome.name, "pass": outcome.passed,
                   "detail": outcome.detail, "ms": round(outcome.elapsed_ms, 3)}
        if outcome.witness is not None:
            payload["witness"] = outcome.witness
        print(json.dumps(payload, indent=2), file=out)
    else:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"{status}: {outcome.name} ({outcome.elapsed_ms:.0f} ms)", file=out)
        for label, value in outcome.detail.items():
            print(f"  {label}: {value}", file=out)
        if outcome.witness is not None:
            print(f"  witness: {outcome.witness}", file=out)


def cmd_sweep(args) -> int:
    m_lo, m_hi = _parse_range(args.m)
    config = SweepConfig(
        var=args.var,
        m_lo=m_lo,
        m_hi=m_hi,
        r_list=None if args.r == "all" else _parse_int_list(args.r),
        c_list=_parse_int_list(args.c),
        jobs=args.jobs,
        case_timeout=args.case_timeout,
    )
    config.validate()
    if not config.cases():
        raise UsageError("the selected grid has no (m, r, c) case")
    report = run_sweep(config)
    if args.format == "json":
        print(json.dumps(report_to_dict(report, stable=args.stable_output)))
    else:
        print(report_to_text(report, stable=args.stable_output))
    if report.timed_out or report.failed:
        return EXIT_INTERNAL
    ok = report.exceptions == expected_exceptions(config)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_check(args) -> int:
    outcome = run_check(args.name)
    _emit_check(outcome, args.format, sys.stdout)
    return EXIT_OK if outcome.passed else EXIT_MISMATCH


def cmd_resultant(args) -> int:
    from .resultant import resultant
    with _open(args.manifest, "r") as fh:
        man = load_manifest(fh.read())
    for name in (args.a, args.b):
        if name not in man:
            print(f"verify: name {name!r} not in manifest", file=sys.stderr)
            return EXIT_USAGE
        if man[name].is_zero():
            print(f"verify: entry {name!r} is the zero polynomial",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.var not in VAR_NAMES:
        print(f"verify: unknown variable {args.var!r}", file=sys.stderr)
        return EXIT_USAGE
    res = resultant(man[args.a], man[args.b], args.var)
    print(format_poly(res))
    if res.is_zero():
        print("degree: (zero polynomial)")
    else:
        print(f"total degree: {res.total_degree()}")
        print(f"leading coefficient: {rat_str(res.leading_coefficient())}")
    return EXIT_OK


def cmd_export_manifest(args) -> int:
    if args.path:
        with _open(args.path, "w") as fh:
            fh.write(MANIFEST_TEXT)
    else:
        sys.stdout.write(MANIFEST_TEXT)
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    handlers = {
        "sweep": cmd_sweep,
        "check": cmd_check,
        "resultant": cmd_resultant,
        "export-manifest": cmd_export_manifest,
    }
    try:
        return handlers[args.command](args)
    except (UsageError, UnknownCheck) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal failure, distinct from mismatch
        print(f"verify: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
