"""Command-line interface: enumeration, statistics, generating-function
coefficients, exact totals, asymptotics, and the verification suites.

Data goes to stdout, logs and errors to stderr.  Exit codes: 0 success
(verify: all cases passed), 1 verification failures or a stdout closed
before the output ends (no traceback), 2 usage errors.
Output for a given set of flags is deterministic, except for the
``elapsed_ms`` timing field of verify outcomes.  A usage error is one
``error:`` line on stderr that names the flag at fault.

Every size is checked against its minimum and a fixed cap before any work
starts, by ``verify.check_range``: the enumeration cap for ``enumerate``
and ``total --method brute``, ``closedform.FORMULA_CAP`` for the other
``total`` methods, ``genfunc.GF_*`` for ``gf``, and ``ASYMPTOTIC_MAX_N``
below for the length and every n of ``asymptotic --ns``.  The verify
suites' sizes, and which flags each suite takes, live in
``verify.SUITE_RANGES``.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import verify as verify_mod
from .verify import check_range
from .asymptotics import REPORT_REACH, asymptotic_report
from .closedform import (
    BELL_FORM_REACH,
    FORMULA_CAP,
    build_tables,
    egf_w,
    total_swrec_formula,
)
from .genfunc import GF_MAX_K, GF_MAX_N, gf_product
from .setpartitions import (
    DEFAULT_ENUMERATION_CAP,
    enumerate_rgs,
    rec_count,
    srec,
    swrec,
    total_swrec_bruteforce,
)

# The cap of every n of ``asymptotic --ns`` (Bell tables to n +
# REPORT_REACH) and of how many n it lists (one report each), the one
# size not bounded elsewhere.
ASYMPTOTIC_MAX_N = 1000

_STATS = {"swrec": swrec, "srec": srec, "rec": rec_count}

# Every verify size keyword, one flag each, in first-seen order.
_VERIFY_KEYWORDS = tuple(dict.fromkeys(k for row in verify_mod.SUITE_RANGES.values() for k in row))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as ValueError,
    so they are reported as one ``error:`` line like every other."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _format_word(word: tuple[int, ...], n: int) -> str:
    if not word:
        return "ε"
    # Single digits concatenate unambiguously; longer words (labels can
    # reach 10+) are dot-separated across the whole listing.
    if n <= 9:
        return "".join(str(v) for v in word)
    return ".".join(str(v) for v in word)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    check_range("--n", args.n, 0, DEFAULT_ENUMERATION_CAP, "enumeration")
    if args.k is not None:
        check_range("--k", args.k, 1)
    stat = _STATS[args.stat] if args.stat else None
    for word in enumerate_rgs(args.n, args.k):
        line = _format_word(word, args.n)
        if stat is not None:
            line = f"{line}\t{stat(word)}"
        print(line)
    return 0


def _cmd_total(args: argparse.Namespace) -> int:
    if args.method == "brute":
        check_range("--n", args.n, 0, DEFAULT_ENUMERATION_CAP, "enumeration")
        print(total_swrec_bruteforce(args.n))
        return 0
    check_range("--n", args.n, 0, FORMULA_CAP, "formula")
    tables = build_tables(args.n + BELL_FORM_REACH)
    if args.method == "formula":
        print(total_swrec_formula(args.n, tables))
    else:  # egf
        value = egf_w(args.n, tables).egf_coefficient(args.n)
        if value.denominator != 1:
            print(f"error: EGF coefficient for n={args.n} is not an integer", file=sys.stderr)
            return 1
        print(value.numerator)
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    check_range("--k", args.k, 1, GF_MAX_K, "gf")
    check_range("--max-n", args.max_n, 0, GF_MAX_N, "gf")
    series = gf_product(args.k, args.max_n)
    rows = [[n, s, c] for n, s, c in series.terms()]
    if args.format == "csv":
        print("n,s,count")
        for n, s, c in rows:
            print(f"{n},{s},{c}")
    else:
        print(json.dumps(rows))
    return 0


def _flag(keyword: str) -> str:
    return "--" + keyword.replace("_", "-")


def _cmd_verify(args: argparse.Namespace) -> int:
    kwargs = {}
    for keyword in _VERIFY_KEYWORDS:
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword not in verify_mod.SUITE_RANGES[args.suite]:
            raise ValueError(f"{_flag(keyword)} does not apply to suite {args.suite}")
        kwargs[keyword] = value
    verify_mod.check_suite_ranges(args.suite, kwargs, _flag)
    outcome = verify_mod.SUITES[args.suite](**kwargs)
    print(json.dumps(outcome.to_json_dict(), indent=2))
    return 0 if outcome.passed else 1


def _cmd_asymptotic(args: argparse.Namespace) -> int:
    text = args.ns.strip()
    if not text:
        print("[]")
        return 0
    try:
        ns = [int(part) for part in text.split(",")]
        if any(n < 1 for n in ns):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--ns must be a comma-separated list of positive integers, got {args.ns!r}"
        ) from None
    check_range("--ns", max(ns), 1, ASYMPTOTIC_MAX_N, "asymptotic")
    check_range("--ns count", len(ns), 1, ASYMPTOTIC_MAX_N, "asymptotic")
    tables = build_tables(max(ns) + REPORT_REACH)
    reports = asymptotic_report(ns, tables)
    print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partition-records",
        description="Exact weighted-record statistics on set partitions, "
        "with generating-function and Bell-number cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list restricted growth strings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to exactly k blocks")
    p.add_argument("--stat", choices=sorted(_STATS), default=None,
                   help="annotate each word with a statistic")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("total", help="total of swrec over all partitions of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["formula", "brute", "egf"], default="formula")
    p.set_defaults(func=_cmd_total)

    p = sub.add_parser("gf", help="generating-function coefficients (n, s, count)")
    p.add_argument("--k", type=int, required=True, help="number of blocks (>= 1)")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(verify_mod.SUITES), required=True)
    for keyword in _VERIFY_KEYWORDS:
        p.add_argument(_flag(keyword), type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("asymptotic", help="asymptotic-estimate reports")
    p.add_argument("--ns", type=str, required=True,
                   help="comma-separated sizes; empty string gives []")
    p.set_defaults(func=_cmd_asymptotic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 on --help; pass that through
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (as by `| head`): the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
