"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or input, 3 numerical
failure (the run completed but at least one row failed, or the single
computation did not finish).

:func:`main` owns the mapping: every input error expmkit raises (a bad
suite, matrix, CSV or tolerance, a non-integral count) is a
``ValueError``, as are malformed JSON and undecodable bytes; these, an
``OSError``, deeply nested JSON's ``RecursionError`` and the
``MemoryError`` of a matrix too large to allocate print ``error: ...``
and exit 2.  Only ``expm single`` maps a numerical failure to exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    DEFAULT_PROFILE_ALPHAS,
    SuiteConfig,
    _SCHEMES,
    _run_scheme,
    emit_reports,
    performance_profile,
    read_records_csv,
    run_suite,
)
from .matrix import NonFiniteError, load_matrix, save_matrix

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def _cmd_single(args) -> int:
    # A non-finite entry met while loading is bad input (exit 2, in main).
    W = load_matrix(args.infile)
    try:
        res = _run_scheme(W, args.scheme, args.eps)
    except (NonFiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"m={res.plan.m} s={res.plan.s} mults={res.mults}")
    if args.stats:
        print(f"scheme={args.scheme} n={W.n} one_norm={res.plan.norms[0]!r}")
        print(f"e1={res.plan.e1!r} e2={res.plan.e2!r} wall_time_s={res.wall_time!r}")
        print(f"select_mults={res.select_mults} eval_mults={res.eval_mults} "
              f"square_mults={res.square_mults}")
        print(f"bound={res.plan.bound!r} cap_hit={res.plan.cap_hit} "
              f"bound_met={res.plan.bound_met}")
    if args.out:
        save_matrix(res.value, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    with open(args.suite, "r", encoding="utf-8") as f:
        config = SuiteConfig.from_dict(json.load(f))
    records = run_suite(config)
    profile = performance_profile(records, DEFAULT_PROFILE_ALPHAS)
    emit_reports(records, profile, config.noise, args.csv, args.summary)
    failures = sum(1 for r in records if not math.isfinite(r.rel_err))
    print(f"records={len(records)} failures={failures} csv={args.csv} "
          f"summary={args.summary}")
    return EXIT_NUMERICAL if failures else EXIT_OK


def _cmd_profile(args) -> int:
    records = read_records_csv(args.csv)
    alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    profile = performance_profile(records, alphas)
    with open(args.out, "w", encoding="ascii") as f:
        json.dump(profile, f, indent=2)
        f.write("\n")
    print(f"profile over {profile['matrices']} matrices -> {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expm",
        description="Taylor-based matrix exponential with multiplication counting")
    sub = p.add_subparsers(dest="command", required=True)

    single = sub.add_parser("single", help="exponentiate one matrix file")
    single.add_argument("--in", dest="infile", required=True,
                        help="matrix text file (first line n, then n rows)")
    single.add_argument("--eps", type=float, required=True, help="error tolerance")
    single.add_argument("--scheme", required=True, choices=_SCHEMES)
    single.add_argument("--out", help="write the result matrix here")
    single.add_argument("--stats", action="store_true",
                        help="print norms, tail bounds, phase counts, flags and timing")
    single.set_defaults(func=_cmd_single)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", required=True, help="suite config JSON")
    bench.add_argument("--csv", required=True, help="per-record CSV output")
    bench.add_argument("--summary", required=True, help="summary JSON output")
    bench.set_defaults(func=_cmd_bench)

    profile = sub.add_parser("profile", help="performance profile from a CSV")
    profile.add_argument("--csv", required=True, help="bench CSV to read")
    profile.add_argument("--alphas", required=True,
                         help="comma-separated ascending factors >= 1")
    profile.add_argument("--out", required=True, help="profile JSON output")
    profile.set_defaults(func=_cmd_profile)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RecursionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
