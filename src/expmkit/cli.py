"""Command-line front end.

Exit codes: 0 success, 2 invalid configuration or input, 3 numerical
failure (the run completed but at least one row failed, or the single
computation did not finish).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bench import (
    DEFAULT_PROFILE_ALPHAS,
    ConfigError,
    SuiteConfig,
    _profile_dict,
    emit_reports,
    performance_profile,
    read_records_csv,
    run_suite,
)
from .engine import expm, expm_baseline
from .matrix import MatrixError, NonFiniteError, load_matrix, one_norm, save_matrix
from .select import SCHEME_BASELINE, SCHEME_PS, SCHEME_SASTRE, ToleranceError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


def _cmd_single(args) -> int:
    try:
        W = load_matrix(args.infile)
    except (OSError, MatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.scheme == SCHEME_BASELINE:
            res = expm_baseline(W, args.eps)
        else:
            res = expm(W, args.eps, args.scheme)
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (NonFiniteError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"m={res.plan.m} s={res.plan.s} mults={res.mults}")
    if args.stats:
        print(f"scheme={args.scheme} n={W.n} one_norm={one_norm(W)!r}")
        print(f"e1={res.plan.e1!r} e2={res.plan.e2!r} wall_time_s={res.wall_time!r}")
    if args.out:
        try:
            save_matrix(res.value, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        with open(args.suite, "r", encoding="utf-8") as f:
            config = SuiteConfig.from_dict(json.load(f))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    records = run_suite(config, parallel=args.parallel)
    profile = performance_profile(records, DEFAULT_PROFILE_ALPHAS)
    try:
        emit_reports(records, profile, args.csv, args.summary)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    failures = sum(1 for r in records if not math.isfinite(r.rel_err))
    print(f"records={len(records)} failures={failures} csv={args.csv} "
          f"summary={args.summary}")
    return EXIT_NUMERICAL if failures else EXIT_OK


def _cmd_profile(args) -> int:
    try:
        records = read_records_csv(args.csv)
        alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
        profile = performance_profile(records, alphas)
    except (OSError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        with open(args.out, "w", encoding="ascii") as f:
            json.dump(_profile_dict(profile), f, indent=2)
            f.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"profile over {profile.matrices} matrices -> {args.out}")
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
    single.add_argument("--scheme", required=True,
                        choices=[SCHEME_BASELINE, SCHEME_PS, SCHEME_SASTRE])
    single.add_argument("--out", help="write the result matrix here")
    single.add_argument("--stats", action="store_true",
                        help="print norms, tail bounds and timing")
    single.set_defaults(func=_cmd_single)

    bench = sub.add_parser("bench", help="run a benchmark suite")
    bench.add_argument("--suite", required=True, help="suite config JSON")
    bench.add_argument("--csv", required=True, help="per-record CSV output")
    bench.add_argument("--summary", required=True, help="summary JSON output")
    bench.add_argument("--parallel", type=int, default=None,
                       help="shard matrices over this many processes")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
