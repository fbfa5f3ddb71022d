"""Accuracy of the double-double reference exponential against an exact
fixed-point one.

    python3 tools/oracle_error.py --seeds 2024 13 [--orders 8 16]

Run it from the root of a source checkout: expmkit is imported from
./src.  For each seed, every matrix of the default bench suite, or those
of the orders given, goes through ``oracle._expm_dd``, and the relative
1-norm error of its (hi, lo) pair, ||hi + lo - E||_1 / ||E||_1, is taken
exactly against a reference E on Python integers (:func:`fixed_expm`).
Prints, per seed and order and per seed, the worst and the median log2
of that error and the matrix of the worst; exits 1 when an error is above
2^-100.

The reference carries every matrix as integers times 2^-PRECISION.  It
scales A to B = 2^-s A with ||B||_1 <= 1, sums the Taylor series of e^B
by Paterson-Stockmeyer until the tail is below 2^-(PRECISION + 8), and
squares s times.  Each product and each division by t! rounds once, by at
most 2^-PRECISION per entry, so at the suite's 1-norms (at most 12.8,
s <= 4, ||E||_1 >= e^-12.8) E is within about 2^-380 of e^A relative to
its norm: exact for a check at the 2^-100 level.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from pathlib import Path

# One BLAS thread, as in perfbench; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from expmkit import bench, oracle  # noqa: E402

PRECISION = 420
THRESHOLD_LOG2 = -100.0


def to_fixed(arr, bits: int = PRECISION):
    """floor(x 2^bits) of each entry, as an object array of Python ints;
    exact when 2^-bits divides x."""
    out = np.empty(arr.shape, dtype=object)
    for idx, x in np.ndenumerate(arr):
        num, den = float(x).as_integer_ratio()
        out[idx] = (num << bits) // den
    return out


def _mul(x, y):
    """Fixed-point product: the exact integer product, rounded down once."""
    return (x @ y) >> PRECISION


def fixed_expm(arr):
    """e^A for a binary64 array, as integers times 2^-PRECISION."""
    n = arr.shape[0]
    norm1 = float(np.abs(arr).sum(axis=0).max())
    s = 0
    while math.ldexp(norm1, -s) > 1.0:
        s += 1
    b = math.ldexp(norm1, -s)
    # The least m with b^(m+1)/(m+1)! / (1 - b/(m+2)) <= 2^-(PRECISION + 8).
    m = 0
    if b > 0.0:
        while ((m + 1) * math.log2(b) - math.lgamma(m + 2) / math.log(2)
               - math.log2(1.0 - b / (m + 2)) > -(PRECISION + 8)):
            m += 1
    one = 1 << PRECISION
    powers = [np.diag([one] * n).astype(object), to_fixed(arr, PRECISION - s)]
    j = max(1, math.isqrt(m))
    for _ in range(2, j + 1):
        powers.append(_mul(powers[-1], powers[1]))
    # Block r holds the terms B^i / (r j + i)!, i < j; Horner in B^j.
    blocks = []
    for r in range(m // j + 1):
        terms = range(r * j, min(m, r * j + j - 1) + 1)
        blocks.append(sum(powers[t - r * j] // math.factorial(t) for t in terms))
    x = blocks[-1]
    for g in reversed(blocks[:-1]):
        x = _mul(x, powers[j]) + g
    for _ in range(s):
        x = _mul(x, x)
    return x


def log2_error(hi, lo, ref) -> float:
    """log2 ||hi + lo - ref||_1 / ||ref||_1, exactly (-inf when equal)."""
    diff = to_fixed(hi) + to_fixed(lo) - ref
    err = max(sum(abs(v) for v in col) for col in diff.T)
    norm = max(sum(abs(v) for v in col) for col in ref.T)
    return math.log2(err) - math.log2(norm) if err else -math.inf


def suite_errors(specs):
    """(spec, log2 error of the oracle's pair) for each generator spec."""
    out = []
    for spec in specs:
        W = bench.gen_matrix(spec)
        out.append((spec, log2_error(*oracle._expm_dd(W), fixed_expm(W.a))))
    return out


def summary(label: str, errors) -> str:
    worst_spec, worst = max(errors, key=lambda e: e[1])
    median = statistics.median(e for _, e in errors)
    return (f"{label}: {len(errors)} matrices, worst 2^{worst:.1f} "
            f"({worst_spec.kind}, n {worst_spec.n}, 1-norm {worst_spec.target_norm:.3g}), "
            f"median 2^{median:.1f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[2024, 13])
    p.add_argument("--orders", type=int, nargs="+", default=None,
                   help="matrix orders of the suite to check (default: all)")
    args = p.parse_args(argv)
    worst = -math.inf
    for seed in args.seeds:
        specs = bench.default_suite_config(seed).specs()
        orders = sorted({s.n for s in specs} if args.orders is None else set(args.orders))
        seed_errors = []
        for n in orders:
            errors = suite_errors([s for s in specs if s.n == n])
            if errors:
                print(summary(f"seed {seed} n {n}", errors), flush=True)
                seed_errors += errors
        if not seed_errors:
            print(f"seed {seed}: no matrix of orders {orders}", file=sys.stderr)
            return 2
        print(summary(f"seed {seed}", seed_errors), flush=True)
        worst = max(worst, max(e for _, e in seed_errors))
    if worst > THRESHOLD_LOG2:
        print(f"FAIL: worst error 2^{worst:.1f} above 2^{THRESHOLD_LOG2:.0f}")
        return 1
    print(f"ok: worst error 2^{worst:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
