"""Digests of every driver outcome on a fixed call set, and of the
reference exponential on a fixed matrix set.

    python3 tools/fingerprint.py

Run it from the root of a source checkout: expmkit is imported from
./src, and the benchmark's call sets and its map from a scheme to a
driver (``workloads._call``) from perfbench/workloads.py.  The standard
call set is every call of the ``flow_small`` and ``large_dense``
workloads at seed 13, and every (matrix, scheme) cell of the default
bench suite at seeds 2024 and 13.  Per call, the digest takes the value
bytes, m, s, e1, e2, ``mults`` and ``rect_mults``, or the type of the
exception raised.

The oracle digests cover every matrix of the default bench suite at
seeds 2024 and 13: ``oracle_sha256`` takes the binary64 bytes that
``expm_reference`` returns, and ``oracle_pair_sha256`` the bytes of the
double-double pair (hi, lo) behind them, or the type of the exception
raised.

Two trees that compute the same values, plans and product counts print
the same ``sha256``.  ``sha256_signless`` maps -0 to +0 first, so when
only that one matches, the trees differ in signs of zero entries alone.
``plan_sha256`` takes the same calls' plans (m, s, e1, e2), product
counts and raised types without their values, so two trees that differ
in value bytes alone print the same ``plan_sha256``.
The digests depend on the BLAS build, so compare them on one machine.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
from pathlib import Path

# One BLAS thread, as in perfbench; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402  (perfbench/workloads.py)
from expmkit import bench, oracle  # noqa: E402

WORKLOAD_SEED = 13
SUITE_SEEDS = (2024, 13)


def workload_calls(name: str, seed: int):
    """(input, scheme, eps) for each call of a perfbench call workload."""
    wl = getattr(workloads, name)(seed)
    inputs = {}
    for case in wl.cases:
        if case.input not in inputs:
            inputs[case.input] = bench.gen_matrix(wl.specs[case.input])
        yield inputs[case.input], case.scheme, case.eps


def suite_calls(config: bench.SuiteConfig):
    """(input, scheme, eps) for each cell of a bench suite."""
    for spec in config.specs():
        W = bench.gen_matrix(spec)
        for scheme in config.schemes:
            yield W, scheme, config.eps


def suite_matrices(config: bench.SuiteConfig):
    """Each matrix of a bench suite, once."""
    return map(bench.gen_matrix, config.specs())


def standard_calls():
    return itertools.chain(
        workload_calls("flow_small", WORKLOAD_SEED),
        workload_calls("large_dense", WORKLOAD_SEED),
        *(suite_calls(bench.default_suite_config(seed)) for seed in SUITE_SEEDS))


def record(res) -> tuple[bytes, np.ndarray]:
    """The outcome of a driver call that returned: the bytes of its plan
    (m, s, e1, e2) and product counts, and its value array."""
    plan = res.plan
    counts = (plan.m, plan.s, plan.e1, plan.e2, res.mults, res.rect_mults)
    return repr(counts).encode(), res.value.a


def raised(exc: Exception) -> bytes:
    """The outcome of a driver call that raised: the exception's type."""
    return repr(("raised", type(exc).__name__)).encode()


def fingerprint(calls) -> dict:
    """The three digests, the number of calls and of -0 entries in values."""
    exact, signless, plans = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = negative_zeros = 0
    for W, scheme, eps in calls:
        count += 1
        try:
            res = workloads._call(W, scheme, eps)
        except Exception as exc:  # the raised type is part of the outcome
            failed = raised(exc)
            for digest in (exact, signless, plans):
                digest.update(failed)
            continue
        counts, a = record(res)
        exact.update(counts + a.tobytes())
        signless.update(counts + (a + 0.0).tobytes())
        plans.update(counts)
        negative_zeros += int(np.count_nonzero((a == 0.0) & np.signbit(a)))
    return {"sha256": exact.hexdigest(), "sha256_signless": signless.hexdigest(),
            "plan_sha256": plans.hexdigest(), "calls": count,
            "negative_zeros": negative_zeros}


def standard_matrices():
    return itertools.chain(
        *(suite_matrices(bench.default_suite_config(seed)) for seed in SUITE_SEEDS))


def oracle_fingerprint(matrices) -> dict:
    """The binary64 and (hi, lo) digests of the oracle, and the number of
    matrices."""
    value, pair = hashlib.sha256(), hashlib.sha256()
    count = 0
    for W in matrices:
        count += 1
        try:
            ref = oracle.expm_reference(W)
            hi, lo = oracle._expm_dd(W)
        except Exception as exc:  # the raised type is part of the outcome
            failed = raised(exc)
            value.update(failed)
            pair.update(failed)
            continue
        value.update(ref.a.tobytes())
        pair.update(hi.tobytes() + lo.tobytes())
    return {"oracle_sha256": value.hexdigest(), "oracle_pair_sha256": pair.hexdigest(),
            "oracle_matrices": count}


def main() -> int:
    digests = {**fingerprint(standard_calls()), **oracle_fingerprint(standard_matrices())}
    for key, value in digests.items():
        print(key, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
