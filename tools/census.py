"""A census of silent misses: every dense driver call of a grid of inputs,
checked against the library's double-double oracle.

    python3 tools/census.py
    python3 tools/census.py --parent REV
    python3 tools/census.py --sizes 4 --norms 5 --seeds 0

Run it from the root of a source checkout: expmkit is imported from
./src, or, with ``--parent``, from a git revision extracted with ``git
archive`` into a temporary directory, as tools/pairs.py does.  The grid
is the generator kinds ``diag``, ``random_dense``,
``nonnormal_triangular``, ``nilpotent_perturbed`` and ``rotation_block``
and a dense skew kind, (A - A^T)/2 with Gaussian A; orders 16 and 64;
19 1-norms geometric in [1e-2, 1e7], which cross the drivers' guard
constant 2^8; and seeds 0 and 1.  Each input runs through ``expm`` with
both schemes at eps 2^-53, 1e-8 and 1e-5, and its error is
``relative_error`` (Frobenius norm) against ``expm_reference``.

Prints one JSON object.  Per (scheme, eps), ``cells`` holds:

* ``calls``, which split into ``exp_overflows`` (inputs whose
  exponential the oracle cannot return, left out of everything below),
  ``failures`` (typed failures by type) and ``returned``;
* the returned calls whose error is beyond eps and beyond 10 eps, each
  split into ``flagged`` (the plan says ``cap_hit`` or not
  ``bound_met``) and ``unflagged``;
* the worst err/eps with its input, over all returned calls and over
  the flagged and the unflagged ones apart, and the median call time.

``scipy`` holds ``scipy.linalg.expm``'s error against the same oracle on
the same inputs (those whose exponential the oracle returns), with its
worst input and median time.  The tool reports and never gates: it exits
0 whenever it runs through.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

# One BLAS thread, as in perfbench; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import expmkit  # noqa: E402  (the working tree's)

SKEW = "dense_skew"
KINDS = ("diag", "random_dense", "nonnormal_triangular", "nilpotent_perturbed",
         "rotation_block", SKEW)
SIZES = (16, 64)
NORM_RANGE = (1e-2, 1e7)
NORM_COUNT = 19
SEEDS = (0, 1)
EPS = (2.0 ** -53, 1e-8, 1e-5)
SCHEMES = ("sastre", "ps")


def norms(count: int) -> list[float]:
    """``count`` 1-norms geometric in NORM_RANGE, both ends included."""
    return [float(x) for x in np.geomspace(*NORM_RANGE, count)]


def gen_input(package, kind: str, n: int, norm: float, seed: int):
    """The input of one grid point, from ``package``'s generators; the
    skew kind scales (A - A^T)/2 to the 1-norm as they scale theirs."""
    bench = package.bench
    if kind != SKEW:
        return bench.gen_matrix(bench.GeneratorSpec(kind, n, norm, seed))
    a = bench._rng(seed).standard_normal((n, n))
    return package.matrix.Matrix(bench._scaled((a - a.T) / 2, norm))


def _miss_counts() -> dict:
    return {"flagged": 0, "unflagged": 0}


def census(package, kinds, sizes, norm_list, seeds, eps_list=EPS, schemes=SCHEMES) -> dict:
    """The census of ``package``'s drivers over the grid (module docstring)."""
    cells = {(scheme, eps): {"scheme": scheme, "eps": eps, "calls": 0, "exp_overflows": 0,
                             "failures": {}, "returned": 0,
                             "beyond_eps": _miss_counts(), "beyond_10eps": _miss_counts(),
                             "worst": None, "worst_flagged": None,
                             "worst_unflagged": None, "_times": []}
             for scheme in schemes for eps in eps_list}
    sp = {"calls": 0, "nonfinite": 0, "beyond_2^-53": 0, "_errs": [], "_times": [],
          "worst": None}
    oracle_failures: dict = {}
    inputs = 0
    for kind in kinds:
        for n in sizes:
            for norm in norm_list:
                for seed in seeds:
                    where = {"kind": kind, "n": n, "norm": norm, "seed": seed}
                    W = gen_input(package, kind, n, norm, seed)
                    inputs += 1
                    try:
                        ref = package.oracle.expm_reference(W)
                    except (package.MatrixError, ArithmeticError) as exc:
                        name = type(exc).__name__
                        oracle_failures[name] = oracle_failures.get(name, 0) + 1
                        ref = None
                    for (scheme, eps), cell in cells.items():
                        cell["calls"] += 1
                        if ref is None:
                            cell["exp_overflows"] += 1
                            continue
                        t0 = time.perf_counter()
                        try:
                            res = package.engine.expm(W, eps, scheme)
                        except (package.MatrixError, ArithmeticError) as exc:
                            name = type(exc).__name__
                            cell["failures"][name] = cell["failures"].get(name, 0) + 1
                            continue
                        cell["_times"].append(time.perf_counter() - t0)
                        cell["returned"] += 1
                        err = package.oracle.relative_error(res.value, ref)
                        flag = "flagged" if res.plan.cap_hit or not res.plan.bound_met \
                            else "unflagged"
                        if err > eps:
                            cell["beyond_eps"][flag] += 1
                        if err > 10 * eps:
                            cell["beyond_10eps"][flag] += 1
                        for key in ("worst", f"worst_{flag}"):
                            if cell[key] is None or err / eps > cell[key]["err_over_eps"]:
                                cell[key] = {"err_over_eps": err / eps, **where,
                                             "m": res.plan.m, "s": res.plan.s}
                    if ref is not None:
                        _scipy(package, W, ref, where, sp)
    out_cells = []
    for cell in cells.values():
        times = cell.pop("_times")
        cell["time_median_s"] = statistics.median(times) if times else None
        out_cells.append(cell)
    errs, times = sp.pop("_errs"), sp.pop("_times")
    sp["err_median"] = statistics.median(errs) if errs else None
    sp["time_median_s"] = statistics.median(times) if times else None
    return {"grid": {"kinds": list(kinds), "sizes": list(sizes), "norms": list(norm_list),
                     "seeds": list(seeds), "eps": list(eps_list), "schemes": list(schemes)},
            "inputs": inputs, "oracle_failures": oracle_failures,
            "cells": out_cells, "scipy": sp}


def _scipy(package, W, ref, where: dict, sp: dict) -> None:
    """scipy.linalg.expm on W, timed and checked against ``ref`` into
    ``sp``.  scipy's own overflows are its business, so its warnings are
    silenced; a non-finite result is counted, not measured."""
    sp["calls"] += 1
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        x = scipy.linalg.expm(W.a)
        sp["_times"].append(time.perf_counter() - t0)
    if not np.isfinite(x).all():
        sp["nonfinite"] += 1
        return
    err = package.oracle.relative_error(package.matrix.Matrix(x), ref)
    sp["_errs"].append(err)
    sp["beyond_2^-53"] += err > 2.0 ** -53
    if sp["worst"] is None or err > sp["worst"]["err"]:
        sp["worst"] = {"err": err, **where}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default=None,
                   help="git revision whose package to census instead of the working tree's")
    p.add_argument("--kinds", nargs="+", choices=KINDS, default=list(KINDS))
    p.add_argument("--sizes", nargs="+", type=int, default=list(SIZES))
    p.add_argument("--norms", type=int, default=NORM_COUNT,
                   help="number of 1-norms, geometric in [1e-2, 1e7]")
    p.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    args = p.parse_args(argv)
    if args.norms < 2:
        p.error("--norms must be at least 2")

    grid = (args.kinds, args.sizes, norms(args.norms), args.seeds)
    if args.parent is None:
        out = {"tree": "working", **census(expmkit, *grid)}
    else:
        from paired_calls import load_package  # noqa: E402  (tools/paired_calls.py)
        from pairs import extract  # noqa: E402  (tools/pairs.py)
        with tempfile.TemporaryDirectory(prefix="census-parent-") as tmp:
            extract(args.parent, Path(tmp))
            package = load_package(Path(tmp) / "src", "expmkit_parent")
            out = {"tree": args.parent, **census(package, *grid)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
