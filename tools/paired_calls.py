"""Back-to-back timing of each benchmark call on a parent revision and on
the working tree, in one process.

    python3 tools/paired_calls.py --parent REV --workload flow_small --seed 1 --passes 6
    python3 tools/paired_calls.py --parent REV --workload suite_reference --seed 1 --passes 6
    python3 tools/paired_calls.py --parent REV --workload large_dense --seed 1 2 3 --passes 6

Run it from the root of a source checkout.  The parent revision is
extracted with ``git archive`` into a temporary directory, as
tools/pairs.py does, and its ``src/expmkit`` is imported as a second
package, ``expmkit_parent``, beside the working tree's ``expmkit``.  The
calls are those of a perfbench call workload (``flow_small`` or
``large_dense``), read from perfbench/workloads.py, which is imported
and left as it is; each tree runs them through the benchmark's own map
from a scheme to a driver, ``workloads._call``, bound to its engine.
With ``--workload suite_reference`` the calls are instead
``expm_reference`` on each matrix of the default bench suite at the
seed, the oracle that perfbench's ``suite_reference`` workload runs.
Several seeds pool their calls: every call of every seed is timed in
the same passes and summarized together, so a group's floor rests on
more calls than one seed gives (48 a driver on ``large_dense``).  The
summary lists the seeds; the unit product is timed with the first.

The working tree's ``src/expmkit`` is imported a third time, as
``expmkit_aa``: an A/A copy, timed in the same passes, that shows how far
two identical trees read apart.  Each pass times every call on the three
back to back, in the order of the six permutations taken in turn by
pass + call index: over a multiple of six passes each call runs on each
tree in each place, and after each other tree, equally often, so a drift
in machine speed or cache state falls on every side.  (The place
matters: a tree always run second of three read about 5% faster than
its copy on ``flow_small``, on a 2-vCPU VM with one BLAS thread.)  A call's time is its median over the
passes, and its cost that time over one bare product of its order, as
perfbench's ``item_cost_mean`` counts it.  Separate perfbench runs on a
shared machine spread by several per cent; pairing each call resolves a
difference of a few.

Prints one JSON object: per driver (per order for the oracle) and over
all calls, each tree's mean cost, the ratio change over parent and the
number of calls the change ran faster, ``aa_ratio``, the change's mean
cost over the copy's (the floor that ``ratio_change_over_parent`` must
clear), and the number of calls whose outcome differs between parent
and change (``differing_calls``, 0 when the change keeps every result).
Each driver also splits its calls by the order m of the parent's plan,
under ``plan_orders`` (``m2``, ..., and ``raised`` for the calls that
raised on the parent), with the same fields: a change that acts on some
orders shows there the share of calls it touches and its ratio on them.
A driver call's outcome is what tools/fingerprint.py digests: its plan and product counts, or the raised
type, and its value bytes; an oracle call's is the raised type, or the
bytes of the double-double pair (hi, lo) behind its value.  The
differing calls split into ``plan_or_count_calls``, whose plan, counts
or raised type differ, and ``value_only_calls``, which differ in value
bytes alone.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

# One BLAS thread, as in perfbench; set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import expmkit  # noqa: E402  (the working tree's)
import workloads  # noqa: E402  (perfbench/workloads.py)
from fingerprint import (raised, record, suite_matrices,  # noqa: E402  (tools/fingerprint.py)
                         workload_calls)
from pairs import extract  # noqa: E402  (tools/pairs.py)

ORACLE_WORKLOAD = "suite_reference"
WORKLOADS = ("flow_small", "large_dense", ORACLE_WORKLOAD)
PARENT_PACKAGE = "expmkit_parent"
AA_PACKAGE = "expmkit_aa"
# The orders in which a call runs on (parent, change, copy), in turn.
ORDERS = tuple(itertools.permutations(range(3)))


def load_package(src: Path, name: str):
    """The expmkit package under ``src`` imported as ``name``; its
    relative imports resolve inside it, so it shares no module with the
    ``expmkit`` already loaded."""
    init = src / "expmkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def as_input(package, W):
    """The workload input W as ``package``'s own Matrix or LowRankPair."""
    if isinstance(W, expmkit.engine.LowRankPair):
        return package.engine.LowRankPair(W.a1, W.a2)
    return package.matrix.Matrix(W.a)


def driver_map(package):
    """perfbench's map from a scheme to a driver, ``workloads._call``, with
    ``package``'s engine in its globals; the scheme names are the same
    strings in both trees."""
    call = workloads._call
    return types.FunctionType(call.__code__, {**call.__globals__, "engine": package.engine})


def driver_call(package):
    """A function giving (seconds, outcome) of one call through
    ``package``'s driver map: the outcome is what tools/fingerprint.py
    digests of the result, as (plan and counts, value bytes, plan order
    m), or (raised type, b"", None)."""
    run = driver_map(package)

    def call(W, scheme: str, eps: float):
        t0 = time.perf_counter()
        try:
            res = run(W, scheme, eps)
        except Exception as exc:  # the raised type is part of the outcome
            return time.perf_counter() - t0, (raised(exc), b"", None)
        wall = time.perf_counter() - t0
        counts, a = record(res)
        return wall, (counts, a.tobytes(), res.plan.m)

    return call


def oracle_call(package):
    """A function giving (seconds, outcome) of ``package``'s
    ``expm_reference`` on a matrix: the outcome is (b"", the bytes of the
    (hi, lo) pair behind the value, formed outside the timed call), or
    (raised type, b"")."""
    oracle = package.oracle

    def call(W, _group, _eps):
        t0 = time.perf_counter()
        try:
            oracle.expm_reference(W)
        except Exception as exc:  # the raised type is part of the outcome
            return time.perf_counter() - t0, (raised(exc), b"")
        wall = time.perf_counter() - t0
        hi, lo = oracle._expm_dd(W)
        return wall, (b"", hi.tobytes() + lo.tobytes())

    return call


def difference(parent, change) -> str | None:
    """How two outcomes differ: None, "plan_or_count" or "value_only"."""
    if parent == change:
        return None
    return "plan_or_count" if parent[0] != change[0] else "value_only"


def calls_of(workload: str, seed: int):
    """(group, eps, input, product order) for each call of the workload.
    A driver call's group is its scheme, and a low-rank call's products
    are of the pair's inner rank t; an oracle call's group is its order."""
    if workload == ORACLE_WORKLOAD:
        return [(f"n{W.n}", None, W, W.n)
                for W in suite_matrices(expmkit.bench.default_suite_config(seed))]
    return [(scheme, eps, W, W.t if isinstance(W, expmkit.engine.LowRankPair) else W.n)
            for W, scheme, eps in workload_calls(workload, seed)]


def pooled_calls(workload: str, seeds) -> list:
    """:func:`calls_of` each seed in turn, as one list of calls."""
    return [call for seed in seeds for call in calls_of(workload, seed)]


def _side(costs, diffs) -> dict:
    """The three trees' mean cost over (parent, change, copy) cost
    triples, and the number of each kind of difference (see
    :func:`difference`)."""
    parent, change, aa = (statistics.fmean(t) for t in zip(*costs))
    return {"calls": len(costs), "parent_cost_mean": parent, "change_cost_mean": change,
            "ratio_change_over_parent": change / parent,
            "aa_cost_mean": aa, "aa_ratio": change / aa,
            "change_faster": sum(c < p for p, c, _ in costs),
            "differing_calls": sum(d is not None for d in diffs),
            "plan_or_count_calls": diffs.count("plan_or_count"),
            "value_only_calls": diffs.count("value_only")}


def compare(trees, calls, passes: int, seed: int, oracle: bool = False) -> dict:
    """Time each call on the packages ``trees`` (parent, change) and on an
    A/A copy of the working tree back to back, ``passes`` times (module
    docstring); summarize per group and overall.  The calls go to each
    tree's drivers, or to its oracle with ``oracle``."""
    trees = (*trees, load_package(ROOT / "src", AA_PACKAGE))
    runs = [(oracle_call if oracle else driver_call)(t) for t in trees]
    inputs = [[as_input(t, W) for t in trees] for _, _, W, _ in calls]
    times = [([], [], []) for _ in calls]
    results = [None] * len(calls)
    for p in range(passes):
        for i, (group, eps, _, _) in enumerate(calls):
            got = [None, None, None]
            for t in ORDERS[(p + i) % len(ORDERS)]:
                wall, got[t] = runs[t](inputs[i][t], group, eps)
                times[i][t].append(wall)
            results[i] = got
    gemm_s = workloads.calibrate_gemm({c[3] for c in calls}, seed)
    by_group, by_order = {}, {}
    for (group, _, _, order), tree_times, got in zip(calls, times, results):
        base = gemm_s[order]
        cost = tuple(statistics.median(t) / base for t in tree_times)
        diff = difference(*got[:2])
        sides = [by_group.setdefault(group, ([], []))]
        if not oracle:  # split by the parent's plan order, the outcome's last field
            sides.append(by_order.setdefault(group, {}).setdefault(got[0][-1], ([], [])))
        for costs, diffs in sides:
            costs.append(cost)
            diffs.append(diff)
    overall = _side([c for costs, _ in by_group.values() for c in costs],
                    [d for _, diffs in by_group.values() for d in diffs])
    if oracle:
        groups = {"orders": {g: _side(*v) for g, v in by_group.items()}}
    else:
        groups = {"drivers": {g: {**_side(*v), "plan_orders": _by_plan_order(by_order[g])}
                              for g, v in by_group.items()}}
    return {"passes": passes, "calls": len(calls),
            "differing_calls": overall["differing_calls"],
            "overall": overall, **groups}


def _by_plan_order(sides: dict) -> dict:
    """:func:`_side` of each plan order's (costs, diffs), keyed ``m<order>``
    in ascending order, then ``raised`` for the calls the parent refused."""
    return {("raised" if m is None else f"m{m}"): _side(*sides[m])
            for m in sorted(sides, key=lambda m: (m is None, m or 0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    p.add_argument("--workload", choices=WORKLOADS, default="flow_small")
    p.add_argument("--seed", type=int, nargs="+", default=[1],
                   help="workload seeds, whose calls are timed together")
    p.add_argument("--passes", type=int, default=len(ORDERS),
                   help="passes over the calls; a multiple of 6 balances the orders")
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")

    calls = pooled_calls(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="paired-calls-parent-") as tmp:
        extract(args.parent, Path(tmp))
        parent = load_package(Path(tmp) / "src", PARENT_PACKAGE)
        summary = {"workload": args.workload, "seeds": args.seed, "parent": args.parent}
        summary.update(compare((parent, expmkit), calls, args.passes, args.seed[0],
                               oracle=args.workload == ORACLE_WORKLOAD))
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
