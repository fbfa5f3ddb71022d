"""The three workloads: inputs made from the seed, timed loops, and the
correctness gate.

``flow_small`` and ``large_dense`` call the drivers of
:mod:`expmkit.engine` one after another (closed loop, one caller) and
check every result against ``scipy.linalg.expm``.  ``suite_reference``
runs ``expm bench`` in-process through :func:`expmkit.cli.main` on the
default 300-matrix suite and checks the CSV and summary it writes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from expmkit import bench, cli, engine, poly, select
from expmkit.matrix import MatrixError

import tracing

U = select.UNIT_ROUNDOFF
SCHEMES = (select.SCHEME_SASTRE, select.SCHEME_PS, select.SCHEME_BASELINE)
# Orders whose bare-product time is always reported (matrix.gemm_us.n<N>).
GEMM_SIZES = (8, 16, 32, 64, 256, 512)
# A result misses the tolerance when its relative error exceeds this
# multiple of eps (acceptance criterion 4's threshold).
TOL_FACTOR = 10.0
# Errors below double-double resolution count as this value in the
# geometric mean, so an exact result does not send it to zero.
ERR_FLOOR = 2.0 ** -106
# Every item runs at least this often, so that its median time drops a
# stall that hits one pass.
MIN_PASSES = 2

FLOW_SIZES = (8, 16, 32, 64)
FLOW_KINDS = ("diag", "random_dense", "rotation_block", "nonnormal_triangular",
              "nilpotent_perturbed", "lowrank_pair")
FLOW_NORMS = tuple(float(x) for x in np.geomspace(2.84e-4, 12.8, 25))
FLOW_EPS = (1e-8,)

LARGE_SIZES = (256, 512)
# Inputs whose exact exponential overflows binary64 are left out:
# nonnormal_triangular above 1e2, and random_dense above 5e3 (at n = 256
# and 1e4 the largest eigenvalue passed ln(DBL_MAX) ~ 709.8 on 2.5% of 200
# seeds).  rotation_block at 1e7 has an orthogonal exponential, but the
# MAX_SCALING cap makes sastre and ps overflow on it; it stays in so that
# ok_frac and engine.fail.NonFiniteError show the defect.
LARGE_NORMS = (
    ("random_dense", (1e-2, 1.0, 1e2, 5e3)),
    ("rotation_block", (1e-2, 1.0, 1e2, 1e4, 1e7)),
    ("nonnormal_triangular", (1e-2, 1.0, 1e2)),
)
LARGE_EPS = (1e-8, U)


def derive_seed(seed: int, index: int) -> int:
    """Per-matrix generator seed from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def eval_budget(scheme: str, m: int) -> int:
    """Products the README promises for order m, before the s squarings."""
    if m == 0:
        return 0
    if scheme == select.SCHEME_SASTRE:
        return poly.sastre_budget(m)
    if scheme == select.SCHEME_BASELINE:
        return m
    return poly.ps_shape(m).mults


def error_bound(eps: float, n: int, s: int) -> float:
    """Largest relative error vs scipy.linalg.expm the gate accepts.

    Truncation (eps) and rounding (n*u) errors of the scaled evaluation
    are amplified up to 2^s times by the s squarings.
    """
    return math.ldexp(TOL_FACTOR * eps + n * U, s)


def relative_error(X: np.ndarray, ref: np.ndarray) -> float:
    """Frobenius relative error, scaled first so large entries do not overflow."""
    scale = float(np.abs(ref).max())
    return float(np.linalg.norm((X - ref) / scale) / np.linalg.norm(ref / scale))


class ProductProbe:
    """Times one bare product A @ A of a given order, when asked.

    Small products run at different speeds depending on where their arrays
    sit in memory, so a timing is the median over a few fixed arrays.
    """

    def __init__(self, orders, seed: int):
        rng = np.random.default_rng(seed)
        self.arrays = {}
        for n in sorted(set(orders)):
            group = [rng.uniform(-1.0, 1.0, (n, n)) for _ in range(8 if n <= 64 else 3)]
            for a in group:
                a @ a
            self.arrays[n] = group

    def __call__(self, n: int) -> float:
        times = []
        for a in self.arrays[n]:
            t0 = time.perf_counter()
            a @ a
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def bracketing_bases(probes, orders) -> list:
    """Product time to divide each probed stretch of work by.

    Probe k was taken of order ``orders[k]`` just before stretch k.  When
    probe k+1 has the same order it closes the stretch, and the two are
    averaged, so a speed change halfway through is split between them.
    """
    out = []
    for k, (value, n) in enumerate(zip(probes, orders)):
        after = probes[k + 1] if k + 1 < len(probes) and orders[k + 1] == n else value
        out.append(0.5 * (value + after))
    return out


def calibrate_gemm(orders, seed: int) -> dict:
    """Seconds of one bare product per order, the median of five probes."""
    probe = ProductProbe(orders, seed)
    return {n: statistics.median(probe(n) for _ in range(5)) for n in probe.arrays}


def tail(values):
    """The highest percentile with at least ten samples beyond it, capped
    at p99; returns (value, percentile, sample count)."""
    data = sorted(values)
    count = len(data)
    if count <= 10:
        raise ValueError(f"{count} samples leave none with ten beyond it")
    rank = min(math.ceil(0.99 * count), count - 10)
    return data[rank - 1], 100.0 * rank / count, count


def _medians(runs: dict) -> list:
    return [statistics.median(values) for values in runs.values()]


@dataclass
class Measurement:
    """What one timed window produced.

    Every item (a driver call on one input, or one suite matrix) runs once
    per pass.  Its cost is its wall time divided by the time of one bare
    product of its order, timed right before and after it, so that costs
    follow the speed of a shared machine from moment to moment.  An item's
    figures are medians over the passes; percentiles are taken over items.
    Counts, failures and errors are those of the first pass (every later
    pass must repeat its outcomes), so they depend on the seed alone and
    not on how many passes fit in the window.
    """

    item_runs: dict = field(default_factory=dict)      # item -> seconds per pass
    cost_runs: dict = field(default_factory=dict)      # item -> cost per pass
    overhead_runs: dict = field(default_factory=dict)  # call -> cost / mults per pass
    overhead_excluded: int = 0                         # successes with mults == 0, one pass
    passes: int = 0
    attempted: int = 0                                 # driver calls or suite rows, one pass
    failed: int = 0
    pass_mults: int = 0                                # sum of mults over one pass
    rel_errs: list = field(default_factory=list)       # first pass
    tol_met: int = 0
    fail_types: Counter = field(default_factory=Counter)

    def wall(self) -> dict:
        """Wall-clock figures, printed beside the metrics."""
        item_s = _medians(self.item_runs)
        p99, percentile, count = tail(item_s)
        return {"items_per_s": len(item_s) / math.fsum(item_s),
                "item_ms_p50": 1e3 * statistics.median(item_s),
                "item_ms_p99": 1e3 * p99, "p99_percentile": percentile, "items": count}

    def notes(self) -> dict:
        """Sample counts and extremes printed beside the metrics."""
        return {
            "passes": self.passes,
            "overhead_samples": len(self.overhead_runs),
            "overhead_excluded_zero_mults": self.overhead_excluded,
            "rel_err_max": max(self.rel_errs),
            "fail_types": dict(self.fail_types),
            "wall": self.wall(),
        }

    def end_to_end(self) -> dict:
        costs = _medians(self.cost_runs)
        logs = [math.log(max(e, ERR_FLOOR)) for e in self.rel_errs]
        return {
            "item_cost_mean": statistics.fmean(costs),
            "item_cost_p50": statistics.median(costs),
            "item_cost_p99": tail(costs)[0],
            "overhead_ratio_p50": statistics.median(_medians(self.overhead_runs)),
            "total_mults": self.pass_mults,
            "ok_frac": 1.0 - self.failed / self.attempted,
            "rel_err_gmean": math.exp(statistics.fmean(logs)),
            "tol_met_frac": self.tol_met / self.attempted,
        }


@dataclass(frozen=True)
class Case:
    """One driver call: an input (index into the inputs), a scheme, a tolerance."""

    input: int
    scheme: str
    eps: float


class CallWorkload:
    """Driver calls on generated matrices (flow_small, large_dense)."""

    def __init__(self, seed: int, grid, eps_values):
        self.seed = seed
        self.specs = []
        self.cases = []
        for kind, sizes, norms in grid:
            for n in sizes:
                for norm in norms:
                    index = len(self.specs)
                    self.specs.append(bench.GeneratorSpec(
                        kind=kind, n=n, target_norm=norm,
                        seed=derive_seed(seed, index)))
                    schemes = (select.SCHEME_LOWRANK,) if kind == "lowrank_pair" else SCHEMES
                    self.cases += [Case(index, sch, eps)
                                   for eps in eps_values for sch in schemes]
        self.inputs = []
        self.refs = []
        self.gemm_s = {}
        self.problems = []

    def product_order(self, case: Case) -> int:
        """Order of the products the ledger counts for this call."""
        spec = self.specs[case.input]
        return max(1, spec.n // 8) if spec.kind == "lowrank_pair" else spec.n

    def setup(self) -> None:
        self.inputs = [bench.gen_matrix(spec) for spec in self.specs]
        self.gemm_s = calibrate_gemm(
            GEMM_SIZES + tuple(self.product_order(c) for c in self.cases), self.seed)
        seen = set()
        for case in self.cases:
            key = (self.specs[case.input].n, case.scheme)
            if key not in seen:
                seen.add(key)
                try:
                    _call(self.inputs[case.input], case.scheme, case.eps)
                except Exception:  # measure() counts and gates failures
                    pass

    def prepare_gate(self) -> None:
        from scipy.linalg import expm as scipy_expm
        self.refs = []
        for W in self.inputs:
            a = W.a1 @ W.a2 if isinstance(W, engine.LowRankPair) else W.a
            self.refs.append(scipy_expm(a))

    def measure(self, seconds: float, tracer=None) -> Measurement:
        out = Measurement()
        first_pass = None
        deadline = time.perf_counter() + seconds
        probe = ProductProbe({self.product_order(c) for c in self.cases}, self.seed)
        while out.passes < MIN_PASSES or time.perf_counter() < deadline:
            outcomes = []
            probes, probe_orders, timed = [], [], []
            for i, case in enumerate(self.cases):
                W = self.inputs[case.input]
                # The calls on one input are adjacent; one probe precedes them.
                if i == 0 or case.input != self.cases[i - 1].input:
                    probe_orders.append(self.product_order(case))
                    probes.append(probe(probe_orders[-1]))
                if tracer is not None:
                    tracer.item += 1
                t0 = time.perf_counter()
                try:
                    res = _call(W, case.scheme, case.eps)
                except Exception as exc:  # counted, never fatal
                    wall = time.perf_counter() - t0
                    res = None
                    error = type(exc).__name__
                    if not isinstance(exc, (MatrixError, ArithmeticError)):
                        self.problems.append(f"{case}: unexpected {error}: {exc}")
                else:
                    wall = time.perf_counter() - t0
                out.item_runs.setdefault(i, []).append(wall)
                timed.append((i, len(probes) - 1, wall, None if res is None else res.mults))
                counted = first_pass is None
                out.attempted += counted
                if res is None:
                    if counted:
                        out.failed += 1
                        out.fail_types[error] += 1
                    outcomes.append(error)
                    continue
                outcomes.append((res.mults, res.rect_mults, res.plan.m, res.plan.s))
                err = self._check(case, res)
                if counted:
                    out.rel_errs.append(err)
                    out.tol_met += err <= TOL_FACTOR * case.eps
            bases = bracketing_bases(probes, probe_orders)
            for i, k, wall, mults in timed:
                out.cost_runs.setdefault(i, []).append(wall / bases[k])
                if mults:
                    out.overhead_runs.setdefault(i, []).append(wall / (mults * bases[k]))
                elif mults == 0:
                    out.overhead_excluded += first_pass is None
            if first_pass is None:
                first_pass = outcomes
                out.pass_mults = sum(o[0] for o in outcomes if isinstance(o, tuple))
            elif outcomes != first_pass:
                self.problems.append(f"pass {out.passes} differs from pass 0 in "
                                     "mults, plans or failures")
            out.passes += 1
        return out

    def _check(self, case: Case, res) -> float:
        """Gate one result; returns its relative error vs scipy."""
        spec = self.specs[case.input]
        value = res.value.a
        err = math.inf
        if not np.isfinite(value).all():
            self.problems.append(f"{case}: non-finite result")
        else:
            err = relative_error(value, self.refs[case.input])
        plan = res.plan
        if res.mults != eval_budget(case.scheme, plan.m) + plan.s:
            self.problems.append(f"{case}: mults {res.mults} != budget "
                                 f"{eval_budget(case.scheme, plan.m)} + s {plan.s}")
        if case.scheme == select.SCHEME_LOWRANK and res.rect_mults != 3:
            self.problems.append(f"{case}: rect_mults {res.rect_mults} != 3")
        if not err <= error_bound(case.eps, spec.n, plan.s):
            self.problems.append(f"{case} ({spec.kind}, n={spec.n}, norm="
                                 f"{spec.target_norm:g}): rel err {err:.3g} vs scipy")
        return err


def _call(W, scheme: str, eps: float):
    # Looked up on the module at call time, so a Tracer's wrappers apply.
    if scheme == select.SCHEME_LOWRANK:
        return engine.expm_lowrank(W, eps)
    if scheme == select.SCHEME_BASELINE:
        return engine.expm_baseline(W, eps)
    return engine.expm(W, eps, scheme)


def flow_small(seed: int) -> CallWorkload:
    return CallWorkload(seed, [(kind, FLOW_SIZES, FLOW_NORMS) for kind in FLOW_KINDS],
                        FLOW_EPS)


def large_dense(seed: int) -> CallWorkload:
    return CallWorkload(seed, [(kind, LARGE_SIZES, norms) for kind, norms in LARGE_NORMS],
                        LARGE_EPS)


def suite_dict(config: bench.SuiteConfig) -> dict:
    """The suite JSON ``expm bench --suite`` reads for this config."""
    return {
        "eps": config.eps,
        "sizes": list(config.sizes),
        "kinds": list(config.kinds),
        "schemes": list(config.schemes),
        "norms": {"min": config.norm_min, "max": config.norm_max,
                  "count": config.norm_count, "scale": config.norm_scale},
        "seeds": {"base": config.base_seed},
        "noise": config.noise,
    }


class SuiteWorkload:
    """``expm bench`` on the default suite, serial, through cli.main."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config = bench.default_suite_config(base_seed=seed)
        self.problems = []
        self.gemm_s = {}

    def _write_suite(self, tmp: str, config: bench.SuiteConfig) -> list:
        path = os.path.join(tmp, "suite.json")
        with open(path, "w", encoding="ascii") as f:
            json.dump(suite_dict(config), f)
        return ["bench", "--suite", path, "--csv", os.path.join(tmp, "records.csv"),
                "--summary", os.path.join(tmp, "summary.json")]

    def setup(self) -> None:
        self.gemm_s = calibrate_gemm(GEMM_SIZES + self.config.sizes, self.seed)
        tiny = bench.SuiteConfig(eps=self.config.eps, sizes=(8,), kinds=("random_dense",),
                                 schemes=self.config.schemes, norm_min=1.0, norm_max=1.0,
                                 norm_count=1, base_seed=self.seed)
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp, \
                redirect_stdout(io.StringIO()):
            rc = cli.main(self._write_suite(tmp, tiny))
        if rc != cli.EXIT_OK:
            self.problems.append(f"warm-up suite exited {rc}")

    def prepare_gate(self) -> None:
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            argv = self._write_suite(tmp, self.config)
            with open(argv[2], encoding="ascii") as f:
                if bench.SuiteConfig.from_dict(json.load(f)) != self.config:
                    self.problems.append("suite JSON does not round-trip the default config")

    def measure(self, seconds: float, tracer=None) -> Measurement:
        if tracer is None:
            # Item boundaries come from the gen_matrix call that starts each
            # suite matrix, so the untraced run carries these two wrappers.
            with tracing.Tracer(tracing.ITEM_SITES) as marks:
                return self._measure(seconds, marks)
        return self._measure(seconds, tracer)

    def _measure(self, seconds: float, marks) -> Measurement:
        out = Measurement()
        probe = ProductProbe(self.config.sizes, self.seed)
        first_outcomes = None
        deadline = time.perf_counter() + seconds
        while out.passes < MIN_PASSES or time.perf_counter() < deadline:
            first_span = len(marks.spans)
            probes, orders = [], []
            printed = io.StringIO()
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                argv = self._write_suite(tmp, self.config)
                with _probe_each_matrix(probe, probes, orders), \
                        redirect_stdout(printed):
                    rc = marks.span("cli.bench", cli.main, argv)
                records = self._check(rc, printed.getvalue(), argv[4], argv[6])
            bases = bracketing_bases(probes, orders)
            spans = marks.spans[first_span:]
            starts = [s.start for s in spans if s.name == "bench.gen"]
            end = max(s.end for s in spans if s.name == "bench.run_suite")
            for j, (a, b) in enumerate(zip(starts, starts[1:] + [end])):
                out.item_runs.setdefault(j, []).append(b - a)
                out.cost_runs.setdefault(j, []).append((b - a) / bases[j])
            outcomes = [(r.scheme, r.m, r.s, r.square_mults, math.isfinite(r.rel_err))
                        for r in records]
            if first_outcomes is None:
                first_outcomes = outcomes
                out.pass_mults = sum(r.square_mults for r in records)
            elif outcomes != first_outcomes:
                self.problems.append(f"pass {out.passes} differs from pass 0 in "
                                     "mults, plans or failures")
            counted = out.passes == 0
            for row, r in enumerate(records):
                out.attempted += counted
                if not math.isfinite(r.rel_err):
                    out.failed += counted
                    continue
                if counted:
                    out.rel_errs.append(r.rel_err)
                    out.tol_met += r.rel_err <= TOL_FACTOR * self.config.eps
                if r.square_mults:
                    base = bases[row // len(self.config.schemes)]
                    out.overhead_runs.setdefault(row, []).append(
                        r.wall_time / (r.square_mults * base))
                else:
                    out.overhead_excluded += counted
            out.passes += 1
        return out

    def _check(self, rc: int, printed: str, csv_path: str, summary_path: str) -> list:
        """Gate one ``expm bench`` run; returns its records."""
        with open(csv_path, newline="", encoding="ascii") as f:
            header = next(csv.reader(f), None)
        if header is None or tuple(header) != bench.CSV_COLUMNS:
            self.problems.append(f"CSV header {header!r} != {bench.CSV_COLUMNS!r}")
            return []
        records = bench.read_records_csv(csv_path)
        with open(summary_path, encoding="ascii") as f:
            summary = json.load(f)
        expected_rows = len(self.config.specs()) * len(self.config.schemes)
        if len(records) != expected_rows or summary["records"] != expected_rows:
            self.problems.append(f"{len(records)} CSV rows, summary says "
                                 f"{summary['records']}, expected {expected_rows}")
        failures = 0
        for scheme in self.config.schemes:
            rows = [r for r in records if r.scheme == scheme]
            sums = {
                "records": len(rows),
                "failures": sum(1 for r in rows if not math.isfinite(r.rel_err)),
                "total_mults": sum(r.square_mults for r in rows),
                "total_wall_time_s": float(sum(r.wall_time for r in rows)),
            }
            failures += sums["failures"]
            for key, value in sums.items():
                if summary["schemes"][scheme][key] != value:
                    self.problems.append(f"summary {scheme}.{key} = "
                                         f"{summary['schemes'][scheme][key]!r}, "
                                         f"CSV sum {value!r}")
        if rc != (cli.EXIT_NUMERICAL if failures else cli.EXIT_OK):
            self.problems.append(f"expm bench exited {rc} with {failures} failed rows")
        if not printed.startswith(f"records={len(records)} failures={failures} "):
            self.problems.append(f"expm bench printed {printed!r}")
        for r in records:
            if not math.isfinite(r.rel_err):
                continue
            if r.square_mults != eval_budget(r.scheme, r.m) + r.s:
                self.problems.append(f"row {r}: mults != budget + s")
            if not r.rel_err <= error_bound(self.config.eps, r.generator.n, r.s):
                self.problems.append(f"row {r}: rel err above the gate bound")
        return records


@contextmanager
def _probe_each_matrix(probe: ProductProbe, probes: list, orders: list):
    """Time a bare product of each suite matrix's order as the matrix starts.

    ``gen_matrix`` begins the work on every suite matrix, so the wrapper
    appends one product time and order per matrix, in suite order.
    """
    original = bench.gen_matrix

    def gen_matrix(spec):
        orders.append(spec.n)
        probes.append(probe(spec.n))
        return original(spec)

    bench.gen_matrix = gen_matrix
    try:
        yield
    finally:
        bench.gen_matrix = original


def make(name: str, seed: int, workdir: str):
    if name == "flow_small":
        return flow_small(seed)
    if name == "large_dense":
        return large_dense(seed)
    if name == "suite_reference":
        return SuiteWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
