"""Spans recorded around expmkit's public functions, and the per-layer
metrics derived from them.

The benchmark never edits expmkit: :class:`Tracer` replaces a function
by a timing wrapper at the module attribute its callers look it up
through (for example ``expmkit.engine.mat_mul``, which ``squaring`` and
``expm_baseline`` call), and puts every original back when it is done.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass

from expmkit import bench, cli, engine, poly, select

DRIVER_SPANS = ("engine.expm", "engine.baseline", "engine.lowrank")
EVAL_SPAN = "poly.eval"
SELECT_SPAN = "select"
SQUARING_SPAN = "engine.squaring"
MAT_MUL_SPAN = "matrix.mat_mul"
ORACLE_SIZES = (8, 16, 32, 64)
# Exception types a driver is documented to raise; any other type is
# counted as engine.fail.other.
FAIL_TYPES = ("NonFiniteError", "LowRankOrderError", "MatrixError", "ToleranceError")


@dataclass(slots=True)
class Span:
    """One call of a wrapped function.

    ``parent`` is the index of the enclosing span in the tracer's list (-1
    at top level); ``item`` identifies the driver call or suite matrix the
    span belongs to; ``info`` holds the few values the metrics need from
    the call's arguments or result; ``error`` is the exception type name
    when the call raised.
    """

    name: str
    start: float
    end: float
    parent: int
    item: int
    info: object = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _order(args, result):
    return args[0].n


def _plan(args, result):
    return [result.m, result.s]


def _cost(args, result):
    return [result.mults, result.rect_mults]


# (module, attribute, span name, info extractor, starts a new item)
ITEM_SITES = (
    (bench, "gen_matrix", "bench.gen", None, True),
    (cli, "run_suite", "bench.run_suite", None, False),
)
SITES = ITEM_SITES + (
    (engine, "expm", "engine.expm", _cost, False),
    (engine, "expm_baseline", "engine.baseline", _cost, False),
    (engine, "expm_lowrank", "engine.lowrank", _cost, False),
    (bench, "expm", "engine.expm", _cost, False),
    (bench, "expm_baseline", "engine.baseline", _cost, False),
    (engine, "select_ps", SELECT_SPAN, _plan, False),
    (engine, "select_sastre", SELECT_SPAN, _plan, False),
    (engine, "eval_low_order", EVAL_SPAN, None, False),
    (engine, "eval_t8", EVAL_SPAN, None, False),
    (engine, "eval_t15p", EVAL_SPAN, None, False),
    (engine, "ps_eval", EVAL_SPAN, None, False),
    (engine, "squaring", SQUARING_SPAN, None, False),
    (engine, "scale_pow2", "matrix.scale_pow2", None, False),
    (engine, "mat_mul", MAT_MUL_SPAN, _order, False),
    (select, "mat_mul", MAT_MUL_SPAN, _order, False),
    (poly, "mat_mul", MAT_MUL_SPAN, _order, False),
    (bench, "expm_reference", "oracle.expm_reference", _order, False),
    (bench, "relative_error", "oracle.relative_error", None, False),
    (cli, "performance_profile", "bench.profile", None, False),
    (cli, "emit_reports", "bench.report", None, False),
)


class Tracer:
    """Records spans while installed; use as a context manager.

    Spans are kept in memory in start order.  Single-threaded: the open
    span stack is shared by every wrapper.
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name, info, begins_item in self.sites:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info, begins_item))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        return self._wrap(fn, name, None, False)(*args, **kwargs)

    def _wrap(self, fn, name, info, begins_item):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if begins_item:
                self.item += 1
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.item)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="ascii") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread), so the covered part
    is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def phases(spans) -> list[str | None]:
    """The cost phase each span belongs to: "select", "poly" or "squaring".

    A span inherits the phase of its nearest phase-defining ancestor.  The
    term loop of expm_baseline is its evaluation phase, and the V^2
    product expm_lowrank forms during its order search is selection.
    """
    out: list[str | None] = []
    for span in spans:
        if span.name == SELECT_SPAN or span.name == "engine.lowrank":
            phase = "select"
        elif span.name == EVAL_SPAN or span.name == "engine.baseline":
            phase = "poly"
        elif span.name == SQUARING_SPAN:
            phase = "squaring"
        else:
            phase = out[span.parent] if span.parent >= 0 else None
        out.append(phase)
    return out


def failed_drivers(spans) -> list[bool]:
    """Whether each span lies inside a driver call that raised."""
    out: list[bool] = []
    for span in spans:
        if span.name in DRIVER_SPANS:
            out.append(span.error is not None)
        else:
            out.append(out[span.parent] if span.parent >= 0 else False)
    return out


def per_layer(spans, passes: int, gemm_s: dict) -> dict:
    """Per-layer metrics, per pass over the workload's inputs.

    ``gemm_s`` maps a matrix order to the seconds of one bare product of
    that order.  Times are in seconds unless the name says otherwise.
    """
    selfs = self_times(spans)
    phase = phases(spans)
    failed = failed_drivers(spans)
    dur: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for span, self_s in zip(spans, selfs):
        dur[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1

    mults = Counter()
    blas_s = 0.0
    for span, ph, bad in zip(spans, phase, failed):
        if span.name == MAT_MUL_SPAN:
            blas_s += gemm_s[span.info] if span.info is not None else 0.0
            if not bad:
                mults[ph] += 1
    plans = [s.info for s in spans if s.name == SELECT_SPAN and s.info is not None]
    fails = Counter(s.error for s in spans if s.name in DRIVER_SPANS and s.error)
    rect = sum(s.info[1] for s in spans if s.name == "engine.lowrank" and s.info)
    oracle_ms = {}
    for n in ORACLE_SIZES:
        times = [s.duration for s in spans
                 if s.name == "oracle.expm_reference" and s.info == n]
        oracle_ms[n] = 1e3 * statistics.fmean(times) if times else 0.0

    p = float(passes)
    out = {
        "matrix.mat_mul_s": dur[MAT_MUL_SPAN] / p,
        "matrix.mat_mul_calls": calls[MAT_MUL_SPAN] / p,
        "matrix.mat_mul_blas_frac": blas_s / dur[MAT_MUL_SPAN] if dur[MAT_MUL_SPAN] else 0.0,
        "matrix.scale_pow2_s": dur["matrix.scale_pow2"] / p,
        "select.s": dur[SELECT_SPAN] / p,
        "select.calls": calls[SELECT_SPAN] / p,
        "select.mults": mults["select"] / p,
        "select.m_mean": statistics.fmean(m for m, _ in plans) if plans else 0.0,
        "select.s_mean": statistics.fmean(s for _, s in plans) if plans else 0.0,
        "select.cap_hits": sum(1 for _, s in plans if s == select.MAX_SCALING) / p,
        "poly.eval_s": dur[EVAL_SPAN] / p,
        "poly.self_s": own[EVAL_SPAN] / p,
        "poly.mults": mults["poly"] / p,
        "engine.expm_s": dur["engine.expm"] / p,
        "engine.baseline_s": dur["engine.baseline"] / p,
        "engine.lowrank_s": dur["engine.lowrank"] / p,
        "engine.self_s": sum(own[name] for name in DRIVER_SPANS) / p,
        "engine.squaring_s": dur[SQUARING_SPAN] / p,
        "engine.squaring_mults": mults["squaring"] / p,
        "engine.lowrank_rect_mults": rect / p,
        "oracle.expm_reference_s": dur["oracle.expm_reference"] / p,
        "oracle.calls": calls["oracle.expm_reference"] / p,
        "oracle.relative_error_s": dur["oracle.relative_error"] / p,
        "bench.gen_s": dur["bench.gen"] / p,
        "bench.gen_calls": calls["bench.gen"] / p,
        "bench.run_suite_s": dur["bench.run_suite"] / p,
        "bench.profile_s": dur["bench.profile"] / p,
        "bench.report_s": dur["bench.report"] / p,
        "cli.bench_s": dur["cli.bench"] / p,
        "cli.self_s": own["cli.bench"] / p,
    }
    for name in FAIL_TYPES:
        out[f"engine.fail.{name}"] = fails.pop(name, 0) / p
    out["engine.fail.other"] = sum(fails.values()) / p
    for n in ORACLE_SIZES:
        out[f"oracle.ms_per_call.n{n}"] = oracle_ms[n]
    return out
