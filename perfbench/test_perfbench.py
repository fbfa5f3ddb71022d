"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expmkit import bench, engine, matrix

import tracing
import workloads
from tracing import Span

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _arrays(wl):
    wl.inputs = [bench.gen_matrix(spec) for spec in wl.specs]
    out = []
    for W in wl.inputs:
        out += [W.a1, W.a2] if isinstance(W, engine.LowRankPair) else [W.a]
    return out


@pytest.mark.parametrize("make", [workloads.flow_small, workloads.large_dense])
def test_inputs_repeat_bit_for_bit_and_follow_the_seed(make):
    first, again, other = _arrays(make(7)), _arrays(make(7)), _arrays(make(8))
    assert len(first) == len(again) == len(other)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


def test_suite_follows_the_seed_and_round_trips_through_json():
    wl = workloads.SuiteWorkload(7, workdir=".")
    assert wl.config == bench.default_suite_config(base_seed=7)
    assert bench.SuiteConfig.from_dict(workloads.suite_dict(wl.config)) == wl.config
    assert ([s.seed for s in wl.config.specs()]
            != [s.seed for s in workloads.SuiteWorkload(8, ".").config.specs()])


def test_workloads_match_their_definition():
    flow, large = workloads.flow_small(0), workloads.large_dense(0)
    assert len(flow.specs) == 6 * 4 * 25 and len(flow.cases) == 5 * 4 * 25 * 3 + 4 * 25
    assert len(large.specs) == 2 * 12 and len(large.cases) == 2 * 12 * 2 * 3
    assert {(s.kind, s.target_norm) for s in large.specs if s.target_norm == 1e7} \
        == {("rotation_block", 1e7)}


def _tree():
    # driver [0, 10] -> select [1, 3] -> mat_mul [1.5, 2.5]
    #                -> eval   [4, 8] -> mat_mul [5, 6], mat_mul [6, 7.5]
    #                -> squaring [8, 9.5] -> mat_mul [8, 9]
    return [
        Span("engine.expm", 0.0, 10.0, -1, 0),
        Span("select", 1.0, 3.0, 0, 0),
        Span("matrix.mat_mul", 1.5, 2.5, 1, 0, info=8),
        Span("poly.eval", 4.0, 8.0, 0, 0),
        Span("matrix.mat_mul", 5.0, 6.0, 3, 0, info=8),
        Span("matrix.mat_mul", 6.0, 7.5, 3, 0, info=8),
        Span("engine.squaring", 8.0, 9.5, 0, 0),
        Span("matrix.mat_mul", 8.0, 9.0, 6, 0, info=8),
    ]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(_tree()) == [2.5, 1.0, 1.0, 1.5, 1.0, 1.5, 0.5, 1.0]


def test_phases_follow_the_nearest_phase_span():
    spans = _tree() + [
        Span("engine.baseline", 10.0, 12.0, -1, 1),
        Span("matrix.mat_mul", 10.5, 11.0, 8, 1, info=8),
        Span("engine.lowrank", 12.0, 14.0, -1, 2),
        Span("matrix.mat_mul", 12.5, 13.0, 10, 2, info=8),
    ]
    got = [p for s, p in zip(spans, tracing.phases(spans)) if s.name == "matrix.mat_mul"]
    assert got == ["select", "poly", "poly", "squaring", "poly", "select"]


def test_per_layer_sums_on_a_hand_built_tree():
    spans = _tree()
    spans[0].info = [4, 0]
    m = tracing.per_layer(spans, passes=1, gemm_s={8: 0.25})
    assert (m["select.mults"], m["poly.mults"], m["engine.squaring_mults"]) == (1, 2, 1)
    assert m["matrix.mat_mul_s"] == 4.5 and m["matrix.mat_mul_blas_frac"] == 1.0 / 4.5
    assert m["poly.eval_s"] == 4.0 and m["poly.self_s"] == 1.5
    assert m["engine.self_s"] == 2.5 and m["engine.squaring_s"] == 1.5


def test_failed_driver_products_are_not_counted():
    spans = _tree()
    spans[0].error = "NonFiniteError"
    m = tracing.per_layer(spans, passes=1, gemm_s={8: 0.25})
    assert m["select.mults"] + m["poly.mults"] + m["engine.squaring_mults"] == 0
    assert m["engine.fail.NonFiniteError"] == 1


def test_tracer_counts_every_product_and_restores_the_modules():
    originals = [getattr(mod, attr) for mod, attr, *_ in tracing.SITES]
    W = matrix.Matrix(np.random.default_rng(0).uniform(-1, 1, (16, 16)) * 3)
    with tracing.Tracer() as tracer:
        results = [engine.expm(W, 1e-8, "sastre"), engine.expm(W, 1e-8, "ps"),
                   engine.expm_baseline(W, 1e-8)]
    assert [getattr(mod, attr) for mod, attr, *_ in tracing.SITES] == originals
    m = tracing.per_layer(tracer.spans, passes=1, gemm_s={16: 1e-6})
    assert (m["select.mults"] + m["poly.mults"] + m["engine.squaring_mults"]
            == sum(r.mults for r in results))
    assert m["engine.squaring_mults"] == sum(r.plan.s for r in results)
    for r in results:
        assert r.mults == workloads.eval_budget(r.plan.scheme, r.plan.m) + r.plan.s


def test_tail_leaves_ten_samples_beyond():
    assert workloads.tail(range(1, 301)) == (290, 100.0 * 290 / 300, 300)
    assert workloads.tail(range(1, 2001)) == (1980, 99.0, 2000)
    with pytest.raises(ValueError):
        workloads.tail(range(10))


def test_metric_names_units_and_counts_are_within_the_limits():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for m in e2e + layers:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_computed_metrics_are_exactly_the_listed_ones():
    run = workloads.Measurement(cost_runs={i: [50.0] for i in range(20)}, passes=1,
                                attempted=20, overhead_runs={0: [2.0]}, rel_errs=[1e-12],
                                tol_met=20)
    assert set(run.end_to_end()) | {"setup_s", "peak_rss_mb"} \
        == {m["name"] for m in SPEC["end_to_end"]}
    layers = set(tracing.per_layer(_tree(), 1, {8: 1.0}))
    layers |= {f"matrix.gemm_us.n{n}" for n in workloads.GEMM_SIZES} | {"trace.overhead_frac"}
    assert layers == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow_small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stdout == ""


def test_bracketing_bases_average_probes_of_the_same_order_only():
    bases = workloads.bracketing_bases([1.0, 3.0, 10.0, 20.0], [8, 8, 16, 16])
    assert bases == [2.0, 3.0, 15.0, 20.0]


def test_counts_do_not_depend_on_the_number_of_passes():
    # rotation_block at 1e7 and lowrank_pair at 12.8 fail on every pass.
    wl = workloads.CallWorkload(3, [("rotation_block", (8,), (1.0, 1e7)),
                                    ("lowrank_pair", (16,), (12.8,))], (1e-8,))
    wl.setup()
    wl.prepare_gate()
    short, longer = wl.measure(0.0), wl.measure(0.3)
    assert short.passes < longer.passes
    for run in (short, longer):
        assert (run.attempted, run.failed) == (len(wl.cases), 3)
        assert len(run.rel_errs) == len(wl.cases) - 3
        assert run.fail_types == {"NonFiniteError": 2, "LowRankOrderError": 1}
    assert short.rel_errs == longer.rel_errs and short.tol_met == longer.tol_met
    assert wl.problems == []
