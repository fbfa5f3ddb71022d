"""The summary of tools/pairs.py on canned benchmark outputs."""

import json

import pairs as tool
import pytest

SPEC = [
    {"name": "item_cost_mean", "unit": "products", "better": "lower", "bound": 0.2},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.02},
    {"name": "poly.self_s", "unit": "s", "better": "lower"},
]


def _stdout(cost, ok, self_s, correct=True):
    """What perfbench/run.py prints: some lines, then one JSON object."""
    result = {"correct": correct, "attempted": 100, "failed": 1, "metrics": {
        "item_cost_mean": {"value": cost, "unit": "products"},
        "ok_frac": {"value": ok, "unit": "ratio"},
        "poly.self_s": {"value": self_s, "unit": "s"},
    }}
    lines = ["env {}", "metric item_cost_mean 1.0 products", "gate ok (0 problems)"]
    return "\n".join(lines + [json.dumps(result)])


def _runs(pairs):
    runs = []
    for seed, (parent, change) in zip(range(101, 101 + len(pairs)), pairs):
        runs.append({"seed": seed, "first": tool.first_tree(seed),
                     "parent": tool.parse_output(_stdout(*parent)),
                     "change": tool.parse_output(_stdout(*change))})
    return runs


def test_order_alternates_with_the_change_first_on_odd_seeds():
    assert [tool.first_tree(s) for s in (1, 2, 13, 9402)] == [
        "change", "parent", "change", "parent"]


def test_parse_output_reads_the_last_line():
    got = tool.parse_output(_stdout(30.5, 0.99, 0.04, correct=False))
    assert got["correct"] is False and (got["attempted"], got["failed"]) == (100, 1)
    assert got["metrics"] == {"item_cost_mean": 30.5, "ok_frac": 0.99, "poly.self_s": 0.04}
    assert got["units"]["ok_frac"] == "ratio"


def test_summary_counts_wins_in_each_metrics_direction():
    # (cost, ok_frac, poly.self_s) for the parent, then the change.
    runs = _runs([
        ((34.0, 0.99, 0.050), (31.0, 0.99, 0.040)),
        ((33.0, 0.98, 0.040), (32.0, 0.99, 0.045)),
        ((35.0, 0.99, 0.060), (36.0, 0.97, 0.050)),
        ((32.0, 0.99, 0.050), (30.0, 0.99, 0.050)),
        ((36.0, 0.99, 0.050), (31.0, 0.99, 0.030)),
    ])
    out = tool.summarize(runs, SPEC)
    assert out["seeds"] == [101, 102, 103, 104, 105]
    assert out["order"] == ["change first", "parent first", "change first",
                            "parent first", "change first"]
    assert out["correct"] is True
    assert out["attempted_failed"]["change"] == [[100, 1]] * 5

    cost = out["metrics"]["item_cost_mean"]
    assert cost["parent"] == [34.0, 33.0, 35.0, 32.0, 36.0]
    assert cost["change_wins"] == 4 and cost["ties"] == 0 and cost["pairs"] == 5
    # Inclusive quartiles of 32..36 and of 30, 31, 31, 32, 36.
    assert cost["parent_quartiles"] == [33.0, 34.0, 35.0]
    assert cost["change_quartiles"] == [31.0, 31.0, 32.0]
    assert cost["median_gap"] == 3.0 and cost["parent_iqr"] == 2.0
    assert cost["median_ratio_change_over_parent"] == pytest.approx(31 / 34)
    assert cost["worse_by"] == pytest.approx(31 / 34 - 1)
    assert cost["within_bound"] is True
    assert cost["identical_per_seed"] == [False] * 5

    ok = out["metrics"]["ok_frac"]  # higher is better
    assert ok["change_wins"] == 1 and ok["ties"] == 3
    assert ok["identical_per_seed"] == [True, False, False, True, True]
    assert ok["worse_by"] == 0.0 and ok["within_bound"] is True

    layer = out["metrics"]["poly.self_s"]
    assert layer["change_wins"] == 3 and layer["ties"] == 1
    assert "bound" not in layer and "within_bound" not in layer


def test_summary_flags_a_metric_beyond_its_bound_and_a_failed_gate():
    runs = _runs([((10.0, 1.0, 0.01), (13.0, 0.9, 0.01, False))])
    out = tool.summarize(runs, SPEC)
    assert out["correct"] is False
    cost = out["metrics"]["item_cost_mean"]
    assert cost["parent_quartiles"] == [10.0, 10.0, 10.0]
    assert cost["worse_by"] == pytest.approx(0.3) and cost["within_bound"] is False
    ok = out["metrics"]["ok_frac"]
    assert ok["worse_by"] == pytest.approx(0.1) and ok["within_bound"] is False
    assert ok["median_gap"] == pytest.approx(-0.1)


def test_summary_marks_a_metric_whose_parent_spread_reaches_half_its_bound():
    # item_cost_mean's bound is 0.2: a parent IQR of 10% of its median or
    # more leaves no room to resolve it; ok_frac does not move; a metric
    # without a bound is never marked.
    runs = _runs([
        ((30.0, 0.99, 0.01), (30.0, 0.99, 0.01)),
        ((33.0, 0.99, 0.01), (30.0, 0.99, 0.02)),
        ((40.0, 0.99, 0.01), (30.0, 0.99, 0.03)),
    ])
    out = tool.summarize(runs, SPEC)
    cost = out["metrics"]["item_cost_mean"]
    assert cost["parent_iqr"] == 5.0 and cost["parent_quartiles"][1] == 33.0
    assert cost["unresolved"] is True  # 2 * 5.0 >= 0.2 * 33
    assert out["metrics"]["ok_frac"]["unresolved"] is False  # no spread
    assert "unresolved" not in out["metrics"]["poly.self_s"]
    narrow = tool.summarize(_runs([((32.0, 0.99, 0.01), (30.0, 0.99, 0.01)),
                                   ((33.0, 0.99, 0.01), (30.0, 0.99, 0.01)),
                                   ((34.0, 0.99, 0.01), (30.0, 0.99, 0.01))]), SPEC)
    assert narrow["metrics"]["item_cost_mean"]["unresolved"] is False  # 2 * 1.0 < 6.6
