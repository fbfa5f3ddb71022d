"""tools/paired_calls.py on reduced flow_small and oracle call sets, with
the working tree's package loaded a second time as the parent."""

import itertools
import json
import math
import shutil
import sys

import numpy as np
import paired_calls as tool
import workloads


def test_a_second_copy_of_the_package_shares_no_module():
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    assert sys.modules["expmkit_twin.matrix"] is twin.matrix
    assert twin.matrix is not tool.expmkit.matrix
    W = tool.expmkit.Matrix([[1.0, 2.0], [0.0, 1.0]])
    X = tool.as_input(twin, W)
    assert type(X) is twin.matrix.Matrix and X.a.tobytes() == W.a.tobytes()


def test_identical_trees_time_every_driver_and_agree_on_every_call():
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    calls = tool.calls_of("flow_small", 3)[::40]
    assert len(calls) == 40  # 1,600 calls, every 40th
    # A call's cost is over one product of the order perfbench divides by.
    wl = workloads.flow_small(3)
    assert [c[3] for c in calls] == [wl.product_order(case) for case in wl.cases[::40]]
    out = tool.compare((twin, tool.expmkit), calls, passes=2, seed=3)
    assert out["calls"] == 40 and out["passes"] == 2
    assert out["differing_calls"] == 0
    assert set(out["drivers"]) == {"sastre", "ps", "baseline", "lowrank"}
    assert sum(d["calls"] for d in out["drivers"].values()) == 40
    for side in (out["overall"], *out["drivers"].values()):
        assert side["parent_cost_mean"] > 0 and side["change_cost_mean"] > 0
        assert math.isfinite(side["ratio_change_over_parent"])
        assert 0 <= side["change_faster"] <= side["calls"]


def test_identical_trees_time_the_oracle_per_order_and_agree_on_every_pair():
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    calls = tool.calls_of("suite_reference", 3)
    assert len(calls) == 300  # the default suite, one call per matrix
    calls = calls[::30]
    out = tool.compare((twin, tool.expmkit), calls, passes=1, seed=3, oracle=True)
    assert out["calls"] == 10 and out["differing_calls"] == 0
    assert set(out["orders"]) == {"n8", "n16", "n32", "n64"} and "drivers" not in out
    assert sum(o["calls"] for o in out["orders"].values()) == 10
    assert math.isfinite(out["overall"]["ratio_change_over_parent"])


def test_an_oracle_call_differs_when_its_pair_does(monkeypatch):
    """The oracle's outcome is the (hi, lo) pair, so a change in lo alone,
    which the binary64 value may round away, counts as a differing call."""
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    expm_dd = twin.oracle._expm_dd

    def nudged(W):
        hi, lo = expm_dd(W)
        return hi, lo + np.spacing(lo)

    monkeypatch.setattr(twin.oracle, "_expm_dd", nudged)
    calls = tool.calls_of("suite_reference", 3)[::100]
    out = tool.compare((twin, tool.expmkit), calls, passes=1, seed=3, oracle=True)
    assert out["differing_calls"] == len(calls) == 3


def test_each_tree_runs_its_own_drivers(monkeypatch):
    """The driver map built for a twin package sends each scheme to the
    twin's driver, and workloads._call to the working tree's, with the
    same arguments."""
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    run_twin = tool.driver_map(twin)
    seen = []
    for package in (twin, tool.expmkit):
        for name in ("expm", "expm_lowrank", "expm_baseline"):
            monkeypatch.setattr(package.engine, name,
                                lambda *args, _tree=package.__name__, _name=name:
                                seen.append((_tree, _name, args)))
    schemes = {case.scheme for case in workloads.flow_small(3).cases}
    assert schemes == {"sastre", "ps", "baseline", "lowrank"}
    W = tool.expmkit.Matrix([[0.5]])
    for scheme in sorted(schemes):
        seen.clear()
        run_twin(W, scheme, 1e-8)
        workloads._call(W, scheme, 1e-8)
        assert [tree for tree, _, _ in seen] == ["expmkit_twin", "expmkit"]
        assert seen[0][1:] == seen[1][1:]


def test_differing_calls_split_into_value_only_and_plan_or_count(monkeypatch):
    """A ps value one ulp off differs in value alone, a sastre count one
    higher in its counts; every other call agrees."""
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    expm = twin.engine.expm

    def nudged(W, eps, scheme):
        res = expm(W, eps, scheme)
        if scheme == "ps":
            return res._replace(value=twin.matrix.Matrix(np.nextafter(res.value.a, np.inf)))
        return res._replace(mults=res.mults + 1)

    monkeypatch.setattr(twin.engine, "expm", nudged)
    calls = tool.calls_of("flow_small", 3)[::40]
    out = tool.compare((twin, tool.expmkit), calls, passes=1, seed=3)
    drivers = out["drivers"]
    ps, sastre = drivers["ps"], drivers["sastre"]
    assert ps["differing_calls"] == ps["value_only_calls"] == ps["calls"] > 0
    assert ps["plan_or_count_calls"] == 0
    assert sastre["differing_calls"] == sastre["plan_or_count_calls"] == sastre["calls"] > 0
    assert sastre["value_only_calls"] == 0
    for name in ("baseline", "lowrank"):
        assert drivers[name]["differing_calls"] == 0
    overall = out["overall"]
    assert out["differing_calls"] == overall["differing_calls"] == ps["calls"] + sastre["calls"]
    assert (overall["value_only_calls"], overall["plan_or_count_calls"]) == \
        (ps["calls"], sastre["calls"])


def test_an_aa_copy_of_the_working_tree_is_timed_beside_every_ratio(monkeypatch):
    """A third copy of the working tree runs in the same passes, and each
    group and the overall summary carry its ratio, ``aa_ratio``."""
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    seen = []
    driver_call = tool.driver_call

    def recording(package):
        call = driver_call(package)

        def timed(W, scheme, eps):
            seen.append(package.__name__)
            return call(W, scheme, eps)

        return timed

    monkeypatch.setattr(tool, "driver_call", recording)
    calls = tool.calls_of("flow_small", 3)[::200]
    out = tool.compare((twin, tool.expmkit), calls, passes=2, seed=3)
    assert out["differing_calls"] == 0
    assert len(seen) == 3 * 2 * len(calls) == 48
    # The six orders in turn: over six calls each tree runs in each place,
    # and right after each other tree, equally often.
    names = ("expmkit_twin", "expmkit", tool.AA_PACKAGE)
    runs = [tuple(seen[k:k + 3]) for k in range(0, 18, 3)]
    assert sorted(runs) == sorted(itertools.permutations(names))
    for place in range(3):
        assert sorted(run[place] for run in runs) == sorted(names * 2)
    for side in (out["overall"], *out["drivers"].values()):
        assert side["aa_cost_mean"] > 0
        assert side["aa_ratio"] == side["change_cost_mean"] / side["aa_cost_mean"]
        assert math.isfinite(side["aa_ratio"])


def test_each_driver_splits_its_calls_by_the_parents_plan_order(monkeypatch):
    """A change to ps values at orders 2 and 4 alone shows as differing
    calls in those two plan orders of ps and in no other; sastre calls
    that the parent refuses at order 15 go last, under ``raised``."""
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    expm = twin.engine.expm

    def nudged(W, eps, scheme):
        res = expm(W, eps, scheme)
        if scheme == "ps" and res.plan.m in (2, 4):
            return res._replace(value=twin.matrix.Matrix(np.nextafter(res.value.a, np.inf)))
        if scheme == "sastre" and res.plan.m == 15:
            raise twin.matrix.NonFiniteError("refused")
        return res

    monkeypatch.setattr(twin.engine, "expm", nudged)
    calls = tool.calls_of("flow_small", 3)[::10]
    out = tool.compare((twin, tool.expmkit), calls, passes=1, seed=3)
    for driver in out["drivers"].values():
        split = driver["plan_orders"]
        assert sum(side["calls"] for side in split.values()) == driver["calls"]
        assert all(side.keys() == driver.keys() - {"plan_orders"} for side in split.values())
        keys = [k for k in split if k != "raised"]
        assert keys == sorted(keys, key=lambda k: int(k[1:]))
    ps = out["drivers"]["ps"]["plan_orders"]
    assert {"m2", "m4", "m16"} <= ps.keys()
    for key, side in ps.items():
        assert side["differing_calls"] == side["value_only_calls"] == \
            (side["calls"] if key in ("m2", "m4") else 0), key
    sastre = out["drivers"]["sastre"]["plan_orders"]
    assert list(sastre)[-1] == "raised" and "m15" not in sastre
    assert sastre["raised"]["differing_calls"] == sastre["raised"]["plan_or_count_calls"] > 0
    assert out["differing_calls"] == \
        ps["m2"]["calls"] + ps["m4"]["calls"] + sastre["raised"]["calls"]


def test_several_seeds_pool_their_calls_into_one_summary(monkeypatch, tmp_path, capsys):
    """``--seed 3 4`` times the calls of both seeds in the same passes and
    lists both seeds; the parent here is a copy of the working tree."""
    def key(call):  # a workload input is compared by its values
        group, eps, W, order = call
        data = (W.a1, W.a2) if isinstance(W, tool.expmkit.engine.LowRankPair) else (W.a,)
        return group, eps, order, b"".join(a.tobytes() for a in data)

    pooled = tool.pooled_calls("flow_small", [3, 4])
    assert list(map(key, pooled)) == \
        list(map(key, tool.calls_of("flow_small", 3) + tool.calls_of("flow_small", 4)))
    calls_of = tool.calls_of
    monkeypatch.setattr(tool, "calls_of", lambda workload, seed: calls_of(workload, seed)[::200])
    monkeypatch.setattr(tool, "extract", lambda rev, dest: shutil.copytree(tool.ROOT / "src",
                                                                             dest / "src"))
    calibrated = []
    calibrate = workloads.calibrate_gemm
    monkeypatch.setattr(workloads, "calibrate_gemm",
                        lambda orders, seed: calibrated.append(seed) or calibrate(orders, seed))
    assert tool.main(["--workload", "flow_small", "--seed", "3", "4", "--passes", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seeds"] == [3, 4] and "seed" not in out
    assert out["calls"] == out["overall"]["calls"] == 16 and out["differing_calls"] == 0
    assert calibrated == [3]
