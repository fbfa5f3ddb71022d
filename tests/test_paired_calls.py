"""tools/paired_calls.py on a reduced flow_small call set, with the
working tree's package loaded a second time as the parent."""

import importlib.util
import math
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "paired_calls.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("paired_calls", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_second_copy_of_the_package_shares_no_module():
    tool = _load_tool()
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    assert sys.modules["expmkit_twin.matrix"] is twin.matrix
    assert twin.matrix is not tool.expmkit.matrix
    W = tool.expmkit.Matrix([[1.0, 2.0], [0.0, 1.0]])
    X = tool.as_input(twin, W)
    assert type(X) is twin.matrix.Matrix and X.a.tobytes() == W.a.tobytes()


def test_identical_trees_time_every_driver_and_agree_on_every_call():
    tool = _load_tool()
    twin = tool.load_package(tool.ROOT / "src", "expmkit_twin")
    calls = tool.calls_of("flow_small", 3, every=40)
    assert len(calls) == 40  # 1,600 calls, every 40th
    out = tool.compare((twin, tool.expmkit), calls, passes=2, seed=3)
    assert out["calls"] == 40 and out["passes"] == 2
    assert out["differing_calls"] == 0
    assert set(out["drivers"]) == {"sastre", "ps", "baseline", "lowrank"}
    assert sum(d["calls"] for d in out["drivers"].values()) == 40
    for side in (out["overall"], *out["drivers"].values()):
        assert side["parent_cost_mean"] > 0 and side["change_cost_mean"] > 0
        assert math.isfinite(side["ratio_change_over_parent"])
        assert 0 <= side["change_faster"] <= side["calls"]


def test_the_call_map_matches_workloads(monkeypatch):
    """tools/paired_calls.call and perfbench's workloads._call send each
    scheme to the same driver with the same arguments."""
    tool = _load_tool()
    engine = tool.expmkit.engine
    seen = []
    for name in ("expm", "expm_lowrank", "expm_baseline"):
        monkeypatch.setattr(engine, name,
                            lambda *args, _name=name: seen.append((_name, args)))
    schemes = {case.scheme for case in tool.workloads.make("flow_small", 3, "").cases}
    assert schemes == {"sastre", "ps", "baseline", "lowrank"}
    W = tool.expmkit.Matrix([[0.5]])
    for scheme in sorted(schemes):
        seen.clear()
        tool.workloads._call(W, scheme, 1e-8)
        tool.call(tool.expmkit, W, scheme, 1e-8)
        assert len(seen) == 2 and seen[0] == seen[1]
