"""tools/census.py on a small slice of its grid."""

import json
import math

import census as tool
import pytest

import expmkit


def _slice():
    return tool.census(expmkit, tool.KINDS, (4,), tool.norms(4), (0,))


def test_the_census_json_has_its_shape_and_its_counts_add_up():
    out = _slice()
    assert set(out) == {"grid", "inputs", "oracle_failures", "cells", "scipy"}
    assert out["inputs"] == len(tool.KINDS) * 4
    assert out["grid"]["norms"] == [1e-2, 10.0, 1e4, 1e7]
    cells = out["cells"]
    assert [(c["scheme"], c["eps"]) for c in cells] == \
        [(s, e) for s in tool.SCHEMES for e in tool.EPS]
    overflows = sum(out["oracle_failures"].values())
    assert 0 < overflows < out["inputs"]  # diag at 1e4 and 1e7 overflows
    for c in cells:
        assert set(c) == {"scheme", "eps", "calls", "exp_overflows", "failures", "returned",
                          "beyond_eps", "beyond_10eps", "worst", "worst_flagged",
                          "worst_unflagged", "time_median_s"}
        assert c["calls"] == out["inputs"] and c["exp_overflows"] == overflows
        assert c["calls"] == c["exp_overflows"] + sum(c["failures"].values()) + c["returned"]
        for flag in ("flagged", "unflagged"):
            assert 0 <= c["beyond_10eps"][flag] <= c["beyond_eps"][flag]
        assert sum(c["beyond_eps"].values()) <= c["returned"]
        worst = c["worst"]
        assert set(worst) == {"err_over_eps", "kind", "n", "norm", "seed", "m", "s"}
        assert worst in (c["worst_flagged"], c["worst_unflagged"])
        assert c["time_median_s"] > 0
    sp = out["scipy"]
    assert sp["calls"] == out["inputs"] - overflows
    assert 0 <= sp["beyond_2^-53"] <= sp["calls"] - sp["nonfinite"]
    assert sp["err_median"] >= 0 and sp["time_median_s"] > 0
    assert json.loads(json.dumps(out)) == out


def test_the_main_prints_one_json_object(capsys):
    assert tool.main(["--kinds", "diag", "dense_skew", "--sizes", "3", "--norms", "2",
                      "--seeds", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tree"] == "working" and out["inputs"] == 4
    with pytest.raises(SystemExit):
        tool.main(["--norms", "1"])


@pytest.mark.parametrize("kind", tool.KINDS)
def test_the_default_grid_crosses_the_guard_constant_at_every_order(kind):
    c = expmkit.engine.GUARD_NORM
    grid = tool.norms(tool.NORM_COUNT)
    below = max(x for x in grid if x <= c)
    above = min(x for x in grid if x > c)
    for n in tool.SIZES:
        assert expmkit.one_norm(tool.gen_input(expmkit, kind, n, below, 0)) <= c
        assert expmkit.one_norm(tool.gen_input(expmkit, kind, n, above, 0)) > c


def test_the_skew_kind_is_skew_at_its_norm():
    W = tool.gen_input(expmkit, tool.SKEW, 16, 3.0, 1)
    assert (W.a == -W.a.T).all()
    assert math.isclose(expmkit.one_norm(W), 3.0, rel_tol=1e-12)
