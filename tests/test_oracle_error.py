"""Smoke test of tools/oracle_error.py on a tiny suite."""

import decimal
import math
from fractions import Fraction

import numpy as np
import oracle_error as tool
import pytest

from expmkit import SuiteConfig, oracle


def test_fixed_reference_matches_decimal_exponentials():
    # e^D = diag(e^d) and e^N = I + N + N^2/2 for N nilpotent of index 3,
    # to within 2^-380 of their 1-norms.
    d = [-12.8, -0.7, 1e-3, 3.25]
    got = tool.fixed_expm(np.diag(d))
    with decimal.localcontext(decimal.Context(prec=140)):
        for i, x in enumerate(d):
            want = decimal.Decimal(x).exp() * 2 ** tool.PRECISION
            assert abs(got[i, i] - want) <= want * decimal.Decimal(2) ** -380
    assert not np.any(got[~np.eye(4, dtype=bool)])
    N = np.diag([0.5, -1.25], k=1)
    exact = np.eye(3) + N + N @ N / 2  # dyadic, so exact in binary64
    assert np.abs(tool.fixed_expm(N) - tool.to_fixed(exact)).max() <= 2 ** (tool.PRECISION - 380)


def test_oracle_error_on_a_tiny_suite():
    config = SuiteConfig(eps=1e-8, sizes=(2, 5), kinds=("diag", "random_dense", "rotation_block"),
                         schemes=("ps",), norm_min=2.84e-4, norm_max=12.8, norm_count=3,
                         base_seed=19)
    errors = tool.suite_errors(config.specs())
    assert len(errors) == 3 * 2 * 3
    assert all(-130.0 < e <= tool.THRESHOLD_LOG2 for _, e in errors)
    line = tool.summary("tiny", errors)
    assert line.startswith("tiny: 18 matrices, worst 2^-1")


def test_oracle_error_exit_code(monkeypatch, capsys):
    # Order 8 of one seed passes; a pair moved by 2^-90 of itself fails.
    assert tool.main(["--seeds", "13", "--orders", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok: worst error 2^-10")
    expm_dd = oracle._expm_dd

    def off(W):
        hi, lo = expm_dd(W)
        return hi, lo + math.ldexp(1.0, -90) * hi

    monkeypatch.setattr(oracle, "_expm_dd", off)
    assert tool.main(["--seeds", "13", "--orders", "8"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL: worst error 2^-90")
    assert tool.main(["--seeds", "13", "--orders", "3"]) == 2


@pytest.mark.parametrize("x", [0.0, 1.5, -2.0 ** -1074, 2.0 ** 60 + 2.0 ** 8, -0.1])
def test_to_fixed_is_exact_when_the_grid_holds_the_entry(x):
    assert tool.to_fixed(np.array([x]), 1100)[0] == Fraction(x) * 2 ** 1100
