import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from expmkit import (
    EXP_COEFFS,
    LOWRANK_ORDERS,
    LOWRANK_TABLES,
    MAX_SCALING,
    Matrix,
    MulLedger,
    NonFiniteError,
    PS_TABLES,
    SASTRE_TABLES,
    ToleranceError,
    engine,
    expm,
    select,
    select_ps,
    select_sastre,
    squaring,
)
from expmkit.matrix import _wrap
from expmkit.select import check_tolerance


def inv_fact(n):
    return float(Fraction(1, math.factorial(n)))


def diag(norm, n=4):
    return Matrix(np.diag([norm] * n))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _log_tails(ladder):
    return [c for rung in ladder for c in (rung.log_c1, rung.log_c2)]


def test_ps_table_structure():
    t = PS_TABLES
    orders = tuple(r.m for r in t)
    assert orders == (1, 2, 4, 6, 9, 12, 16)
    assert tuple(r.j for r in t) == tuple(math.ceil(math.sqrt(m)) for m in orders)
    assert all(m == j * k for m, j, k, _, _ in t)
    want = [inv_fact(i) for i in (2, 3, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 17, 18)]
    assert _log_tails(t) == [math.log2(c) for c in want]


def test_sastre_table_structure():
    t = SASTRE_TABLES
    assert tuple(r.m for r in t) == (1, 2, 4, 8, 15)
    assert tuple(r.j for r in t) == (1, 2, 2, 2, 2)
    assert all(k == math.ceil(m / j) for m, j, k, _, _ in t)
    want = [inv_fact(i) for i in (2, 3, 3, 4, 5, 6, 9, 10)]
    want += [abs(inv_fact(16) - EXP_COEFFS.b16), inv_fact(17)]
    assert _log_tails(t) == [math.log2(c) for c in want]


def test_lowrank_table_structure():
    t = LOWRANK_TABLES
    orders = tuple(r.m for r in t)
    assert orders == LOWRANK_ORDERS == (1, 2, 4, 8, 15, 16, 20, 25, 30)
    assert tuple(r.j for r in t) == tuple(min(m, 2) for m in orders)
    assert all(k == math.ceil(m / j) for m, j, k, _, _ in t)
    # the shifted series sum_i V^i/(i+1)! leaves 1/(m+2)! and 1/(m+3)!
    want = [inv_fact(m + d) for m in orders for d in (2, 3)]
    assert _log_tails(t) == [math.log2(c) for c in want]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_zero_matrix_fast_path():
    for sel in (select_ps, select_sastre):
        plan = sel(Matrix(np.zeros((5, 5))), 1e-8, MulLedger())
        assert (plan.m, plan.s) == (0, 0)
        assert plan.e1 == plan.e2 == 0.0


def test_ps_diag_norm_one():
    plan = select_ps(diag(1.0), 1e-8, MulLedger())
    assert (plan.m, plan.s) == (12, 0)
    assert plan.e1 == pytest.approx(inv_fact(13), rel=1e-12)
    assert plan.e2 == pytest.approx(inv_fact(14), rel=1e-12)
    assert sorted(plan.cached_powers) == [1, 2, 3, 4]


def test_ps_caches_only_needed_powers():
    # Terminating at order 4 means only W^2 was ever formed.
    led = MulLedger()
    plan = select_ps(diag(0.05), 1e-8, ledger=led)
    assert plan.m == 4 and plan.s == 0
    assert sorted(plan.cached_powers) == [1, 2]
    assert led.count == 1


def test_ps_diag_large_norm_scaling():
    eps = 1e-8
    norm = 12.57
    plan = select_ps(diag(norm), eps, MulLedger())
    assert plan.m == 16
    assert plan.s >= 1
    # independent re-evaluation of the clamp arithmetic
    e1 = inv_fact(17) * (norm ** 4) ** 4 * norm
    e2 = inv_fact(18) * (norm ** 4) ** 4 * norm ** 2
    s = max(math.ceil(math.log2(e1 / eps) / 17), math.ceil(math.log2(e2 / eps) / 18))
    assert plan.s == s
    assert plan.e1 == pytest.approx(e1, rel=1e-9)
    assert plan.e2 == pytest.approx(e2, rel=1e-9)


def test_sastre_tiny_norm():
    plan = select_sastre(diag(1e-5), 1e-8, MulLedger())
    assert (plan.m, plan.s) == (1, 0)
    assert plan.e1 == pytest.approx(0.5e-10, rel=1e-12)
    assert plan.e2 == pytest.approx((1e-5) ** 3 / 6, rel=1e-12)


def test_sastre_diag_norm_one():
    plan = select_sastre(diag(1.0), 1e-8, MulLedger())
    assert (plan.m, plan.s) == (15, 0)
    assert plan.e1 == pytest.approx(2.1711086342891295e-14, rel=1e-12)
    assert plan.e2 == pytest.approx(inv_fact(17), rel=1e-12)
    assert sorted(plan.cached_powers) == [1, 2]


def test_sastre_diag_large_norm_scaling():
    eps = 1e-8
    norm = 12.57
    plan = select_sastre(diag(norm), eps, MulLedger())
    assert plan.m == 15
    e1 = abs(inv_fact(16) - EXP_COEFFS.b16) * (norm ** 2) ** 8
    e2 = inv_fact(17) * (norm ** 2) ** 8 * norm
    s = max(math.ceil(math.log2(e1 / eps) / 16), math.ceil(math.log2(e2 / eps) / 17))
    assert s == 3
    assert plan.s == 3


def test_selection_tolerance_floor():
    for sel in (select_ps, select_sastre):
        with pytest.raises(ToleranceError):
            sel(diag(1.0), 2.0 ** -54, MulLedger())
        with pytest.raises(ToleranceError):
            sel(diag(1.0), float("nan"), MulLedger())
        sel(diag(1.0), 2.0 ** -53, MulLedger())  # the floor itself is admissible
        sel(diag(1.0), math.nextafter(1.0, 0.0), MulLedger())  # and so is the largest eps below 1


@pytest.mark.parametrize("eps, rule", [(math.inf, "not below 1"), (1.0, "not below 1"),
                                       (math.nan, "not a number"),
                                       (-math.inf, "below unit roundoff"),
                                       ("1e-8", "not a number"),
                                       (b"1e-8", "not a number")])
def test_tolerance_outside_unit_interval_rejected(eps, rule):
    # an unbounded eps would let order 1 with no scaling stand for e^W at
    # 1-norm 6, and text is refused, not parsed; the message names the
    # rule that failed
    with pytest.raises(ToleranceError, match=rule):
        check_tolerance(eps)
    with pytest.raises(ToleranceError, match=rule):
        select_ps(Matrix([[1.0, 2.0], [3.0, 4.0]]), eps, MulLedger())


def test_scaling_capped_at_20():
    for sel in (select_ps, select_sastre):
        plan = sel(diag(1e30), 1e-8, MulLedger())
        assert plan.s == 20


def _overflowing_inputs():
    """A nilpotent W whose column sums overflow, and four inputs that
    overflow or are not finite."""
    # Both finite inputs' column sums overflow.  W^2 overflows, ||W||_1
    # or not; or W itself is NaN or Inf, whose NaN 1-norm once read as
    # log2 = -inf, an exact order-1 plan.  The Inf one comes from an
    # unchecked building block; it holds no 0 * inf, so no warning.
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 2] = nilpotent[1, 2] = 1e308
    with np.errstate(over="ignore"):
        inf = squaring(Matrix(np.full((2, 2), 1e200)), 1, MulLedger())
    bad = [Matrix(np.full((2, 2), 1e308)), Matrix(np.full((2, 2), 1e200)),
           _wrap(np.array([[1.0, 2.0], [0.0, 1.0]]) * math.nan), inf]
    return Matrix(nilpotent), bad


def test_bare_selectors_take_an_overflowed_norm_without_warning():
    # The selectors are unguarded building blocks, so they run here under
    # the drivers' np.errstate; inside it, no warning may escape.
    nilpotent, bad = _overflowing_inputs()
    for sel in (select_ps, select_sastre):
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            plan = sel(nilpotent, 1e-8, MulLedger())  # W^2 = 0 ends the series
            assert (plan.m, plan.s, plan.e1, plan.e2) == (2, 0, 0.0, 0.0)
            for W in bad:
                with pytest.raises(NonFiniteError):
                    sel(W, 1e-8, MulLedger())


def test_drivers_take_an_overflowed_norm_without_warning():
    # The guard lives in the drivers: the same inputs through expm, with
    # no np.errstate of the caller's, warn nowhere.
    nilpotent, bad = _overflowing_inputs()
    for scheme in ("ps", "sastre"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = expm(nilpotent, 1e-8, scheme)
            assert res.plan.m == 2 and np.isfinite(res.value.a).all()
            for W in bad:
                with pytest.raises(NonFiniteError):
                    expm(W, 1e-8, scheme)


def test_engine_calls_the_public_selectors():
    # One function per selector: the names the drivers call (and the
    # benchmark tracer wraps) are select's own, with no private twins.
    assert engine.select_ps is select.select_ps
    assert engine.select_sastre is select.select_sastre
    assert not hasattr(select, "_select_ps") and not hasattr(select, "_select_sastre")


def test_early_termination_means_no_scaling():
    # Each 1x1 input misses eps at the top rung by a sum of two terms that
    # are each below eps, so scaling is needed although no single term asks
    # for it.
    cases = [(select_sastre, Matrix([[2.2358]])), (select_ps, Matrix([[2.418]]))]
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        arr = rng.uniform(-1, 1, (n, n)) * 10.0 ** rng.integers(-6, 1)
        W = Matrix(arr)
        cases += [(select_ps, W), (select_sastre, W)]

    def scaled(plan, s):
        return (plan.e1 * 2.0 ** (-s * (plan.m + 1))
                + plan.e2 * 2.0 ** (-s * (plan.m + 2)))

    for sel, W in cases:
        plan = sel(W, 1e-8, MulLedger())
        assert 0 <= plan.s <= MAX_SCALING
        if plan.e1 + plan.e2 <= 1e-8:
            assert plan.s == 0
        if plan.s < MAX_SCALING:
            # the scaled two-term bound itself meets eps, with the least s
            assert scaled(plan, plan.s) <= 1e-8
        if plan.s > 0:
            assert scaled(plan, plan.s - 1) > 1e-8
    assert [sel(W, 1e-8, MulLedger()).s for sel, W in cases[:2]] == [1, 1]


def test_norm_halving_never_increases_s():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        W = Matrix(rng.uniform(-1, 1, (n, n)) * 10.0 ** rng.integers(-2, 3))
        for sel in (select_ps, select_sastre):
            s_full = sel(W, 1e-8, MulLedger()).s
            s_half = sel(Matrix(0.5 * W.a), 1e-8, MulLedger()).s
            assert s_half <= s_full

