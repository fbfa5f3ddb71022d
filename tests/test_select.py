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
    AlphaBound,
    BoundDomainError,
    ToleranceError,
    alpha_from_cache,
    one_norm,
    remainder_bound_exp,
    remainder_bound_phi,
    select_ps,
    select_sastre,
    zeros,
)


def inv_fact(n):
    return float(Fraction(1, math.factorial(n)))


def diag(norm, n=4):
    return Matrix(np.diag([norm] * n))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_ps_table_structure():
    t = PS_TABLES
    assert t.orders == (1, 2, 4, 6, 9, 12, 16)
    assert t.block_pows == tuple(math.ceil(math.sqrt(m)) for m in t.orders)
    assert all(m == j * k for m, j, k in zip(t.orders, t.block_pows, t.block_counts))
    want = [inv_fact(i) for i in (2, 3, 3, 4, 5, 6, 7, 8, 10, 11, 13, 14, 17, 18)]
    assert list(t.tails) == want


def test_sastre_table_structure():
    t = SASTRE_TABLES
    assert t.orders == (1, 2, 4, 8, 15)
    assert t.block_pows == (1, 2, 2, 2, 2)
    assert t.block_counts == tuple(math.ceil(m / j) for m, j in zip(t.orders, t.block_pows))
    want = [inv_fact(i) for i in (2, 3, 3, 4, 5, 6, 9, 10)]
    want += [abs(inv_fact(16) - EXP_COEFFS.b16), inv_fact(17)]
    assert list(t.tails) == want


def test_lowrank_table_structure():
    t = LOWRANK_TABLES
    assert t.orders == LOWRANK_ORDERS == (1, 2, 4, 8, 15, 16, 20, 25, 30)
    assert t.block_pows == tuple(min(m, 2) for m in t.orders)
    assert t.block_counts == tuple(math.ceil(m / j) for m, j in zip(t.orders, t.block_pows))
    # the shifted series sum_i V^i/(i+1)! leaves 1/(m+2)! and 1/(m+3)!
    want = [inv_fact(m + d) for m in t.orders for d in (2, 3)]
    assert list(t.tails) == want


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_zero_matrix_fast_path():
    for sel in (select_ps, select_sastre):
        plan = sel(zeros(5), 1e-8)
        assert (plan.m, plan.s) == (0, 0)
        assert plan.e1 == plan.e2 == 0.0


def test_ps_diag_norm_one():
    plan = select_ps(diag(1.0), 1e-8)
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
    plan = select_ps(diag(norm), eps)
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
    plan = select_sastre(diag(1e-5), 1e-8)
    assert (plan.m, plan.s) == (1, 0)
    assert plan.e1 == pytest.approx(0.5e-10, rel=1e-12)
    assert plan.e2 == pytest.approx((1e-5) ** 3 / 6, rel=1e-12)


def test_sastre_diag_norm_one():
    plan = select_sastre(diag(1.0), 1e-8)
    assert (plan.m, plan.s) == (15, 0)
    assert plan.e1 == pytest.approx(2.1711086342891295e-14, rel=1e-12)
    assert plan.e2 == pytest.approx(inv_fact(17), rel=1e-12)
    assert sorted(plan.cached_powers) == [1, 2]


def test_sastre_diag_large_norm_scaling():
    eps = 1e-8
    norm = 12.57
    plan = select_sastre(diag(norm), eps)
    assert plan.m == 15
    e1 = abs(inv_fact(16) - EXP_COEFFS.b16) * (norm ** 2) ** 8
    e2 = inv_fact(17) * (norm ** 2) ** 8 * norm
    s = max(math.ceil(math.log2(e1 / eps) / 16), math.ceil(math.log2(e2 / eps) / 17))
    assert s == 3
    assert plan.s == 3


def test_selection_tolerance_floor():
    for sel in (select_ps, select_sastre):
        with pytest.raises(ToleranceError):
            sel(diag(1.0), 2.0 ** -54)
        with pytest.raises(ToleranceError):
            sel(diag(1.0), float("nan"))
        sel(diag(1.0), 2.0 ** -53)  # the floor itself is admissible


def test_scaling_capped_at_20():
    for sel in (select_ps, select_sastre):
        plan = sel(diag(1e30), 1e-8)
        assert plan.s == 20


def test_bare_selectors_take_an_overflowed_norm_without_warning():
    # Both inputs are finite, but their column sums overflow.  The tier-1
    # filter turns a RuntimeWarning into an error, so none may escape.
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 2] = nilpotent[1, 2] = 1e308
    for sel in (select_ps, select_sastre):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sel(Matrix(nilpotent), 1e-8)  # W^2 = 0 ends the series
            assert (plan.m, plan.s, plan.e1, plan.e2) == (2, 0, 0.0, 0.0)
            for big in (1e308, 1e200):  # W^2 overflows, ||W||_1 or not
                with pytest.raises(NonFiniteError):
                    sel(Matrix(np.full((2, 2), big)), 1e-8)


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
        plan = sel(W, 1e-8)
        assert 0 <= plan.s <= MAX_SCALING
        if plan.e1 + plan.e2 <= 1e-8:
            assert plan.s == 0
        if plan.s < MAX_SCALING:
            # the scaled two-term bound itself meets eps, with the least s
            assert scaled(plan, plan.s) <= 1e-8
        if plan.s > 0:
            assert scaled(plan, plan.s - 1) > 1e-8
    assert [sel(W, 1e-8).s for sel, W in cases[:2]] == [1, 1]


def test_norm_halving_never_increases_s():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        W = Matrix(rng.uniform(-1, 1, (n, n)) * 10.0 ** rng.integers(-2, 3))
        for sel in (select_ps, select_sastre):
            s_full = sel(W, 1e-8).s
            s_half = sel(0.5 * W, 1e-8).s
            assert s_half <= s_full


# ---------------------------------------------------------------------------
# closed remainder bounds
# ---------------------------------------------------------------------------

def test_remainder_bound_exp_values():
    assert remainder_bound_exp(0.0, 9) == 0.0
    want = inv_fact(16) * (17.0 / 16.0)
    assert remainder_bound_exp(1.0, 15) == pytest.approx(want, rel=1e-12)
    assert remainder_bound_exp(1.0, 15) == pytest.approx(5.078e-14, rel=1e-3)


def test_remainder_bound_exp_domain():
    with pytest.raises(BoundDomainError):
        remainder_bound_exp(17.0, 15)
    with pytest.raises(BoundDomainError):
        remainder_bound_exp(-0.5, 15)
    remainder_bound_exp(16.999, 15)


def test_remainder_bound_exp_monotonicity():
    alphas = np.linspace(0.1, 10.0, 25)
    vals = [remainder_bound_exp(a, 9) for a in alphas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for alpha in (0.5, 2.0, 5.0):
        by_m = [remainder_bound_exp(alpha, m) for m in (4, 6, 9, 12, 16)]
        assert all(b < a for a, b in zip(by_m, by_m[1:]))


def test_remainder_bound_phi_values():
    assert remainder_bound_phi(0.0, 4) == 0.0
    want = inv_fact(10) * (11.0 / 10.0)
    assert remainder_bound_phi(1.0, 8) == pytest.approx(want, rel=1e-12)
    assert remainder_bound_phi(1.0, 8) == pytest.approx(3.031e-7, rel=1e-3)
    with pytest.raises(BoundDomainError):
        remainder_bound_phi(11.0, 8)


def test_bounds_accept_alpha_bound_objects():
    ab = AlphaBound(p=2, alpha_p=1.0)
    assert remainder_bound_exp(ab, 15) == remainder_bound_exp(1.0, 15)


# ---------------------------------------------------------------------------
# alpha_p from cached norms
# ---------------------------------------------------------------------------

def test_alpha_diag_is_exact():
    plan = select_ps(diag(1.0), 1e-8)
    ab = alpha_from_cache(plan, plan.m, 2)
    assert ab.alpha_p == pytest.approx(1.0, rel=1e-12)


def test_alpha_nilpotent_not_above_norm():
    N = Matrix(np.diag([1.0, 1.0, 1.0], k=1))
    plan = select_sastre(N, 1e-8)
    ab = alpha_from_cache(plan, plan.m, 2)
    assert ab.alpha_p <= one_norm(N) + 1e-15
    # ||N^2||_1 = 1 = ||N||_1^2 here, so no strict gain; a graded nilpotent
    # with ||N^2||_1 < ||N||_1^2 must come out strictly below the norm.
    G = Matrix(np.diag([1.0, 0.25, 1.0], k=1))
    plan_g = select_sastre(G, 1e-8)
    ab_g = alpha_from_cache(plan_g, plan_g.m, 2)
    assert one_norm(plan_g.cached_powers[2]) < one_norm(G) ** 2
    assert ab_g.alpha_p < one_norm(G)


def test_alpha_p_equal_one_includes_first_norm():
    rng = np.random.default_rng(13)
    W = Matrix(rng.uniform(-1, 1, (6, 6)))
    plan = select_ps(W, 1e-8)
    ab = alpha_from_cache(plan, 4, 1)
    assert ab.p == 1
    assert ab.alpha_p <= one_norm(W) + 1e-15


def test_alpha_argument_validation():
    plan = select_ps(diag(1.0), 1e-8)
    with pytest.raises(ValueError):
        alpha_from_cache(plan, 5, 0)
    with pytest.raises(ValueError):
        alpha_from_cache(plan, 5, 7)


def test_alpha_bounds_realized_power_norms():
    # a_k built from cached norms must dominate the true ||W^k||_1.
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        W = Matrix(rng.uniform(-1, 1, (n, n)))
        plan = select_ps(W, 1e-8)
        m = plan.m if plan.m >= 2 else 2
        ab = alpha_from_cache(plan, m, 2)
        k = m + 1
        true_norm = one_norm(Matrix(np.linalg.matrix_power(W.a, k)))
        assert true_norm <= ab.alpha_p ** k * (1 + 1e-12) + 1e-300
