import math
from fractions import Fraction

import numpy as np
import pytest

from expmkit import (
    EXP_COEFFS,
    Matrix,
    MatrixError,
    MulLedger,
    eval_low_order,
    eval_t8,
    eval_t15p,
    frobenius_norm,
    identity,
    mat_mul,
    phi1_coeffs,
    ps_eval,
    ps_shape,
    sastre_budget,
    taylor_coeffs_exp,
)


def exact_taylor(x: float, m: int) -> float:
    """Direct scalar summation oracle, exact in rational arithmetic."""
    return float(sum(Fraction(x) ** i / math.factorial(i) for i in range(m + 1)))


def scalar(x: float) -> Matrix:
    return Matrix([[x]])


# ---------------------------------------------------------------------------
# coefficient vectors
# ---------------------------------------------------------------------------

def test_taylor_coeffs_small():
    assert taylor_coeffs_exp(0) == [1.0]
    assert taylor_coeffs_exp(4) == [1.0, 1.0, 0.5, 1 / 6, 1 / 24]


def test_taylor_coeffs_degree_16_tail():
    cs = taylor_coeffs_exp(16)
    assert cs[-1] == float(Fraction(1, 20922789888000))
    assert cs[-1] == 4.779477332387385e-14


def test_taylor_coeffs_range_checks():
    with pytest.raises(MatrixError):
        taylor_coeffs_exp(-1)
    with pytest.raises(MatrixError):
        taylor_coeffs_exp(31)
    with pytest.raises(TypeError):  # not truncated to degree 2
        taylor_coeffs_exp(2.9)


def test_phi1_coeffs():
    assert phi1_coeffs(0) == [1.0]
    assert phi1_coeffs(2) == [1.0, 0.5, 1 / 6]
    assert phi1_coeffs(8)[-1] == float(Fraction(1, math.factorial(9)))


# ---------------------------------------------------------------------------
# Paterson-Stockmeyer
# ---------------------------------------------------------------------------

def test_ps_shape_invariants():
    for m in range(1, 31):
        sh = ps_shape(m)
        assert sh.j == math.ceil(math.sqrt(m))
        assert m <= sh.j * sh.k < m + sh.j


def test_ps_shape_cache_is_bounded_and_typed():
    assert ps_shape.cache_info().maxsize == 64
    ps_shape.cache_clear()
    ps_eval(taylor_coeffs_exp(2), identity(3), MulLedger())
    assert ps_shape.cache_info().currsize == 1
    assert ps_shape(2) == ps_shape(2) and ps_shape.cache_info().hits == 2
    with pytest.raises(TypeError):  # 2.0 shares no entry with 2
        ps_shape(2.0)


@pytest.mark.parametrize("m", [1, 6])
def test_ps_eval_result_is_binary64_whatever_the_coefficients(m):
    A = Matrix(np.random.default_rng(m).uniform(-0.2, 0.2, (4, 4)))
    with pytest.raises(TypeError):  # complex does not cast into float64
        ps_eval([1.0, 1j] + [0.5] * (m - 1), A, MulLedger())
    coeffs = [np.longdouble(1) / (i + 3) for i in range(m + 1)]
    out = ps_eval(coeffs, A, MulLedger())
    assert out.a.dtype == np.float64 and out.n == 4
    assert np.allclose(out.a, ps_eval([float(c) for c in coeffs], A, MulLedger()).a,
                       rtol=1e-15, atol=1e-16)


def test_ps_eval_rounds_each_long_double_step_into_binary64():
    c0, c1 = np.longdouble(1) / 3, np.longdouble(2) / 3
    x = np.float64(np.longdouble(5.0) * c1)  # the block's first write
    want = np.float64(np.longdouble(x) + c0)  # then the diagonal's
    out = ps_eval([c0, c1], Matrix([[5.0]]), MulLedger())
    assert out.a.dtype == np.float64 and out.a[0, 0] == want


@pytest.mark.parametrize("m,budget", [(2, 1), (4, 2), (6, 3), (9, 4), (12, 5), (16, 6)])
def test_ps_eval_budgets(m, budget):
    led = MulLedger()
    A = Matrix(np.random.default_rng(m).uniform(-0.2, 0.2, (5, 5)))
    ps_eval(taylor_coeffs_exp(m), A, led)
    assert led.count == budget


def test_ps_eval_degenerate_degrees():
    led = MulLedger()
    out = ps_eval([3.0], identity(4), led)
    assert np.array_equal(out.a, 3.0 * np.eye(4))
    out = ps_eval([1.0, 2.0], Matrix([[5.0]]), led)
    assert out.a[0, 0] == 11.0
    assert led.count == 0
    with pytest.raises(MatrixError):
        ps_eval([], identity(2), led)


def test_ps_eval_zero_matrix_gives_identity():
    led = MulLedger()
    out = ps_eval(taylor_coeffs_exp(9), Matrix(np.zeros((6, 6))), led)
    assert np.array_equal(out.a, np.eye(6))


def test_ps_eval_scalar_degree_16_matches_e():
    led = MulLedger()
    out = ps_eval(taylor_coeffs_exp(16), scalar(1.0), led)
    target = exact_taylor(1.0, 16)
    assert abs(out.a[0, 0] - target) <= 1e-15 * target
    # the degree-16 truncation alone sits at ~1e-15 relative to e, so the
    # comparison against e carries that plus evaluation rounding
    assert abs(out.a[0, 0] - math.e) <= 2e-15 * math.e
    assert led.count == 6


def test_ps_eval_reuses_supplied_powers():
    rng = np.random.default_rng(3)
    A = Matrix(rng.uniform(-0.3, 0.3, (6, 6)))
    led_full = MulLedger()
    full = ps_eval(taylor_coeffs_exp(12), A, led_full)
    led_pre = MulLedger()
    powers = {1: A, 2: mat_mul(A, A, led_pre)}
    pre = ps_eval(taylor_coeffs_exp(12), A, led_pre, powers=powers)
    assert led_full.count == led_pre.count == 5
    assert np.array_equal(full.a, pre.a)


def test_ps_eval_matches_horner():
    rng = np.random.default_rng(11)
    for m in (3, 5, 8, 13, 16, 25):
        n = int(rng.integers(2, 33))
        arr = rng.uniform(-1, 1, (n, n))
        arr *= 1.0 / np.abs(arr).sum(axis=0).max()
        A = Matrix(arr)
        coeffs = taylor_coeffs_exp(m)
        led = MulLedger()
        ps = ps_eval(coeffs, A, led)
        horner = coeffs[-1] * np.eye(n)
        for c in reversed(coeffs[:-1]):
            horner = horner @ A.a + c * np.eye(n)
        rel = frobenius_norm(Matrix(ps.a - horner)) / frobenius_norm(Matrix(horner))
        assert rel <= 1e-12


# ---------------------------------------------------------------------------
# direct low orders
# ---------------------------------------------------------------------------

def test_low_order_budgets_and_values():
    for m, budget in ((1, 0), (2, 1), (4, 2)):
        led = MulLedger()
        eval_low_order(Matrix([[0.7]]), m, led)
        assert led.count == budget

    led = MulLedger()
    assert np.array_equal(eval_low_order(Matrix(np.zeros((3, 3))), 1, led).a, np.eye(3))
    assert eval_low_order(scalar(2.0), 2, led).a[0, 0] == 5.0
    out = eval_low_order(scalar(1.0), 4, led)
    assert abs(out.a[0, 0] - 65.0 / 24.0) < 1e-15
    with pytest.raises(MatrixError):
        eval_low_order(scalar(1.0), 3, led)


# ---------------------------------------------------------------------------
# order-8 and order-15+ formulas
# ---------------------------------------------------------------------------

def test_t8_coefficients_as_printed():
    c = EXP_COEFFS.t8
    assert c[0] == 4.980119205559973e-3
    assert c[5] == 2.974307204847627e0
    assert len(c) == 6


def test_t15p_coefficients_as_printed():
    c = EXP_COEFFS.t15p
    assert c[0] == 4.018761610201036e-4
    assert c[9] == -5.792361707073261e0
    assert c[12] == -6.331712455883370e1
    assert c[14] == 1.0 and c[15] == 1.0
    assert len(c) == 16


def test_b16_is_fourth_power_and_printed_digits():
    assert EXP_COEFFS.b16 == EXP_COEFFS.t15p[0] ** 4
    assert f"{EXP_COEFFS.b16:.15e}" == "2.608368698098256e-14"


def test_t8_zero_matrix():
    led = MulLedger()
    out = eval_t8(Matrix(np.zeros((4, 4))), led)
    assert np.array_equal(out.a, np.eye(4))
    assert led.count == 3


def test_t8_scalar_one():
    led = MulLedger()
    out = eval_t8(scalar(1.0), led)
    target = exact_taylor(1.0, 8)
    assert abs(out.a[0, 0] - target) <= 5e-13 * target
    assert led.count == 3


def test_t8_scalar_probes():
    for i in range(64):
        x = -2.0 + 4.0 * i / 63
        led = MulLedger()
        got = eval_t8(scalar(x), led).a[0, 0]
        assert abs(got - exact_taylor(x, 8)) <= 1e-12 * max(1.0, math.exp(x))


def test_t15p_zero_matrix_gives_c16_identity():
    led = MulLedger()
    out = eval_t15p(Matrix(np.zeros((5, 5))), led)
    assert np.array_equal(out.a, np.eye(5))
    assert led.count == 4


def test_t15p_matches_perturbed_taylor():
    b16 = EXP_COEFFS.b16
    for x in (-2.0, -1.0, 1.0, 2.0):
        led = MulLedger()
        got = eval_t15p(scalar(x), led).a[0, 0]
        target = float(sum(Fraction(x) ** i / math.factorial(i) for i in range(16))
                       + Fraction(b16) * Fraction(x) ** 16)
        assert abs(got - target) <= 1e-12 * math.exp(x)
        assert led.count == 4


def test_t15p_scalar_probe_grid():
    b16 = EXP_COEFFS.b16
    for i in range(64):
        x = -2.0 + 4.0 * i / 63
        led = MulLedger()
        got = eval_t15p(scalar(x), led).a[0, 0]
        target = float(sum(Fraction(x) ** i / math.factorial(i) for i in range(16))
                       + Fraction(b16) * Fraction(x) ** 16)
        assert abs(got - target) <= 1e-12 * math.exp(x)


def test_t8_diagonal_consistency():
    d = np.array([-1.5, -0.25, 0.0, 0.8, 2.0])
    led = MulLedger()
    out = eval_t8(Matrix(np.diag(d)), led)
    off = out.a.copy()
    np.fill_diagonal(off, 0.0)
    assert not off.any()
    for i, x in enumerate(d):
        led_i = MulLedger()
        want = eval_t8(scalar(float(x)), led_i).a[0, 0]
        assert abs(out.a[i, i] - want) <= 1e-14 * max(1.0, abs(want))


def test_budget_helpers():
    assert [sastre_budget(m) for m in (1, 2, 4, 8, 15)] == [0, 1, 2, 3, 4]
    with pytest.raises(MatrixError):
        sastre_budget(16)


# ---------------------------------------------------------------------------
# operands and results of the in-place evaluators (their rounding is pinned
# by tests/test_bit_identity.py)
# ---------------------------------------------------------------------------

def _evaluator_calls(A):
    """(name, call, inputs) for each in-place evaluator; ``inputs`` are the
    Matrix operands the call is handed."""
    led = MulLedger()
    a2 = mat_mul(A, A, led)
    pw = {1: A, 2: a2, 3: mat_mul(a2, A, led), 4: mat_mul(mat_mul(a2, A, led), A, led)}
    calls = []
    for m in (1, 2, 4):
        calls.append((f"low {m}", lambda m=m: eval_low_order(A, m, led), [A]))
        if m > 1:
            calls.append((f"low {m} a2", lambda m=m: eval_low_order(A, m, led, a2=a2),
                          [A, a2]))
    calls.append(("t8", lambda: eval_t8(A, led), [A]))
    calls.append(("t8 a2", lambda: eval_t8(A, led, a2=a2), [A, a2]))
    calls.append(("t15p", lambda: eval_t15p(A, led), [A]))
    calls.append(("t15p a2", lambda: eval_t15p(A, led, a2=a2), [A, a2]))
    for coeffs in (taylor_coeffs_exp(1), taylor_coeffs_exp(9), taylor_coeffs_exp(16),
                   phi1_coeffs(2), phi1_coeffs(15)):
        m = len(coeffs) - 1
        given_pw = {p: P for p, P in pw.items() if p <= ps_shape(m).j}
        calls.append((f"ps {m}", lambda c=coeffs: ps_eval(c, A, led), [A]))
        calls.append((f"ps {m} powers",
                      lambda c=coeffs, g=given_pw: ps_eval(c, A, led, powers=g),
                      list(given_pw.values())))
    return calls


@pytest.mark.parametrize("n", [1, 6, 16])
def test_evaluators_leave_their_operands_alone_and_own_their_result(n):
    A = Matrix(np.random.default_rng(7 + n).uniform(-0.4, 0.4, (n, n)))
    for name, call, inputs in _evaluator_calls(A):
        before = [X.a.tobytes() for X in inputs]
        out = call().a
        assert [X.a.tobytes() for X in inputs] == before, name
        assert not out.flags.writeable and out.flags.owndata, name
        assert all(not np.shares_memory(out, X.a) for X in inputs), name
        # A second call does not write into the first result.
        first = out.tobytes()
        call()
        assert out.tobytes() == first, name
