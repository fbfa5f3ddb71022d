import math
from fractions import Fraction

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expmkit import (
    EXP_COEFFS,
    MAX_SCALING,
    PS_TABLES,
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    eval_low_order,
    eval_t8,
    eval_t15p,
    frobenius_norm,
    identity,
    mat_mul,
    one_norm,
    phi1_coeffs,
    poly_reference,
    ps_eval,
    ps_shape,
    relative_error,
    sastre_budget,
    scale_pow2,
    scaled_taylor_coeffs,
    taylor_coeffs_exp,
)
from expmkit import engine, poly
from expmkit.poly import _t15p_coeffs


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
    ps_eval(taylor_coeffs_exp(2), [identity(3)], MulLedger())
    assert ps_shape.cache_info().currsize == 1
    assert ps_shape(2) == ps_shape(2) and ps_shape.cache_info().hits == 2
    with pytest.raises(TypeError):  # 2.0 shares no entry with 2
        ps_shape(2.0)


@pytest.mark.parametrize("m", [1, 6])
def test_ps_eval_result_is_binary64_whatever_the_coefficients(m):
    A = Matrix(np.random.default_rng(m).uniform(-0.2, 0.2, (4, 4)))
    with pytest.raises(MatrixError):  # complex is no real number
        ps_eval([1.0, 1j] + [0.5] * (m - 1), [A], MulLedger())
    coeffs = [np.longdouble(1) / (i + 3) for i in range(m + 1)]
    out = ps_eval(coeffs, [A], MulLedger())
    assert out.a.dtype == np.float64 and out.n == 4
    assert np.allclose(out.a, ps_eval([float(c) for c in coeffs], [A], MulLedger()).a,
                       rtol=1e-15, atol=1e-16)


def test_ps_eval_rounds_the_coefficients_into_binary64_once():
    # Into the table, before any sum: the block is then binary64 throughout.
    c0, c1 = np.longdouble(1) / 3, np.longdouble(2) / 3
    table = poly._ps_table([c0, c1])
    assert table.table.dtype == np.float64 and table.table.tolist() == [[np.float64(c1)]]
    assert float(table.diag[0]) == np.float64(c0)
    want = np.float64(5.0) * np.float64(c1) + np.float64(c0)
    out = ps_eval([c0, c1], [Matrix([[5.0]])], MulLedger())
    assert out.a.dtype == np.float64 and out.a[0, 0] == want
    # Text and booleans are refused at every order, as complex is;
    # [True, True] would otherwise give I + A.
    for coeffs in (["1", 0.5], [1j], [True, True], np.ones(3, bool)):
        with pytest.raises(MatrixError):
            ps_eval(coeffs, [Matrix([[5.0]])], MulLedger())
    # An exact rational is rounded once too, as poly_reference rounds it.
    out = ps_eval([Fraction(1, 3)], [Matrix([[5.0]])], MulLedger())
    assert out.a[0, 0] == float(Fraction(1, 3))


@pytest.mark.parametrize("flag", [True, np.True_])
def test_ps_eval_and_its_reference_refuse_a_boolean_among_floats(flag):
    A = Matrix([[2.0]])
    for coeffs in ([1.0, flag], [flag, 0.5, 0.25]):
        with pytest.raises(MatrixError, match="coefficients must be real numbers"):
            ps_eval(coeffs, [A], MulLedger())
        with pytest.raises(MatrixError, match="coefficients must be real numbers"):
            poly_reference(A, coeffs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_coefficient_is_refused_where_it_enters(bad):
    A = Matrix([[2.0]])
    for coeffs in ([bad, 1.0], np.array([1.0, 0.5, bad])):
        with pytest.raises(NonFiniteError, match="coefficients must be finite"):
            ps_eval(coeffs, [A], MulLedger())
        with pytest.raises(NonFiniteError, match="coefficients must be finite"):
            poly_reference(A, coeffs)


@pytest.mark.parametrize("kind", [
    lambda i: Fraction(1, i + 3),
    lambda i: 2 ** 64 + 2 ** 40 * i + 1,  # beyond int64, not binary64 integers
    lambda i: np.float32(1 / (i + 3)),
    lambda i: np.longdouble(1) / (i + 3),
], ids=["Fraction", "int_beyond_int64", "float32", "longdouble"])
@pytest.mark.parametrize("m", [0, 1, 6, 9])
def test_ps_eval_on_exact_and_wide_coefficients_is_ps_eval_on_their_roundings(kind, m):
    A = Matrix(np.random.default_rng(m).uniform(-1e-10, 1e-10, (4, 4)))
    coeffs = [kind(i) for i in range(m + 1)]
    want = ps_eval([float(c) for c in coeffs], [A], MulLedger()).a.tobytes()
    assert ps_eval(coeffs, [A], MulLedger()).a.tobytes() == want
    if not isinstance(coeffs[0], (int, Fraction)):  # a numpy array of them too
        assert ps_eval(np.array(coeffs), [A], MulLedger()).a.tobytes() == want


_U = 2.0 ** -53
_coefficient = st.one_of(
    st.floats(-1e3, 1e3), st.integers(-10 ** 6, 10 ** 6), st.integers(2 ** 63, 2 ** 80),
    st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 1000)),
    st.floats(-1e3, 1e3, width=32).map(np.float32),
    st.floats(-1e3, 1e3).map(lambda x: np.longdouble(x) / 3),
    st.sampled_from([True, np.True_, None, math.nan, math.inf, -math.inf]),
    st.text(max_size=3), st.complex_numbers(max_magnitude=10))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(coeffs=st.lists(_coefficient, min_size=1, max_size=10), seed=st.integers(0, 2 ** 32 - 1))
def test_ps_eval_and_its_reference_accept_and_refuse_the_same_coefficients(coeffs, seed):
    """Both read their coefficients through the one gate: they raise the
    same type, or agree within the summation bound (u times a small
    multiple of m + n, on sum_i |c_i| |A|^i entry by entry)."""
    A = Matrix(np.random.default_rng(seed).uniform(-0.5, 0.5, (3, 3)))
    outcomes = []
    for run in (lambda: ps_eval(coeffs, [A], MulLedger()), lambda: poly_reference(A, coeffs)):
        try:
            outcomes.append(run().a)
        except Exception as exc:  # the raised type is the outcome
            outcomes.append(type(exc))
    got, ref = outcomes
    if isinstance(got, type) or isinstance(ref, type):
        assert got is ref and issubclass(got, MatrixError)
        return
    m = len(coeffs) - 1
    c = [abs(float(x)) for x in coeffs]
    power, bound = np.eye(3), c[0] * np.eye(3)
    for ci in c[1:]:
        power = power @ np.abs(A.a)
        bound += ci * power
    assert (np.abs(got - ref) <= 4 * (m + A.n + 2) * _U * bound).all()


def _ps_table_cases():
    """(cached table, the floats it tabulates) for every table a driver uses."""
    cases = [(poly._ps_coeffs(rung.m, 0), scaled_taylor_coeffs(rung.m, 0)) for rung in PS_TABLES]
    cases += [(poly._ps_coeffs(PS_TABLES[-1].m, s), scaled_taylor_coeffs(PS_TABLES[-1].m, s))
              for s in range(1, MAX_SCALING + 1)]
    cases += [(poly._phi1_coeffs(m), phi1_coeffs(m)) for m in engine.LOWRANK_ORDERS]
    return cases


def test_ps_tables_hold_the_coefficients_zero_padded_and_read_only():
    for table, c in _ps_table_cases():
        m = len(c) - 1
        shape = ps_shape(m)
        j, k = shape.j, shape.k
        assert table.table.shape == (k, j) and table.table.dtype == np.float64
        assert len(table.rows) == len(table.diag) == k
        for r in range(k):
            lo = r * j
            hi = m if r == k - 1 else lo + j - 1
            # c_(lo+1)..c_hi, then +0 up to the row's end
            want = list(c[lo + 1:hi + 1]) + [0.0] * (lo + j - hi)
            row = table.rows[r]
            assert row.tolist() == want and not np.signbit(row).any(), (m, r)
            assert np.shares_memory(row, table.table) and row.flags.c_contiguous
            d = table.diag[r]
            assert d.shape == () and float(d) == c[lo] and not d.flags.writeable
        assert not table.table.flags.writeable
        assert not any(row.flags.writeable for row in table.rows)
    assert poly._ps_coeffs(16, 3) is poly._ps_coeffs(16, 3)
    assert poly._phi1_coeffs(30) is poly._phi1_coeffs(30)


def test_ps_eval_reads_no_stack_row_before_writing_it(monkeypatch):
    # np.empty leaves memory as it was; filled with NaN instead, a row
    # read before it is written (even against a zero coefficient) turns
    # the result to NaN.
    rng = np.random.default_rng(17)
    calls = []
    for n in (1, 3, 8):
        A = Matrix(rng.uniform(-0.3, 0.3, (n, n)))
        for m in (0, 1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 30):
            calls.append(lambda A=A, m=m: ps_eval(taylor_coeffs_exp(m), [A], MulLedger()))
        for norm in (1e-5, 0.02, 0.3, 2.0, 40.0):
            W = Matrix(A.a * (norm / max(one_norm(A), 1e-300)))
            calls.append(lambda W=W: engine.expm(W, 1e-8, "ps").value)
        a1, a2 = rng.uniform(-1, 1, (n, 1)), rng.uniform(-1, 1, (1, n))
        for norm in (1e-5, 0.3, 2.0, 6.0):
            pair = engine.LowRankPair(a1, a2 * (norm / abs((a2 @ a1).item())))
            calls.append(lambda pair=pair: engine.expm_lowrank(pair, 1e-8).value)
    want = [call().a.tobytes() for call in calls]
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float, order="C":
                        np.full(shape, np.nan, dtype=dtype, order=order))
    assert np.isnan(np.empty(2)).all() and empty is not np.empty
    assert [call().a.tobytes() for call in calls] == want


@pytest.mark.parametrize("m,budget", [(2, 1), (4, 2), (6, 3), (9, 4), (12, 5), (16, 6)])
def test_ps_eval_budgets(m, budget):
    led = MulLedger()
    A = Matrix(np.random.default_rng(m).uniform(-0.2, 0.2, (5, 5)))
    ps_eval(taylor_coeffs_exp(m), [A], led)
    assert led.count == budget


def test_ps_eval_degenerate_degrees():
    led = MulLedger()
    out = ps_eval([3.0], [identity(4)], led)
    assert np.array_equal(out.a, 3.0 * np.eye(4))
    out = ps_eval([1.0, 2.0], [Matrix([[5.0]])], led)
    assert out.a[0, 0] == 11.0
    assert led.count == 0
    with pytest.raises(MatrixError):
        ps_eval([], [identity(2)], led)


def test_ps_eval_zero_matrix_gives_identity():
    led = MulLedger()
    out = ps_eval(taylor_coeffs_exp(9), [Matrix(np.zeros((6, 6)))], led)
    assert np.array_equal(out.a, np.eye(6))


def test_ps_eval_scalar_degree_16_matches_e():
    led = MulLedger()
    out = ps_eval(taylor_coeffs_exp(16), [scalar(1.0)], led)
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
    full = ps_eval(taylor_coeffs_exp(12), [A], led_full)
    led_pre = MulLedger()
    powers = [A, mat_mul(A, A, led_pre)]
    pre = ps_eval(taylor_coeffs_exp(12), powers, led_pre)
    assert led_full.count == led_pre.count == 5
    assert np.array_equal(full.a, pre.a)


def test_ps_eval_copies_a_plain_list_into_a_stack_once_per_power():
    # The block sums read the powers as rows of one stack, so a plain list
    # is copied into a new one, each power once and none formed again,
    # and the caller's list keeps its entries, bytes and flags.
    n = 64
    A = Matrix(np.random.default_rng(8).uniform(-0.02, 0.02, (n, n)))
    led = MulLedger()
    a2 = mat_mul(A, A, led)
    given = [A, a2, mat_mul(a2, A, led)]
    before = [(P, P.a.tobytes()) for P in given]
    coeffs = poly._ps_coeffs(9, 0)  # j = 3: the block sums read all three
    want = ps_eval(coeffs, [A], MulLedger()).a.tobytes()
    led = MulLedger()
    tracemalloc.start()
    try:
        out = ps_eval(coeffs, given, led)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The three rows, the block buffer and one Horner product.
    assert peak <= 5 * n * n * 8 + 64 * 1024, peak / (n * n * 8)
    assert led.count == 2 and out.a.tobytes() == want
    assert [(P, P.a.tobytes()) for P in given] == before
    assert not any(P.a.flags.writeable or np.shares_memory(P.a, out.a) for P in given)


def test_ps_eval_matches_horner():
    rng = np.random.default_rng(11)
    for m in (3, 5, 8, 13, 16, 25):
        n = int(rng.integers(2, 33))
        arr = rng.uniform(-1, 1, (n, n))
        arr *= 1.0 / np.abs(arr).sum(axis=0).max()
        A = Matrix(arr)
        coeffs = taylor_coeffs_exp(m)
        led = MulLedger()
        ps = ps_eval(coeffs, [A], led)
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
        eval_low_order([Matrix([[0.7]])], m, led)
        assert led.count == budget

    led = MulLedger()
    assert np.array_equal(eval_low_order([Matrix(np.zeros((3, 3)))], 1, led).a, np.eye(3))
    assert eval_low_order([scalar(2.0)], 2, led).a[0, 0] == 5.0
    out = eval_low_order([scalar(1.0)], 4, led)
    assert abs(out.a[0, 0] - 65.0 / 24.0) < 1e-15
    # the order is checked before any product is charged
    led = MulLedger()
    with pytest.raises(TypeError):
        eval_low_order([scalar(1.0)], 2.0, led)
    with pytest.raises(MatrixError):
        eval_low_order([scalar(1.0)], 3, led)
    assert led.count == 0


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
    out = eval_t8([Matrix(np.zeros((4, 4)))], led)
    assert np.array_equal(out.a, np.eye(4))
    assert led.count == 3


def test_t8_scalar_one():
    led = MulLedger()
    out = eval_t8([scalar(1.0)], led)
    target = exact_taylor(1.0, 8)
    assert abs(out.a[0, 0] - target) <= 5e-13 * target
    assert led.count == 3


def test_t8_scalar_probes():
    for i in range(64):
        x = -2.0 + 4.0 * i / 63
        led = MulLedger()
        got = eval_t8([scalar(x)], led).a[0, 0]
        assert abs(got - exact_taylor(x, 8)) <= 1e-12 * max(1.0, math.exp(x))


def test_t15p_zero_matrix_gives_c16_identity():
    led = MulLedger()
    out = eval_t15p([Matrix(np.zeros((5, 5)))], led)
    assert np.array_equal(out.a, np.eye(5))
    assert led.count == 4


def test_t15p_matches_perturbed_taylor():
    b16 = EXP_COEFFS.b16
    for x in (-2.0, -1.0, 1.0, 2.0):
        led = MulLedger()
        got = eval_t15p([scalar(x)], led).a[0, 0]
        target = float(sum(Fraction(x) ** i / math.factorial(i) for i in range(16))
                       + Fraction(b16) * Fraction(x) ** 16)
        assert abs(got - target) <= 1e-12 * math.exp(x)
        assert led.count == 4


def test_t15p_scalar_probe_grid():
    b16 = EXP_COEFFS.b16
    for i in range(64):
        x = -2.0 + 4.0 * i / 63
        led = MulLedger()
        got = eval_t15p([scalar(x)], led).a[0, 0]
        target = float(sum(Fraction(x) ** i / math.factorial(i) for i in range(16))
                       + Fraction(b16) * Fraction(x) ** 16)
        assert abs(got - target) <= 1e-12 * math.exp(x)


def test_t8_diagonal_consistency():
    d = np.array([-1.5, -0.25, 0.0, 0.8, 2.0])
    led = MulLedger()
    out = eval_t8([Matrix(np.diag(d))], led)
    off = out.a.copy()
    np.fill_diagonal(off, 0.0)
    assert not off.any()
    for i, x in enumerate(d):
        led_i = MulLedger()
        want = eval_t8([scalar(float(x))], led_i).a[0, 0]
        assert abs(out.a[i, i] - want) <= 1e-14 * max(1.0, abs(want))


def test_budget_helpers():
    assert [sastre_budget(m) for m in (1, 2, 4, 8, 15)] == [0, 1, 2, 3, 4]
    with pytest.raises(MatrixError):
        sastre_budget(16)
    with pytest.raises(TypeError):  # an order is an integer, as taylor_coeffs_exp takes it
        sastre_budget(2.0)


# ---------------------------------------------------------------------------
# operands and results of the in-place evaluators (their rounding is pinned
# by tests/test_bit_identity.py)
# ---------------------------------------------------------------------------

def _evaluator_calls(A):
    """(name, call, inputs) for each in-place evaluator; ``inputs`` are the
    Matrix operands the call is handed."""
    led = MulLedger()
    a2 = mat_mul(A, A, led)
    pw = [A, a2, mat_mul(a2, A, led), mat_mul(mat_mul(a2, A, led), A, led)]
    calls = []
    for m in (1, 2, 4):
        calls.append((f"low {m}", lambda m=m: eval_low_order([A], m, led), [A]))
        if m > 1:
            calls.append((f"low {m} a2", lambda m=m: eval_low_order([A, a2], m, led),
                          [A, a2]))
    calls.append(("t8", lambda: eval_t8([A], led), [A]))
    calls.append(("t8 a2", lambda: eval_t8([A, a2], led), [A, a2]))
    calls.append(("t15p", lambda: eval_t15p([A], led), [A]))
    calls.append(("t15p a2", lambda: eval_t15p([A, a2], led), [A, a2]))
    calls.append(("t15p a2 s=3", lambda: eval_t15p([A, a2], led, 3), [A, a2]))
    calls.append(("ps 16 s=3", lambda: ps_eval(scaled_taylor_coeffs(16, 3), pw, led), pw))
    for coeffs in (taylor_coeffs_exp(1), taylor_coeffs_exp(9), taylor_coeffs_exp(16),
                   phi1_coeffs(2), phi1_coeffs(15)):
        m = len(coeffs) - 1
        given_pw = pw[:ps_shape(m).j]
        calls.append((f"ps {m}", lambda c=coeffs: ps_eval(c, [A], led), [A]))
        calls.append((f"ps {m} powers",
                      lambda c=coeffs, g=given_pw: ps_eval(c, g, led),
                      given_pw))
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


# ---------------------------------------------------------------------------
# the power list [A, A^2, ...] every evaluator takes
# ---------------------------------------------------------------------------

# (name, call(powers, ledger)) for every evaluator; the first three need
# no A^2, so a longer list saves them nothing.
_EVALUATORS = [
    ("low 1", lambda pw, led: eval_low_order(pw, 1, led)),
    ("ps 0", lambda pw, led: ps_eval([1.0], pw, led)),
    ("ps 1", lambda pw, led: ps_eval(taylor_coeffs_exp(1), pw, led)),
    ("low 2", lambda pw, led: eval_low_order(pw, 2, led)),
    ("low 4", lambda pw, led: eval_low_order(pw, 4, led)),
    ("t8", eval_t8),
    ("t15p", eval_t15p),
    ("ps 2", lambda pw, led: ps_eval(taylor_coeffs_exp(2), pw, led)),
    ("ps 9", lambda pw, led: ps_eval(taylor_coeffs_exp(9), pw, led)),
    ("ps 16", lambda pw, led: ps_eval(taylor_coeffs_exp(16), pw, led)),
    ("phi1 30", lambda pw, led: ps_eval(phi1_coeffs(30), pw, led)),
]


@pytest.mark.parametrize("name,call", _EVALUATORS[3:], ids=[e[0] for e in _EVALUATORS[3:]])
def test_a_supplied_square_saves_one_product_and_no_bit(name, call):
    A = Matrix(np.random.default_rng(5).uniform(-0.4, 0.4, (7, 7)))
    short, full = [A], [A, mat_mul(A, A, MulLedger())]
    given = list(full)
    led_short, led_full = MulLedger(), MulLedger()
    want = call(short, led_short).a.tobytes()
    assert call(full, led_full).a.tobytes() == want
    assert led_full.count == led_short.count - 1 >= 0
    # The caller's lists keep their length and their very entries.
    assert len(short) == 1 and short[0] is A
    assert len(full) == 2 and all(P is Q for P, Q in zip(full, given))


@pytest.mark.parametrize("name,call", _EVALUATORS, ids=[e[0] for e in _EVALUATORS])
def test_an_empty_power_list_is_refused(name, call):
    led = MulLedger()
    with pytest.raises(MatrixError, match="empty power list"):
        call([], led)
    assert led.count == 0


# ---------------------------------------------------------------------------
# scaling folded into the coefficients (see the module docstring of poly)
# ---------------------------------------------------------------------------

def _powers_of(A, j=4):
    pw = [A]
    while len(pw) < j:
        pw.append(mat_mul(pw[-1], A, MulLedger()))
    return pw


def _copies(pw, s):
    """The rescaled copies 2^(-s*p) A^p that the folded coefficients replace."""
    return [scale_pow2(P, s * p) for p, P in enumerate(pw, 1)]


# Uniform entries at 1-norms 1e-3..1e3 keep every entry of the copies and
# of the folded intermediates normal (or 0) up to s = MAX_SCALING.
_normal_inputs = dict(n=st.integers(1, 6), log10_norm=st.floats(-3.0, 3.0),
                      seed=st.integers(0, 2 ** 32 - 1))


def _uniform(n, log10_norm, seed):
    arr = np.random.default_rng(seed).uniform(-1, 1, (n, n))
    return Matrix(arr * (10.0 ** log10_norm / np.abs(arr).sum(axis=0).max()))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**_normal_inputs)
def test_folded_ps_eval_equals_rescaled_copies(n, log10_norm, seed):
    pw = _powers_of(_uniform(n, log10_norm, seed))
    for m in (rung.m for rung in PS_TABLES):
        for s in range(1, MAX_SCALING + 1):
            led_fold, led_copy = MulLedger(), MulLedger()
            fold = ps_eval(scaled_taylor_coeffs(m, s), pw, led_fold)
            copy = ps_eval(taylor_coeffs_exp(m), _copies(pw, s), led_copy)
            assert fold.a.tobytes() == copy.a.tobytes(), (m, s)
            assert led_fold.count == led_copy.count


@settings(derandomize=True, max_examples=25, deadline=None)
@given(**_normal_inputs)
def test_folded_t15p_equals_rescaled_copies(n, log10_norm, seed):
    pw = _powers_of(_uniform(n, log10_norm, seed), 2)
    for s in range(1, MAX_SCALING + 1):
        fold = eval_t15p(pw, MulLedger(), s)
        copy = eval_t15p(_copies(pw, s), MulLedger())
        assert fold.a.tobytes() == copy.a.tobytes(), s


def test_folding_differs_where_an_entry_leaves_the_normal_range():
    # 2^-20 * 1e-303 is subnormal in the copy B, and the fold's own small
    # intermediates underflow elsewhere, so the tiny corner rounds
    # differently on the two paths; both stay within the accuracy tests'
    # 1e-7 of the double-double polynomial of B.
    s = 20
    pw = _powers_of(Matrix([[1e7, 1e-303], [0.0, 1e7]]))
    t15p = taylor_coeffs_exp(15) + [EXP_COEFFS.b16]
    for coeffs, fold, copy in (
            (taylor_coeffs_exp(16), ps_eval(scaled_taylor_coeffs(16, s), pw, MulLedger()),
             ps_eval(taylor_coeffs_exp(16), _copies(pw, s), MulLedger())),
            (t15p, eval_t15p(pw[:2], MulLedger(), s),
             eval_t15p(_copies(pw[:2], s), MulLedger()))):
        assert (fold.a != copy.a).tolist() == [[False, True], [False, False]]
        ref = poly_reference(pw[0], [math.ldexp(c, -s * i) for i, c in enumerate(coeffs)])
        assert relative_error(fold, ref) <= 1e-7
        assert relative_error(copy, ref) <= 1e-7


def test_folded_coefficients_stay_normal_up_to_the_scaling_cap():
    # The ps top order 16 puts 2^(-16 * MAX_SCALING) on 1/16!, the 15+
    # formula at most 2^(-4 * MAX_SCALING) on c0.  A cap that pushed one
    # into the subnormal range would round it, and fold inexactly.
    top = PS_TABLES[-1].m
    assert top == 16
    for s in range(MAX_SCALING + 1):
        for c, c0 in (*zip(scaled_taylor_coeffs(top, s), taylor_coeffs_exp(top)),
                      *zip(_t15p_coeffs(s), EXP_COEFFS.t15p)):
            # normal, and c0 times a power of two: the same significand
            assert abs(c) >= sys.float_info.min and math.frexp(c)[0] == math.frexp(c0)[0]
    assert _t15p_coeffs(0) == EXP_COEFFS.t15p
    assert list(scaled_taylor_coeffs(9, 0)) == taylor_coeffs_exp(9)


# ---------------------------------------------------------------------------
# cached 0-d coefficients against Python floats, byte for byte
# ---------------------------------------------------------------------------

def _cached_scalars():
    """(cached 0-d array, the Python number it stands for) for every scalar
    that the evaluators and drivers pass to a ufunc."""
    pairs = list(zip(poly._T8, EXP_COEFFS.t8))
    pairs += zip((poly._HALF, poly._QUARTER, poly._THREE, poly._ONE), (0.5, 0.25, 3, 1.0))
    for s in range(MAX_SCALING + 1):
        pairs += zip(_t15p_coeffs(s), (math.ldexp(c, -s * d) for c, d in
                                       zip(EXP_COEFFS.t15p, poly._T15P_DEGREES)))
    # ps_eval's diagonal terms, which its tables hold as 0-d arrays
    for table, c in _ps_table_cases():
        j = table.table.shape[1]
        pairs += zip(table.diag, c[:j * len(table.diag):j], strict=True)
    pairs += ((engine._DIVISORS[k], k) for k in range(2, 16))
    return pairs


def _scalar_operands():
    """A C- and a Fortran-ordered operand holding subnormals, signed zeros,
    2^+-600 and ordinary values."""
    a = np.array([[5e-324, -2.0 ** -1060, 0.0, -0.0],
                  [2.0 ** 600, -(2.0 ** 600), 2.0 ** -600, -(2.0 ** -600)],
                  [1.0, -3.0, 0.1, 2.0 ** -1022],
                  [1e300, -1e-300, 7.5, -0.0]])
    return a, np.asfortranarray(a.T)


def test_cached_scalars_give_the_bytes_of_python_floats():
    # NEP 50 casts a Python float or int to binary64 exactly, so a 0-d
    # float64 array reaches the same operation.  The caches are shared by
    # every call, so they must be read-only.
    pairs = _cached_scalars()
    assert len(pairs) > 450
    with np.errstate(all="ignore"):
        for c, x in pairs:
            assert c.shape == () and c.dtype == np.float64 and not c.flags.writeable
            assert float(c) == x
            for a in _scalar_operands():
                for op in (np.multiply, np.add, np.divide):
                    want = op(a, x)
                    assert op(a, c).tobytes() == want.tobytes(), (op, x)
                    out = np.empty_like(a)
                    assert op(a, c, out=out).tobytes() == want.tobytes(), (op, x)
                    assert out.flags.f_contiguous == a.flags.f_contiguous
