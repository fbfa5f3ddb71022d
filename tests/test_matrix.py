import math

import numpy as np
import pytest

from expmkit import (
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    check_finite,
    format_matrix,
    frobenius_norm,
    identity,
    mat_mul,
    one_norm,
    parse_matrix,
    scale_pow2,
    zeros,
)


def test_mat_mul_identity():
    led = MulLedger()
    X = Matrix([[2.0, -1.0], [0.5, 3.0]])
    out = mat_mul(identity(2), X, led)
    assert np.array_equal(out.a, X.a)
    assert led.count == 1


def test_mat_mul_hand_arithmetic():
    led = MulLedger()
    A = Matrix([[1.0, 2.0], [3.0, 4.0]])
    B = Matrix([[5.0, 6.0], [7.0, 8.0]])
    C = mat_mul(A, B, led)
    assert C.a.tolist() == [[19.0, 22.0], [43.0, 50.0]]
    assert led.count == 1


def test_mat_mul_zero_annihilates():
    led = MulLedger()
    X = Matrix([[1.0, 2.0], [3.0, 4.0]])
    out = mat_mul(zeros(2), X, led)
    assert not out.a.any()
    assert led.count == 1


def test_mat_mul_dimension_mismatch():
    led = MulLedger()
    with pytest.raises(MatrixError):
        mat_mul(identity(2), identity(3), led)


def test_mat_mul_overflow_surfaces():
    led = MulLedger()
    big = Matrix(np.full((2, 2), 1e200))
    with pytest.raises(NonFiniteError):
        mat_mul(big, big, led)


def test_entrywise_overflow_surfaces_at_the_next_check():
    led = MulLedger()
    with np.errstate(over="ignore"):
        big = Matrix([[1e308, 0.0], [0.0, 1.0]]) * 10.0
    with pytest.raises(NonFiniteError):
        check_finite(big)
    with pytest.raises(NonFiniteError):
        mat_mul(big, identity(2), led)


def test_ledger_counts_products_only():
    led = MulLedger()
    A = Matrix(np.arange(9, dtype=float).reshape(3, 3) / 10)
    for k in range(1, 8):
        _ = one_norm(A)
        _ = frobenius_norm(A)
        _ = A + A
        _ = 3.0 * A
        A = mat_mul(A, A, led)
        assert led.count == k


def test_ledger_merge():
    a, b = MulLedger(), MulLedger(3)
    a.charge()
    a.merge(b)
    assert a.count == 4
    with pytest.raises(ValueError):
        MulLedger(-1)


def test_construction_rejects_bad_shapes_and_values():
    with pytest.raises(MatrixError):
        Matrix([[1.0, 2.0]])
    with pytest.raises(MatrixError):
        Matrix(np.zeros((0, 0)))
    with pytest.raises(NonFiniteError):
        Matrix([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        Matrix([[float("inf"), 0.0], [0.0, 1.0]])


def test_entries_are_read_only():
    A = Matrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        A.a[0, 0] = 5.0


def test_one_norm_examples():
    assert one_norm(Matrix([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert one_norm(identity(7)) == 1.0
    assert one_norm(zeros(5)) == 0.0

    # Bit for bit the method-chain formula, summation order included.
    def chained(A):
        return float(np.abs(A.a).sum(axis=0).max())

    rng = np.random.default_rng(3)
    cases = [Matrix(rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 5))
             for n in (1, 2, 7, 8, 33, 64)]
    cases.append(Matrix([[-0.0, 0.0], [-0.0, -0.0]]))
    cases.append(Matrix(rng.uniform(-1, 1, (5, 5)) * 1e-310))  # subnormals
    for A in cases:
        assert math.copysign(1.0, one_norm(A)) == 1.0
        assert one_norm(A) == chained(A)
    # Finite entries whose column sums overflow: +inf either way.
    big = Matrix(np.full((3, 3), 1e308))
    with np.errstate(over="ignore"):
        assert one_norm(big) == chained(big) == math.inf


def test_frobenius_examples():
    assert frobenius_norm(identity(4)) == 2.0
    assert frobenius_norm(zeros(3)) == 0.0
    assert frobenius_norm(Matrix([[3.0, 4.0], [0.0, 0.0]])) == 5.0


def test_scale_pow2_exactness():
    rng = np.random.default_rng(5)
    A = Matrix(rng.uniform(-3, 3, (6, 6)))
    assert scale_pow2(A, 0) is A
    assert np.array_equal(scale_pow2(identity(4), 3).a, 0.125 * np.eye(4))
    for s in (1, 2, 7, 20):
        assert one_norm(scale_pow2(A, s)) == math.ldexp(one_norm(A), -s)
    with pytest.raises(MatrixError):
        scale_pow2(A, -1)


def test_mat_mul_associative_within_tolerance():
    rng = np.random.default_rng(17)
    for n in (3, 16, 64):
        led = MulLedger()
        A = Matrix(rng.uniform(-1, 1, (n, n)))
        B = Matrix(rng.uniform(-1, 1, (n, n)))
        C = Matrix(rng.uniform(-1, 1, (n, n)))
        left = mat_mul(mat_mul(A, B, led), C, led)
        right = mat_mul(A, mat_mul(B, C, led), led)
        rel = frobenius_norm(left - right) / frobenius_norm(left)
        assert rel <= 1e-12
        assert led.count == 4


def test_one_norm_submultiplicative():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        led = MulLedger()
        A = Matrix(rng.uniform(-2, 2, (n, n)))
        B = Matrix(rng.uniform(-2, 2, (n, n)))
        lhs = one_norm(mat_mul(A, B, led))
        rhs = one_norm(A) * one_norm(B)
        assert lhs <= rhs * (1 + 4 * 2.0 ** -53)


def test_text_round_trip_exact():
    rng = np.random.default_rng(31)
    A = Matrix(rng.uniform(-1, 1, (5, 5)) * 10.0 ** rng.integers(-30, 30, (5, 5)))
    again = parse_matrix(format_matrix(A))
    assert np.array_equal(A.a, again.a)
    text = format_matrix(A)
    assert text.splitlines()[0] == "5"


def test_parse_matrix_errors():
    with pytest.raises(MatrixError):
        parse_matrix("")
    with pytest.raises(MatrixError):
        parse_matrix("x\n1.0\n")
    with pytest.raises(MatrixError):
        parse_matrix("2\n1.0 2.0\n")
    with pytest.raises(MatrixError):
        parse_matrix("2\n1.0 2.0\n3.0\n")
    with pytest.raises(MatrixError):
        parse_matrix("1\nfoo\n")
