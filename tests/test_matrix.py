import math

import numpy as np
import pytest

from expmkit import (
    LowRankPair,
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    check_finite,
    expm,
    expm_baseline,
    expm_lowrank,
    format_matrix,
    frobenius_norm,
    identity,
    mat_mul,
    one_norm,
    parse_matrix,
    ps_eval,
    scale_pow2,
    squaring,
)
from expmkit.matrix import _wrap


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
    out = mat_mul(Matrix(np.zeros((2, 2))), X, led)
    assert not out.a.any()
    assert led.count == 1


def test_mat_mul_dimension_mismatch():
    led = MulLedger()
    with pytest.raises(MatrixError):
        mat_mul(identity(2), identity(3), led)


def test_mat_mul_overflow_surfaces():
    # The product is unguarded: it returns the overflowed value, charged
    # once, and the next check raises on it.
    led = MulLedger()
    big = Matrix(np.full((2, 2), 1e200))
    with np.errstate(over="ignore"):
        C = mat_mul(big, big, led)
    assert np.isposinf(C.a).all() and led.count == 1
    with pytest.raises(NonFiniteError):
        check_finite(C)


def test_entrywise_overflow_surfaces_at_the_next_check():
    # An unchecked building block may return an Inf entry; the next check
    # raises on it.
    led = MulLedger()
    with np.errstate(over="ignore"):
        big = squaring(Matrix([[1e308, 0.0], [0.0, 1.0]]), 1, led)
    with pytest.raises(NonFiniteError):
        check_finite(big)
    with np.errstate(invalid="ignore"):
        spread = mat_mul(big, identity(2), led)
    assert led.count == 2
    with pytest.raises(NonFiniteError):
        check_finite(spread)


def test_ledger_counts_products_only():
    led = MulLedger()
    A = Matrix(np.arange(9, dtype=float).reshape(3, 3) / 10)
    for k in range(1, 8):
        _ = one_norm(A)
        _ = frobenius_norm(A)
        _ = scale_pow2(A, 1)
        _ = check_finite(A)
        A = mat_mul(A, A, led)
        assert led.count == k


def test_matrix_has_no_entrywise_algebra():
    # Arithmetic runs on .a; a Matrix holds only finite, checked values.
    A = Matrix([[1e308, 0.0], [0.0, 1.0]])
    for op in (lambda: A * 10.0, lambda: 10.0 * A, lambda: A + A, lambda: A - A,
               lambda: A / 2.0, lambda: -A):
        with pytest.raises(TypeError):
            op()


def test_ledger_starts_at_zero_and_takes_no_count():
    assert MulLedger().count == 0
    with pytest.raises(TypeError):
        MulLedger(5)


def test_construction_rejects_bad_shapes_and_values():
    with pytest.raises(MatrixError):
        Matrix([[1.0, 2.0]])
    with pytest.raises(MatrixError):
        Matrix(np.zeros((0, 0)))
    with pytest.raises(NonFiniteError):
        Matrix([[1.0, float("nan")], [0.0, 1.0]])
    with pytest.raises(NonFiniteError):
        Matrix([[float("inf"), 0.0], [0.0, 1.0]])


def test_construction_refuses_complex_text_and_boolean_input():
    # The float64 cast would drop the imaginary part (e^1 for e^(1+2i)),
    # parse the text or read True as 1; each is refused before it.
    for data in (np.array([[1 + 2j]]), [[1 + 2j]], [["1.5", "2"], ["3", "4"]],
                 np.array([[b"1"]]), np.eye(2, dtype=bool)):
        with pytest.raises(MatrixError, match="real numbers"):
            Matrix(data)
    # Integers too large for int64 arrive as an object array and are kept.
    assert Matrix([[10**30]]).a[0, 0] == 1e30
    assert Matrix(np.eye(2, dtype=np.int32)).a.dtype == np.float64


def test_entries_are_read_only():
    A = Matrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        A.a[0, 0] = 5.0


def test_one_norm_examples():
    assert one_norm(Matrix([[1.0, -2.0], [3.0, 4.0]])) == 6.0
    assert one_norm(identity(7)) == 1.0
    assert one_norm(Matrix(np.zeros((5, 5)))) == 0.0

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


def test_one_norm_is_the_maximum_reduction_on_non_finite_entries():
    # The maximum is read at argmax; it must be the float the second
    # reduction gave, NaN and Inf included (the Matrix constructor rejects
    # such entries, but unchecked temporaries hold them).
    def reduced(a):
        return float(np.maximum.reduce(np.add.reduce(np.abs(a), axis=0)))

    def same(x, y):
        return (math.isnan(x) and math.isnan(y)) or \
            (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))

    rng = np.random.default_rng(15)
    base = rng.uniform(-1.0, 1.0, (4, 4))
    cases = [np.zeros((n, n)) for n in (1, 2, 5)]
    cases += [np.full((n, n), -0.0) for n in (1, 3)]
    cases += [np.array([[v]]) for v in (-3.0, math.nan, math.inf, -math.inf)]
    for i in range(4):
        for j in range(4):
            a = base.copy()
            a[i, j] = math.nan  # a NaN anywhere, the other sums finite
            cases.append(a)
            b = a.copy()
            b[:, (j + 1) % 4] = -math.inf  # and an Inf column beside it
            cases.append(b)
    for j in range(4):
        a = base.copy()
        a[:, j] = math.inf
        cases.append(a)
    a = base.copy()
    a[2, 1] = -math.inf
    cases.append(a)
    for a in cases:
        got = one_norm(_wrap(a))
        assert isinstance(got, float)
        assert same(got, reduced(a)), a


def test_frobenius_examples():
    assert frobenius_norm(identity(4)) == 2.0
    assert frobenius_norm(Matrix(np.zeros((3, 3)))) == 0.0
    assert frobenius_norm(Matrix([[3.0, 4.0], [0.0, 0.0]])) == 5.0
    # squares of entries near 1e200 overflow and near 1e-200 vanish;
    # tier-1 turns the overflow warning into an error
    for exp2 in (664, -664):
        big = Matrix(np.array([[3.0, 4.0], [0.0, 0.0]]) * 2.0 ** exp2)
        assert frobenius_norm(big) == 5.0 * 2.0 ** exp2
    # a norm beyond binary64 is inf, not an OverflowError from scaling back
    assert frobenius_norm(Matrix(np.full((2, 2), 1e308))) == math.inf


def test_scale_pow2_exactness():
    rng = np.random.default_rng(5)
    A = Matrix(rng.uniform(-3, 3, (6, 6)))
    assert scale_pow2(A, 0) is A
    assert np.array_equal(scale_pow2(identity(4), np.int64(3)).a, 0.125 * np.eye(4))
    for s in (1, 2, 7, 20):
        assert one_norm(scale_pow2(A, s)) == math.ldexp(one_norm(A), -s)
    with pytest.raises(MatrixError):
        scale_pow2(A, -1)
    with pytest.raises(TypeError):  # no exact power of two, not truncated to s = 0
        scale_pow2(A, 0.5)


def test_mat_mul_associative_within_tolerance():
    rng = np.random.default_rng(17)
    for n in (3, 16, 64):
        led = MulLedger()
        A = Matrix(rng.uniform(-1, 1, (n, n)))
        B = Matrix(rng.uniform(-1, 1, (n, n)))
        C = Matrix(rng.uniform(-1, 1, (n, n)))
        left = mat_mul(mat_mul(A, B, led), C, led)
        right = mat_mul(A, mat_mul(B, C, led), led)
        rel = frobenius_norm(Matrix(left.a - right.a)) / frobenius_norm(left)
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
    for order in ("0\n", "-1\n"):  # the constructor refuses an empty order
        with pytest.raises(MatrixError):
            parse_matrix(order)


# The charged product calls np.dot on C-ordered square float64 arrays of
# order 2 and up, which costs less per call than the @ operator; the
# expmkit.matrix docstring relies on the two giving the same bytes.  These
# orders and scales pin it, so a numpy or BLAS build where they differ
# fails here.  At order 1, np.dot returns the rounded product itself, -0
# for 0 * -x, where @ adds it to +0; the kernel keeps @ there.
_DOT_ORDERS = tuple(range(1, 71)) + (128, 256)


def _kernel_operands(n, rng):
    """Operand pairs of order n: plain, scaled by 2^600 and 2^-600 in
    every combination (overflow to Inf and NaN, underflow to subnormals
    and zero), with subnormal entries, and with +0 and -0 entries."""
    a, b = rng.uniform(-1.0, 1.0, (2, n, n))
    big, small = np.ldexp(a, 600), np.ldexp(b, -600)
    zeros = b.copy()
    zeros[rng.random((n, n)) < 0.3] = 0.0
    zeros[rng.random((n, n)) < 0.2] = -0.0
    sub = np.ldexp(a, -1060)
    return [(a, b), (big, small), (small, big), (big, np.ldexp(b, 600)),
            (small, np.ldexp(b, -600)), (sub, b), (sub, np.ldexp(b, 600)),
            (zeros, a), (a, zeros), (zeros, sub)]


def test_dot_gives_the_bytes_of_matmul_on_the_products_operands():
    rng = np.random.default_rng(23)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in _DOT_ORDERS:
            for a, b in _kernel_operands(n, rng):
                want = a @ b
                if n > 1:
                    assert np.dot(a, b).tobytes() == want.tobytes(), n
                    assert np.dot(a, a).tobytes() == (a @ a).tobytes(), n
                A, B = _wrap(a), _wrap(b)
                got = mat_mul(A, B, MulLedger())
                assert got.a.tobytes() == want.tobytes(), n
                assert mat_mul(A, A, MulLedger()).a.tobytes() == (a @ a).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7])
def test_check_finite_finds_a_non_finite_entry_at_every_position(n):
    base = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(n * n):
            a = base.copy()
            a.flat[i] = bad
            with pytest.raises(NonFiniteError):
                check_finite(_wrap(a))


def test_check_finite_passes_negative_zero_and_subnormals():
    for entries in ([[-0.0]], [[5e-324]], [[-0.0, 5e-324], [-2.0 ** -1070, 0.0]]):
        A = _wrap(np.array(entries))
        assert check_finite(A) is A


def test_every_matrix_carries_its_order():
    rng = np.random.default_rng(5)
    arr = rng.uniform(-1.0, 1.0, (6, 6))
    W = Matrix(arr)
    big = scale_pow2(Matrix(arr * 64.0), 0)  # scaled and squared by the drivers
    pair = LowRankPair(rng.uniform(-0.5, 0.5, (6, 2)), rng.uniform(-0.5, 0.5, (2, 6)))
    made = [W, Matrix(np.asfortranarray(arr)), Matrix([[2.0]]), identity(4),
            scale_pow2(W, 3), mat_mul(W, W, MulLedger()), squaring(W, 2, MulLedger()),
            ps_eval([2.0], W, MulLedger()), ps_eval([1.0, 1.0, 0.5, 0.25], W, MulLedger()),
            expm_baseline(W, 1e-8).value, expm_baseline(big, 1e-8).value,
            expm_lowrank(pair, 1e-8).value,
            expm(Matrix(np.zeros((3, 3))), 1e-8, "ps").value]
    for scheme in ("ps", "sastre"):
        for X in (W, big):
            made.append(expm(X, 1e-8, scheme).value)
    for M in made:
        assert M.n == M.a.shape[0] == M.a.shape[1], M.a.shape
