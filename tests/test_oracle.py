import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import expmkit
from expmkit import (
    EXP_COEFFS,
    Matrix,
    MatrixError,
    expm_reference,
    frobenius_norm,
    identity,
    mat_mul,
    MulLedger,
    NonFiniteError,
    one_norm,
    poly_reference,
    ps_shape,
    relative_error,
    taylor_coeffs_exp,
)
from expmkit import oracle
from expmkit.oracle import (_cut, _dd_add, _dd_levels, _dd_matmul, _depth_bits, _expm_dd,
                            _slicing, _split_left, _split_right)


def test_zero_gives_identity():
    out = expm_reference(Matrix(np.zeros((4, 4))))
    assert np.array_equal(out.a, np.eye(4))


def test_diag_one_gives_e():
    out = expm_reference(Matrix(np.diag([1.0, 1.0, 1.0])))
    assert np.allclose(out.a.diagonal(), 2.718281828459045, rtol=1e-15, atol=0)
    off = out.a.copy()
    np.fill_diagonal(off, 0.0)
    assert np.abs(off).max() <= 1e-18


def test_rotation_by_pi():
    theta = math.pi
    out = expm_reference(Matrix([[0.0, theta], [-theta, 0.0]]))
    assert np.abs(out.a - np.diag([-1.0, -1.0])).max() <= 1e-13


def test_rotation_general_angle():
    theta = 1.234
    out = expm_reference(Matrix([[0.0, theta], [-theta, 0.0]]))
    want = np.array([[math.cos(theta), math.sin(theta)],
                     [-math.sin(theta), math.cos(theta)]])
    assert np.abs(out.a - want).max() <= 1e-15


def test_nilpotent_analytic():
    N = np.diag([0.7, -0.3, 1.1], k=1)
    out = expm_reference(Matrix(N))
    want = np.eye(4) + N + N @ N / 2 + N @ N @ N / 6
    assert np.abs(out.a - want).max() <= 1e-15


def test_inverse_self_consistency():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 12))
        arr = rng.uniform(-1, 1, (n, n))
        arr *= rng.uniform(0.5, 4.0) / np.abs(arr).sum(axis=0).max()
        prod = expm_reference(Matrix(arr)).a @ expm_reference(Matrix(-1.0 * arr)).a
        rel = np.linalg.norm(prod - np.eye(n)) / math.sqrt(n)
        assert rel <= 1e-13


def test_norm_cap():
    with pytest.raises(MatrixError):
        expm_reference(Matrix([[2.0 ** 65]]))


def test_poly_reference_exact_scalar():
    coeffs = taylor_coeffs_exp(10)
    x = 0.8125  # exactly representable
    out = poly_reference(Matrix([[x]]), coeffs)
    want = float(sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs)))
    assert out.a[0, 0] == pytest.approx(want, rel=1e-16, abs=0)


def test_poly_reference_reads_each_coefficient_as_a_real_number():
    # By the library's one rule for a real number: text is not parsed and
    # a boolean is not 0 or 1, while exact rationals, ints and numpy reals pass.
    A = Matrix([[0.5]])
    for coeffs in (["1", "2"], [True, True], [1.0, np.True_], [1.0, 1j], [np.complex128(1)]):
        with pytest.raises(MatrixError):
            poly_reference(A, coeffs)
    want = poly_reference(A, [1.0, 2.0, 0.25]).a
    for coeffs in ([Fraction(1), 2, np.float32(0.25)],
                   [np.int64(1), np.float64(2), Fraction(1, 4)]):
        assert poly_reference(A, coeffs).a.tobytes() == want.tobytes()


def test_poly_reference_matches_float_horner_loosely():
    rng = np.random.default_rng(4)
    A = Matrix(rng.uniform(-0.4, 0.4, (5, 5)))
    coeffs = taylor_coeffs_exp(8)
    ref = poly_reference(A, coeffs)
    led = MulLedger()
    x = coeffs[-1] * np.eye(5)
    for c in reversed(coeffs[:-1]):
        x = mat_mul(Matrix(x), A, led).a + c * np.eye(5)
    assert frobenius_norm(Matrix(ref.a - x)) / frobenius_norm(ref) <= 1e-14


@pytest.mark.parametrize("call", [
    lambda: expm_reference(Matrix([[710.0]])),  # e^710 is past the binary64 range
    lambda: expm_reference(Matrix([[800.0]])),
    lambda: poly_reference(Matrix([[1e200]]), [1.0, 1.0, 1.0]),
])
def test_reference_overflow_raises_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            call()


def test_reference_squarings_stop_once_the_corner_is_not_finite(monkeypatch):
    # diag(1, 2^20) scales by s = 20.  e^(2^k) passes binary64 near k = 10,
    # while the corner entry stays near e until the NaN of the overflowed
    # entry reaches it: at most two more squarings, then the exit check.
    finite = []
    dd_matmul = oracle._dd_matmul

    def record(ah, al, bh, bl):
        xh, xl = dd_matmul(ah, al, bh, bl)
        finite.append(bool(np.isfinite(xh).all() and np.isfinite(xl).all()))
        return xh, xl

    monkeypatch.setattr(oracle, "_dd_matmul", record)
    A = Matrix(np.diag([1.0, 2.0 ** 20]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            expm_reference(A)
        with pytest.raises(NonFiniteError):  # 2^(20 t) overflows from t = 52 on
            poly_reference(A, [1.0] * 60)
    assert False in finite
    assert len(finite) - 1 - finite.index(False) <= 2
    assert len(finite) < 20


def test_reference_results_are_read_only_and_c_ordered():
    rng = np.random.default_rng(8)
    A = Matrix(np.asfortranarray(rng.uniform(-1.0, 1.0, (5, 5))))
    zero = Matrix(np.zeros((3, 3)))  # degree 0: the identity alone
    for X in (expm_reference(A), expm_reference(Matrix(4.0 * A.a)), expm_reference(zero),
              poly_reference(A, [1.0, 0.5, 0.25]), poly_reference(A, [2.0])):
        assert X.a.flags.c_contiguous and not X.a.flags.writeable
        with pytest.raises(ValueError):
            X.a[0, 0] = 1.0


def test_relative_error_examples():
    rng = np.random.default_rng(9)
    ref = Matrix(rng.uniform(-1, 1, (6, 6)))
    assert relative_error(ref, ref) == 0.0
    assert relative_error(Matrix(2.0 * ref.a), ref) == pytest.approx(1.0, rel=1e-15)
    bump = Matrix(ref.a + 1e-8 * frobenius_norm(ref) / math.sqrt(36) * np.ones((6, 6)))
    assert relative_error(bump, ref) == pytest.approx(1e-8, rel=1e-12)


@pytest.mark.parametrize("exp2", [664, -664])  # entries near 1e200 and 1e-200
def test_relative_error_is_scale_free(exp2):
    # Squared entries past about 1.3e154 overflow and below 1e-162 vanish;
    # tier-1 turns the overflow warning into an error.
    rng = np.random.default_rng(12)
    ref = rng.uniform(-1, 1, (5, 5))
    X = ref * (1.0 + 1e-9 * rng.uniform(-1, 1, (5, 5)))
    want = relative_error(Matrix(X), Matrix(ref))
    assert 1e-11 < want < 1e-9
    got = relative_error(Matrix(np.ldexp(X, exp2)), Matrix(np.ldexp(ref, exp2)))
    assert got == want


def test_relative_error_beyond_binary64_is_inf():
    # The difference's norm past binary64 (from about 1.3e308), or the
    # difference itself: inf, with no OverflowError and no warning, which
    # tier-1 would turn into an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert relative_error(Matrix(np.full((2, 2), 1e308)),
                              Matrix(np.full((2, 2), 1e-300))) == math.inf
        assert relative_error(Matrix([[1.7e308]]), Matrix([[-1.7e308]])) == math.inf


def test_relative_error_guards():
    with pytest.raises(MatrixError):
        relative_error(identity(2), Matrix(np.zeros((2, 2))))
    # but an exponential that underflows to 0 matches a reference that does
    zero = Matrix(np.zeros((2, 2)))
    assert relative_error(zero, zero) == relative_error(Matrix(-zero.a), zero) == 0.0
    with pytest.raises(MatrixError):
        relative_error(identity(2), identity(3))


def test_cross_check_against_scipy():
    # independent route: scipy's Pade scaling-and-squaring; agreement is
    # limited by scipy's own binary64 accuracy, not the reference's
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2718)
    for _ in range(10):
        n = int(rng.integers(2, 24))
        arr = rng.uniform(-1, 1, (n, n))
        arr *= rng.uniform(1e-2, 10.0) / np.abs(arr).sum(axis=0).max()
        ref = expm_reference(Matrix(arr))
        other = scipy_linalg.expm(arr)
        rel = np.linalg.norm(ref.a - other) / np.linalg.norm(other)
        assert rel <= 1e-12


# ---------------------------------------------------------------------------
# double-double products against exact rational arithmetic
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _ref_dd_add(xh, xl, yh, yl):
    """The double-double sum in new arrays."""
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def _dd_pair(rng, n, row_scale=None, col_scale=None):
    """Normalised double-double matrix (|lo| <= ulp(hi)/2), nonzero lo."""
    hi = rng.uniform(-1.0, 1.0, (n, n))
    hi, lo = _two_sum(hi, rng.uniform(-1.0, 1.0, (n, n)) * 2.0 ** -53 * np.abs(hi))
    if row_scale is not None:
        hi, lo = hi * row_scale[:, None], lo * row_scale[:, None]
    if col_scale is not None:
        hi, lo = hi * col_scale[None, :], lo * col_scale[None, :]
    return hi, lo


def _pow2(rng, n):
    return np.ldexp(1.0, rng.integers(-40, 41, n))


def _assert_dd_product_accurate(ah, al, bh, bl):
    n = ah.shape[0]
    ch, cl = _dd_matmul(ah, al, bh, bl)
    a = [[Fraction(ah[i, k]) + Fraction(al[i, k]) for k in range(n)] for i in range(n)]
    b = [[Fraction(bh[k, j]) + Fraction(bl[k, j]) for j in range(n)] for k in range(n)]
    bound = np.abs(ah) @ np.abs(bh)  # |A||B|
    for i in range(n):
        for j in range(n):
            exact = sum(a[i][k] * b[k][j] for k in range(n))
            err = abs(Fraction(ch[i, j]) + Fraction(cl[i, j]) - exact)
            assert err <= Fraction(bound[i, j]) * Fraction(2) ** -104, (n, i, j)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
def test_dd_matmul_matches_fraction_product(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        ah, al = _dd_pair(rng, n, row_scale=_pow2(rng, n))
        bh, bl = _dd_pair(rng, n, col_scale=_pow2(rng, n))
        if n > 1:
            i, j = rng.integers(n, size=2)
            ah[i], al[i] = 0.0, 0.0
            bh[:, j], bl[:, j] = 0.0, 0.0
        _assert_dd_product_accurate(ah, al, bh, bl)
    z = np.zeros((n, n))
    _assert_dd_product_accurate(z, z, bh, bl)
    _assert_dd_product_accurate(ah, al, z, z)
    assert not np.any(_dd_matmul(z, z, z, z))


def test_level_products_exact_at_order_64():
    # 64 is the largest order of the default suite
    n = 64
    width, depth = _slicing(n)
    rng = np.random.default_rng(64)
    ah, al = _dd_pair(rng, n, row_scale=_pow2(rng, n))
    bh, bl = _dd_pair(rng, n, col_scale=_pow2(rng, n))
    # same-signed leading slices make the level sums as large as they get;
    # A's rows and B's columns are cut together, B's through its transpose
    hi = np.concatenate((np.abs(ah), np.abs(bh.T)))
    cut = np.empty((depth + 1, 2 * n, n))
    _cut(hi, np.concatenate((al, bl.T)), width, depth, cut)
    slices = cut[:depth].reshape(depth, 2, n, n)
    # slice p of a row of A (column of B) is an integer times 2^(e - (p+1) w)
    e = np.frexp(np.abs(hi).max(axis=1))[1].reshape(2, n)
    ints = []
    for p in range(depth):
        q = np.ldexp(slices[p], -(e - (p + 1) * width)[:, :, None])
        assert np.array_equal(q, np.trunc(q))
        assert np.abs(q).max() <= 2.0 ** width + 1
        ints.append(q.astype(np.int64))
    for lev in range(depth):
        pairs = [(p, lev - p) for p in range(lev + 1)]
        blas = (np.hstack([slices[p, 0] for p, _ in pairs])
                @ np.vstack([slices[q, 1].T for _, q in pairs]))
        exact = sum(ints[p][0] @ ints[q][1].T for p, q in pairs)
        assert np.abs(exact).max() <= 2 ** 53
        unit = e[0][:, None] + e[1][None, :] - (lev + 2) * width
        assert np.array_equal(blas, np.ldexp(exact.astype(np.float64), unit))


# ---------------------------------------------------------------------------
# the kernels against the two-plane slicing they replaced, byte for byte
# ---------------------------------------------------------------------------

def _ref_split(x, width, depth):
    """Cut x = (hi, lo), or hi alone as x[None], row-wise on one grid."""
    e = np.frexp(np.abs(x[0]).max(axis=-1, keepdims=True))[1]
    slices = np.empty((depth,) + x.shape[1:])
    rems = np.empty_like(slices)
    for p in range(depth):
        sigma = np.ldexp(0.75, e + (53 - (p + 1) * width))
        s = (x + sigma) - sigma
        x = x - s
        np.add.reduce(s, out=slices[p])
        np.add.reduce(x, out=rems[p])
    return slices, rems


def _ref_split_right(bh, bl=None):
    q, c = bh.shape
    width, depth = _slicing(q)
    x = bh.T[None] if bl is None else np.stack((bh.T, bl.T))
    slices, rems = _ref_split(x, width, depth)
    b_col = slices[::-1].transpose(0, 2, 1).reshape(depth * q, c)
    b_rems = rems[::-1].transpose(0, 2, 1).reshape(depth * q, c)
    return b_col, np.concatenate((b_rems, bh))


def _ref_levels(a_row, right):
    """The levels of a split product summed with two_sum, whose operands
    need no order, at the depth of a_row."""
    b_col, b_tail = right
    q = b_tail.shape[0] - b_col.shape[0]
    depth = a_row.shape[1] // q - 1
    ch, cl = a_row @ b_tail[b_tail.shape[0] - (depth + 1) * q:], 0.0
    for lev in reversed(range(depth)):
        level = a_row[:, :(lev + 1) * q] @ b_col[b_col.shape[0] - (lev + 1) * q:]
        ch, err = _two_sum(ch, level)
        cl = cl + err
    return _quick_two_sum(ch, cl)


def _ref_product(ah, al, right, depth=None):
    q = ah.shape[1]
    width, full = _slicing(q)
    depth = full if depth is None else depth
    if depth == 0:
        return _ref_levels(ah, right)
    slices, rems = _ref_split(np.stack((ah, al)), width, depth)
    return _ref_levels(np.hstack((*slices, rems[-1])), right)


def _tight_pair(rng, n, c=None):
    """Normalized (n, c) pair, square by default, with |lo| exactly
    ulp(hi)/2, 2^+-40 row and column scales, and (from order 2) a zero row
    and a zero column."""
    c = n if c is None else c
    hi = rng.uniform(-1.0, 1.0, (n, c)) * _pow2(rng, n)[:, None] * _pow2(rng, c)[None, :]
    lo = np.spacing(np.abs(hi)) / 2 * rng.choice([-1.0, 1.0], (n, c))
    if min(n, c) > 1:
        i, j = rng.integers((n, c))
        hi[i], lo[i], hi[:, j], lo[:, j] = 0.0, 0.0, 0.0, 0.0
    return hi, lo


def _same_bytes(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def _kernel_operands(seed, r, q, c, rounds):
    """``rounds`` tight (r, q) and (q, c) operand pairs drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        yield _tight_pair(rng, r, q) + _tight_pair(rng, q, c)


# Operand shapes (r, q) by (q, c): the square orders n, run as (n, n, n), and
# block-product shapes (k, J) by (J, n^2) with degenerate ones.
_ORDERS = [1, 2, 5, 8, 16, 64, 90]  # d = 4 from order 86 on
_RECT_SHAPES = [(4, 3, 64), (3, 4, 25), (2, 1, 9), (1, 2, 1), (5, 90, 3)]


def _assert_kernels_match_reference_bytes(seed, r, q, c):
    # lo is cut only where its slices can be nonzero; this pins that the
    # skipped cuts change no bit of (hi, lo)
    for ah, al, bh, bl in _kernel_operands(seed, r, q, c, 3):
        right = _ref_split_right(bh, bl)
        assert _same_bytes(_split_right(bh, bl), right)
        assert _same_bytes(_split_right(bh), _ref_split_right(bh))
        assert _same_bytes(_dd_levels(_split_left(ah, al), right), _ref_product(ah, al, right))
        assert _same_bytes(_dd_matmul(ah, al, bh, bl), _ref_product(ah, al, right))
        if r == q == c:
            assert _same_bytes(_dd_matmul(ah, al, ah, al),
                               _ref_product(ah, al, _ref_split_right(ah, al)))


@pytest.mark.parametrize("n", _ORDERS)
def test_kernels_match_two_plane_reference_bytes(n):
    _assert_kernels_match_reference_bytes(500 + n, n, n, n)


@pytest.mark.parametrize("r, q, c", _RECT_SHAPES)
def test_rectangular_kernels_match_two_plane_reference_bytes(r, q, c):
    _assert_kernels_match_reference_bytes(600 + r * q * c, r, q, c)


# ---------------------------------------------------------------------------
# Fast2Sum of each level against two_sum, byte for byte
# ---------------------------------------------------------------------------

def _cancelling(rng, ah, al, bh, bl):
    """Copies of the operands in which entry (0, 0)'s leading level cancels
    to exactly 0 while its lower levels and its tail do not: row 0 of A
    holds v and v + delta, delta below v's leading grid, against 1 and -1
    in column 0 of B, whose other entries are below its leading grid."""
    q = ah.shape[1]
    width = _slicing(q)[0]
    ah, al, bh, bl = (x.copy() for x in (ah, al, bh, bl))
    ah[0] = rng.uniform(-2.0 ** -4, 2.0 ** -4, q)
    ah[0, :2] = 0.75, 0.75 + 0.75 * rng.uniform(0.5, 1.0) * 2.0 ** -(width + 2)
    bh[:, 0] = rng.uniform(-1.0, 1.0, q) * 2.0 ** -(width + 3)
    bh[:2, 0] = 1.0, -1.0
    al[0] = np.spacing(np.abs(ah[0])) / 2 * rng.choice([-1.0, 1.0], q)
    bl[:, 0] = np.spacing(np.abs(bh[:, 0])) / 2 * rng.choice([-1.0, 1.0], q)
    return ah, al, bh, bl


def _assert_levels_match_two_sum_bytes(seed, r, q, c):
    # Each level is added with Fast2Sum, level first, which is exact only
    # because the level's grid is coarser than the running sum's ulp: every
    # depth keeps the bytes of two_sum, on operands with a zero row and a
    # zero column, negated ones and (from q = 2) a cancelling leading level.
    rng = np.random.default_rng(seed)
    full = _slicing(q)[1]
    for ah, al, bh, bl in _kernel_operands(seed, r, q, c, 2):
        cases = [(ah, al, bh, bl), (-ah, -al, bh, bl), (ah, al, -bh, -bl)]
        if q > 1:
            cases.append(_cancelling(rng, ah, al, bh, bl))
            a_row, (b_col, b_tail) = _split_left(*cases[-1][:2]), _split_right(*cases[-1][2:])
            assert a_row[0, :q] @ b_col[-q:, 0] == 0.0  # level 0 of entry (0, 0)
            assert a_row[0, :2 * q] @ b_col[-2 * q:, 0] != 0.0  # level 1
            assert a_row[0] @ b_tail[:, 0] != 0.0  # the tail
        for ah, al, bh, bl in cases:
            right = _split_right(bh, bl)
            for depth in range(full + 1):
                want = _ref_product(ah, al, right, depth)
                assert _same_bytes(_dd_levels(_split_left(ah, al, depth), right), want), depth
                # (hi, lo) written into the caller's arrays, strided as the
                # block product's panels are
                out = np.full((2, r, 2 * c), np.nan)[:, :, ::2]
                _dd_levels(_split_left(ah, al, depth), right, out)
                assert _same_bytes(out, want), depth


@pytest.mark.parametrize("n", _ORDERS)
def test_level_sums_keep_two_sum_bytes_at_every_depth(n):
    _assert_levels_match_two_sum_bytes(1000 + n, n, n, n)


@pytest.mark.parametrize("r, q, c", _RECT_SHAPES)
def test_rectangular_level_sums_keep_two_sum_bytes_at_every_depth(r, q, c):
    _assert_levels_match_two_sum_bytes(1100 + r * q * c, r, q, c)


@pytest.mark.parametrize("r, q, c", [(2, 2, 2), (16, 16, 16), (4, 3, 64)])
def test_a_zero_level_against_a_negative_zero_sum_keeps_lo_positive(r, q, c):
    # Split operands near 2^-540 whose products all underflow.  A sum of
    # negative products that underflow is -0 where the BLAS rounds each
    # fused multiply-add into the result (OpenBLAS's small-matrix kernels;
    # at (64, 256) by (256, 64) it adds into a zeroed result and gives +0),
    # while level 0, whose products are exact zeros, is +0: Fast2Sum's
    # error is then -0 where two_sum's is +0, and the lo sum, which starts
    # at +0, stays +0.
    width, depth = _slicing(q)
    rng = np.random.default_rng(r + q + c)
    a_row = -np.ldexp(rng.uniform(0.5, 1.0, (r, (depth + 1) * q)), -540)
    b_col = np.ldexp(rng.uniform(0.5, 1.0, (depth * q, c)), -540)
    b_col[(depth - 1) * q:] = 0.0  # B_0, the last block
    b_tail = np.ldexp(rng.uniform(0.5, 1.0, ((depth + 1) * q, c)), -540)
    tail, level = a_row @ b_tail, a_row[:, :q] @ b_col[-q:]
    if not np.signbit(tail).all():
        pytest.skip("this BLAS sums products that underflow to +0")
    assert not tail.any() and not level.any() and not np.signbit(level).any()
    got = _dd_levels(a_row, (b_col, b_tail))
    assert _same_bytes(got, _ref_levels(a_row, (b_col, b_tail)))
    assert not np.signbit(got).any()


# ---------------------------------------------------------------------------
# the cut's layouts against the broadcast, interleaved cut, byte for byte
# ---------------------------------------------------------------------------

def _ref_cut(hi, lo, width, depth, slices, rems=None):
    """The cut with an (r, 1) sigma broadcast over each pass."""
    e = np.frexp(np.maximum.reduce(np.abs(hi), axis=1, keepdims=True))[1]
    sigma = np.ldexp(0.75 * 2.0 ** (53 - width), e)
    for p in range(depth):
        s = slices[p]
        np.add(hi, sigma, out=s)
        s -= sigma
        rem = rems[p] if rems is not None else slices[depth] if p == depth - 1 else None
        if lo is None:
            hi = np.subtract(hi, s, out=rem)
        else:
            hi = hi - s
            if (p + 1) * width + 1 > oracle._LO_GRID:
                t = lo + sigma
                t -= sigma
                lo = lo - t
                s += t
            if rem is not None:
                np.add(hi, lo, out=rem)
        if p < depth - 1:
            sigma = sigma * 2.0 ** -width


def _ref_split_left(ah, al, depth=None):
    """The left split that cuts through a_row's interleaved view."""
    r, q = ah.shape
    width, full = _slicing(q)
    depth = full if depth is None else depth
    if depth == 0:
        return ah
    a_row = np.empty((r, depth + 1, q))
    _ref_cut(ah, al, width, depth, a_row.transpose(1, 0, 2))
    return a_row.reshape(r, (depth + 1) * q)


def _ref_cut_right(bh, bl=None):
    """:func:`_split_right` on :func:`_ref_cut`."""
    q, c = bh.shape
    width, depth = _slicing(q)
    b_col = np.empty((depth, q, c))
    b_tail = np.empty((depth + 1, q, c))
    _ref_cut(bh.T, None if bl is None else bl.T, width, depth,
             b_col[::-1].transpose(0, 2, 1), b_tail[depth - 1::-1].transpose(0, 2, 1))
    b_tail[depth] = bh
    return b_col.reshape(depth * q, c), b_tail.reshape((depth + 1) * q, c)


def _assert_layouts_match_broadcast_cut(seed, r, q, c):
    full = _slicing(q)[1]
    for ah, al, bh, bl in _kernel_operands(seed, r, q, c, 2):
        for lo_a, lo_b in ((None, None), (al, bl)):
            assert _same_bytes(_split_right(bh, lo_b), _ref_cut_right(bh, lo_b))
            for depth in range(full + 1):
                a_row = _split_left(ah, lo_a, depth)
                assert a_row.tobytes() == _ref_split_left(ah, lo_a, depth).tobytes(), depth
                assert depth == 0 or a_row.flags.c_contiguous


@pytest.mark.parametrize("n", _ORDERS)
def test_cut_layouts_keep_the_broadcast_cuts_bytes(n):
    _assert_layouts_match_broadcast_cut(1200 + n, n, n, n)


@pytest.mark.parametrize("r, q, c", _RECT_SHAPES)
def test_rectangular_cut_layouts_keep_the_broadcast_cuts_bytes(r, q, c):
    _assert_layouts_match_broadcast_cut(1300 + r * q * c, r, q, c)


def test_a_panel_of_the_block_stack_keeps_the_broadcast_cuts_bytes():
    # A panel of [B; ..; B^J] is a strided view, and so is its transpose,
    # which the right split cuts; sigma follows its layout.
    n, inner = 64, 5
    rng = np.random.default_rng(64)
    pw = np.stack([np.stack(_tight_pair(rng, n)) for _ in range(inner)], axis=1)
    stack = pw.reshape(2, inner, n * n)
    for c in range(0, n * n, oracle._PANEL):
        panel = stack[:, :, c:c + oracle._PANEL]
        assert not panel[0].flags.c_contiguous and not panel[0].flags.f_contiguous
        assert _same_bytes(_split_right(*panel), _ref_cut_right(*panel))
        assert _same_bytes(_split_right(panel[0]), _ref_cut_right(panel[0]))


def test_dd_add_in_place_keeps_the_bytes_of_the_sum_in_new_arrays():
    # Pairs across binary64's range with signed zeros, exact cancellations
    # and lo parts at half an ulp, full-shape as the Horner steps add them
    # and on strided diagonals with a broadcast column, as the identity
    # terms; y is only read.
    rng = np.random.default_rng(77)
    for n in (1, 3, 8, 64):
        xh, xl = _tight_pair(rng, n)
        yh, yl = _tight_pair(rng, n)
        yh[0], yl[0] = -xh[0], -xl[0]
        xh.flat[-1], xl.flat[-1], yh.flat[-1], yl.flat[-1] = -0.0, 0.0, -0.0, -0.0
        y_bytes = yh.tobytes() + yl.tobytes()
        want = _ref_dd_add(xh, xl, yh, yl)
        got = _dd_add(xh.copy(), xl.copy(), yh, yl)
        assert _same_bytes(got, want), n
        assert yh.tobytes() + yl.tobytes() == y_bytes
        blocks = np.stack([np.stack(_tight_pair(rng, n)).reshape(2, n * n) for _ in range(3)], 1)
        eye = np.stack(_tight_pair(rng, 3, 1))
        eye[:, 0] = -blocks[:, 0, :1]
        want = blocks.copy()
        want[:, :, ::n + 1] = _ref_dd_add(*blocks[:, :, ::n + 1], *eye)
        eye_bytes = eye.tobytes()
        _dd_add(*blocks[:, :, ::n + 1], *eye)
        assert blocks.tobytes() == want.tobytes() and eye.tobytes() == eye_bytes, n


def _ints(arr, bits=400):
    """x 2^bits of each entry as a Python int, asserting that it is exact."""
    out = np.empty(arr.shape, dtype=object)
    for idx, x in np.ndenumerate(arr):
        num, den = float(x).as_integer_ratio()
        assert (num << bits) % den == 0
        out[idx] = (num << bits) // den
    return out


def _assert_every_depth_accurate(ah, al, bh, bl):
    """Each depth d = 0 .. D of the kernel within its bound of the exact
    product, and depth 0 the binary64 product of the hi parts."""
    q = ah.shape[1]
    width, full = _slicing(q)
    exact = (_ints(ah) + _ints(al)) @ (_ints(bh) + _ints(bl))  # times 2^800
    row_max, col_max = _ints(np.abs(ah).max(axis=1)), _ints(np.abs(bh).max(axis=0))
    pair_bound = _ints(np.abs(ah)) @ _ints(np.abs(bh))  # |A||B|
    right = _split_right(bh, bl)
    for depth in range(full + 1):
        ch, cl = _dd_levels(_split_left(ah, al, depth), right)
        err = np.abs(((_ints(ch) + _ints(cl)) << 400) - exact)
        # 2^-bits(d) q 2^(e_i + e_j) bounds the levels' error, with the
        # grids 2^e below twice the maxima, which also covers the lo parts
        # that depth 0 drops; the pair's own rounding comes on top, and at
        # full depth it dominates.
        bound = ((np.outer(row_max, col_max) * q) >> (_depth_bits(q, width, depth) - 2)
                 ) + (pair_bound >> 104)
        assert (err <= bound).all(), (q, depth)
        if depth == 0:
            assert _same_bytes((ch, cl), (ah @ bh, np.zeros_like(ch)))


@pytest.mark.parametrize("n", _ORDERS)
def test_kernel_at_every_depth_matches_exact_product(n):
    # one pair from order 64 on: the exact products dominate at n = 90
    for operands in _kernel_operands(800 + n, n, n, n, 2 if n < 64 else 1):
        _assert_every_depth_accurate(*operands)


@pytest.mark.parametrize("r, q, c", _RECT_SHAPES)
def test_rectangular_kernel_at_every_depth_matches_exact_product(r, q, c):
    for operands in _kernel_operands(900 + r * q * c, r, q, c, 2):
        _assert_every_depth_accurate(*operands)


# ---------------------------------------------------------------------------
# the reference exponential against exact rational arithmetic, and its cost
# ---------------------------------------------------------------------------

def _fraction_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _fraction_expm(arr, s):
    """e^A exactly up to a 2^-200 Taylor tail of 2^-s A, squared s times."""
    n = arr.shape[0]
    B = [[Fraction(x) / 2 ** s for x in row] for row in arr]
    b = max(sum(abs(B[i][j]) for i in range(n)) for j in range(n))
    assert b <= 1
    X = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    T = X
    k, tail = 0, Fraction(1)  # tail = b^(k+1)/(k+1)!, and the rest is below 2 tail
    while 2 * tail * b >= Fraction(1, 2 ** 200):
        k += 1
        T = [[t / k for t in row] for row in _fraction_matmul(T, B)]
        X = [[x + t for x, t in zip(xr, tr)] for xr, tr in zip(X, T)]
        tail *= b / (k + 1)
    for _ in range(s):
        X = _fraction_matmul(X, X)
    return X


def _assert_within_2_100(hi, lo, ref, info):
    """||(hi + lo) - ref||_1 <= 2^-100 ||ref||_1, exactly."""
    n = len(ref)
    err = max(sum(abs(Fraction(hi[i, j]) + Fraction(lo[i, j]) - ref[i][j])
                  for i in range(n)) for j in range(n))
    ref_norm = max(sum(abs(ref[i][j]) for i in range(n)) for j in range(n))
    assert err <= ref_norm * Fraction(2) ** -100, info


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reference_matches_exact_rational_exponential(n):
    rng = np.random.default_rng(300 + n)
    cases = [(0.05, 0), (0.2, 2), (0.9, 4)]
    if n == 2:
        cases += [(3.2, 6), (6.4, 7)]  # the exact value squares six and seven times
    for norm, s in cases:
        arr = rng.uniform(-1.0, 1.0, (n, n))
        arr *= norm / np.abs(arr).sum(axis=0).max()
        _assert_within_2_100(*_expm_dd(Matrix(arr)), _fraction_expm(arr, s), (n, s))


def _block_case(kind, rng, n):
    """A matrix of 1-norm one whose block product is a corner case."""
    if kind == "upper":
        # On the second superdiagonal B_pq = 0 (or, at (0, 2), 2^-40 of the
        # rest) while (B^2)_pq is not: a higher power sets the column's grid.
        arr = np.diag(rng.uniform(0.5, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1), k=1)
        if n > 2:
            arr[0, 2] = 2.0 ** -40
    elif kind == "diag":
        arr = np.diag(rng.uniform(-1.0, 1.0, n))
    else:
        arr = rng.uniform(-1.0, 1.0, (n, n))
    return arr / np.abs(arr).sum(axis=0).max()


# The top block holds c_(k-1)j .. c_m: one term past its identity at m = 13
# (j = k = 4), two at m = 10 (j = 4, k = 3), three at m = 27 (j = 6, k = 5)
# and five at m = 29, the largest degree, with J = j - 1 = 5.
@pytest.mark.parametrize("norm, s, m", [(0.005, 0, 10), (0.025, 0, 13), (1.4, 1, 27),
                                        (3.6, 2, 29)])
@pytest.mark.parametrize("kind, n", [("upper", 4), ("diag", 3), ("dense", 3), ("dense", 1)])
def test_reference_blocks_match_exact_rational_exponential(kind, n, norm, s, m):
    # The block product cuts each column of [B; B^2; ..; B^J] on the grid
    # of its largest entry, which comes from a higher power where B_pq = 0.
    arr = norm * _block_case(kind, np.random.default_rng(700 + n), n)
    assert _ps_degree(math.ldexp(one_norm(Matrix(arr)), -s)) == m
    _assert_within_2_100(*_expm_dd(Matrix(arr)), _fraction_expm(arr, s), (kind, n, m))


def _ps_degree(b):
    """Smallest m with b^(m+1)/(m+1)! / (1 - b/(m+2)) <= 2^-106 e^-b."""
    if b == 0.0:
        return 0
    m = 0
    while ((m + 1) * math.log2(b) - math.lgamma(m + 2) / math.log(2)
           - math.log2(1 - b / (m + 2)) > -106 - b * math.log2(math.e)):
        m += 1
    return m


@pytest.fixture
def products(monkeypatch):
    """(rows, inner dimension, columns, left depth, right depth) of each
    ``_dd_levels`` call, in the order made."""
    calls = []
    dd_levels = oracle._dd_levels

    def record(a_row, right, out=None):
        b_col, b_tail = right
        q = b_tail.shape[0] - b_col.shape[0]  # (D + 1) q rows against D q
        calls.append((a_row.shape[0], q, b_tail.shape[1], a_row.shape[1] // q - 1,
                       b_col.shape[0] // q))
        return dd_levels(a_row, right, out)

    monkeypatch.setattr(oracle, "_dd_levels", record)
    return calls


def _square_depths(products, n):
    """(left depth, right depth) of each n-by-n product recorded."""
    return [p[3:] for p in products if p[:3] == (n, n, n)]


def test_reference_cost_is_paterson_stockmeyer(products):
    # One dd product per power B^2 .. B^j, per Horner step in B^j and per
    # squaring: (j - 1) + (k - 1) + s, where term-by-term summation would
    # spend one per Taylor term.  s is the least with ||2^-s A||_1 <= 1.
    rng = np.random.default_rng(17)
    signs = np.where(rng.uniform(size=(4, 4)) < 0.5, -0.25, 0.25)  # 1-norm exactly 1
    cases = [(Matrix(np.zeros((4, 4))), 0, 0), (Matrix(signs), 0, 29),
             (Matrix(4.0 * signs), 2, 29)]
    for norm in (1e-40, 1e-9, 3e-3, 0.05, 0.7, 1.5, 12.8, 1e3):
        arr = rng.uniform(-1.0, 1.0, (6, 6))
        cases.append((Matrix(arr * (norm / np.abs(arr).sum(axis=0).max())), None, None))
    for A, s_want, m_want in cases:
        norm1 = one_norm(A)
        s = max(0, math.ceil(math.log2(norm1))) if norm1 > 0 else 0
        m = _ps_degree(math.ldexp(norm1, -s))
        if s_want is not None:
            assert (s, m) == (s_want, m_want)
        want = (ps_shape(m).mults if m else 0) + s
        products.clear()
        expm_reference(A)
        calls = len(_square_depths(products, A.n))
        assert calls == want <= 9 + s, (norm1, m, s)
        if m_want == 29:  # b = 1, the largest scaled norm
            assert calls == 9 + s


def _product_weights(b, m):
    """log2 of each Taylor product's weight on e^B, in the order made:
    b^p/p! e^b for B^2 .. B^j, then b^((r+1)j)/((r+1)j)! for the Horner
    steps r = k - 2 .. 0."""
    j, k = ps_shape(m).j, ps_shape(m).k

    def log2_term(t):
        return t * math.log2(b) - math.lgamma(t + 1) / math.log(2)

    return ([log2_term(p) + b * math.log2(math.e) for p in range(2, j + 1)]
            + [log2_term((r + 1) * j) for r in range(k - 2, -1, -1)])


def test_reference_products_cut_by_their_weight(products):
    # Powers and Horner steps take the fewest levels that keep their share
    # of the 2^-106 e^-b budget; depth never rises as the weight falls, and
    # the squarings take all levels.
    rng = np.random.default_rng(31)
    for n in (8, 64):
        signs = rng.choice([-1.0, 1.0], (n, n)) / n  # 1-norm exactly 1
        for norm in (1e-9, 2.8e-4, 0.01, 0.3, 1.0, 12.8):
            A = Matrix(norm * signs)
            s = max(0, math.ceil(math.log2(one_norm(A))))
            b = math.ldexp(one_norm(A), -s)
            m = _ps_degree(b)
            products.clear()
            expm_reference(A)
            depths = _square_depths(products, n)
            taylor, squarings = depths[:len(depths) - s], depths[len(depths) - s:]
            assert squarings == [(3, 3)] * s
            weights = _product_weights(b, m)
            assert len(taylor) == len(weights)
            got = [d for d, _ in taylor]
            for (w1, d1), (w2, d2) in itertools.combinations(zip(weights, got), 2):
                assert (d1 - d2) * (w1 - w2) >= 0, (n, norm, weights, got)
            if m == 29:  # b = 1: B^2 and the last Horner step keep every level
                assert taylor[0] == taylor[-1] == (3, 3)
            if n == 8 and norm in (2.8e-4, 0.01, 1.0):
                assert got == {2.8e-4: [2, 1, 0, 1], 0.01: [3, 2, 2, 0, 2],
                               1.0: [3] * 5 + [0, 1, 2, 3]}[norm]


def test_poly_reference_products_keep_every_level(products):
    # poly_reference's coefficients are arbitrary, so no product is cut.
    A = Matrix(np.random.default_rng(37).uniform(-0.3, 0.3, (6, 6)))
    for m in (2, 7, 11, 29):
        products.clear()
        poly_reference(A, taylor_coeffs_exp(m))
        assert _square_depths(products, 6) == [(3, 3)] * ps_shape(m).mults, m


def _fraction_poly(arr, coeffs):
    """sum_i coeffs[i] A^i exactly."""
    n = arr.shape[0]
    A = [[Fraction(x) for x in row] for row in arr]
    X = [[Fraction(0)] * n for _ in range(n)]
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in coeffs:
        X = [[x + Fraction(c) * p for x, p in zip(xr, pr)] for xr, pr in zip(X, P)]
        P = _fraction_matmul(P, A)
    return X


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_reference_matches_exact_rational_polynomial(n, monkeypatch):
    # The (hi, lo) pair behind poly_reference's binary64 result is compared
    # with exact arithmetic, on Taylor coefficients (the sastre 15+ list
    # too) and on the alternating ones of e^-x, which cancel.
    pairs = []
    dd_poly = oracle._dd_poly
    monkeypatch.setattr(oracle, "_dd_poly", lambda *args: pairs.append(dd_poly(*args)) or pairs[-1])
    # Degrees 10 and 13 leave two terms and one term in the top block.
    coeff_lists = [taylor_coeffs_exp(m) for m in (1, 2, 3, 5, 8, 10, 12, 13, 16)]
    coeff_lists.append(taylor_coeffs_exp(15) + [EXP_COEFFS.b16])
    coeff_lists.append([(-1) ** i * c for i, c in enumerate(taylor_coeffs_exp(16))])
    rng = np.random.default_rng(500 + n)
    arrays = [norm * _block_case("dense", rng, n) for norm in (0.05, 0.5, 2.0)]
    if n > 1:
        arrays += [2.0 * _block_case(kind, rng, n) for kind in ("upper", "diag")]
    for arr in arrays:
        for coeffs in coeff_lists:
            out = poly_reference(Matrix(arr), coeffs)
            hi, lo = pairs[-1]
            assert np.array_equal(out.a, hi + lo)
            _assert_within_2_100(hi, lo, _fraction_poly(arr, coeffs),
                                 (one_norm(Matrix(arr)), len(coeffs) - 1))


def test_taylor_table_is_cut_once_per_degree(monkeypatch):
    # expm_reference cuts the (k, J) table of 1/t! pairs once per degree;
    # poly_reference cuts one from the coefficients it is given, so a
    # non-Taylor list of the same degree is not read from that cache.
    tables, pairs = [], []
    split_left, dd_poly = oracle._split_left, oracle._dd_poly
    monkeypatch.setattr(oracle, "_split_left",
                        lambda ah, al, *rest: tables.append(ah.shape) or split_left(ah, al, *rest))
    monkeypatch.setattr(oracle, "_dd_poly", lambda *args: pairs.append(dd_poly(*args)) or pairs[-1])
    oracle._taylor_table.cache_clear()
    n = 3
    arr = 0.9 * _block_case("dense", np.random.default_rng(37), n)  # m = 29: (k, J) = (5, 5)
    for cuts in (1, 0):
        tables.clear()
        expm_reference(Matrix(arr))
        assert [sh for sh in tables if sh != (n, n)] == [(5, 5)] * cuts
    coeffs = [(-1) ** i * c for i, c in enumerate(taylor_coeffs_exp(29))]
    tables.clear()
    out = poly_reference(Matrix(arr), coeffs)
    assert [sh for sh in tables if sh != (n, n)] == [(5, 5)]
    hi, lo = pairs[-1]
    assert np.array_equal(out.a, hi + lo)
    _assert_within_2_100(hi, lo, _fraction_poly(arr, coeffs), 29)


def test_poly_reference_cost_is_paterson_stockmeyer(products):
    # (j - 1) + (k - 1) dd products, where Horner would spend one per degree.
    A = Matrix(np.random.default_rng(19).uniform(-0.1, 0.1, (5, 5)))
    for m in range(1, 17):
        products.clear()
        poly_reference(A, taylor_coeffs_exp(m))
        assert len(_square_depths(products, 5)) == ps_shape(m).mults, m


def test_one_block_product_per_polynomial(products):
    # Besides its (j - 1) + (k - 1) n-by-n products, a call at degree m >= 1
    # sums all k Taylor blocks in one (k, J) by (J, n^2) product, with
    # J = max(m - (k - 1) j, j - 1); n^2 = 25 columns make one panel.
    n = 5
    A = Matrix(np.random.default_rng(23).uniform(-0.1, 0.1, (n, n)))
    for m in range(17):
        products.clear()
        poly_reference(A, taylor_coeffs_exp(m))
        shapes = [p[:3] for p in products]
        if m == 0:
            assert shapes == []
            continue
        shape = ps_shape(m)
        j, k = shape.j, shape.k
        blocks = [sh for sh in shapes if sh[2] == n * n]
        assert blocks == [(k, max(m - (k - 1) * j, j - 1), n * n)], m
        assert len(shapes) == shape.mults + 1, m
    for norm in (1e-9, 0.025, 12.8):  # m = 3, 13 and 28, the last after 4 squarings
        products.clear()
        expm_reference(Matrix(A.a * (norm / one_norm(A))))
        assert sum(p[2] == n * n for p in products) == 1, norm


@pytest.mark.parametrize("panel", [7, 1024])
def test_block_product_panels_agree_with_one_panel(panel, monkeypatch, products):
    # n^2 = 1600 columns of [B; ..; B^J]: 229 panels of 7, the last one
    # ragged, or two of 1024 and 576 against one of 1600.
    n = 40
    rng = np.random.default_rng(29)
    bh = rng.uniform(-1.0, 1.0, (n, n))
    bh /= np.abs(bh).sum(axis=0).max()  # b = 1, m = 29 and J = 5
    table = oracle._taylor_table(29)
    monkeypatch.setattr(oracle, "_PANEL", n * n)
    want = oracle._dd_poly(bh, table)
    monkeypatch.setattr(oracle, "_PANEL", panel)
    products.clear()
    got = oracle._dd_poly(bh, table)
    panels = [p[2] for p in products if p[2] != n]
    assert len(panels) == -(-n * n // panel) and sum(panels) == n * n
    # Each column is cut on its own grid, so panels change no level; the
    # tail's rounding alone could follow BLAS's order of summation.
    diff = np.abs((got[0] - want[0]) + (got[1] - want[1])).sum(axis=0).max()
    assert diff <= 2.0 ** -104 * np.abs(want[0]).sum(axis=0).max()


@pytest.mark.parametrize("norm", [1e-9, 1e-7, 1e-5, 0.025])  # m = 3, 4, 5, 13
def test_reference_does_not_depend_on_memory_layout(norm):
    # Matrix stores a Fortran-ordered input in C order.  A Fortran-ordered
    # array wrapped as is still gives the same bytes: the scaled B that the
    # Taylor blocks start from keeps its layout.
    rng = np.random.default_rng(41)
    arr = rng.uniform(-1.0, 1.0, (5, 5))
    arr *= norm / np.abs(arr).sum(axis=1).max()
    assert Matrix(arr.T).a.flags.c_contiguous
    fortran = Matrix.__new__(Matrix)
    fortran.a = np.asfortranarray(arr.T)
    fortran.n = 5
    assert fortran.a.flags.f_contiguous and not fortran.a.flags.c_contiguous
    want = _expm_dd(Matrix(np.ascontiguousarray(arr.T)))
    assert _same_bytes(_expm_dd(fortran), want)
    assert abs(want[0][0, 0] - 1.0) < 0.1  # the identity term is there
    assert (expm_reference(fortran).a.tobytes()
            == expm_reference(Matrix(arr.T)).a.tobytes())


@pytest.mark.parametrize("package", ["scipy", "concurrent", "multiprocessing"])
def test_import_expmkit_does_not_load_scipy(package):
    src = str(Path(expmkit.__file__).resolve().parents[1])
    code = ("import sys, expmkit; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.strip() == "[]"
