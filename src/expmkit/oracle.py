"""Reference exponential in compensated (double-double) arithmetic.

Matrices are carried as (hi, lo) array pairs worth ~106 bits.  The
reference path scales the input until its 1-norm is at most 2^-4, sums
the Taylor series until terms fall 2^-100 below the accumulated sum,
then squares back, all in double-double.  That leaves well over ten
guard digits beyond binary64, enough to adjudicate 1e-8-level
tolerances with several orders of margin.

:func:`poly_reference` evaluates an arbitrary polynomial in the same
arithmetic, so truncation remainders can be measured directly against
the series tail rather than against another binary64 evaluation.

Double-double matrix products run on BLAS through error-free slicing
(Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  Each row
of A and each column of B gets an exponent e, with its hi entries below
2^e, and is cut into d slices of w bits: slice p is the row rounded to
the grid 2^(e - (p+1) w), minus the slices before it.  The cut
s = (r + sigma) - sigma with sigma = 0.75 * 2^(e + beta - p w) and
beta = 53 - w rounds r to the nearest grid point exactly, and r - s is
exact too; hi and lo are cut on the same grid.  A slice entry is
therefore an integer of magnitude at most 2^w + 1 times its grid unit.

Level l gathers the slice pairs (p, l - p).  Their products share one
unit per result entry, and the level is one BLAS call whose inner
dimension is at most d n.  Each product of two slice entries is an
integer below 2^(2w+1) times that unit, so when

    2 w + 1 + ceil(log2(d n)) <= 53

every partial sum is an integer of at most 53 bits: the level is exact
in binary64 in any summation order, with or without FMA.  w is the
largest width that satisfies this (asserted in ``_slicing``).  The
argument needs BLAS to form each entry from the products a_ik b_kj, as
classical multiplication does; a Strassen-type dgemm adds operand
entries before multiplying and would lose exactness.

Everything below level d is sum_p A_p R_(d-p)(B) + R_d(A) B, where R_j
is the remainder after j slices.  It is at most 2^(-d w) of the leading
level and is formed in one more binary64 product (with B's lo part
dropped from the last term, which moves it by less than 2^(-d w - 53));
d is the fewest levels for which its rounding error is below about
2^-106 n max|a_i:| max|b_:j|.  The tail and then the levels, smallest
first, are summed with two_sum into (hi, lo).

Up to order 85, d = 3 and w = 22 to 25: one double-double product costs
d + 1 = 4 BLAS calls worth 10 binary64 products of order n (from order
86 on, d = 4: 5 calls worth 15).  The error bound holds per row of A and
column of B, not per entry, and assumes that nothing underflows or
overflows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, MatrixError, NonFiniteError, frobenius_norm, one_norm

__all__ = [
    "ErrorReport",
    "expm_reference",
    "poly_reference",
    "relative_error",
]

_SPLITTER = 134217729.0  # 2^27 + 1, exact in binary64
_NORM_CAP = 2.0 ** 64
_SCALE_TARGET = 2.0 ** -4
_TERM_CUTOFF = 2.0 ** -100
_DD_BITS = 106


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def _dd_mul(xh, xl, yh, yl):
    ph, pe = _two_prod(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    return _quick_two_sum(ph, pe)


def _slicing(n: int):
    """Slice width w (bits) and number of exact levels d for order n."""
    for depth in itertools.count(1):
        width = (52 - math.ceil(math.log2(depth * n))) // 2
        # The tail's (d+1) n products per entry, each below 2^(-d w) of a
        # leading-level product, round to at most (d+1)^2 n 2^(-d w - 53)
        # of n max|a_i:| max|b_:j|.
        tail_terms = (depth + 1) ** 2 * n
        if depth * width + 53 - math.ceil(math.log2(tail_terms)) >= _DD_BITS:
            break
    assert 2 * width + 1 + math.ceil(math.log2(depth * n)) <= 53
    return width, depth


def _split(x, width: int, depth: int):
    """Cut the double-double matrices x = (hi, lo) row-wise into slices.

    Returns ``(slices, rems)``, each of shape ``(depth,) + x[0].shape``.
    Slice p of a row is an integer of magnitude at most 2^width + 1
    times 2^(e - (p+1) width), where 2^e bounds the row's hi entries;
    ``rems[p]`` is the remainder after p + 1 slices, rounded to binary64.
    """
    e = np.frexp(np.abs(x[0]).max(axis=-1, keepdims=True))[1]
    slices = np.empty((depth,) + x.shape[1:])
    rems = np.empty_like(slices)
    for p in range(depth):
        sigma = np.ldexp(0.75, e + (53 - (p + 1) * width))
        s = (x + sigma) - sigma
        x = x - s
        np.add(s[0], s[1], out=slices[p])
        np.add(x[0], x[1], out=rems[p])
    return slices, rems


def _dd_matmul(ah, al, bh, bl):
    """Double-double product of two (hi, lo) square matrices."""
    n = ah.shape[0]
    width, depth = _slicing(n)
    # B is split through its transpose, i.e. column-wise.
    x = np.stack((ah, bh.T, al, bl.T)).reshape(2, 2, n, n)
    slices, rems = _split(x, width, depth)
    # a_row = [A_0 .. A_d-1  R_d(A)];  b_col = [B_d-1; ..; B_0];
    # b_tail = [R_d(B); ..; R_1(B); hi of B].  Level l is the first l + 1
    # blocks of a_row times the last l + 1 of b_col; the tail is a_row
    # times b_tail.
    a_row = np.concatenate((slices[:, 0], rems[-1:, 0])).transpose(1, 0, 2)
    a_row = a_row.reshape(n, (depth + 1) * n)
    b_col = slices[::-1, 1].transpose(0, 2, 1).reshape(depth * n, n)
    b_rems = rems[::-1, 1].transpose(0, 2, 1).reshape(depth * n, n)
    b_tail = np.concatenate((b_rems, bh))
    ch, cl = a_row @ b_tail, 0.0
    for lev in reversed(range(depth)):
        level = a_row[:, :(lev + 1) * n] @ b_col[(depth - 1 - lev) * n:]
        ch, err = _two_sum(ch, level)
        cl = cl + err
    return _quick_two_sum(ch, cl)


def _dd_inv_int(k: int):
    """Double-double value of 1/k for a positive integer k."""
    hi = 1.0 / k
    p, pe = _two_prod(hi, float(k))
    lo = ((1.0 - p) - pe) / k
    return hi, lo


def expm_reference(A: Matrix) -> Matrix:
    """High-accuracy e^A; at least ~1e-19 relative on well-conditioned
    inputs, i.e. several digits past binary64 roundoff."""
    norm1 = one_norm(A)
    if norm1 > _NORM_CAP:
        raise MatrixError(f"1-norm {norm1:.3g} too large for the reference path")
    s = 0
    while math.ldexp(norm1, -s) > _SCALE_TARGET:
        s += 1
    n = A.n
    bh = np.ldexp(A.a, -s)
    bl = np.zeros((n, n))
    xh = np.eye(n)
    xl = np.zeros((n, n))
    th = np.eye(n)
    tl = np.zeros((n, n))
    for k in range(1, 200):
        th, tl = _dd_matmul(th, tl, bh, bl)
        rh, rl = _dd_inv_int(k)
        th, tl = _dd_mul(th, tl, rh, rl)
        xh, xl = _dd_add(xh, xl, th, tl)
        if np.abs(th).max() <= _TERM_CUTOFF * np.abs(xh).max():
            break
    else:  # pragma: no cover - norm <= 1/16 converges in ~20 terms
        raise ArithmeticError("reference series failed to converge")
    for _ in range(s):
        xh, xl = _dd_matmul(xh, xl, xh, xl)
        if not np.isfinite(xh).all():
            raise NonFiniteError("overflow while squaring the reference value")
    return Matrix(xh + xl)


def poly_reference(A: Matrix, coeffs) -> Matrix:
    """Evaluate sum_i coeffs[i] * A^i by Horner in double-double."""
    if len(coeffs) == 0:
        raise MatrixError("empty coefficient list")
    n = A.n
    ah = A.a.copy()
    al = np.zeros((n, n))
    eye = np.eye(n)
    xh = coeffs[-1] * eye
    xl = np.zeros((n, n))
    for c in reversed(coeffs[:-1]):
        xh, xl = _dd_matmul(xh, xl, ah, al)
        xh, xl = _dd_add(xh, xl, c * eye, np.zeros((n, n)))
    return Matrix(xh + xl)


@dataclass(frozen=True)
class ErrorReport:
    """Normwise relative error in the Frobenius norm."""

    rel_err: float
    norm_kind: str = "frobenius"


def relative_error(X: Matrix, ref: Matrix) -> ErrorReport:
    """||X - ref||_F / ||ref||_F; zero exactly when the operands match."""
    if X.n != ref.n:
        raise MatrixError(f"order mismatch: {X.n} vs {ref.n}")
    denom = frobenius_norm(ref)
    if denom == 0.0:
        raise MatrixError("reference matrix has zero norm")
    return ErrorReport(rel_err=frobenius_norm(X - ref) / denom)
