"""Reference exponential in compensated (double-double) arithmetic.

Matrices are carried as (hi, lo) array pairs worth ~106 bits.  The
reference path picks the least s with b = ||B||_1 <= 2^-4 for
B = 2^-s A, evaluates the degree-m Taylor polynomial of B with
Paterson-Stockmeyer, then squares back s times, all in double-double.

The degree is fixed before any product.  Past degree m the series of
e^B is at most b^(m+1)/(m+1)! / (1 - b/(m+2)) in the 1-norm, and
||e^B||_1 >= 1/||e^-B||_1 >= e^-b, so the least m that brings that bound
below 2^-106 e^-b truncates below 2^-106 relative to e^B (m = 15 at
b = 2^-4).  With j = ceil(sqrt(m)) and k = ceil(m/j), B^2 .. B^j cost
j - 1 double-double products and the Horner steps in B^j cost k - 1;
the blocks between them are sums of double-double scalings.  A call
therefore costs (j - 1) + (k - 1) + s double-double products, at most
6 + s; summing the series term by term took one per term, up to about
15 + s.  That leaves well over ten guard digits beyond binary64, enough
to adjudicate 1e-8-level tolerances with several orders of margin.

:func:`poly_reference` evaluates an arbitrary polynomial with the same
routine, :func:`_dd_poly`, so truncation remainders can be measured
directly against the series tail rather than against another binary64
evaluation.

Double-double matrix products run on BLAS through error-free slicing
(Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  Each row
of A and each column of B gets an exponent e, with its hi entries below
2^e, and is cut into d slices of w bits: slice p is the row rounded to
the grid 2^(e - (p+1) w), minus the slices before it.  The cut
s = (r + sigma) - sigma with sigma = 0.75 * 2^(e + beta - p w) and
beta = 53 - w rounds r to the nearest grid point exactly, and r - s is
exact too; hi and lo are cut on the same grid, and each sigma is the
previous one times 2^-w, exactly.  A slice entry is therefore an integer
of magnitude at most 2^w + 1 times its grid unit.

Every pair the oracle forms is normalized, |lo| <= ulp(hi)/2 <= 2^(e-54)
entrywise, so lo's slice on the grid 2^(e - (p+1) w) is exactly +0
while 2^(e-54) is at most half the grid unit, 2^(e - (p+1) w - 1).  The
cut skips lo on those grids: hi's slice is never -0, so adding +0 to it
and taking +0 from lo change no bit.  It skips while (p+1) w + 1 <= 51,
which leaves a factor 8 of margin on lo.  Since 2 w + 1 <= 51 for every
order (``_slicing`` asserts 2 w + 1 + ceil(log2(d n)) <= 53, and d n >= 3),
lo is cut only on the last grid when d = 3, and on the last two when
d = 4.

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

One routine, :func:`_cut`, cuts every operand.  The right operand of
every power and Horner product is fixed within a call (B, then B^j), so
it is cut once into its BLAS layout (:func:`_split_right`): its columns
are cut through a transposed view that writes each slice straight into
its block.  Each product then cuts only its left operand
(:func:`_dd_dot`).  B's lo part is zero and is not cut.  A squaring has
no fixed operand: :func:`_dd_matmul` prepares its right operand the same
way and then takes the same product.

At small orders the cost of a product is numpy passes, not BLAS.  With
d = 3, a product with a prepared right operand makes 4 BLAS calls and
about 40 elementwise passes over n^2 entries: 15 to cut the left
operand and 24 to sum the levels.  A squaring first cuts its right
operand, which takes about 18 more.  In the Taylor blocks each power is
Dekker-split once per call and each 1/k! comes pre-split from a table,
so a term costs a scaling (16 passes) and a double-double addition (20).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .matrix import Matrix, MatrixError, NonFiniteError, frobenius_norm, one_norm
from .poly import ps_shape

__all__ = [
    "expm_reference",
    "poly_reference",
    "relative_error",
]

_SPLITTER = 134217729.0  # 2^27 + 1, exact in binary64
_NORM_CAP = 2.0 ** 64
_SCALE_TARGET = 2.0 ** -4
_DD_BITS = 106


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _dekker(a):
    """Dekker's split of a into halves of at most 26 bits: a = ah + al."""
    c = _SPLITTER * a
    ah = c - (c - a)
    return ah, a - ah


def _dd_add(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def _dd_scale(x, c):
    """(xh, xl) c for a double-double scalar c, both given with xh and ch
    pre-split: x = (xh, xl, *_dekker(xh)) and c = (ch, cl, *_dekker(ch))."""
    xh, xl, ah, al = x
    ch, cl, bh, bl = c
    p = xh * ch  # two_prod(xh, ch) = (p, its exact error)
    pe = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return _quick_two_sum(p, pe + (xh * cl + xl * ch))


@functools.cache
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


# A normalized lo (|lo| <= 2^(e-54)) has zero slices, with a factor 8 to
# spare, on every grid 2^(e - (p+1) w) with (p+1) w + 1 <= _LO_GRID; see the
# module docstring.
_LO_GRID = 51


def _cut(hi, lo, width: int, depth: int, slices, rems=None):
    """Cut the rows of the double-double matrix (hi, lo) into slices.

    Slice p of a row is an integer of magnitude at most 2^width + 1 times
    2^(e - (p+1) width), where 2^e bounds the row's hi entries; it is
    written to ``slices[p]``.  ``rems[p]`` receives the remainder after
    p + 1 slices, rounded to binary64; with ``rems=None`` only the last
    one is kept, in ``slices[depth]``.  lo must be normalized,
    |lo| <= ulp(hi)/2, as it is cut only on the grids where its slices
    can be nonzero; ``lo=None`` means lo is zero.  The outputs may be
    strided views, so a transposed view of a matrix cuts its columns
    straight into another layout.
    """
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
            if (p + 1) * width + 1 > _LO_GRID:
                t = lo + sigma
                t -= sigma
                lo = lo - t
                s += t
            if rem is not None:
                np.add(hi, lo, out=rem)
        if p < depth - 1:
            sigma = sigma * 2.0 ** -width


def _split_right(bh, bl=None):
    """Column-split the right operand of a product into its BLAS layout.

    Returns ``(b_col, b_tail)``: b_col = [B_d-1; ..; B_0] and
    b_tail = [R_d(B); ..; R_1(B); hi of B], the slices and remainders of
    B's columns stacked row-block-wise.  A right operand that is fixed
    over many products is split once; ``bl=None`` means lo is zero.
    B's columns are cut through transposed views, so the slices land in
    their blocks without a copy.
    """
    n = bh.shape[0]
    width, depth = _slicing(n)
    b_col = np.empty((depth, n, n))
    b_tail = np.empty((depth + 1, n, n))
    _cut(bh.T, None if bl is None else bl.T, width, depth,
         b_col[::-1].transpose(0, 2, 1), b_tail[depth - 1::-1].transpose(0, 2, 1))
    b_tail[depth] = bh
    return b_col.reshape(depth * n, n), b_tail.reshape((depth + 1) * n, n)


def _dd_dot(ah, al, right):
    """Double-double product of (ah, al) and a right operand prepared by
    :func:`_split_right`; only the left operand is cut here."""
    n = ah.shape[0]
    width, depth = _slicing(n)
    b_col, b_tail = right
    # a_row = [A_0 .. A_d-1  R_d(A)].  Level l is the first l + 1 blocks of
    # a_row times the last l + 1 of b_col; the tail is a_row times b_tail.
    a_row = np.empty((n, depth + 1, n))
    _cut(ah, al, width, depth, a_row.transpose(1, 0, 2))
    a_row = a_row.reshape(n, (depth + 1) * n)
    ch, cl = a_row @ b_tail, 0.0
    for lev in reversed(range(depth)):
        level = a_row[:, :(lev + 1) * n] @ b_col[(depth - 1 - lev) * n:]
        ch, err = _two_sum(ch, level)
        cl = cl + err
    return _quick_two_sum(ch, cl)


def _dd_matmul(ah, al, bh, bl):
    """Double-double product of two (hi, lo) square matrices."""
    return _dd_dot(ah, al, _split_right(bh, bl))


def _add_eye(xh, xl, ch, cl=0.0):
    """(xh, xl) + (ch, cl) I in double-double, in place on the diagonal.

    The diagonals are written through ``einsum('ii->i')`` views, which
    stay views of the pair in any memory layout.
    """
    dh, dl = np.einsum("ii->i", xh), np.einsum("ii->i", xl)
    dh[:], dl[:] = _dd_add(dh, dl, ch, cl)
    return xh, xl


def _taylor_degree(b: float) -> int:
    """Smallest m whose Taylor tail bound meets 2^-106 relative to e^B.

    For ||B||_1 <= b the tail past degree m is at most
    b^(m+1)/(m+1)! / (1 - b/(m+2)), and ||e^B||_1 >= 1/||e^-B||_1 >= e^-b.
    """
    target = math.ldexp(math.exp(-b), -_DD_BITS)
    m, term = 0, b  # term = b^(m+1)/(m+1)!
    while term / (1.0 - b / (m + 2)) > target:
        m += 1
        term *= b / (m + 1)
    return m


def _dd_scalar(hi: float, lo: float = 0.0):
    """The double-double scalar (hi, lo) with hi pre-split for
    :func:`_dd_scale`."""
    return hi, lo, *_dekker(hi)


def _dd_inv_factorial(k: int):
    """1/k! as a :func:`_dd_scalar`, hi and lo each correctly rounded."""
    f = math.factorial(k)
    hi = 1 / f  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    return _dd_scalar(hi, (den - num * f) / (den * f))


# Every degree _expm_dd can pick: the tail bound grows with b <= 2^-4.
_INV_FACTORIALS = tuple(map(_dd_inv_factorial,
                            range(_taylor_degree(_SCALE_TARGET) + 1)))


def _dd_poly(bh, coeffs):
    """sum_t coeffs[t] B^t for B = (bh, 0) and :func:`_dd_scalar`
    coefficients, by Paterson-Stockmeyer in double-double: (j - 1) + (k - 1)
    products for (j, k) = ps_shape(m) at degree m >= 1."""
    n = bh.shape[0]
    m = len(coeffs) - 1
    if m == 0:
        return coeffs[0][0] * np.eye(n), coeffs[0][1] * np.eye(n)
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    pw = {1: (bh, np.zeros((n, n)))}
    if j > 1:
        right = _split_right(bh)
        for p in range(2, j + 1):
            pw[p] = _dd_dot(*pw[p - 1], right)
    # Each power the blocks scale, B^1 .. B^t with t the longest block, is
    # Dekker-split once: the top block ends at m, the others at j - 1.
    terms = {t: (*pw[t], *_dekker(pw[t][0]))
             for t in range(1, max(m - (k - 1) * j, j - 1) + 1)}

    def block(lo, hi):
        # sum_t coeffs[lo + t] B^t for t = 0 .. hi - lo; hi > lo, since
        # ps_shape gives j >= 2 whenever k > 1.
        xh, xl = _dd_scale(terms[1], coeffs[lo + 1])
        for t in range(2, hi - lo + 1):
            xh, xl = _dd_add(xh, xl, *_dd_scale(terms[t], coeffs[lo + t]))
        return _add_eye(xh, xl, *coeffs[lo][:2])

    # Horner in B^j over the blocks, as in poly.ps_eval: the top block may
    # reach degree j itself, so k - 1 products suffice.
    xh, xl = block((k - 1) * j, m)
    if k > 1:
        right = _split_right(*pw[j])
    for r in range(k - 2, -1, -1):
        xh, xl = _dd_add(*_dd_dot(xh, xl, right), *block(r * j, r * j + j - 1))
    return xh, xl


def _expm_dd(A: Matrix):
    """e^A as a double-double pair (hi, lo)."""
    norm1 = one_norm(A)
    if norm1 > _NORM_CAP:
        raise MatrixError(f"1-norm {norm1:.3g} too large for the reference path")
    s = 0
    while math.ldexp(norm1, -s) > _SCALE_TARGET:
        s += 1
    m = _taylor_degree(math.ldexp(norm1, -s))
    xh, xl = _dd_poly(np.ldexp(A.a, -s), _INV_FACTORIALS[:m + 1])
    for _ in range(s):
        xh, xl = _dd_matmul(xh, xl, xh, xl)
        if not np.isfinite(xh).all():
            raise NonFiniteError("overflow while squaring the reference value")
    return xh, xl


def expm_reference(A: Matrix) -> Matrix:
    """High-accuracy e^A; at least ~1e-19 relative on well-conditioned
    inputs, i.e. several digits past binary64 roundoff."""
    xh, xl = _expm_dd(A)
    return Matrix(xh + xl)


def poly_reference(A: Matrix, coeffs) -> Matrix:
    """Evaluate sum_i coeffs[i] * A^i in double-double, by the same
    Paterson-Stockmeyer routine as :func:`expm_reference`."""
    if len(coeffs) == 0:
        raise MatrixError("empty coefficient list")
    xh, xl = _dd_poly(A.a, [_dd_scalar(float(c)) for c in coeffs])
    return Matrix(xh + xl)


def relative_error(X: Matrix, ref: Matrix) -> float:
    """||X - ref||_F / ||ref||_F; zero exactly when the operands match."""
    if X.n != ref.n:
        raise MatrixError(f"order mismatch: {X.n} vs {ref.n}")
    denom = frobenius_norm(ref)
    if denom == 0.0:
        raise MatrixError("reference matrix has zero norm")
    return frobenius_norm(X - ref) / denom
