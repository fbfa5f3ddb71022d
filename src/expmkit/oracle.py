"""Reference exponential in compensated (double-double) arithmetic.

Matrices are carried as (hi, lo) array pairs worth ~106 bits.  The
reference path picks the least s with b = ||B||_1 <= 1 for B = 2^-s A,
s = max(0, ceil(log2 ||A||_1)), evaluates the degree-m Taylor polynomial
of B with Paterson-Stockmeyer, then squares back s times, all in
double-double.

The degree is fixed before any product.  Past degree m the series of
e^B is at most b^(m+1)/(m+1)! / (1 - b/(m+2)) in the 1-norm, and
||e^B||_1 >= 1/||e^-B||_1 >= e^-b, so the least m that brings that bound
below 2^-106 e^-b truncates below 2^-106 relative to e^B (m = 29 at
b = 1).  With j = ceil(sqrt(m)) and k = ceil(m/j), B^2 .. B^j cost
j - 1 double-double n-by-n products and the Horner steps in B^j cost
k - 1; the k blocks between them come from one block product (below).
A call therefore costs (j - 1) + (k - 1) + s n-by-n products, at most
9 + s, and one block product, with the powers and Horner steps cut only
as deep as their share of the error needs (below).  The target is b <= 1
because halving b once more would save at most one Paterson-Stockmeyer
product (m = 29, 24 and 20 cost 9, 8 and 7) for one more squaring, whose
error the squarings after it carry (overscaling, Al-Mohy and Higham,
SIAM J. Matrix Anal. Appl. 31(3), 2009).  The 2^-106 truncation leaves
well over ten guard digits beyond binary64, enough to adjudicate
1e-8-level tolerances with several orders of margin.

:func:`poly_reference` evaluates an arbitrary polynomial with the same
routine, :func:`_dd_poly`, so truncation remainders can be measured
directly against the series tail rather than against another binary64
evaluation.  Each of the two enters one ``np.errstate`` for the whole
call and checks its result once, as the drivers do (see
:mod:`expmkit.matrix`): an overflow raises
:class:`~expmkit.matrix.NonFiniteError`, never a warning.  The squarings
stop early once the corner entry is not finite, as
:func:`~expmkit.engine.squaring` does.

Double-double matrix products run on BLAS through error-free slicing
(Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).  For a
product of an (r, q) matrix A and a (q, c) matrix B, each row of A and
each column of B gets an exponent e, with its hi entries below 2^e, and
is cut into d slices of w bits, (w, d) = _slicing(q): slice p is the row
rounded to the grid 2^(e - (p+1) w), minus the slices before it.  The
cut s = (r + sigma) - sigma with sigma = 0.75 * 2^(e + beta - p w) and
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
q (``_slicing`` asserts 2 w + 1 + ceil(log2(d q)) <= 53, and d q >= 3),
lo is cut only on the last grid when d = 3, and on the last two when
d = 4.

Level l gathers the slice pairs (p, l - p).  Their products share one
unit per result entry, and the level is one BLAS call whose inner
dimension is at most d q.  Each product of two slice entries is an
integer below 2^(2w+1) times that unit, so when

    2 w + 1 + ceil(log2(d q)) <= 53

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
2^-106 q max|a_i:| max|b_:j|.  The tail and then the levels, smallest
first, are summed with two_sum into (hi, lo).

Up to q = 85, d = 3 and w = 22 to 25: an n-by-n product costs d + 1 = 4
BLAS calls worth 10 binary64 products of order n (from n = 86 on, d = 4:
5 calls worth 15).  The error bound holds per row of A and column of B,
not per entry, and assumes that nothing underflows or overflows.

One routine, :func:`_cut`, cuts every operand: :func:`_split_left` cuts
the rows of a left operand, :func:`_split_right` the columns of a right
operand, and :func:`_dd_levels` sums the levels of any such pair.  Every
product of the oracle, and so every BLAS call it makes, is one call
``_dd_levels(_split_left(..), right)``.  The right operand of every
power and Horner product is fixed within a call (B, then B^j), so it is
split once, and each of those products cuts only its left operand; B's
columns are cut through a transposed view that writes each slice
straight into its block, and B's lo part is zero and is not cut.  A
squaring has no fixed operand: :func:`_dd_matmul` splits both of its
operands.

The k Taylor blocks are c_rj I + sum_t c_(rj+t) B^t for t = 1 .. len_r,
with len_r = j - 1 below the top block and m - (k-1) j in it.  They come
from one rectangular double-double product: the (k, J) table whose row
r holds c_(rj+1) .. c_(rj+len_r), padded with zeros, times the stacked
powers [B; B^2; ..; B^J] seen as a (J, n^2) matrix, where
J = max(m - (k-1) j, j - 1) <= j.  It runs through the same kernel with
inner dimension q = J: J <= 5 up to degree 29, where _slicing(J) gives
d = 3 and w = 24 or 25 (_slicing(5) = (24, 3)).  Each row of the table
is cut on the grid of its largest coefficient, and each column of the
stack on the grid of max_t |(B^t)_pq|, which a higher power sets
wherever B_pq is small or zero.  So entry (r, pq) of the product is
within about 2^-106 J max_t |c_(rj+t)| max_t |(B^t)_pq| of the exact
sum, plus the rounding of the pair itself; the powers' lo parts are
normalized entry by entry, as the cut of lo needs.  c_rj I is then added
in place, in double-double, on the k diagonals: every (n+1)-th column of
the (k, n^2) result.  For e^B, ||B^t||_1 <= 1, so the columns of
max_t |(B^t)_pq| sum to at most sum_t ||B^t||_1 <= J, and block r, whose
coefficients are at most 1/(rj+1)! and which Horner multiplies by
B^(rj), adds at most about 2^-106 J^2 / (rj+1)! to the 1-norm error:
about 2^-101.3 in all at J = 5, or 2^-99.9 of e^B, as ||e^B||_1 >= e^-1.
That bound is loose: at J <= 5 the tail term is 12 bits below it
(d w + 53 - ceil(log2((d+1)^2 J)) = 118 in ``_slicing``), and what is
left is the pairs' own rounding, a few 2^-106 of
sum_t |c_(rj+t)| |(B^t)_pq| entry by entry, whose columns sum to at most
e - 1 over all blocks: a few 2^-103.8 of e^B.  The table depends on the
coefficients alone, so :func:`_expm_dd` cuts each degree's table once
(:func:`_taylor_table`).  The product runs over panels of at most
``_PANEL`` columns of the stack, so that each panel's planes stay in
cache; every column is cut on its own grid, so a panel changes no level,
and only the tail's rounding could follow BLAS's order of summation.

The powers and Horner steps of :func:`_expm_dd` are cut only as deep as
their share of the error budget needs.  A depth-d product, d <= D for
(w, D) = _slicing(q), cuts d slices of A's rows and sums levels 0 .. d-1
and the tail sum_p A_p R_(d-p)(B) + R_d(A) B; at d = 0 it is the
binary64 product of the hi parts.  Its error is below about
2^-bits(d) q max|a_i:| max|b_:j|, bits(d) = d w + 53 -
ceil(log2((d+1)^2 q)) (:func:`_depth_bits`, the bound that sets D), and
at most 4 times that: the grids 2^e are up to twice the row and column
maxima, and the factor also covers the lo parts that d = 0 drops.  The
pair's own rounding, about 2^-106 of (|A||B|)_ij, comes on top.  The
width stays w at every depth, so B's slices do not depend on d: one
split right operand serves every depth, a depth-d product reading the
last d blocks of b_col and the last d + 1 of b_tail.

An error of relative size eps in a product moves e^B by about eps times
the product's weight.  B^p = B^(p-1) B, of norm b^p, is a factor of every
term B^t/t! with t >= p, and sum_(t>=p) b^(t-p)/t! <= e^b/p!, so its
weight is b^p/p! e^b.  Horner step r forms X_(r+1) B^j, where
||X_(r+1)||_1 is about 1/((r+1)j)! and ||B^j||_1 <= b^j, and (B^j)^r
carries it to the result, so its weight is b^((r+1)j)/((r+1)j)!.
:func:`_taylor_depths` gives each product the fewest d with
2^-bits(d) weight <= 2^-(106 + _DEPTH_MARGIN) e^-b, a quarter of the
2^-106 budget relative to ||e^B||_1 >= e^-b; the margin also covers the
constant factors of "about" (the grids above, and a power's error
reaching term t up to t/j + 1 times).  The depth never rises as the
weight falls, and B^2 and the last Horner step (r = 0) weigh most.  By
the loose bound the at most nine cut products add at most about
9 2^-108, or 2^-104.8, of e^B, below the block product's 2^-99.9; the
pairs' own rounding still dominates (``tools/oracle_error.py`` measures
the whole against exact fixed point).  Squarings, the block product and
every product of :func:`poly_reference`, whose coefficients are
arbitrary, keep depth D.

At small orders the cost of a product is numpy's elementwise passes, not
BLAS: an n-by-n product with a prepared right operand at depth d makes
d + 1 BLAS calls worth (d + 1)(d + 2)/2 binary64 products of order n,
and cutting fewer slices saves passes as well as BLAS work.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

import numpy as np

from .matrix import Matrix, MatrixError, _wrap, check_finite, frobenius_norm, one_norm
from .poly import inv_factorial, ps_shape

__all__ = [
    "expm_reference",
    "poly_reference",
    "relative_error",
]

_NORM_CAP = 2.0 ** 64
_SCALE_TARGET = 1.0
_DD_BITS = 106
# Bits by which each Taylor power and Horner product of the reference
# stays inside its share of the 2^-106 e^-b budget (_taylor_depths).
_DEPTH_MARGIN = 2
# Columns of [B; ..; B^J] per panel of the block product: at J = k = 5
# (m = 29) a panel's 2 d + 1 = 7 planes of J rows take 280 KB and its k
# result rows 40 KB each, within L2.  In one panel of n^2 = 4096 columns
# the block sums were slower than the term-by-term ones at n = 64
# (BENCH_16.json).
_PANEL = 1024


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _dd_add(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def _depth_bits(q: int, width: int, depth: int) -> int:
    """Bits of a product with inner dimension q cut into ``depth`` slices of
    ``width`` bits: its error is below about 2^-bits q max|a_i:| max|b_:j|,
    and within a factor 4 of that (see the module docstring).

    The tail's (d+1) q products per entry, each below 2^(-d w) of a
    leading-level product, round to at most (d+1)^2 q 2^(-d w - 53) of
    q max|a_i:| max|b_:j|; at d = 0 the tail is the binary64 product of
    the hi parts.
    """
    return depth * width + 53 - math.ceil(math.log2((depth + 1) ** 2 * q))


@functools.cache
def _slicing(q: int):
    """Slice width w (bits) and number of exact levels d for a product
    with inner dimension q: the fewest levels with 106 bits."""
    for depth in itertools.count(1):
        width = (52 - math.ceil(math.log2(depth * q))) // 2
        if _depth_bits(q, width, depth) >= _DD_BITS:
            break
    assert 2 * width + 1 + math.ceil(math.log2(depth * q)) <= 53
    return width, depth


@functools.cache
def _depth_ladder(q: int):
    """``_depth_bits`` at ``_slicing(q)``'s width for each depth below the
    full one, increasing: bisecting it for a number of bits gives the
    fewest levels that keep them, or the full depth if none below does."""
    width, full = _slicing(q)
    return tuple(_depth_bits(q, width, d) for d in range(full))


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
    """Column-split the (q, c) right operand of a product into its BLAS layout.

    Returns ``(b_col, b_tail)``: b_col = [B_d-1; ..; B_0] and
    b_tail = [R_d(B); ..; R_1(B); hi of B], the slices and remainders of
    B's columns stacked row-block-wise, with (w, d) = _slicing(q).  A
    right operand that is fixed over many products is split once;
    ``bl=None`` means lo is zero.  B's columns are cut through transposed
    views, so the slices land in their blocks without a copy.
    """
    q, c = bh.shape
    width, depth = _slicing(q)
    b_col = np.empty((depth, q, c))
    b_tail = np.empty((depth + 1, q, c))
    _cut(bh.T, None if bl is None else bl.T, width, depth,
         b_col[::-1].transpose(0, 2, 1), b_tail[depth - 1::-1].transpose(0, 2, 1))
    b_tail[depth] = bh
    return b_col.reshape(depth * q, c), b_tail.reshape((depth + 1) * q, c)


def _split_left(ah, al, depth=None):
    """Row-split the (r, q) left operand of a product into its BLAS layout:
    a_row = [A_0 .. A_d-1  R_d(A)], the slices and the remainder of A's
    rows side by side, with (w, D) = _slicing(q) and d = D by default.
    At d = 0 a_row is hi alone, R_0(A) rounded to binary64."""
    r, q = ah.shape
    width, full = _slicing(q)
    depth = full if depth is None else depth
    if depth == 0:
        return ah
    a_row = np.empty((r, depth + 1, q))
    _cut(ah, al, width, depth, a_row.transpose(1, 0, 2))
    return a_row.reshape(r, (depth + 1) * q)


def _dd_levels(a_row, right):
    """Double-double product of a left operand split by :func:`_split_left`
    and a right operand split by :func:`_split_right`, at the depth d of
    the left operand: its width is (d + 1) q."""
    b_col, b_tail = right
    q = b_tail.shape[0] - b_col.shape[0]  # (D + 1) q rows against D q
    depth = a_row.shape[1] // q - 1
    # Level l is the first l + 1 blocks of a_row times the last l + 1 of
    # b_col; the tail is a_row times the last d + 1 blocks of b_tail,
    # [R_d(B); ..; R_1(B); hi of B].
    ch, cl = a_row @ b_tail[b_tail.shape[0] - (depth + 1) * q:], 0.0
    for lev in reversed(range(depth)):
        level = a_row[:, :(lev + 1) * q] @ b_col[b_col.shape[0] - (lev + 1) * q:]
        ch, err = _two_sum(ch, level)
        cl = cl + err
    return _quick_two_sum(ch, cl)


def _dd_matmul(ah, al, bh, bl):
    """Double-double product of two (hi, lo) matrices at full depth."""
    return _dd_levels(_split_left(ah, al), _split_right(bh, bl))


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


def _dd_inv_factorial(k: int):
    """1/k! as a double-double (hi, lo), hi and lo each correctly rounded."""
    f = math.factorial(k)
    hi = inv_factorial(k)
    num, den = hi.as_integer_ratio()
    return hi, (den - num * f) / (den * f)


def _cut_table(coeffs):
    """The operand of :func:`_dd_poly` for the (2, m + 1) array of
    coefficient hi and lo rows: ``(j, J, left, eye)``, where left is the
    (k, J) table of the k blocks' coefficients c_rj+1 .. c_rj+len_r, padded
    with zeros and cut by :func:`_split_left`, and eye the (2, k) identity
    terms c_rj, for (j, k) = ps_shape(m).  At m = 0 left is None."""
    m = coeffs.shape[1] - 1
    if m == 0:
        return 0, 0, None, coeffs[:, :1]
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    # The top block holds c_(k-1)j .. c_m, the others j terms each, so the
    # blocks need B .. B^J; J <= j, and B^j is formed for the Horner steps.
    inner = max(m - (k - 1) * j, j - 1)
    table = np.zeros((2, k, inner))
    for r in range(k):
        end = m + 1 if r == k - 1 else (r + 1) * j
        table[:, r, :end - r * j - 1] = coeffs[:, r * j + 1:end]
    return j, inner, _split_left(*table), coeffs[:, :(k - 1) * j + 1:j]


@functools.cache
def _taylor_table(m: int):
    """:func:`_cut_table` of the degree-m Taylor coefficients of e^x as
    (hi, lo) pairs, cut once per degree; the arrays are read-only."""
    table = _cut_table(np.array([_dd_inv_factorial(t) for t in range(m + 1)]).T)
    for a in table[2:]:
        if a is not None:
            a.flags.writeable = False
    return table


def _taylor_depths(b: float, m: int, n: int):
    """The slicing depth of each n-by-n product that :func:`_dd_poly` makes
    for e^B at degree m with ||B||_1 = b, in the order it makes them:
    B^2 .. B^j, then the Horner steps r = k - 2 .. 0.

    Each is the fewest levels whose error, times the product's weight on
    e^B, stays 2^-_DEPTH_MARGIN inside 2^-106 e^-b: weight
    b^p/p! e^b for B^p and b^((r+1)j)/((r+1)j)! for Horner step r (see
    the module docstring).
    """
    if m < 2:
        return ()
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    log2_eb = b * math.log2(math.e)
    budget = _DD_BITS + _DEPTH_MARGIN + log2_eb
    log2_b = math.log2(b)

    def log2_weight(t):  # log2(b^t/t!)
        return t * log2_b - math.lgamma(t + 1) / math.log(2)

    weights = [log2_weight(p) + log2_eb for p in range(2, j + 1)]
    weights += [log2_weight((r + 1) * j) for r in range(k - 2, -1, -1)]
    ladder = _depth_ladder(n)
    return tuple(bisect.bisect_left(ladder, budget + w) for w in weights)


def _dd_poly(bh, table, depths=()):
    """sum_t c_t B^t for B = (bh, 0) and the coefficients as cut by
    :func:`_cut_table`, by Paterson-Stockmeyer in double-double:
    (j - 1) + (k - 1) n-by-n products for (j, k) = ps_shape(m) at degree
    m >= 1, and one block product.  ``depths`` gives the slicing depth of
    the n-by-n products in the order they are made (see
    :func:`_taylor_depths`); those it does not give run at full depth."""
    n = bh.shape[0]
    j, inner, left, eye = table
    depths = iter(depths)
    if left is None:
        return eye[0, 0] * np.eye(n), eye[1, 0] * np.eye(n)
    k = eye.shape[1]
    pw = np.zeros((2, j, n, n))
    pw[0, 0] = bh
    if j > 1:
        right = _split_right(bh)
        for p in range(1, j):
            pw[:, p] = _dd_levels(_split_left(*pw[:, p - 1], next(depths, None)), right)
    # Row r of the table times [B; ..; B^J] as a (J, n^2) matrix gives the
    # k blocks (gh, gl) but their identity terms c_rj I, added on the
    # diagonals.
    stack = pw[:, :inner].reshape(2, inner, n * n)
    gh, gl = np.empty((2, k, n * n))
    for c in range(0, n * n, _PANEL):
        gh[:, c:c + _PANEL], gl[:, c:c + _PANEL] = _dd_levels(
            left, _split_right(*stack[:, :, c:c + _PANEL]))
    # c_rj I on the k diagonals: every (n+1)-th column of the blocks.
    gh[:, ::n + 1], gl[:, ::n + 1] = _dd_add(gh[:, ::n + 1], gl[:, ::n + 1],
                                             *eye[:, :, None])
    gh, gl = gh.reshape(k, n, n), gl.reshape(k, n, n)

    # Horner in B^j over the blocks, as in poly.ps_eval: the top block may
    # reach degree j itself, so k - 1 products suffice.
    xh, xl = gh[k - 1], gl[k - 1]
    if k > 1:
        right = _split_right(*pw[:, j - 1])
    for r in range(k - 2, -1, -1):
        xh, xl = _dd_add(*_dd_levels(_split_left(xh, xl, next(depths, None)), right),
                         gh[r], gl[r])
    return xh, xl


def _expm_dd(A: Matrix):
    """e^A as a double-double pair (hi, lo)."""
    norm1 = one_norm(A)
    if norm1 > _NORM_CAP:
        raise MatrixError(f"1-norm {norm1:.3g} too large for the reference path")
    s = 0
    while math.ldexp(norm1, -s) > _SCALE_TARGET:
        s += 1
    b = math.ldexp(norm1, -s)
    m = _taylor_degree(b)
    xh, xl = _dd_poly(np.ldexp(A.a, -s), _taylor_table(m), _taylor_depths(b, m, A.n))
    for _ in range(s):
        xh, xl = _dd_matmul(xh, xl, xh, xl)
        # A non-finite entry's NaN remainder spreads over its row and column
        # of the next product: two more reach the corner (engine.squaring).
        if not math.isfinite(xh[0, 0]):
            break
    return xh, xl


def expm_reference(A: Matrix) -> Matrix:
    """High-accuracy e^A; at least ~1e-19 relative on well-conditioned
    inputs, i.e. several digits past binary64 roundoff."""
    with np.errstate(over="ignore", invalid="ignore"):
        xh, xl = _expm_dd(A)
        return check_finite(_wrap(xh + xl))


def poly_reference(A: Matrix, coeffs) -> Matrix:
    """Evaluate sum_i coeffs[i] * A^i in double-double, by the same
    Paterson-Stockmeyer routine as :func:`expm_reference`."""
    if len(coeffs) == 0:
        raise MatrixError("empty coefficient list")
    hi = np.array([float(c) for c in coeffs])
    with np.errstate(over="ignore", invalid="ignore"):
        xh, xl = _dd_poly(A.a, _cut_table(np.stack((hi, np.zeros_like(hi)))))
        return check_finite(_wrap(xh + xl))


def relative_error(X: Matrix, ref: Matrix) -> float:
    """||X - ref||_F / ||ref||_F; zero exactly when the operands match,
    inf when the difference is beyond binary64."""
    if X.n != ref.n:
        raise MatrixError(f"order mismatch: {X.n} vs {ref.n}")
    denom = frobenius_norm(ref)
    if denom == 0.0:
        if not X.a.any():
            return 0.0
        raise MatrixError("reference matrix has zero norm")
    with np.errstate(over="ignore", invalid="ignore"):
        return frobenius_norm(_wrap(X.a - ref.a)) / denom
