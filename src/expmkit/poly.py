"""Truncated-Taylor matrix polynomial evaluation.

Two evaluation routes are provided with exact multiplication budgets:

* the Paterson-Stockmeyer block scheme (:func:`ps_eval`), costing
  (j-1) + (k-1) products for degree m with j = ceil(sqrt(m)) cached
  powers and k block-Horner stages, and
* fixed-coefficient evaluation formulas that reach order 8 in three
  products (:func:`eval_t8`) and order 15+ in four (:func:`eval_t15p`),
  beating the Paterson-Stockmeyer budget for the same order.  With the
  direct formulas of :func:`eval_low_order` they make the ladder of
  orders ``SASTRE_ORDERS``, each one product dearer than the one before,
  so :func:`sastre_budget` is an order's index in it.

Each evaluator takes ``powers`` = [A, A^2, ...] (the selectors build it
while bounding), forms only the powers it lacks and leaves the list
unchanged; a budget counts the products from [A] alone.  :func:`ps_eval`
reads the powers as rows of one :class:`_PowerStack`, made in one place,
its ``row``.  Its drivers hand their selector one in place of a plain
list; a plain list goes into a new one, a copy per power, unchanged.

The formula evaluators sum in place on plain float64 arrays: a sum's
first term c*X allocates it, each further c*X is rounded into one scratch
buffer per call and added, and c*I goes on the n diagonal entries only.
So each entry rounds as in the chained expression ``X0 + c1*X1 + ...``
on the operands' arrays (binary64 addition commutes, so the first two
terms may swap), except that an off-diagonal -0 stays -0 where the
chained form adds the identity's +0.

:func:`ps_eval` forms each block sum c_rj I + c_(rj+1) A + ... with one
BLAS matrix-vector product: the block's row of its coefficient table
times the stack [A; A^2; ...; A^j] seen as a (j, n*n) array, written into
one block buffer, and then c_rj added on the n diagonal entries.  BLAS
may add in any order and fuse multiply-adds, so a block sum is not the
chained expression's bit for bit.  Its rounding contract is the
summation bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 3), which holds in any order, with or without
FMA: a block of L terms is within gamma_(L+1) (|c_rj| I + sum_t
|c_(rj+t)| |A^t|) of its exact sum, entry by entry, with
gamma_n = n u / (1 - n u) and u = 2^-53.  Like :func:`~expmkit.matrix.one_norm`,
it is deterministic for one BLAS build and thread count.  The Horner
steps, block + q A^j, round as before.

A :class:`~expmkit.matrix.Matrix` wraps only each charged product's
operands, for the module's ``mat_mul``, and the result, which owns its
array.  The identity is formed only for an m = 0 result.

Scaling folds into the coefficients.  Only the top rung of a ladder is
ever scaled, so only :func:`ps_eval` at order 16 and :func:`eval_t15p`
evaluate on B = 2^-s A.  They take the unscaled powers [A, A^2, ...]
with the exact factors 2^(-s*d) on the coefficients:
:func:`scaled_taylor_coeffs` gives ldexp(1/i!, -s*i), and
:func:`eval_t15p` puts 2^(-s*d_i) on c_i, d_i the power of B that c_i
multiplies (2 more for c0 and c1, whose sum is y02's right factor, now
multiplied by A^2 in place of B^2).  Scaling an operand by a power of two
scales each rounded sum and product by it exactly, so the value is the
one that the copies 2^(-s*p) A^p give, bit for bit, as long as every entry
of those copies and of the folded intermediates stays in the normal range
(or is 0).  The intermediates that differ in scale are each Horner value
of :func:`ps_eval`, whose block r is 2^(-s*r*j) times the copy path's,
and y02's right factor, 2^(-2s) times.  Where an entry leaves that range
(tiny entries beside large ones at large s), the two round differently;
``tests/test_poly.py`` shows one such input and bounds both.

The coefficients and constants the evaluators hand to ufuncs are
read-only 0-d float64 arrays, cached here once (:mod:`expmkit.matrix`
says why): the order-8 set and 0.5, 0.25, 3 and 1.0 at import and the
15+ set per s (:func:`_t15p_coeffs`).  :func:`ps_eval` reads a
:class:`_PsTable`, the zero-padded (k, j) coefficient table and the k
diagonal terms as 0-d arrays, all read-only and rounded to binary64
once; the drivers' tables are cached per (m, s) (:func:`_ps_coeffs`) and
per m on the low-rank path (:func:`_phi1_coeffs`).  The public
:func:`scaled_taylor_coeffs`, :func:`phi1_coeffs` and
:func:`taylor_coeffs_exp` return floats.

The evaluators are unguarded building blocks; :mod:`expmkit.matrix`
states that contract.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrix import Matrix, MatrixError, MulLedger, _add_to_diagonal, _consts, _eye, _wrap
from .matrix import _entries
# perfbench/tracing.py wraps poly.mat_mul to count evaluation products.
from .matrix import mat_mul

__all__ = [
    "CoeffSet",
    "EXP_COEFFS",
    "MAX_ORDER",
    "PsShape",
    "eval_low_order",
    "eval_t8",
    "eval_t15p",
    "phi1_coeffs",
    "ps_eval",
    "ps_shape",
    "sastre_budget",
    "scaled_taylor_coeffs",
    "taylor_coeffs_exp",
]

MAX_ORDER = 30


def inv_factorial(n: int) -> float:
    """1/n! correctly rounded to binary64 (int / int rounds correctly)."""
    return 1 / math.factorial(n)


# 1/i! for i = 0..MAX_ORDER+1, the most either coefficient list needs.
_INV_FACT = tuple(inv_factorial(i) for i in range(MAX_ORDER + 2))


def _check_order(m, orders=frozenset(range(MAX_ORDER + 1))) -> int:
    """m, if ``operator.index`` takes it (2.0 raises TypeError) and it is in ``orders``."""
    m = operator.index(m)
    if m not in orders:
        raise MatrixError(f"unsupported order {m}; expected one of {sorted(orders)}")
    return m


def taylor_coeffs_exp(m: int) -> list[float]:
    """Coefficients [1/i! for i = 0..m] of the exponential series."""
    m = _check_order(m)
    return list(_INV_FACT[:m + 1])


def scaled_taylor_coeffs(m: int, s: int) -> tuple[float, ...]:
    """(ldexp(1/i!, -s*i) for i = 0..m): the degree-m Taylor polynomial of
    e^(2^-s A) in powers of the unscaled A (see the module docstring)."""
    m = _check_order(m)
    return tuple(math.ldexp(c, -s * i) for i, c in enumerate(_INV_FACT[:m + 1]))


def phi1_coeffs(m: int) -> list[float]:
    """Coefficients [1/(i+1)! for i = 0..m] of the index-shifted series
    sum_i x^i/(i+1)! used on the low-rank path."""
    m = _check_order(m)
    return list(_INV_FACT[1:m + 2])


# ---------------------------------------------------------------------------
# Fixed evaluation-formula coefficients (binary64, digit for digit as
# published).  b16 is recomputed from the leading coefficient so the two
# stay consistent by construction.
# ---------------------------------------------------------------------------

_T8_COEFFS = (
    4.980119205559973e-3,
    1.992047682223989e-2,
    7.665265321119147e-2,
    8.765009801785554e-1,
    1.225521150112075e-1,
    2.974307204847627e0,
)

_T15P_COEFFS = (
    4.018761610201036e-4,
    2.945531440279683e-3,
    -8.709066576837676e-3,
    4.017568440673568e-1,
    3.230762888122312e-2,
    5.768988513026145e0,
    2.338576034271299e-2,
    2.381070373870987e-1,
    2.224209172496374e0,
    -5.792361707073261e0,
    -4.130276365929783e-2,
    1.040801735231354e1,
    -6.331712455883370e1,
    3.484665863364574e-1,
    1.0,
    1.0,
)


@dataclass(frozen=True)
class CoeffSet:
    """Coefficients for the order-8 and order-15+ evaluation formulas.

    ``t8`` holds c1..c6 of the order-8 formula, ``t15p`` holds c1..c16 of
    the order-15+ formula, and ``b16`` is the effective degree-16
    coefficient of the 15+ result, equal to t15p[0]**4 in binary64.
    """

    t8: tuple
    t15p: tuple
    b16: float


EXP_COEFFS = CoeffSet(t8=_T8_COEFFS, t15p=_T15P_COEFFS, b16=_T15P_COEFFS[0] ** 4)

_T8 = _consts(_T8_COEFFS)
_HALF, _QUARTER, _THREE, _ONE = _consts((0.5, 0.25, 3, 1.0))


# ---------------------------------------------------------------------------
# Paterson-Stockmeyer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsShape:
    """Block schedule for degree m: powers A^2..A^j are cached and k
    block-Horner stages run, so m <= j*k < m + j."""

    m: int
    j: int
    k: int

    @property
    def mults(self) -> int:
        return (self.j - 1) + (self.k - 1)


# Typed keys keep 2.0 and True off the entries for 2 and 1, so a float
# degree still raises TypeError; 64 entries hold every ladder order.
@functools.lru_cache(maxsize=64, typed=True)
def ps_shape(m: int) -> PsShape:
    if m < 1:
        raise MatrixError("Paterson-Stockmeyer shape needs degree >= 1")
    j = math.isqrt(m)
    if j * j < m:
        j += 1
    k = -(-m // j)
    return PsShape(m=m, j=j, k=k)


def _powers(powers: list, j: int, ledger: MulLedger) -> list:
    """[A, A^2, ..., A^j] as a new list: the list ``powers``, cut or extended."""
    if not powers:
        raise MatrixError("empty power list")
    pw = powers[:j]
    while len(pw) < j:
        pw.append(mat_mul(pw[-1], pw[0], ledger))
    return pw


class _PsTable(NamedTuple):
    """:func:`ps_eval`'s tables for one coefficient tuple c_0..c_m, in binary64.

    ``table`` is the read-only (k, j) array of the block coefficients:
    row r holds c_(rj+1)..c_(rj+j) of block r, zero past c_m and in the
    last column of every block but the top one, whose c_((r+1)j) is the
    next block's diagonal term.  ``rows`` are its rows, and ``diag`` the
    k diagonal terms c_(rj) as read-only 0-d arrays.  At m = 0, j is 0.
    """

    table: np.ndarray
    rows: tuple
    diag: tuple


def _ps_table(coeffs) -> _PsTable:
    """The :class:`_PsTable` of ``coeffs``, read through the input gate of
    :mod:`expmkit.matrix`, and so rounded to binary64 once."""
    c = _entries(coeffs, "coefficients", 1)
    m = c.size - 1
    j, k = 0, 1  # m = 0: c_0 I alone
    if m:
        shape = ps_shape(m)
        j, k = shape.j, shape.k
    padded = np.zeros(j * k + 1)
    padded[:m + 1] = c
    diag = _consts(padded[:j * k:j] if j else padded[:1])
    table = padded[1:].reshape(k, j)
    table[:-1, -1:] = 0.0  # the next block's diagonal terms, in diag
    table.setflags(write=False)
    return _PsTable(table, tuple(table), diag)


# Typed keys, as for ps_shape; the drivers ask for a few dozen (m, s) pairs.
@functools.lru_cache(maxsize=128, typed=True)
def _ps_coeffs(m: int, s: int) -> _PsTable:
    """The table of :func:`scaled_taylor_coeffs`, for the ps driver."""
    return _ps_table(scaled_taylor_coeffs(m, s))


@functools.lru_cache(maxsize=32, typed=True)
def _phi1_coeffs(m: int) -> _PsTable:
    """The table of :func:`phi1_coeffs`, for the low-rank driver."""
    return _ps_table(phi1_coeffs(m))


class _PowerStack(list):
    """A power list [A, A^2, ...] held in the rows of one (rows, n, n)
    float64 stack, ``.a``, for :func:`ps_eval`'s block sums.

    The first row asked for allocates the stack and copies in each power
    the list holds; past A, which its holder keeps, the list then holds
    the rows instead, so no power stays outside the stack.  Each later
    power is formed into its row (``mat_mul``'s ``out``).
    """

    __slots__ = ("rows", "a", "flat")

    def __init__(self, rows: int, powers=()):  # list.__new__ made the empty list
        self.rows = rows
        self.a = self.flat = None
        self.extend(powers)

    def row(self, p: int) -> np.ndarray:
        """Row p of the stack, where A^(p+1) goes."""
        a = self.a
        if a is None:
            n = self[0].n
            a = self.a = np.empty((self.rows, n, n))
            self.flat = a.reshape(self.rows, n * n)  # one row per power
            for i, P in enumerate(self):
                a[i] = P.a
                if i:
                    self[i] = _wrap(a[i])
        return a[p]


def ps_eval(coeffs, powers: list, ledger: MulLedger) -> Matrix:
    """Evaluate sum_i coeffs[i] * A^i with the Paterson-Stockmeyer schedule.

    ``coeffs`` is a coefficient sequence or its :class:`_PsTable`.  From
    [A] it costs (j-1) + (k-1) products for degree m >= 2, none for
    m <= 1.  Each block sum is one BLAS product of its table row with the
    stack [A; ...; A^j] (see the module docstring).  Unchecked.
    """
    if type(coeffs) is not _PsTable:
        coeffs = _ps_table(coeffs)
    if not powers:
        raise MatrixError("empty power list")
    table, rows, diag = coeffs
    k, j = table.shape
    if j == 0:  # m = 0
        return _wrap(_eye(powers[0].n) * diag[0])
    if type(powers) is not _PowerStack:  # a plain list, left unchanged
        powers = _PowerStack(j, powers[:j])
    while len(powers) < j:
        powers.append(mat_mul(powers[-1], powers[0], ledger, out=powers.row(len(powers))))
    if powers.a is None:  # A alone, or a plain list holding every power read
        powers.row(0)
    stack, top = powers.flat[:j], powers[j - 1]
    n = top.n
    x = np.empty((n, n))
    flat = x.reshape(n * n)
    on_diag = flat[:: n + 1]
    prod = None
    # Blocks from the top down.  The top block may reach degree j itself
    # (when m is a multiple of j); that is what makes the k-1 Horner
    # stages sufficient.  Each stage adds the product after the block's
    # own sum, i.e. block + product.
    for r in range(k - 1, -1, -1):
        np.dot(rows[r], stack, out=flat)
        on_diag += diag[r]
        if prod is not None:
            x += prod
            prod = None  # freed before the next product
        if r:
            prod = mat_mul(_wrap(x, writeable=True), top, ledger).a
    return _wrap(x)


# ---------------------------------------------------------------------------
# Direct low-order formulas and the order-8 / order-15+ schemes
# ---------------------------------------------------------------------------

def eval_low_order(powers: list, m: int, ledger: MulLedger) -> Matrix:
    """Direct Taylor formulas for orders 1, 2, 4 (0, 1, 2 products from [A]); unchecked."""
    m = _check_order(m, (1, 2, 4))
    pw = _powers(powers, min(m, 2), ledger)  # [A] or [A, A^2]
    if m == 1:
        x = pw[0].a.copy()
    else:
        # Halving and quartering are exact, so x/2 and x/4 round as x*0.5 and x*0.25.
        x = pw[1].a * (_HALF if m == 2 else _QUARTER)
        if m == 4:
            x += pw[0].a
            x /= _THREE
            _add_to_diagonal(x, _ONE)
            np.multiply(mat_mul(_wrap(x, writeable=True), pw[1], ledger).a, _HALF, out=x)
        x += pw[0].a
    _add_to_diagonal(x, _ONE)
    return _wrap(x)


def _formula_head(powers: list, c, c6, ledger: MulLedger):
    """x = c5 y02 + prod + c6 A2, the sum both evaluation formulas start
    from, with y02 = A2 (c0 A2 + c1 A) and prod = (c2 A2 + y02 + c3 A)
    (c4 A2 + y02).  Returns x, y02 and the arrays of A, A2 and the call's
    scratch buffer."""
    A, a2 = _powers(powers, 2, ledger)
    a, b = A.a, a2.a
    tmp = np.empty_like(b)
    x = b * c[0]
    x += np.multiply(a, c[1], out=tmp)
    y02 = mat_mul(a2, _wrap(x, writeable=True), ledger).a
    np.multiply(b, c[2], out=x)
    x += y02
    x += np.multiply(a, c[3], out=tmp)
    np.multiply(b, c[4], out=tmp)
    tmp += y02
    prod = mat_mul(_wrap(x, writeable=True), _wrap(tmp, writeable=True), ledger).a
    np.multiply(y02, c[5], out=x)
    x += prod
    x += np.multiply(b, c6, out=tmp)
    return x, y02, a, b, tmp


def eval_t8(powers: list, ledger: MulLedger) -> Matrix:
    """Order-8 Taylor value in three products (two from [A, A^2]): the
    shared head with c6 = 1/2, plus A + I.  Unchecked (see the module docstring)."""
    x, _, a, _, _ = _formula_head(powers, _T8, _HALF, ledger)
    x += a
    _add_to_diagonal(x, _ONE)
    return _wrap(x)


# d_i of the module docstring: the power of the scaled A that c_i of
# the 15+ formula multiplies, plus 2 for c0 and c1.
_T15P_DEGREES = (4, 3, 2, 1, 2, 0, 2, 2, 1, 0, 1, 0, 0, 2, 1, 0)


@functools.lru_cache(maxsize=64, typed=True)
def _t15p_coeffs(s: int) -> tuple:
    """The 15+ coefficients c_i * 2^(-s*d_i) as 0-d arrays; the published
    ones at s = 0."""
    return _consts(math.ldexp(c, -s * d) for c, d in zip(_T15P_COEFFS, _T15P_DEGREES))


def eval_t15p(powers: list, ledger: MulLedger, s: int = 0) -> Matrix:
    """Order-15+ value of 2^-s A in four products (three from [A, A^2]),
    on the unscaled powers (see the module docstring).

    Matches the Taylor series through degree 15; the degree-16 term
    carries coefficient ``EXP_COEFFS.b16`` instead of 1/16!.  Unchecked.
    """
    c = _t15p_coeffs(s)
    y12, y02, a, b, tmp = _formula_head(powers, c, c[6], ledger)
    # (c7 A2 + y12 + c8 A) (c9 y02 + y12 + c10 A)
    x = b * c[7]
    x += y12
    x += np.multiply(a, c[8], out=tmp)
    r = y02 * c[9]
    r += y12
    r += np.multiply(a, c[10], out=tmp)
    del tmp  # freed before the product; r is the scratch after it
    prod = mat_mul(_wrap(x, writeable=True), _wrap(r, writeable=True), ledger).a
    # c11 y12 + prod + c12 y02 + c13 A2 + c14 A + c15 I
    np.multiply(y12, c[11], out=x)
    x += prod
    for coeff, term in ((c[12], y02), (c[13], b), (c[14], a)):
        x += np.multiply(term, coeff, out=r)
    _add_to_diagonal(x, c[15])
    return _wrap(x)


# eval_low_order at 1, 2 and 4, eval_t8 and eval_t15p (see the module docstring).
SASTRE_ORDERS = (1, 2, 4, 8, 15)


def sastre_budget(m: int) -> int:
    """Product budget of the evaluation-formula route for a fresh call:
    the index of m in ``SASTRE_ORDERS``."""
    return SASTRE_ORDERS.index(_check_order(m, SASTRE_ORDERS))
