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

The evaluators sum in place on plain float64 arrays: a sum's first term
c*X allocates it, each further c*X is rounded into one scratch buffer per
call and added, and c*I goes on the n diagonal entries only.  So each
entry rounds as in the chained expression ``X0 + c1*X1 + ...`` on the
operands' arrays (binary64 addition commutes, so the first two terms may
swap), except that an off-diagonal -0 stays -0 where the chained form
adds the identity's +0.  A :class:`~expmkit.matrix.Matrix` wraps only each
charged product's operands, for the module's ``mat_mul``, and the result,
which owns its array.  The identity is formed only for an m = 0 result.

The evaluators are unguarded building blocks; :mod:`expmkit.matrix`
states that contract.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, MatrixError, MulLedger, _add_to_diagonal, _eye, _wrap
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
    "taylor_coeffs_exp",
]

MAX_ORDER = 30


def inv_factorial(n: int) -> float:
    """1/n! correctly rounded to binary64 (int / int rounds correctly)."""
    return 1 / math.factorial(n)


# 1/i! for i = 0..MAX_ORDER+1, the most either coefficient list needs.
_INV_FACT = tuple(inv_factorial(i) for i in range(MAX_ORDER + 2))


def _check_order(m) -> int:
    m = operator.index(m)
    if not 0 <= m <= MAX_ORDER:
        raise MatrixError(f"order {m} outside supported range 0..{MAX_ORDER}")
    return m


def taylor_coeffs_exp(m: int) -> list[float]:
    """Coefficients [1/i! for i = 0..m] of the exponential series."""
    m = _check_order(m)
    return list(_INV_FACT[:m + 1])


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


# ---------------------------------------------------------------------------
# Paterson-Stockmeyer
# ---------------------------------------------------------------------------

_FLOAT64 = np.dtype(np.float64)


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


def ps_eval(coeffs, A: Matrix, ledger: MulLedger, powers=None) -> Matrix:
    """Evaluate sum_i coeffs[i] * A^i with the Paterson-Stockmeyer schedule.

    ``powers`` may carry precomputed powers {p: A^p} of the same A (the
    selectors build them while bounding); only missing powers up to A^j
    are formed, so products already spent are not repeated.  A fresh call
    costs (j-1) + (k-1) products for degree m >= 2 and none for m <= 1.
    Unchecked: run it under ``np.errstate(over="ignore", invalid="ignore")``
    and check the result (see the module docstring).
    """
    m = len(coeffs) - 1
    if m < 0:
        raise MatrixError("empty coefficient list")
    if m == 0:
        return _wrap(_eye(A.n) * float(coeffs[0]))
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    pw = {**(powers or {}), 1: A}
    for p in range(2, j + 1):
        if p not in pw:
            pw[p] = mat_mul(pw[p - 1], A, ledger)
    a = [None] + [pw[t].a for t in range(1, j + 1)]
    tmp = np.empty_like(A.a)
    q = prod = None
    # Blocks from the top down.  The top block may reach degree j itself
    # (when m is a multiple of j); that is what makes the k-1 Horner
    # stages sufficient.  Each stage adds the product after the block's
    # own sum, i.e. block + product, which is bit for bit product + block
    # since binary64 addition commutes.
    for r in range(k - 1, -1, -1):
        lo = r * j
        hi = m if r == k - 1 else lo + j - 1
        # q = c_lo*I + c_(lo+1)*A + ... + c_hi*A^(hi-lo), in place after
        # the first block, whose first write allocates q.  A coefficient
        # that promotes past float64 is rounded into it there, as the
        # float64 buffers do after, and a complex or object one is refused
        # (TypeError), so q is binary64 whatever the coefficients' type.
        q = np.multiply(a[1], coeffs[lo + 1], out=q)
        if q.dtype is not _FLOAT64:
            q = q.astype(_FLOAT64, casting="same_kind", copy=False)
        _add_to_diagonal(q, coeffs[lo])
        for t in range(2, hi - lo + 1):
            q += np.multiply(a[t], coeffs[lo + t], out=tmp)
        if prod is not None:
            q += prod
        if r:
            prod = mat_mul(_wrap(q, writeable=True), pw[j], ledger).a
    return _wrap(q)


# ---------------------------------------------------------------------------
# Direct low-order formulas and the order-8 / order-15+ schemes
# ---------------------------------------------------------------------------

def eval_low_order(A: Matrix, m: int, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Direct Taylor formulas for orders 1, 2, 4 (0, 1, 2 products).

    Unchecked, like every evaluator here (see the module docstring).
    """
    if m not in (1, 2, 4):
        raise MatrixError(f"unsupported low order {m}; expected 1, 2 or 4")
    if m == 1:
        x = A.a.copy()
    else:
        if a2 is None:
            a2 = mat_mul(A, A, ledger)
        # Halving and quartering are exact, so x/2 and x/4 round as x*0.5 and x*0.25.
        x = a2.a * (0.5 if m == 2 else 0.25)
        if m == 4:
            x += A.a
            x /= 3
            _add_to_diagonal(x, 1.0)
            np.multiply(mat_mul(_wrap(x, writeable=True), a2, ledger).a, 0.5, out=x)
        x += A.a
    _add_to_diagonal(x, 1.0)
    return _wrap(x)


def _formula_head(A: Matrix, a2: Matrix | None, c, c6: float, ledger: MulLedger):
    """x = c5 y02 + prod + c6 A2, the sum both evaluation formulas start
    from, with y02 = A2 (c0 A2 + c1 A) and prod = (c2 A2 + y02 + c3 A)
    (c4 A2 + y02).  Returns x, y02, A2 and the call's scratch buffer."""
    if a2 is None:
        a2 = mat_mul(A, A, ledger)
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
    return x, y02, b, tmp


def eval_t8(A: Matrix, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Order-8 Taylor value in three products (two with a cached A^2): the
    shared head with c6 = 1/2, plus A + I.  Unchecked (see the module docstring)."""
    x = _formula_head(A, a2, EXP_COEFFS.t8, 0.5, ledger)[0]
    x += A.a
    _add_to_diagonal(x, 1.0)
    return _wrap(x)


def eval_t15p(A: Matrix, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Order-15+ value in four products (three with a cached A^2).

    Matches the Taylor series through degree 15; the degree-16 term
    carries coefficient ``EXP_COEFFS.b16`` instead of 1/16!.  Unchecked,
    like every evaluator here (see the module docstring).
    """
    c = EXP_COEFFS.t15p
    y12, y02, b, tmp = _formula_head(A, a2, c, c[6], ledger)
    a = A.a
    # (c7 A2 + y12 + c8 A) (c9 y02 + y12 + c10 A)
    x = b * c[7]
    x += y12
    x += np.multiply(a, c[8], out=tmp)
    r = y02 * c[9]
    r += y12
    r += np.multiply(a, c[10], out=tmp)
    prod = mat_mul(_wrap(x, writeable=True), _wrap(r), ledger).a
    # c11 y12 + prod + c12 y02 + c13 A2 + c14 A + c15 I
    np.multiply(y12, c[11], out=x)
    x += prod
    for coeff, term in ((c[12], y02), (c[13], b), (c[14], a)):
        x += np.multiply(term, coeff, out=tmp)
    _add_to_diagonal(x, c[15])
    return _wrap(x)


# eval_low_order at 1, 2 and 4, eval_t8 and eval_t15p (see the module docstring).
SASTRE_ORDERS = (1, 2, 4, 8, 15)


def sastre_budget(m: int) -> int:
    """Product budget of the evaluation-formula route for a fresh call:
    the index of m in ``SASTRE_ORDERS``."""
    try:
        return SASTRE_ORDERS.index(m)
    except ValueError:
        raise MatrixError(f"no evaluation formula for order {m}") from None
