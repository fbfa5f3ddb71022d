"""Truncated-Taylor matrix polynomial evaluation.

Two evaluation routes are provided with exact multiplication budgets:

* the Paterson-Stockmeyer block scheme (:func:`ps_eval`), costing
  (j-1) + (k-1) products for degree m with j = ceil(sqrt(m)) cached
  powers and k block-Horner stages, and
* fixed-coefficient evaluation formulas that reach order 8 in three
  products (:func:`eval_t8`) and order 15+ in four (:func:`eval_t15p`),
  beating the Paterson-Stockmeyer budget for the same order.

The order-15+ result is not the plain Taylor polynomial: it matches the
series through degree 15 and carries a perturbed degree-16 term whose
coefficient is the fourth power of the leading table coefficient instead
of 1/16!.

The evaluators are unchecked building blocks: like the entrywise
:class:`~expmkit.matrix.Matrix` operations and :func:`lincomb`, their
products neither scan for NaN or Inf nor guard against floating-point
warnings.  Each driver of :mod:`expmkit.engine` calls them under its one
``np.errstate(over="ignore", invalid="ignore")`` and checks its output,
which an overflow here always reaches (see :mod:`expmkit.matrix` for
where finiteness is checked); other callers run them under the same
``errstate`` and check the result with
:func:`~expmkit.matrix.check_finite`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import Matrix, MatrixError, MulLedger, _wrap, identity
# Unchecked product under the name perfbench/tracing.py wraps (poly.mat_mul)
# to count evaluation products; see expmkit.select.
from .matrix import _mat_mul_unchecked as mat_mul

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
    """1/n! correctly rounded to binary64."""
    return float(Fraction(1, math.factorial(n)))


# 1/i! for i = 0..MAX_ORDER+1, the most either coefficient list needs.
_INV_FACT = tuple(inv_factorial(i) for i in range(MAX_ORDER + 2))


def _check_order(m) -> int:
    m = int(m)
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


def lincomb(*terms) -> Matrix:
    """Sum of the terms, each a Matrix X or a pair (c, X) standing for c*X.

    The sum is accumulated left to right in place in one fresh array, with
    the same roundings as the chained expression ``X0 + c1*X1 + ...`` on
    Matrix operands, so the result is bit for bit the same, without the
    temporaries.  Like the Matrix operations it does not scan for
    non-finite entries.
    """
    acc = tmp = None
    for term in terms:
        if isinstance(term, Matrix):
            if acc is None:
                acc = term.a.copy()
            else:
                acc += term.a
            continue
        c, X = term
        if acc is None:
            acc = X.a * c
        else:
            if tmp is None:
                tmp = np.empty_like(acc)
            np.multiply(X.a, c, out=tmp)
            acc += tmp
    return _wrap(acc)


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
    eye = identity(A.n)
    if m == 0:
        return coeffs[0] * eye
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    pw = {1: A} if powers is None else dict(powers)
    pw[1] = A
    for p in range(2, j + 1):
        if p not in pw:
            pw[p] = mat_mul(pw[p - 1], A, ledger)

    def block(lo, hi):
        return [(coeffs[lo], eye)] + [(coeffs[lo + t], pw[t]) for t in range(1, hi - lo + 1)]

    # The top block may reach degree j itself (when m is a multiple of j);
    # that is what makes the k-1 Horner stages sufficient.  Each stage adds
    # the product after the block's own sum, i.e. block + product, which
    # is bit for bit product + block since binary64 addition commutes.
    q = lincomb(*block((k - 1) * j, m))
    for r in range(k - 2, -1, -1):
        q = lincomb(*block(r * j, r * j + j - 1), mat_mul(q, pw[j], ledger))
    return q


# ---------------------------------------------------------------------------
# Direct low-order formulas and the order-8 / order-15+ schemes
# ---------------------------------------------------------------------------

def eval_low_order(A: Matrix, m: int, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Direct Taylor formulas for orders 1, 2, 4 (0, 1, 2 products).

    Unchecked, like every evaluator here (see the module docstring).
    """
    eye = identity(A.n)
    if m == 1:
        return lincomb(A, eye)
    if a2 is None and m in (2, 4):
        a2 = mat_mul(A, A, ledger)
    # Halving and quartering are exact, so x/2 and x/4 round as x*0.5 and x*0.25.
    if m == 2:
        return lincomb((0.5, a2), A, eye)
    if m == 4:
        inner = lincomb((0.25, a2), A) / 3 + eye
        return lincomb((0.5, mat_mul(inner, a2, ledger)), A, eye)
    raise MatrixError(f"unsupported low order {m}; expected 1, 2 or 4")


def eval_t8(A: Matrix, coeffs: CoeffSet, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Order-8 Taylor value in three products (two with a cached A^2).

    Unchecked, like every evaluator here (see the module docstring).
    """
    c = coeffs.t8
    eye = identity(A.n)
    if a2 is None:
        a2 = mat_mul(A, A, ledger)
    y02 = mat_mul(a2, lincomb((c[0], a2), (c[1], A)), ledger)
    prod = mat_mul(lincomb(y02, (c[2], a2), (c[3], A)), lincomb(y02, (c[4], a2)), ledger)
    return lincomb(prod, (c[5], y02), (0.5, a2), A, eye)


def eval_t15p(A: Matrix, coeffs: CoeffSet, ledger: MulLedger, a2: Matrix | None = None) -> Matrix:
    """Order-15+ value in four products (three with a cached A^2).

    Matches the Taylor series through degree 15; the degree-16 term
    carries coefficient ``coeffs.b16`` instead of 1/16!.  Unchecked, like
    every evaluator here (see the module docstring).
    """
    c = coeffs.t15p
    eye = identity(A.n)
    if a2 is None:
        a2 = mat_mul(A, A, ledger)
    y02 = mat_mul(a2, lincomb((c[0], a2), (c[1], A)), ledger)
    y12 = lincomb(mat_mul(lincomb(y02, (c[2], a2), (c[3], A)), lincomb(y02, (c[4], a2)), ledger),
                  (c[5], y02), (c[6], a2))
    return lincomb(mat_mul(lincomb(y12, (c[7], a2), (c[8], A)),
                           lincomb(y12, (c[9], y02), (c[10], A)), ledger),
                   (c[11], y12), (c[12], y02), (c[13], a2), (c[14], A), (c[15], eye))


_SASTRE_BUDGET = {1: 0, 2: 1, 4: 2, 8: 3, 15: 4}


def sastre_budget(m: int) -> int:
    """Product budget of the evaluation-formula route for a fresh call."""
    try:
        return _SASTRE_BUDGET[m]
    except KeyError:
        raise MatrixError(f"no evaluation formula for order {m}") from None
