"""Matrix exponential drivers.

* :func:`expm_baseline` - the term-accumulation scheme: scale until the
  1-norm drops below 1/2, add Taylor terms until the next term's norm
  falls under the tolerance, square back.  A term's corner entry bounds
  its 1-norm from below, so the norm is formed only for a term whose
  corner is within the tolerance.
* :func:`expm` - select (m, s) with one of the two selectors, evaluate
  the degree-m polynomial of 2^-s W on the list of powers the selector
  formed, with the exact factors 2^(-s*d) on the coefficients in place of
  rescaled copies of the powers, and square s times.  Orders 1, 2 and 4,
  the rungs both ladders share, go to ``eval_low_order`` whatever the
  scheme.  Only the top rung is ever scaled.  The value is bit for bit
  the one the rescaled copies give while every entry of those copies and
  of the folded intermediates stays in the normal range;
  :mod:`expmkit.poly` says which intermediates shrink and where the two
  can differ.
* :func:`expm_lowrank` - for W = A1 A2 with small inner rank, evaluate
  the index-shifted series on V = A2 A1 and assemble I + A1 psi(V) A2;
  the order comes from the same selector on its own ladder, with s pinned
  to 0: no scaling is applied on this path, so the call fails loudly
  when ||V||_1 is too large for the unscaled series.

Every driver owns one ledger per call; ``mults`` in the result is the
full square-product count including the squaring phase.  Each driver
runs the unguarded building blocks (the selectors, the evaluators of
:mod:`expmkit.poly` and :func:`squaring`) and checks its result;
:mod:`expmkit.matrix` states that contract and why an overflow still
raises :class:`~expmkit.matrix.NonFiniteError`.

Which calls are guarded.  ``expm_lowrank`` always runs under one
``np.errstate`` (``matrix._guarded``): V = A2 A1 and the assembly can
overflow from finite factors of any size.  ``expm`` and
``expm_baseline`` first form w = ||W||_1 with ``one_norm``, which cannot
overflow, and hand it on, so the selector does not form it again.  They
run their body under the guard only where ``not w <= GUARD_NORM``
(2^8), which a NaN norm takes too.  The guarded body is the same
function, wrapped by ``_guarded`` at import.

Why 2^8 needs no guard.  Take a finite W with w <= 2^8, B = 2^-s W and
x = ||B||_1 = 2^-s w.  An entry is at most its matrix's 1-norm.  Bound
each intermediate by the polynomial P that puts x in place of each
matrix and |c| in place of each coefficient c.  Rounding multiplies
such a bound by at most 1 + gamma_n per operation (gamma_n = n u / (1 -
n u)); over a whole call, s <= 20 squarings included, that factor stays
below 2 for every n below 10^8, far past any n-by-n array in memory.

* The selectors' powers W^p, p <= 4, are at most w^p <= 2^32.
* The Taylor evaluators (``eval_low_order``, ``ps_eval``, the baseline's
  terms) have positive coefficients, so each block sum, Horner value and
  term is at most e^x <= e^256 < 2^370.  The formulas' intermediates
  are at most P(256) < 2^84 for the 15+ formula, and less for the
  order-8 one.  The coefficient folding of :mod:`expmkit.poly` only
  shrinks an intermediate, by a power of two.
* The squarings of X = r(B) give at most P(x)^(2^s) = e^(2^s ln P(x)),
  and ln P(x) <= c x, with c = 1 for the Taylor evaluators and c < 4/3
  for the 15+ formula (the maximum of ln P(x)/x, at x = 2.2).  As
  2^s x = w, every squaring is at most e^(4/3 * 256) < 2^493.

So every value stays below 2^500.  With finite operands, no overflow
and nonzero divisors, no operation is invalid.  Nothing in the call can
set numpy's overflow or invalid flag, and a caller's
``np.errstate(over="raise", invalid="raise")`` sees no error.  Above
2^8 the exponential itself can overflow (e^W for W = 710), so the guard
stays there.  The guard costs about 1 us a call (numpy 2.4 on a 2-vCPU
x86-64 VM), a few per cent of a small flow's call at n <= 64.
A :class:`~expmkit.matrix.Matrix` carries the input, each product's
operands and the result; sums run on plain arrays.  ``expm`` with ps and
``expm_lowrank`` hand their selector a power stack
(:class:`~expmkit.poly._PowerStack`) for :func:`~expmkit.poly.ps_eval`'s
block sums, made with the first power one reads (W^3 for ps, V^2 on the
low-rank path); sastre keeps a plain list.  The selector's powers live
only inside the call: a result holds no array but its value.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matrix import (Matrix, MatrixError, MulLedger, NonFiniteError, _add_to_diagonal, _consts,
                     _entries, _eye, _guarded, _wrap, check_finite, identity, one_norm,
                     scale_pow2)
# perfbench/tracing.py wraps engine.mat_mul to count squarings.
from .matrix import mat_mul
from .poly import (
    _ONE,
    _PowerStack,
    _phi1_coeffs,
    _ps_coeffs,
    eval_low_order,
    eval_t8,
    eval_t15p,
    ps_eval,
    ps_shape,
)
# perfbench/tracing.py wraps engine.select_ps and engine.select_sastre too,
# so expm calls them by these names.
from .select import (
    LOWRANK_TABLES,
    PS_TABLES,
    SCHEME_BASELINE,
    SCHEME_LOWRANK,
    SCHEME_PS,
    SCHEME_SASTRE,
    EvalPlan,
    _log2,
    _select,
    check_tolerance,
    select_ps,
    select_sastre,
)

__all__ = [
    "ExpmResult",
    "GUARD_NORM",
    "LOWRANK_ORDERS",
    "LowRankOrderError",
    "LowRankPair",
    "expm",
    "expm_baseline",
    "expm_lowrank",
    "squaring",
]


class LowRankOrderError(ArithmeticError):
    """No admissible order for the unscaled low-rank series."""


class ExpmResult(NamedTuple):
    """Computed exponential plus the plan and cost that produced it
    (immutable, like the plan).

    ``mults`` counts square matrix-matrix products (selection, polynomial
    evaluation and exactly s squarings); rectangular factor products on
    the low-rank path are a different currency and live in ``rect_mults``.
    The plan splits ``mults`` into the three phases, ``select_mults``,
    ``eval_mults`` and ``square_mults``.
    :class:`~expmkit.select.EvalPlan` says what ``plan.e1``/``plan.e2`` and
    ``plan.bound`` bound, and flags a capped or missed plan.
    """

    value: Matrix
    plan: EvalPlan
    mults: int
    wall_time: float
    rect_mults: int = 0

    @property
    def select_mults(self) -> int:
        """Products formed while selecting: one per power past W whose norm
        the plan holds (the baseline's plan holds the norm of W alone)."""
        return len(self.plan.norms) - 1

    @property
    def square_mults(self) -> int:
        """The s squarings."""
        return self.plan.s

    @property
    def eval_mults(self) -> int:
        """Products of the polynomial evaluation: the rest of ``mults``."""
        return self.mults - self.select_mults - self.plan.s


def squaring(X: Matrix, s: int, ledger: MulLedger) -> Matrix:
    """X^(2^s) by s repeated squarings; charges exactly s products when
    the result is finite.

    An unguarded building block (see :mod:`expmkit.matrix`).  Once the
    squarings overflow, the loop stops early and returns the non-finite
    matrix, charged only for the products it formed.
    """
    s = operator.index(s)
    if s < 0:
        raise MatrixError("squaring count must be nonnegative")
    for _ in range(s):
        X = mat_mul(X, X, ledger)
        # Two squarings spread a NaN or Inf entry over the whole matrix
        # (0 * Inf is NaN), so the corner entry tells when more squarings
        # can only be wasted; the caller's output check still decides.
        if not math.isfinite(X.a.item(0)):
            break
    return X


# The term loop's divisors k = 2..15 as 0-d arrays (see expmkit.matrix).
# As ||B||_1 < 1/2, the term B^15/15! is below 2^-15/15! ~ 2.3e-17 in
# 1-norm, under 2^-53 <= eps, so the loop ends at that term at the latest
# and 15 is its last divisor: [[0.4999]] at eps 2^-53 gets there (m = 14).
_DIVISORS = _consts(range(16))


# The 1-norm up to which expm and expm_baseline run without numpy's
# error-state guard (see the module docstring).
GUARD_NORM = 2.0 ** 8


def expm_baseline(W: Matrix, eps: float) -> ExpmResult:
    """Term-accumulation exponential with norm-halving scaling.

    The smallest s with ||W||_1 / 2^s < 1/2 is used; the term loop then
    charges one product per term formed, including the final term whose
    norm falls at or below the tolerance (that product is what detects
    termination).  Since |y_00| <= ||Y||_1, a term whose corner entry
    exceeds the tolerance continues the loop without its norm being
    formed; the loop stops at the same term as one that forms every
    norm.  ``plan.e1`` is the norm that ended the loop.  The call enters
    numpy's error-state guard only where ||W||_1 > ``GUARD_NORM`` (see
    the module docstring).
    """
    eps = check_tolerance(eps)
    t0 = time.perf_counter()
    norm1 = one_norm(W)
    if not math.isfinite(norm1):  # the halving loop below would not end
        raise NonFiniteError("the 1-norm of the input is not finite")
    body = _baseline if norm1 <= GUARD_NORM else _baseline_guarded
    return body(W, eps, t0, norm1)


def _baseline(W: Matrix, eps: float, t0: float, norm1: float) -> ExpmResult:
    """:func:`expm_baseline` past its norm, which is finite."""
    ledger = MulLedger()
    s = 0
    while math.ldexp(norm1, -s) >= 0.5:
        s += 1
    B = scale_pow2(W, s)
    x = _eye(W.n)
    Y = B
    k = 2
    # Y = B^(k-1)/(k-1)! with ||B||_1 < 1/2 stays below 2^-(k-1)/(k-1)!,
    # so the unchecked products here cannot overflow and the norm is
    # never NaN, which would end the loop as if it had converged.
    while abs(Y.a.item(0)) > eps or (e1 := one_norm(Y)) > eps:
        x += Y.a
        # The previous term is dead once its product is formed, so the new
        # term is divided into its buffer, except into B's, which the loop
        # still reads.
        Y = _wrap(np.divide(mat_mul(B, Y, ledger).a, _DIVISORS[k],
                            out=None if Y is B else Y.a), writeable=True)
        k += 1
    del B, Y  # the squarings read x alone
    X = squaring(_wrap(x), s, ledger)
    plan = EvalPlan(k - 2, s, SCHEME_BASELINE, e1, 0.0, (norm1,), eps, _log2(e1))
    return ExpmResult(check_finite(X), plan, ledger.count, time.perf_counter() - t0)


_baseline_guarded = _guarded(_baseline)


def expm(W: Matrix, eps: float, scheme: str = SCHEME_SASTRE) -> ExpmResult:
    """Selected-order scaled-Taylor exponential.

    ``scheme`` picks the ladder above order 4: ``"ps"`` for
    Paterson-Stockmeyer (up to 16) or ``"sastre"`` for the evaluation
    formulas (up to 15+); orders 1, 2 and 4, on both, get one formula.
    The evaluator gets the powers W^p the selector formed, unscaled, and
    evaluates the polynomial of 2^-s W with the factors 2^(-s*d) on its
    coefficients (see the module docstring), so the call costs the
    polynomial budget plus s.
    The call enters numpy's error-state guard only where ||W||_1 is NaN
    or above ``GUARD_NORM`` (see the module docstring).
    """
    t0 = time.perf_counter()
    norm1 = one_norm(W)
    body = _expm if norm1 <= GUARD_NORM else _expm_guarded
    return body(W, eps, scheme, t0, norm1)


def _expm(W: Matrix, eps: float, scheme: str, t0: float, norm1: float) -> ExpmResult:
    """:func:`expm` past its norm."""
    ledger = MulLedger()
    if scheme == SCHEME_PS:
        powers = _PowerStack(_PS_ROWS)
        plan = select_ps(W, eps, ledger, powers, norm1)
    elif scheme == SCHEME_SASTRE:
        powers = []
        plan = select_sastre(W, eps, ledger, powers, norm1)
    else:
        raise MatrixError(f"unknown scheme {scheme!r}; expected 'ps' or 'sastre'")

    # s > 0 only at the top rung: ps order 16 or the 15+ formula.
    if plan.m == 0:
        X = identity(W.n)
    elif plan.m in (1, 2, 4):
        X = eval_low_order(powers, plan.m, ledger)
    elif scheme == SCHEME_PS:
        X = ps_eval(_ps_coeffs(plan.m, plan.s), powers, ledger)
    elif plan.m == 8:
        X = eval_t8(powers, ledger)
    else:
        X = eval_t15p(powers, ledger, plan.s)
    del powers  # the squarings read X alone
    if plan.s:
        X = squaring(X, plan.s, ledger)
    return ExpmResult(check_finite(X), plan, ledger.count, time.perf_counter() - t0)


_expm_guarded = _guarded(_expm)


# ---------------------------------------------------------------------------
# Low-rank path
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LowRankPair:
    """Factored weight W = A1 A2 with A1 (n x t) and A2 (t x n), 1 <= t <= n;
    the factors pass the input gate of :mod:`expmkit.matrix`."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        a1, a2 = (_entries(a, "low-rank factors") for a in (self.a1, self.a2))
        n, t = a1.shape
        if a2.shape != (t, n):
            raise MatrixError(f"factor shapes incompatible: {a1.shape} and {a2.shape}")
        if t > n:
            raise MatrixError(f"inner rank {t} exceeds the order {n}")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def t(self) -> int:
        return self.a1.shape[1]


LOWRANK_ORDERS = tuple(rung.m for rung in LOWRANK_TABLES)
# The power stacks' rows: the block power j that ps_eval needs at each
# ladder's top order (the low-rank selector forms only V^2; ps_eval the rest).
_PS_ROWS = ps_shape(PS_TABLES[-1].m).j
_LOWRANK_ROWS = ps_shape(LOWRANK_ORDERS[-1]).j


@_guarded
def expm_lowrank(pair: LowRankPair, eps: float) -> ExpmResult:
    """Exponential of W = A1 A2 via I + A1 (sum_i V^i/(i+1)!) A2, V = A2 A1.

    The order is the smallest on :data:`LOWRANK_ORDERS` whose two leading
    remainder terms, bounded with ||V^2||_1 and ||V||_1 products against
    the shifted factorials 1/(m+2)! and 1/(m+3)!, meet the tolerance: the
    shared selector walks :data:`~expmkit.select.LOWRANK_TABLES`, and s is
    pinned to 0.  No scaling is applied; if the selector would scale, no
    order qualifies and the call raises.

    ``mults`` counts the t x t products of the series evaluation; the
    three factor products (A2*A1 and the two assembly products) are
    reported in ``rect_mults``.  Every call runs under numpy's
    error-state guard: those products can overflow from finite factors
    of any size.
    """
    t0 = time.perf_counter()
    ledger = MulLedger()
    V = _wrap(pair.a2 @ pair.a1)  # _select scans V if its 1-norm is not finite
    powers = _PowerStack(_LOWRANK_ROWS)
    plan = _select(LOWRANK_TABLES, SCHEME_LOWRANK, V, eps, ledger, powers)
    if plan.s > 0:
        raise LowRankOrderError(
            f"||V||_1 = {plan.norms[0]:.6g} admits no order <= "
            f"{LOWRANK_ORDERS[-1]} at tolerance {float(eps):.3g}; the factored path "
            "runs unscaled"
        )
    psi = ps_eval(_phi1_coeffs(plan.m), powers, ledger)
    value = pair.a1 @ (psi.a @ pair.a2)
    _add_to_diagonal(value, _ONE)  # I + value, on the diagonal only
    return ExpmResult(check_finite(_wrap(value)), plan, ledger.count,
                      time.perf_counter() - t0, rect_mults=3)
