"""Matrix exponential drivers.

* :func:`expm_baseline` - the term-accumulation scheme: scale until the
  1-norm drops below 1/2, add Taylor terms until the next term's norm
  falls under the tolerance, square back.  A term's corner entry bounds
  its 1-norm from below, so the norm is formed only for a term whose
  corner is within the tolerance.
* :func:`expm` - select (m, s) with one of the two selectors, evaluate
  the degree-m polynomial on the scaled matrix (reusing the powers the
  selector already formed, rescaled exactly by powers of two), square s
  times.
* :func:`expm_lowrank` - for W = A1 A2 with small inner rank, evaluate
  the index-shifted series on V = A2 A1 and assemble I + A1 psi(V) A2;
  the order comes from the same selector on its own ladder, with s pinned
  to 0: no scaling is applied on this path, so the call fails loudly
  when ||V||_1 is too large for the unscaled series.

Every driver owns one ledger per call; ``mults`` in the result is the
full square-product count including the squaring phase.  Each driver
runs the unguarded building blocks (the selectors, the evaluators of
:mod:`expmkit.poly` and :func:`squaring`) under one ``np.errstate`` and
checks its result; :mod:`expmkit.matrix` states that contract and why
an overflow still raises :class:`~expmkit.matrix.NonFiniteError`.
A :class:`~expmkit.matrix.Matrix` carries the
input, the selector's powers, each product's operands and the result;
sums run on plain arrays.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .matrix import (
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    _add_to_diagonal,
    _entries,
    _eye,
    _wrap,
    check_finite,
    identity,
    mat_mul,  # perfbench/tracing.py wraps engine.mat_mul to count squarings
    one_norm,
    scale_pow2,
)
from .poly import (
    eval_low_order,
    eval_t8,
    eval_t15p,
    phi1_coeffs,
    ps_eval,
    taylor_coeffs_exp,
)
# perfbench/tracing.py wraps engine.select_ps and engine.select_sastre too,
# so expm calls them by these names.
from .select import (
    LOWRANK_TABLES,
    SCHEME_BASELINE,
    SCHEME_LOWRANK,
    SCHEME_PS,
    SCHEME_SASTRE,
    EvalPlan,
    _select,
    check_tolerance,
    select_ps,
    select_sastre,
)

__all__ = [
    "ExpmResult",
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


@dataclass
class ExpmResult:
    """Computed exponential plus the plan and cost that produced it.

    ``mults`` counts square matrix-matrix products (polynomial evaluation
    plus exactly s squarings); rectangular factor products on the
    low-rank path are a different currency and live in ``rect_mults``.
    ``plan.e1``/``plan.e2`` bound the truncation of the *unscaled* input;
    the scaled bound is e1*2^(-s(m+1)) + e2*2^(-s(m+2)) (see EvalPlan).
    """

    value: Matrix
    plan: EvalPlan
    mults: int
    wall_time: float
    rect_mults: int = 0


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
        if not math.isfinite(X.a[0, 0]):
            break
    return X


def expm_baseline(W: Matrix, eps: float) -> ExpmResult:
    """Term-accumulation exponential with norm-halving scaling.

    The smallest s with ||W||_1 / 2^s < 1/2 is used; the term loop then
    charges one product per term formed, including the final term whose
    norm falls at or below the tolerance (that product is what detects
    termination).  Since |y_00| <= ||Y||_1, a term whose corner entry
    exceeds the tolerance continues the loop without its norm being
    formed; the loop stops at the same term as one that forms every
    norm.  ``plan.e1`` is the norm that ended the loop.
    """
    eps = check_tolerance(eps)
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = one_norm(W)
        if not math.isfinite(norm1):  # the halving loop below would not end
            raise NonFiniteError("the 1-norm of the input is not finite")
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
        while abs(Y.a[0, 0]) > eps or (e1 := one_norm(Y)) > eps:
            x += Y.a
            Y = _wrap(mat_mul(B, Y, ledger).a / k)
            k += 1
        X = squaring(_wrap(x), s, ledger)
    plan = EvalPlan(m=k - 2, s=s, scheme=SCHEME_BASELINE,
                    e1=e1, e2=0.0, cached_powers={}, cached_norms={})
    return ExpmResult(check_finite(X), plan, ledger.count, time.perf_counter() - t0)


def expm(W: Matrix, eps: float, scheme: str = SCHEME_SASTRE) -> ExpmResult:
    """Selected-order scaled-Taylor exponential.

    ``scheme`` picks the selector/evaluator pair: ``"ps"`` for
    Paterson-Stockmeyer (orders up to 16) or ``"sastre"`` for the
    evaluation formulas (orders up to 15+).  Powers cached by the
    selector are powers of the unscaled W; they are rescaled entrywise by
    the exact factors 2^(-s*p) instead of being recomputed, which keeps
    the total cost at the polynomial budget plus s.
    """
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = MulLedger()
        if scheme == SCHEME_PS:
            plan = select_ps(W, eps, ledger)
        elif scheme == SCHEME_SASTRE:
            plan = select_sastre(W, eps, ledger)
        else:
            raise MatrixError(f"unknown scheme {scheme!r}; expected 'ps' or 'sastre'")

        # cached_powers always holds W itself as power 1.
        scaled = plan.cached_powers
        if plan.s:
            scaled = {p: scale_pow2(P, plan.s * p) for p, P in scaled.items()}
        B = scaled[1]
        if plan.m == 0:
            X = identity(W.n)
        elif scheme == SCHEME_PS:
            X = ps_eval(taylor_coeffs_exp(plan.m), B, ledger, powers=scaled)
        elif plan.m in (1, 2, 4):
            X = eval_low_order(B, plan.m, ledger, a2=scaled.get(2))
        elif plan.m == 8:
            X = eval_t8(B, ledger, a2=scaled.get(2))
        else:
            X = eval_t15p(B, ledger, a2=scaled.get(2))
        X = squaring(X, plan.s, ledger)
    return ExpmResult(check_finite(X), plan, ledger.count, time.perf_counter() - t0)


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
    reported in ``rect_mults``.
    """
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = MulLedger()
        V = _wrap(pair.a2 @ pair.a1)  # _select scans V if its 1-norm is not finite
        plan = _select(LOWRANK_TABLES, SCHEME_LOWRANK, V, eps, ledger)
        if plan.s > 0:
            raise LowRankOrderError(
                f"||V||_1 = {plan.cached_norms[1]:.6g} admits no order <= "
                f"{LOWRANK_ORDERS[-1]} at tolerance {float(eps):.3g}; the factored path "
                "runs unscaled"
            )
        psi = ps_eval(phi1_coeffs(plan.m), V, ledger, powers=plan.cached_powers)
        value = pair.a1 @ (psi.a @ pair.a2)
        _add_to_diagonal(value, 1.0)  # I + value, on the diagonal only
    return ExpmResult(check_finite(_wrap(value)), plan, ledger.count,
                      time.perf_counter() - t0, rect_mults=3)
