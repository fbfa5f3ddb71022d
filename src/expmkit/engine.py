"""Matrix exponential drivers.

* :func:`expm_baseline` - the term-accumulation scheme: scale until the
  1-norm drops below 1/2, add Taylor terms until the next term's norm
  falls under the tolerance, square back.
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
full square-product count including the squaring phase.  Each driver runs
under one ``np.errstate`` that keeps overflow in its temporaries from
warning, and checks its result for finiteness once.  Its products are
unchecked (selection, the evaluators of :mod:`expmkit.poly` and
:func:`squaring` alike): finiteness is checked where the input enters
(:class:`~expmkit.matrix.Matrix`, :class:`LowRankPair`), through the
selector's power norms, and on the driver's output.  A non-finite entry
never becomes finite again on the way (see :mod:`expmkit.matrix`), so an
overflow raises :class:`~expmkit.matrix.NonFiniteError` and never a
warning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .matrix import (
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    check_finite,
    identity,
    one_norm,
    scale_pow2,
)
# Unchecked product under the name perfbench/tracing.py wraps
# (engine.mat_mul) to count squaring products; see expmkit.select.
from .matrix import _mat_mul_unchecked as mat_mul
from .poly import (
    EXP_COEFFS,
    eval_low_order,
    eval_t8,
    eval_t15p,
    phi1_coeffs,
    ps_eval,
    taylor_coeffs_exp,
)
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
    """

    value: Matrix
    plan: EvalPlan
    mults: int
    wall_time: float
    rect_mults: int = 0


def squaring(X: Matrix, s: int, ledger: MulLedger) -> Matrix:
    """X^(2^s) by s repeated squarings; charges exactly s products when
    the result is finite.

    Unchecked: run it under ``np.errstate(over="ignore", invalid="ignore")``
    and check the result, as the drivers do.  Once the squarings overflow,
    the loop stops early and returns the non-finite matrix, charged only
    for the products it formed.
    """
    s = int(s)
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
    termination).
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
        X = identity(W.n)
        Y = B
        k = 2
        # Y = B^(k-1)/(k-1)! with ||B||_1 < 1/2 stays below 2^-(k-1)/(k-1)!,
        # so the unchecked products here cannot overflow and the norm is
        # never NaN, which would end the loop as if it had converged.
        while one_norm(Y) > eps:
            X = X + Y
            Y = mat_mul(B, Y, ledger) / k
            k += 1
        X = squaring(X, s, ledger)
    plan = EvalPlan(m=k - 2, s=s, scheme=SCHEME_BASELINE,
                    e1=one_norm(Y), e2=0.0, cached_powers={}, cached_norms={})
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
    eps = check_tolerance(eps)
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = MulLedger()
        if scheme == SCHEME_PS:
            plan = select_ps(W, eps, ledger=ledger)
        elif scheme == SCHEME_SASTRE:
            plan = select_sastre(W, eps, ledger=ledger)
        else:
            raise MatrixError(f"unknown scheme {scheme!r}; expected 'ps' or 'sastre'")

        # cached_powers always holds W itself as power 1.
        scaled = {p: scale_pow2(P, plan.s * p) for p, P in plan.cached_powers.items()}
        B = scaled[1]
        if plan.m == 0:
            X = identity(W.n)
        elif scheme == SCHEME_PS:
            X = ps_eval(taylor_coeffs_exp(plan.m), B, ledger, powers=scaled)
        elif plan.m in (1, 2, 4):
            X = eval_low_order(B, plan.m, ledger, a2=scaled.get(2))
        elif plan.m == 8:
            X = eval_t8(B, EXP_COEFFS, ledger, a2=scaled.get(2))
        else:
            X = eval_t15p(B, EXP_COEFFS, ledger, a2=scaled.get(2))
        X = squaring(X, plan.s, ledger)
    return ExpmResult(check_finite(X), plan, ledger.count, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Low-rank path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowRankPair:
    """Factored weight W = A1 A2 with A1 (n x t) and A2 (t x n), t <= n."""

    a1: np.ndarray
    a2: np.ndarray

    def __post_init__(self):
        a1 = np.array(self.a1, dtype=np.float64)
        a2 = np.array(self.a2, dtype=np.float64)
        if a1.ndim != 2 or a2.ndim != 2:
            raise MatrixError("low-rank factors must be 2-d arrays")
        n, t = a1.shape
        if a2.shape != (t, n):
            raise MatrixError(f"factor shapes incompatible: {a1.shape} and {a2.shape}")
        if t > n:
            raise MatrixError(f"inner rank {t} exceeds order {n}")
        if not (np.isfinite(a1).all() and np.isfinite(a2).all()):
            raise NonFiniteError("low-rank factors must be finite")
        a1.setflags(write=False)
        a2.setflags(write=False)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @property
    def n(self) -> int:
        return self.a1.shape[0]

    @property
    def t(self) -> int:
        return self.a1.shape[1]


LOWRANK_ORDERS = LOWRANK_TABLES.orders


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
    eps = check_tolerance(eps)
    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        ledger = MulLedger()
        V = Matrix(pair.a2 @ pair.a1)
        plan = _select(V, eps, LOWRANK_TABLES, SCHEME_LOWRANK, ledger)
        if plan.s > 0:
            raise LowRankOrderError(
                f"||V||_1 = {plan.cached_norms[1]:.6g} admits no order <= "
                f"{LOWRANK_ORDERS[-1]} at tolerance {eps:.3g}; the factored path "
                "runs unscaled"
            )
        if plan.m == 0:
            psi = identity(V.n)
        else:
            psi = ps_eval(phi1_coeffs(plan.m), V, ledger, powers=plan.cached_powers)
        value = Matrix(np.eye(pair.n) + pair.a1 @ (psi.a @ pair.a2))
    return ExpmResult(value, plan, ledger.count, time.perf_counter() - t0,
                      rect_mults=3)
