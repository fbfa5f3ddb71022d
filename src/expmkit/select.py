"""Order and scaling selection for the scaled-Taylor exponential.

One search, :func:`_select`, walks one of three order ladders
(:data:`PS_TABLES`, :data:`SASTRE_TABLES` and, for the index-shifted
series of the low-rank path, :data:`LOWRANK_TABLES`: tuples of
:class:`Rung` records, all built by :func:`_ladder` from the
Paterson-Stockmeyer block shape) and bounds the
first two remainder terms, E1 ~ c1 ||W^(m+1)|| and E2 ~ c2 ||W^(m+2)||,
using products of 1-norms of the powers of W formed so far (never
forming higher powers just to bound them).  The first order whose
E1 + E2 meets the tolerance wins with s = 0; if none does, the top order
is kept and the scaling parameter is the smallest s for which
E1/2^(s(m+1)) + E2/2^(s(m+2)) meets it, capped at 20 to avoid
overscaling.

All bound arithmetic runs in base-2 log domain so that high powers of
large norms never overflow; values are exponentiated back only for
reporting.

The 1-norm of W and of each power formed while bounding doubles as the
finiteness test, and a finite matrix whose column sums overflow goes on
with an infinite bound.  The searches are unguarded building blocks;
:mod:`expmkit.matrix` states that contract and why the test suffices.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .matrix import Matrix, MulLedger, _real, check_finite, one_norm
# perfbench/tracing.py wraps select.mat_mul to count selection products.
from .matrix import mat_mul
from .poly import EXP_COEFFS, SASTRE_ORDERS, _PowerStack, inv_factorial, ps_shape

__all__ = [
    "EvalPlan",
    "LOWRANK_TABLES",
    "MAX_SCALING",
    "PS_TABLES",
    "Rung",
    "SASTRE_TABLES",
    "SCHEME_BASELINE",
    "SCHEME_LOWRANK",
    "SCHEME_PS",
    "SCHEME_SASTRE",
    "ToleranceError",
    "UNIT_ROUNDOFF",
    "check_tolerance",
    "select_ps",
    "select_sastre",
]

UNIT_ROUNDOFF = 2.0 ** -53
MAX_SCALING = 20

SCHEME_BASELINE = "baseline"
SCHEME_PS = "ps"
SCHEME_SASTRE = "sastre"
SCHEME_LOWRANK = "lowrank"


class ToleranceError(ValueError):
    """Requested tolerance not a real number, below the unit roundoff, or
    not below 1."""


def check_tolerance(eps: float) -> float:
    """eps as a float, if it is a real relative tolerance in [u, 1); text,
    complex numbers and other objects are refused, not cast (:func:`_real`)."""
    if type(eps) is not float:  # a Python float (what perfbench and the CLI pass) skips the tests
        try:
            eps = _real(eps)
        except (ValueError, OverflowError) as e:
            raise ToleranceError(f"tolerance {e}") from None
    if math.isnan(eps):
        raise ToleranceError(f"tolerance {eps!r} is not a number")
    if eps < UNIT_ROUNDOFF:
        raise ToleranceError(
            f"tolerance {eps!r} below unit roundoff {UNIT_ROUNDOFF:.3e}; "
            "sub-roundoff accuracy cannot be guaranteed in binary64"
        )
    if eps >= 1.0:
        raise ToleranceError(
            f"tolerance {eps!r} is not below 1; a relative error of 1 or "
            "more bounds nothing"
        )
    return eps


def _log2(x: float) -> float:
    return math.log2(x) if x > 0.0 else -math.inf


def _exp2(x: float) -> float:
    """2^x, or inf where that overflows binary64 (from x = 1024 on)."""
    if x >= 1024.0:
        return math.inf
    return math.exp2(x)


# log2(e), the constant numpy's log2_1p multiplies log1p by.
_LOG2E = 1.442695040888963407359924681001892137


def _log2_sum(x: float, y: float) -> float:
    """log2(2^x + 2^y) without overflow: numpy's logaddexp2 formula on
    Python floats, so it returns the same value at a fraction of the cost."""
    if x == y:
        return x + 1.0  # also covers two infinities of the same sign
    d = x - y
    if d > 0:
        return x + _LOG2E * math.log1p(math.exp2(-d))
    if d <= 0:
        return y + _LOG2E * math.log1p(math.exp2(d))
    return d  # NaN


class Rung(NamedTuple):
    """One order of a ladder: block power j, k = ceil(m/j) blocks, and the
    log2 weights of the m+1 and m+2 remainder terms."""

    m: int
    j: int
    k: int
    log_c1: float
    log_c2: float


def _ladder(orders, cap=math.inf, shift=0, first_tails=None) -> tuple[Rung, ...]:
    """The rungs over ``orders``: j = min(ps_shape(m).j, cap), k = ceil(m/j),
    and tail weights 1/(m+1+shift)! and 1/(m+2+shift)!, unless
    ``first_tails`` replaces the first for an order."""
    first_tails = first_tails or {}
    rungs = []
    for m in orders:
        j = min(ps_shape(m).j, cap)
        rungs.append(Rung(m, j, -(-m // j),
                          _log2(first_tails.get(m, inv_factorial(m + 1 + shift))),
                          _log2(inv_factorial(m + 2 + shift))))
    return tuple(rungs)


PS_TABLES = _ladder((1, 2, 4, 6, 9, 12, 16))

# The evaluation formulas need only W^2.  The penultimate tail weight of
# the 15+ route is |1/16! - b16|: the degree-16 coefficient of the
# evaluated polynomial is b16, not 1/16!, so that is the remainder weight
# actually left at degree 16.
SASTRE_TABLES = _ladder(SASTRE_ORDERS, cap=2,
                        first_tails={15: abs(inv_factorial(16) - EXP_COEFFS.b16)})

# The low-rank path evaluates sum_i V^i/(i+1)!, so the tail weights are
# the shifted 1/(m+2)! and 1/(m+3)!.  Its ladder is the evaluation-formula
# ladder extended by Paterson-Stockmeyer degrees, but the shifted series
# has no published formula coefficients, so every order here is
# evaluated by ps_eval; only V^2 is formed while bounding.
LOWRANK_TABLES = _ladder(SASTRE_ORDERS + (16, 20, 25, 30), cap=2, shift=1)


class EvalPlan(NamedTuple):
    """Outcome of order/scale selection, an immutable record of scalars.

    ``norms[p - 1]`` is ||W^p||_1 for each power formed while bounding.
    ``e1``/``e2`` bound the two remainder terms of the *unscaled* W at
    order m (possibly 0 or inf; the selection compares in log domain).
    ``log2_bound`` is log2 of the scaled bound
    e1*2^(-s(m+1)) + e2*2^(-s(m+2)) that the plan reaches, as the selector
    forms and tests it (``bound`` is its value), and ``eps`` the tolerance
    it was selected for; the baseline's bound is the term norm that ended
    its loop.  The bound covers the truncation of the *scaled* series
    only: the s squarings can multiply that error, and rounding, by about
    2^s.  At s = ``MAX_SCALING`` (``cap_hit``) the bound itself can exceed
    eps, and ``bound_met`` then says False.
    """

    m: int
    s: int
    scheme: str
    e1: float
    e2: float
    norms: tuple[float, ...]
    eps: float
    log2_bound: float

    @property
    def bound(self) -> float:
        """The scaled bound, or inf where it overflows binary64."""
        return _exp2(self.log2_bound)

    @property
    def cap_hit(self) -> bool:
        """Whether a selector stopped scaling at its cap; the baseline has none."""
        return self.s == MAX_SCALING and self.scheme != SCHEME_BASELINE

    @property
    def bound_met(self) -> bool:
        """Whether the scaled bound is at most eps, tested in log domain as
        the selector tests it (False for a NaN bound)."""
        return self.log2_bound <= math.log2(self.eps)


def _select(ladder: tuple[Rung, ...], scheme: str, W: Matrix, eps: float,
            ledger: MulLedger, powers: list, norm1: float | None = None) -> EvalPlan:
    """The plan for W on ``ladder``; the powers W, W^2, ... formed while
    bounding go into the caller's empty list ``powers``, for it to reuse
    (a :class:`~expmkit.poly._PowerStack` takes into its rows those a block sum reads).
    ``norm1`` is ``one_norm(W)`` where the caller formed it already."""
    eps = check_tolerance(eps)
    if norm1 is None:
        norm1 = one_norm(W)
    if not math.isfinite(norm1):
        check_finite(W)
    powers.append(W)
    norms = [norm1]
    if norm1 == 0.0:
        return EvalPlan(0, 0, scheme, 0.0, 0.0, (norm1,), eps, -math.inf)

    log_eps = math.log2(eps)
    lw = [0.0, _log2(norm1)]  # lw[p] = log2 ||W^p||_1, with ||W^0||_1 = 1
    for m, j, k, lc1, lc2 in ladder:
        if m == 1:
            l1 = lc1 + 2 * lw[1]
            l2 = lc2 + 3 * lw[1]
        else:
            while len(powers) < j:
                # From W^3 (expm's ps orders 2 and 4 are formulas), or V^2
                # (every low-rank order is a block sum), into the stack.
                if type(powers) is _PowerStack and (len(powers) > 1 or scheme == SCHEME_LOWRANK):
                    P = mat_mul(powers[-1], W, ledger, out=powers.row(len(powers)))
                else:
                    P = mat_mul(powers[-1], W, ledger)
                powers.append(P)
                norms.append(one_norm(powers[-1]))
                if not math.isfinite(norms[-1]):
                    check_finite(powers[-1])
                lw.append(_log2(norms[-1]))
            # ||W^(m+t)|| <= ||W^j||^k ||W^(m+t-jk)||; jk is m or m+1 on every ladder.
            l1 = lc1 + k * lw[j] + lw[m + 1 - j * k]
            l2 = lc2 + k * lw[j] + lw[m + 2 - j * k]
            if lw[j] == -math.inf:
                # W^j = 0: both terms vanish, also where an overflowed
                # ||W||_1 made the sums above -inf + inf = NaN.
                l1 = l2 = -math.inf
        # The sum is at least either term, so a term above eps fails it
        # without the call; a NaN term fails both tests.
        if l1 <= log_eps and l2 <= log_eps and (bound := _log2_sum(l1, l2)) <= log_eps:
            return EvalPlan(m, 0, scheme, _exp2(l1), _exp2(l2), tuple(norms), eps, bound)

    # No order met eps unscaled, so the top one is scaled.  At the larger
    # per-term ceiling each scaled term is within eps, so their sum is
    # within 2 eps; one more step divides both by at least 4, so the
    # smallest s meeting the sum is that ceiling or the next.  A +inf term
    # takes the cap; a NaN one fails every test.
    s = 0
    for t, l in ((1, l1), (2, l2)):
        if l > log_eps:
            s = max(s, math.ceil(min((l - log_eps) / (m + t), MAX_SCALING)))
    bound = _log2_sum(l1 - s * (m + 1), l2 - s * (m + 2))
    if s < MAX_SCALING and not bound <= log_eps:
        s += 1
        bound = _log2_sum(l1 - s * (m + 1), l2 - s * (m + 2))
    return EvalPlan(m, s, scheme, _exp2(l1), _exp2(l2), tuple(norms), eps, bound)


# The two searches, unguarded building blocks like the evaluators (see
# expmkit.matrix).  select_sastre forms only W^2: its bounds for ||W^16||
# and ||W^17|| use ||W^2||^8 and ||W^2||^8 * ||W||.
select_ps = functools.partial(_select, PS_TABLES, SCHEME_PS)
select_sastre = functools.partial(_select, SASTRE_TABLES, SCHEME_SASTRE)
