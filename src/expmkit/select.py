"""Order and scaling selection for the scaled-Taylor exponential.

One search, :func:`_select`, walks one of three order ladders
(:data:`PS_TABLES`, :data:`SASTRE_TABLES` and, for the index-shifted
series of the low-rank path, :data:`LOWRANK_TABLES`) and bounds the
first two remainder terms, E1 ~ c1 ||W^(m+1)|| and E2 ~ c2 ||W^(m+2)||,
using products of 1-norms of the powers of W cached so far (never
forming higher powers just to bound them).  The first order whose
E1 + E2 meets the tolerance wins with s = 0; if none does, the top order
is kept and the scaling parameter is the smallest s for which
E1/2^(s(m+1)) + E2/2^(s(m+2)) meets it, capped at 20 to avoid
overscaling.

All bound arithmetic runs in base-2 log domain so that high powers of
large norms never overflow; values are exponentiated back only for
reporting.

Each power formed while bounding comes from the unchecked product; its
1-norm doubles as the finiteness test.  A finite norm proves every entry
finite, so only a power whose norm is Inf or NaN is scanned, and a
non-finite entry raises :class:`~expmkit.matrix.NonFiniteError` there.
A finite power whose column sums overflow goes on with an infinite bound.

:func:`alpha_from_cache` (the surrogate alpha_p = max a_k^(1/k) built
from the cached norms) and the closed remainder bounds
:func:`remainder_bound_exp` and :func:`remainder_bound_phi` are
validation helpers only; no selector uses them.  Selecting with alpha_p
in place of the cached-norm products changed no plan on 1,128 inputs
(five dense kinds, n = 8-64, 1-norms 2.8e-4 to 1e3, both ladders,
eps 1e-8): the two-term bounds above already take the tightest product
of the norms in the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix import Matrix, MatrixError, MulLedger, check_finite, one_norm
# The unchecked product keeps the name mat_mul: perfbench/tracing.py counts
# products per phase by wrapping the module attributes select.mat_mul,
# poly.mat_mul and engine.mat_mul.
from .matrix import _mat_mul_unchecked as mat_mul
from .poly import EXP_COEFFS, inv_factorial

__all__ = [
    "AlphaBound",
    "BoundDomainError",
    "EvalPlan",
    "LOWRANK_TABLES",
    "MAX_SCALING",
    "PS_TABLES",
    "SASTRE_TABLES",
    "SCHEME_BASELINE",
    "SCHEME_LOWRANK",
    "SCHEME_PS",
    "SCHEME_SASTRE",
    "SelectionTables",
    "ToleranceError",
    "UNIT_ROUNDOFF",
    "alpha_from_cache",
    "check_tolerance",
    "remainder_bound_exp",
    "remainder_bound_phi",
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
    """Requested tolerance below the unit roundoff (or not a number)."""


class BoundDomainError(ValueError):
    """alpha_p outside the domain where the remainder bound applies."""


def check_tolerance(eps: float) -> float:
    eps = float(eps)
    if math.isnan(eps) or eps < UNIT_ROUNDOFF:
        raise ToleranceError(
            f"tolerance {eps!r} below unit roundoff {UNIT_ROUNDOFF:.3e}; "
            "sub-roundoff accuracy cannot be guaranteed in binary64"
        )
    return eps


def _log2(x: float) -> float:
    return math.log2(x) if x > 0.0 else -math.inf


def _exp2(x: float) -> float:
    """2^x, or inf where that overflows binary64 (from x = 1024 on)."""
    if x >= 1024.0:
        return math.inf
    return float(np.exp2(x))


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


def _log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2.0)


@dataclass(frozen=True)
class SelectionTables:
    """Order ladder with its power/block shape and remainder-tail
    coefficients (two per order: the m+1 and m+2 term weights)."""

    orders: tuple
    block_pows: tuple
    block_counts: tuple
    tails: tuple
    log_tails: tuple = field(init=False)

    def __post_init__(self):
        if len(self.tails) != 2 * len(self.orders):
            raise ValueError("need exactly two tail coefficients per order")
        object.__setattr__(self, "log_tails", tuple(_log2(c) for c in self.tails))


PS_TABLES = SelectionTables(
    orders=(1, 2, 4, 6, 9, 12, 16),
    block_pows=(1, 2, 2, 3, 3, 4, 4),
    block_counts=(1, 1, 2, 2, 3, 3, 4),
    tails=(
        inv_factorial(2), inv_factorial(3),
        inv_factorial(3), inv_factorial(4),
        inv_factorial(5), inv_factorial(6),
        inv_factorial(7), inv_factorial(8),
        inv_factorial(10), inv_factorial(11),
        inv_factorial(13), inv_factorial(14),
        inv_factorial(17), inv_factorial(18),
    ),
)

# The penultimate tail weight of the 15+ route is |1/16! - b16|: the
# degree-16 coefficient of the evaluated polynomial is b16, not 1/16!,
# so that is the remainder weight actually left at degree 16.
SASTRE_TABLES = SelectionTables(
    orders=(1, 2, 4, 8, 15),
    block_pows=(1, 2, 2, 2, 2),
    block_counts=(1, 1, 2, 4, 8),
    tails=(
        inv_factorial(2), inv_factorial(3),
        inv_factorial(3), inv_factorial(4),
        inv_factorial(5), inv_factorial(6),
        inv_factorial(9), inv_factorial(10),
        abs(inv_factorial(16) - EXP_COEFFS.b16), inv_factorial(17),
    ),
)

# The low-rank path evaluates sum_i V^i/(i+1)!, so the tail weights are
# the shifted 1/(m+2)! and 1/(m+3)!.  Its ladder is the evaluation-formula
# ladder extended by Paterson-Stockmeyer degrees, but the shifted series
# has no published formula coefficients, so every order here is
# evaluated by ps_eval; only V^2 is formed while bounding.
_LOWRANK_ORDERS = (1, 2, 4, 8, 15, 16, 20, 25, 30)
LOWRANK_TABLES = SelectionTables(
    orders=_LOWRANK_ORDERS,
    block_pows=(1, 2, 2, 2, 2, 2, 2, 2, 2),
    block_counts=(1, 1, 2, 4, 8, 8, 10, 13, 15),
    tails=tuple(inv_factorial(m + d) for m in _LOWRANK_ORDERS for d in (2, 3)),
)


@dataclass
class EvalPlan:
    """Outcome of order/scale selection.

    ``cached_powers`` holds the powers of the *unscaled* input formed
    while bounding (W^2, plus W^3/W^4 on the Paterson-Stockmeyer ladder);
    drivers rescale and reuse them so the advertised budgets hold.
    ``e1``/``e2`` are the final two-term bounds (possibly 0 or inf; the
    selection itself compares in log domain).
    """

    m: int
    s: int
    scheme: str
    e1: float
    e2: float
    cached_powers: dict
    cached_norms: dict


def _select(W: Matrix, eps: float, tables: SelectionTables, scheme: str,
            ledger: MulLedger | None) -> EvalPlan:
    eps = check_tolerance(eps)
    if ledger is None:
        ledger = MulLedger()
    norm1 = one_norm(W)
    powers = {1: W}
    norms = {1: norm1}
    if norm1 == 0.0:
        return EvalPlan(0, 0, scheme, 0.0, 0.0, powers, norms)

    log_eps = math.log2(eps)
    lw = {1: _log2(norm1)}
    l1 = l2 = math.inf
    m = tables.orders[-1]
    finished = False
    for i, m_i in enumerate(tables.orders):
        m = m_i
        j = tables.block_pows[i]
        k = tables.block_counts[i]
        lc1 = tables.log_tails[2 * i]
        lc2 = tables.log_tails[2 * i + 1]
        if m_i == 1:
            l1 = lc1 + 2 * lw[1]
            l2 = lc2 + 3 * lw[1]
        else:
            for p in range(2, j + 1):
                if p not in powers:
                    powers[p] = mat_mul(powers[p - 1], W, ledger)
                    norms[p] = one_norm(powers[p])
                    if not math.isfinite(norms[p]):
                        check_finite(powers[p])
                    lw[p] = _log2(norms[p])
            l1 = lc1 + k * lw[j]
            l2 = lc2 + k * lw[j]
            if j * k == m_i:
                l1 += lw[1]
                l2 += lw[2]
            else:
                l2 += lw[1]
            if lw[j] == -math.inf:
                # W^j = 0: both terms vanish, also where an overflowed
                # ||W||_1 made the sums above -inf + inf = NaN.
                l1 = l2 = -math.inf
        if _log2_sum(l1, l2) <= log_eps:
            finished = True
            break

    s = 0
    if not finished:
        # At the larger per-term ceiling each scaled term is within eps, so
        # their sum is within 2 eps; one more step divides both by at
        # least 4, so the smallest s meeting the sum is that ceiling or
        # the next.  A +inf term takes the cap; a NaN one fails every test.
        for t, l in ((1, l1), (2, l2)):
            if l > log_eps:
                s = max(s, math.ceil(min((l - log_eps) / (m + t), MAX_SCALING)))
        if s < MAX_SCALING and not _log2_sum(l1 - s * (m + 1), l2 - s * (m + 2)) <= log_eps:
            s += 1
    return EvalPlan(m, s, scheme, _exp2(l1), _exp2(l2), powers, norms)


def select_ps(W: Matrix, eps: float, ledger: MulLedger | None = None) -> EvalPlan:
    """Order/scale for the Paterson-Stockmeyer route (ladder up to 16).

    A 1-norm that overflows gives an infinite bound, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _select(W, eps, PS_TABLES, SCHEME_PS, ledger)


def select_sastre(W: Matrix, eps: float, ledger: MulLedger | None = None) -> EvalPlan:
    """Order/scale for the evaluation-formula route (ladder up to 15+).

    Only W^2 is ever formed; bounds for ||W^16|| and ||W^17|| use
    ||W^2||^8 and ||W^2||^8 * ||W||.  A 1-norm that overflows gives an
    infinite bound, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _select(W, eps, SASTRE_TABLES, SCHEME_SASTRE, ledger)


# ---------------------------------------------------------------------------
# Sharper power-norm surrogate and the closed remainder bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaBound:
    """alpha_p = max a_k^(1/k) over the remainder index set, where a_k
    upper-bounds ||W^k||_1; never larger than ||W||_1."""

    p: int
    alpha_p: float


def alpha_from_cache(plan: EvalPlan, m: int, p: int) -> AlphaBound:
    """Build alpha_p from the power norms a selection already cached.

    Each a_k is the minimal product of cached power-norms whose exponents
    sum to k (submultiplicativity), found by a small DP; no additional
    matrix products are spent.  The index set is {p} and m+1 .. m+1+p
    with the multiple of p in that window dropped.
    """
    norms = plan.cached_norms
    if 1 not in norms:
        raise MatrixError(f"power-norm cache lacks ||W||_1: {sorted(norms)}")
    m = int(m)
    p = int(p)
    if m < 0 or not 1 <= p <= m + 1:
        raise ValueError(f"need 1 <= p <= m+1, got p={p}, m={m}")
    kmax = m + 1 + p
    logs = {e: _log2(v) for e, v in norms.items() if e >= 1}
    best = [math.inf] * (kmax + 1)
    best[0] = 0.0
    for q in range(1, kmax + 1):
        for e, le in logs.items():
            if e <= q:
                cand = best[q - e] + le
                if cand < best[q]:
                    best[q] = cand
    p0 = m + 1
    while p0 % p:
        p0 += 1
    ks = [p] + [q for q in range(m + 1, kmax + 1) if q != p0]
    val = max(best[q] / q for q in ks)
    return AlphaBound(p=p, alpha_p=_exp2(val))


def _alpha_value(alpha) -> float:
    a = alpha.alpha_p if isinstance(alpha, AlphaBound) else float(alpha)
    if math.isnan(a) or a < 0:
        raise BoundDomainError(f"alpha_p must be a nonnegative real, got {a!r}")
    return a


def remainder_bound_exp(alpha, m: int) -> float:
    """Closed bound alpha^(m+1)/(m+1)! * 1/(1 - alpha/(m+2)) on the
    exponential Taylor remainder of degree m; requires alpha < m + 2."""
    a = _alpha_value(alpha)
    if a >= m + 2:
        raise BoundDomainError(f"bound needs alpha_p < m+2 = {m + 2}, got {a}")
    if a == 0.0:
        return 0.0
    lead = _exp2((m + 1) * math.log2(a) - _log2_factorial(m + 1))
    return lead / (1.0 - a / (m + 2))


def remainder_bound_phi(alpha, m: int) -> float:
    """Same shape for the index-shifted series sum_{k>m} A^k/(k+1)!:
    alpha^(m+1)/(m+2)! * 1/(1 - alpha/(m+3)); requires alpha < m + 3."""
    a = _alpha_value(alpha)
    if a >= m + 3:
        raise BoundDomainError(f"bound needs alpha_p < m+3 = {m + 3}, got {a}")
    if a == 0.0:
        return 0.0
    lead = _exp2((m + 1) * math.log2(a) - _log2_factorial(m + 2))
    return lead / (1.0 - a / (m + 3))
