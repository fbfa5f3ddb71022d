import math
import tracemalloc
import warnings
from collections import Counter
from decimal import Decimal
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expmkit import (
    LOWRANK_ORDERS,
    LowRankOrderError,
    LowRankPair,
    Matrix,
    MatrixError,
    MulLedger,
    NonFiniteError,
    ToleranceError,
    expm,
    expm_baseline,
    expm_lowrank,
    expm_reference,
    frobenius_norm,
    identity,
    one_norm,
    ps_shape,
    relative_error,
    sastre_budget,
    squaring,
)


import expmkit
from expmkit import engine as engine_mod, matrix as matrix_mod, poly as poly_mod, select as select_mod


def random_with_norm(rng, n, target):
    arr = rng.uniform(-1, 1, (n, n))
    return Matrix(arr * (target / np.abs(arr).sum(axis=0).max()))


# ---------------------------------------------------------------------------
# squaring
# ---------------------------------------------------------------------------

def test_squaring_noop():
    led = MulLedger()
    X = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert squaring(X, 0, led) is X
    assert led.count == 0


def test_squaring_scaled_identity():
    led = MulLedger()
    out = squaring(Matrix(2.0 * np.eye(3)), 3, led)
    assert np.array_equal(out.a, 256.0 * np.eye(3))
    assert led.count == 3


def test_squaring_diagonal_powers():
    d = np.array([0.5, -1.25, 0.75])
    led = MulLedger()
    out = squaring(Matrix(np.diag(d)), 4, led)
    want = d ** 16
    assert np.allclose(out.a.diagonal(), want, rtol=4e-16, atol=0)
    assert led.count == 4


def test_squaring_rejects_negative():
    with pytest.raises(MatrixError):
        squaring(identity(2), -1, MulLedger())
    ledger = MulLedger()
    with pytest.raises(TypeError):  # not truncated to one squaring
        squaring(identity(2), 1.5, ledger)
    assert ledger.count == 0


# ---------------------------------------------------------------------------
# baseline driver
# ---------------------------------------------------------------------------

def test_baseline_zero():
    res = expm_baseline(Matrix(np.zeros((3, 3))), 1e-8)
    assert np.array_equal(res.value.a, np.eye(3))
    assert res.mults == 0 and res.plan.s == 0


def test_baseline_nilpotent_terminates_exactly():
    W = Matrix([[0.0, 1.0], [0.0, 0.0]])
    res = expm_baseline(W, 1e-8)
    assert np.array_equal(res.value.a, np.eye(2) + W.a)


def test_baseline_large_diag_costs():
    res = expm_baseline(Matrix(np.diag([12.57, -3.0, 1.0])), 1e-8)
    assert res.plan.s == 5  # 12.57 / 32 < 1/2
    assert res.mults == res.plan.s + res.plan.m  # one product per term formed
    assert res.mults <= 14


def test_baseline_cost_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 16))
        W = random_with_norm(rng, n, float(10.0 ** rng.uniform(-4, 1.1)))
        res = expm_baseline(W, 1e-8)
        assert res.mults == res.plan.s + res.plan.m
        assert math.ldexp(one_norm(W), -res.plan.s) < 0.5


def test_baseline_forms_a_term_norm_only_where_the_corner_cannot_decide(monkeypatch):
    # |y_00| <= ||Y||_1, so a term whose corner exceeds eps needs no norm
    # to continue the loop; the norm that ends it is formed once.
    seen = []

    def counting_norm(A):
        seen.append(A)
        return one_norm(A)

    monkeypatch.setattr(engine_mod, "one_norm", counting_norm)
    rng = np.random.default_rng(15)
    for n in (4, 8, 16):
        W = random_with_norm(rng, n, 1.0)
        seen.clear()
        res = expm_baseline(W, 1e-8)
        assert seen[0] is W
        terms = seen[1:]
        # The loop tests m + 1 terms; a dense input skips some norms ...
        assert 1 <= len(terms) < res.plan.m + 1
        assert all(abs(Y.a[0, 0]) <= 1e-8 for Y in terms)
        # ... forms each term's norm at most once, and the last one
        # formed is the norm that ended the loop.
        assert len({id(Y) for Y in terms}) == len(terms)
        assert res.plan.e1 == one_norm(terms[-1]) <= 1e-8


@pytest.mark.parametrize("x", [0.4999, -0.4999])
def test_baseline_reaches_its_last_divisor_at_the_extreme(x):
    # ||B||_1 just under 1/2 at the least tolerance: the term loop runs to
    # B^15/15!, so a divisor table one entry short raises here.
    res = expm_baseline(Matrix([[x]]), 2.0 ** -53)
    assert (res.plan.m, res.plan.s) == (14, 0)
    assert res.value.a[0, 0] == pytest.approx(math.exp(x), rel=2e-16)


def test_baseline_tolerance_floor():
    with pytest.raises(ToleranceError):
        expm_baseline(identity(2), 2.0 ** -60)


# ---------------------------------------------------------------------------
# selected-order driver
# ---------------------------------------------------------------------------

def test_expm_zero():
    for scheme in ("ps", "sastre"):
        res = expm(Matrix(np.zeros((4, 4))), 1e-8, scheme)
        assert np.array_equal(res.value.a, np.eye(4))
        assert (res.plan.m, res.plan.s, res.mults) == (0, 0, 0)


def test_expm_nilpotent():
    W = Matrix([[0.0, 1.0], [0.0, 0.0]])
    for scheme in ("ps", "sastre"):
        res = expm(W, 1e-8, scheme)
        assert np.abs(res.value.a - np.array([[1.0, 1.0], [0.0, 1.0]])).max() <= 1e-15


def test_expm_diag_ones_plans_and_costs():
    W = Matrix(np.diag([1.0] * 5))
    res_sa = expm(W, 1e-8, "sastre")
    assert (res_sa.plan.m, res_sa.plan.s, res_sa.mults) == (15, 0, 4)
    res_ps = expm(W, 1e-8, "ps")
    assert (res_ps.plan.m, res_ps.plan.s, res_ps.mults) == (12, 0, 5)
    for res in (res_sa, res_ps):
        assert np.abs(res.value.a.diagonal() - math.e).max() <= 1e-8 * math.e


def test_expm_unknown_scheme():
    with pytest.raises(MatrixError):
        expm(identity(2), 1e-8, "pade")


def test_expm_cost_identity():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 24))
        W = random_with_norm(rng, n, float(10.0 ** rng.uniform(-5, 1.2)))
        for scheme in ("ps", "sastre"):
            res = expm(W, 1e-8, scheme)
            m = res.plan.m
            if m == 0:
                budget = 0
            elif scheme == "ps":
                budget = ps_shape(m).mults
            else:
                budget = sastre_budget(m)
            assert res.mults == budget + res.plan.s


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 16), log10_norm=st.floats(-4.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1), scheme=st.sampled_from(("sastre", "ps", "baseline")))
def test_mults_equal_budget_plus_s_property(n, log10_norm, seed, scheme):
    W = random_with_norm(np.random.default_rng(seed), n, 10.0 ** log10_norm)
    res = expm_baseline(W, 1e-8) if scheme == "baseline" else expm(W, 1e-8, scheme)
    m = res.plan.m
    if scheme == "baseline":
        budget = m  # one product per term formed
    elif scheme == "ps":
        budget = ps_shape(m).mults
    else:
        budget = sastre_budget(m)
    assert res.mults == budget + res.plan.s


def test_expm_mults_nonincreasing_in_tolerance():
    rng = np.random.default_rng(19)
    for _ in range(12):
        n = int(rng.integers(2, 12))
        W = random_with_norm(rng, n, float(10.0 ** rng.uniform(-3, 1.1)))
        for scheme in ("ps", "sastre"):
            costs = [expm(W, eps, scheme).mults for eps in (1e-12, 1e-8, 1e-4)]
            assert costs[0] >= costs[1] >= costs[2]


def test_expm_matches_reference():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 20))
        W = random_with_norm(rng, n, float(10.0 ** rng.uniform(-2, 1.0)))
        ref = expm_reference(W)
        for scheme in ("ps", "sastre"):
            res = expm(W, 1e-8, scheme)
            assert relative_error(res.value, ref) <= 1e-7


def test_expm_diagonal_entrywise():
    # Diagonal input stays diagonal; entries track the scalar exponential.
    # A tight tolerance keeps the truncation floor well under the 1e-13
    # comparison threshold even after the squaring amplification.
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 16))
        d = rng.uniform(-1, 1, n)
        d *= rng.uniform(0.1, 10.0) / np.abs(d).max()
        for scheme in ("ps", "sastre"):
            res = expm(Matrix(np.diag(d)), 1e-15, scheme)
            off = res.value.a.copy()
            np.fill_diagonal(off, 0.0)
            assert not off.any()
            rel = np.abs(res.value.a.diagonal() - np.exp(d)) / np.exp(d)
            assert rel.max() <= 1e-13


def test_expm_inverse_identity():
    # Invertibility to 1e-10 needs the truncation floor pushed well below
    # the comparison threshold, hence the tight tolerance here.
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 33))
        W = random_with_norm(rng, n, float(rng.uniform(0.1, 2.0)))
        for scheme in ("ps", "sastre"):
            fwd = expm(W, 1e-12, scheme).value
            bwd = expm(Matrix(-1.0 * W.a), 1e-12, scheme).value
            rel = frobenius_norm(Matrix(fwd.a @ bwd.a - np.eye(n))) / math.sqrt(n)
            assert rel <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 16), log10_norm=st.floats(-4.0, math.log10(2.0)),
       seed=st.integers(0, 2 ** 32 - 1), scheme=st.sampled_from(("sastre", "ps")))
def test_expm_inverse_identity_property(n, log10_norm, seed, scheme):
    # exp(W) exp(-W) = I over the regime and bound of the fixed cases above
    W = random_with_norm(np.random.default_rng(seed), n, 10.0 ** log10_norm)
    fwd = expm(W, 1e-12, scheme).value
    bwd = expm(Matrix(-1.0 * W.a), 1e-12, scheme).value
    rel = frobenius_norm(Matrix(fwd.a @ bwd.a - np.eye(n))) / math.sqrt(n)
    assert rel <= 1e-10


def test_expm_logdet_equals_trace():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 8:
        n = int(rng.integers(2, 17))
        W = random_with_norm(rng, n, float(rng.uniform(0.5, 2.0)))
        tr = float(np.trace(W.a))
        if abs(tr) < 0.2:
            continue
        for scheme in ("ps", "sastre"):
            sign, logdet = np.linalg.slogdet(expm(W, 1e-8, scheme).value.a)
            assert sign == 1.0
            assert abs(logdet - tr) <= 1e-8 * abs(tr)
        checked += 1


def test_scheme_cost_dominance_aggregate():
    rng = np.random.default_rng(47)
    totals = {"baseline": 0, "ps": 0, "sastre": 0}
    for _ in range(100):
        n = int(rng.integers(2, 16))
        W = random_with_norm(rng, n, float(10.0 ** rng.uniform(-3.5, 1.107)))
        totals["baseline"] += expm_baseline(W, 1e-8).mults
        totals["ps"] += expm(W, 1e-8, "ps").mults
        totals["sastre"] += expm(W, 1e-8, "sastre").mults
    assert totals["sastre"] <= totals["ps"] <= totals["baseline"]


# ---------------------------------------------------------------------------
# low-rank driver
# ---------------------------------------------------------------------------

def test_lowrank_rank_one_projector():
    n = 6
    a1 = np.zeros((n, 1)); a1[0, 0] = 1.0
    a2 = np.zeros((1, n)); a2[0, 0] = 1.0
    res = expm_lowrank(LowRankPair(a1, a2), 1e-8)
    want = np.eye(n); want[0, 0] = math.e
    assert np.abs(res.value.a - want).max() <= 1e-8
    assert res.rect_mults == 3
    assert res.plan.scheme == "lowrank" and res.plan.s == 0


def test_lowrank_zero_factor():
    res = expm_lowrank(LowRankPair(np.zeros((5, 2)), np.ones((2, 5))), 1e-8)
    assert np.array_equal(res.value.a, np.eye(5))
    assert res.plan.m == 0 and res.mults == 0


def test_lowrank_matches_reference():
    rng = np.random.default_rng(53)
    n, t = 64, 8
    a1 = rng.uniform(-1, 1, (n, t))
    a2 = rng.uniform(-1, 1, (t, n))
    a2 *= 2.0 / np.abs(a2 @ a1).sum(axis=0).max()
    pair = LowRankPair(a1, a2)
    res = expm_lowrank(pair, 1e-8)
    ref = expm_reference(Matrix(a1 @ a2))
    assert relative_error(res.value, ref) <= 1e-7
    assert res.plan.m in LOWRANK_ORDERS


# ||V||_1 of the pair below for which each rung of the ladder is the first
# to meet 1e-8, and one just past the top rung (None: the call raises).
_LADDER_NORMS = [(1e-5, 1), (1e-3, 2), (0.02, 4), (1.0, 8), (2.0, 15),
                 (5.0, 16), (6.0, 20), (9.0, 25), (12.0, 30), (16.0, None)]


@pytest.mark.parametrize("norm,want", _LADDER_NORMS,
                         ids=[f"m{m}" if m else "past_top" for _, m in _LADDER_NORMS])
def test_lowrank_order_minimal_on_ladder(norm, want):
    rng = np.random.default_rng(59)
    a1 = rng.uniform(-1, 1, (16, 2))
    a2 = rng.uniform(-1, 1, (2, 16))
    a2 *= norm / np.abs(a2 @ a1).sum(axis=0).max()
    V = (a2 @ a1)
    nv = float(np.abs(V).sum(axis=0).max())
    n2 = float(np.abs(V @ V).sum(axis=0).max())

    def terms(m):
        # ||V^q||_1 <= ||V^2||^(q//2) ||V||^(q%2), against 1/(m+2)!, 1/(m+3)!;
        # order 1 forms no V^2 and bounds with ||V||^q alone
        def bound(q):
            if m == 1:
                return nv ** q
            return n2 ** (q // 2) * nv ** (q % 2)
        return (bound(m + 1) / math.factorial(m + 2),
                bound(m + 2) / math.factorial(m + 3))

    if want is None:
        assert sum(terms(LOWRANK_ORDERS[-1])) > 1e-8
        with pytest.raises(LowRankOrderError):
            expm_lowrank(LowRankPair(a1, a2), 1e-8)
        return
    res = expm_lowrank(LowRankPair(a1, a2), 1e-8)
    assert res.plan.m == want and res.plan.s == 0
    assert res.plan.e1 + res.plan.e2 <= 1e-8
    assert sum(terms(want)) <= 1e-8
    assert (res.plan.e1, res.plan.e2) == pytest.approx(terms(want), rel=1e-12)
    idx = LOWRANK_ORDERS.index(want)
    if idx > 0:
        # previous rung must genuinely fail the same two-term test
        assert sum(terms(LOWRANK_ORDERS[idx - 1])) > 1e-8


def test_lowrank_norm_too_large():
    a1 = np.eye(4, 2) * 10.0
    a2 = np.eye(2, 4) * 10.0
    with pytest.raises(LowRankOrderError):
        expm_lowrank(LowRankPair(a1, a2), 1e-8)


def test_lowrank_pair_validation():
    with pytest.raises(MatrixError):
        LowRankPair(np.zeros((4, 2)), np.zeros((3, 4)))
    with pytest.raises(MatrixError):
        LowRankPair(np.zeros((2, 4)), np.zeros((4, 2)))  # t > n
    with pytest.raises(MatrixError):
        LowRankPair(np.zeros((3, 0)), np.zeros((0, 3)))  # t < 1
    with pytest.raises(NonFiniteError):
        LowRankPair(np.full((4, 2), np.nan), np.zeros((2, 4)))
    with pytest.raises(NonFiniteError):
        LowRankPair(np.zeros((4, 2)), np.full((2, 4), np.inf))


def test_lowrank_pair_refuses_complex_text_and_boolean_factors():
    # As for Matrix: no imaginary part dropped, no text parsed, no True
    # read as 1.
    for a1, a2 in ((np.array([[1j], [1.0]]), np.array([[1.0, 2.0 + 3j]])),
                   ([["1"], ["2"]], [["1", "2"]]),
                   (np.ones((2, 1), dtype=bool), np.ones((1, 2))),
                   (np.ones((2, 1)), np.ones((1, 2), dtype=bool))):
        with pytest.raises(MatrixError, match="real numbers"):
            LowRankPair(a1, a2)
    assert LowRankPair([[10**30]], [[1]]).a1[0, 0] == 1e30


@pytest.mark.parametrize("bad", [
    np.ones(3), np.array([[np.nan]]), np.array([[np.inf]]), np.array([[1j]]),
    np.array([["1"]]), np.array([[b"1"]]), np.array([[True]]),
    np.array([["1.5"]], dtype=object), np.array([[b"1"]], dtype=object),
    np.array([[True]], dtype=object), np.array([[1 + 2j]], dtype=object),
    [[1, 2], [3]], [[10**400]],
    # refused by the same rule as a tolerance (matrix._real), not cast
    np.array([[Decimal("0.5")]], dtype=object), np.array([[None]], dtype=object),
])
def test_matrix_and_lowrank_pair_share_one_input_gate(bad):
    # The same bad data raises the same type through either constructor,
    # in either factor.
    with pytest.raises(MatrixError) as matrix_error:
        Matrix(bad)
    for a1, a2 in ((bad, np.ones((1, 1))), (np.ones((1, 1)), bad)):
        with pytest.raises(MatrixError) as pair_error:
            LowRankPair(a1, a2)
        assert type(pair_error.value) is type(matrix_error.value)


def test_lowrank_pairs_compare_and_hash_by_identity():
    p, q = (LowRankPair(np.ones((4, 2)), np.ones((2, 4))) for _ in range(2))
    assert p == p and p != q
    assert hash(p) == hash(p)
    assert len({p, q, p}) == 2


def test_lowrank_psi_series_value():
    # 1x1 factors: psi(v) = (e^v - 1)/v must be reproduced through the ladder
    v = 1.5
    a1 = np.array([[v]]); a2 = np.array([[1.0]])
    res = expm_lowrank(LowRankPair(a1, a2), 1e-8)
    want = 1.0 + v * (math.exp(v) - 1.0) / v
    assert res.value.a[0, 0] == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# overflow: a typed error, never a leaked floating-point warning
# ---------------------------------------------------------------------------

def _record_products(monkeypatch):
    """Wrap the product each driver module calls (the attributes the
    benchmark's tracer wraps); returns the list of (module, finite) the
    wrappers append to, one entry per product in call order."""
    calls = []
    for mod in (engine_mod, select_mod, poly_mod):
        def recorded(A, B, ledger, out=None, _name=mod.__name__.rsplit(".", 1)[1],
                     _mul=mod.mat_mul):
            C = _mul(A, B, ledger, out=out)
            calls.append((_name, bool(np.isfinite(C.a).all())))
            return C
        monkeypatch.setattr(mod, "mat_mul", recorded)
    return calls


def _overflowing_dense():
    rng = np.random.default_rng(5)
    return {
        "diag800": Matrix(np.diag(np.full(8, 800.0))),
        "dense1e3": Matrix(rng.uniform(-1, 1, (16, 16)) * 1e3),
        # W^2 overflows, so ps and sastre see it in a selection power.
        "select1e200": Matrix(np.full((2, 2), 1e200)),
        # W^2..W^4 are finite and s takes the cap: the scaled B has a
        # 1-norm near 1e64, so the evaluation products overflow.
        "eval1e70": Matrix(np.diag(np.full(4, 1e70))),
    }


# Module whose product first overflows, per input and scheme; the
# engine's products are the squarings (the baseline's term loop has
# ||B||_1 < 1/2 and cannot overflow).
_FIRST_OVERFLOW = {
    "select1e200": {"sastre": "select", "ps": "select"},
    "eval1e70": {"sastre": "poly", "ps": "poly"},
}


@pytest.mark.parametrize("kind", ["diag800", "dense1e3", "select1e200", "eval1e70"])
@pytest.mark.parametrize("scheme", ["sastre", "ps", "baseline"])
def test_dense_overflow_raises_without_warning(kind, scheme, monkeypatch):
    W = _overflowing_dense()[kind]
    calls = _record_products(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            if scheme == "baseline":
                expm_baseline(W, 1e-8)
            else:
                expm(W, 1e-8, scheme)
    first = [finite for _, finite in calls].index(False)
    assert calls[first][0] == _FIRST_OVERFLOW.get(kind, {}).get(scheme, "engine")
    # Once a product has overflowed, at most two more squarings run.
    assert sum(name == "engine" for name, _ in calls[first + 1:]) <= 2


def test_lowrank_overflow_raises_without_warning(monkeypatch):
    big = np.zeros((2, 1))
    big[0, 0] = 1e200
    pairs = {
        # V = A2 A1 overflows, so the input check raises before any product.
        "entry": LowRankPair(np.full((8, 1), 1e200), np.full((1, 8), 1e200)),
        # ||V||_1 = 1e200 is finite, V^2 formed during selection is not.
        "select": LowRankPair(np.array([[1e100]]), np.array([[1e100]])),
        # V = [[1]] is harmless; the assembly A1 psi(V) A2 overflows.
        "assembly": LowRankPair(big, np.array([[1e-200, 1e200]])),
    }
    calls = _record_products(monkeypatch)
    for kind, pair in pairs.items():
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                expm_lowrank(pair, 1e-8)
        # The path has no squarings; it overflows in selection or after
        # the t x t products, in the rectangular assembly.
        finite = [f for _, f in calls]
        if kind == "assembly":
            assert finite and all(finite)
        else:
            assert finite == {"entry": [], "select": [False]}[kind], kind


def test_one_product_kernel_under_every_module_name():
    # The tracer wraps the three module attributes; unwrapped they are the
    # one public product.
    assert (engine_mod.mat_mul is select_mod.mat_mul is poly_mod.mat_mul
            is matrix_mod.mat_mul is expmkit.mat_mul)


def test_every_charged_product_goes_through_a_module_mat_mul(monkeypatch):
    # The benchmark attributes products to phases by wrapping mat_mul on
    # the engine, select and poly modules, so every product the ledger
    # charges must be looked up there.
    rng = np.random.default_rng(41)
    calls = _record_products(monkeypatch)
    seen_s = set()
    for norm in (1e-3, 0.3, 2.0, 40.0, 1e3):
        W = random_with_norm(rng, 6, norm)
        for run in (lambda: expm(W, 1e-8, "sastre"), lambda: expm(W, 1e-8, "ps"),
                    lambda: expm_baseline(W, 1e-8)):
            calls.clear()
            res = run()
            assert len(calls) == res.mults > 0
            seen_s.add(res.plan.s > 0)
    assert seen_s == {False, True}
    for norm in (1e-3, 0.3, 2.0, 6.0):
        a1, a2 = rng.uniform(-1, 1, (12, 3)), rng.uniform(-1, 1, (3, 12))
        a1 *= norm / np.abs(a2 @ a1).sum(axis=0).max()
        calls.clear()
        res = expm_lowrank(LowRankPair(a1, a2), 1e-8)
        assert len(calls) == res.mults > 0


def test_non_finite_bound_takes_a_typed_path():
    # ||V||_1 overflows while V^2 = 0: the bound of the order-2 rung is 0,
    # not -inf + inf = NaN, so every driver stops there unscaled after one
    # product and returns I + V, which is exact.
    V = np.zeros((3, 3))
    V[0, 2] = V[1, 2] = 1e308
    for scheme in ("sastre", "ps"):
        res = expm(Matrix(V), 1e-8, scheme)
        assert (res.plan.m, res.plan.s, res.mults) == (2, 0, 1)
        assert np.array_equal(res.value.a, np.eye(3) + V)
    res = expm_lowrank(LowRankPair(np.eye(3), V), 1e-8)
    assert (res.plan.m, res.plan.s, res.mults) == (2, 0, 1)
    assert np.array_equal(res.value.a, np.eye(3) + V)
    # ||W^2||_1 overflows although W^2 is finite: the bound is +inf, the
    # scaling takes the cap, and the overflow surfaces as NonFiniteError.
    W = Matrix([[1e154, 0.0, 0.0], [1e154, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NonFiniteError):
        expm(W, 1e-8, "sastre")


@pytest.mark.parametrize("make", [
    lambda: Matrix(np.full((2, 2), 1e308)),         # finite, but the 1-norm overflows
    # Inf from an unchecked building block, and a NaN input wrapped unscanned
    lambda: squaring(Matrix([[1e308, 0.0], [0.0, 1.0]]), 1, MulLedger()),
    lambda: matrix_mod._wrap(np.eye(2) * math.nan),
])
def test_dense_drivers_reject_inputs_with_non_finite_norm(make):
    with np.errstate(over="ignore"):
        W = make()
    for run in (lambda: expm(W, 1e-8, "sastre"), lambda: expm(W, 1e-8, "ps"),
                lambda: expm_baseline(W, 1e-8)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                run()


def _leaves(x):
    """The values in x, looking through containers and object attributes."""
    if isinstance(x, dict):
        x = list(x.values())
    elif hasattr(x, "__dict__"):
        x = list(vars(x).values())
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@pytest.mark.parametrize("driver", ["ps", "sastre", "baseline", "lowrank"])
def test_results_are_immutable_records_of_scalars(driver):
    # A caller that keeps one result per layer keeps its value and a few
    # numbers, not the selector's powers; neither record can be edited.
    rng = np.random.default_rng(61)
    W = random_with_norm(rng, 16, 3.0)  # ps forms W^2..W^4, sastre W^2, and both scale
    a1, a2 = rng.uniform(-1, 1, (16, 4)), rng.uniform(-1, 1, (4, 16))
    a2 *= 2.0 / np.abs(a2 @ a1).sum(axis=0).max()  # order 8: V^2 is formed
    res = {"ps": lambda: expm(W, 1e-8, "ps"),
           "sastre": lambda: expm(W, 1e-8, "sastre"),
           "baseline": lambda: expm_baseline(W, 1e-8),
           "lowrank": lambda: expm_lowrank(LowRankPair(a1, a2), 1e-8)}[driver]()
    assert isinstance(res.value, Matrix)
    # The value owns its array: no view into a power stack outlives the call.
    assert res.value.a.flags.owndata and res.value.a.base is None
    for record, fields in ((res, ("value", "plan", "mults", "wall_time", "rect_mults")),
                           (res.plan, ("m", "s", "scheme", "e1", "e2", "norms"))):
        for field in fields + ("powers",):  # nor can a field be added
            with pytest.raises(AttributeError):
                setattr(record, field, 99)
    held = list(_leaves([res.plan, res.mults, res.wall_time, res.rect_mults]))
    assert all(type(v) in (int, float, str) for v in held), held
    assert len(res.plan.norms) >= 1 and res.plan.norms[0] == one_norm(
        W if driver != "lowrank" else Matrix(a2 @ a1))


def test_ps_values_own_their_arrays_at_every_order():
    # Below the top order a ps plan leaves rows of the power stack unused;
    # the value is still a new array, not a view into the stack.
    rng = np.random.default_rng(62)
    orders = set()
    for norm in np.geomspace(1e-4, 40.0, 25):
        res = expm(random_with_norm(rng, 12, norm), 1e-8, "ps")
        orders.add(res.plan.m)
        assert res.value.a.flags.owndata and res.value.a.base is None, res.plan
    assert orders == {1, 2, 4, 6, 9, 12, 16}


# ---------------------------------------------------------------------------
# orders 1, 2 and 4: the rungs both ladders share
# ---------------------------------------------------------------------------

def _square_input(kind, n, norm, seed):
    """The square input of a generator kind (a low-rank pair's product
    A1 A2), or the zero matrix."""
    if kind == "zero":
        return Matrix(np.zeros((n, n)))
    if kind in ("nilpotent_perturbed", "rotation_block"):
        n = max(n, 2)  # neither kind has an order-1 matrix
    W = expmkit.gen_matrix(expmkit.GeneratorSpec(kind, n, norm, seed))
    return Matrix(W.a1 @ W.a2) if isinstance(W, LowRankPair) else W


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=st.sampled_from(expmkit.KINDS + ("zero",)), n=st.integers(1, 70),
       log10_norm=st.floats(-18.0, 0.0), seed=st.integers(0, 2 ** 31 - 1),
       eps=st.sampled_from((2.0 ** -53, 1e-8, 1e-5)))
@example(kind="random_dense", n=1, log10_norm=-3.0, seed=0, eps=1e-8)
@example(kind="diag", n=1, log10_norm=-9.0, seed=1, eps=2.0 ** -53)
@example(kind="zero", n=1, log10_norm=0.0, seed=0, eps=1e-5)
@example(kind="zero", n=9, log10_norm=0.0, seed=0, eps=2.0 ** -53)
def test_ps_and_sastre_agree_whenever_the_plan_is_a_shared_rung(kind, n, log10_norm, seed,
                                                                  eps):
    # Both ladders start with orders 1, 2 and 4 and walk them on the same
    # powers, and both schemes evaluate them by one formula.
    W = _square_input(kind, n, 10.0 ** log10_norm, seed)
    ps, sastre = expm(W, eps, "ps"), expm(W, eps, "sastre")
    assert (ps.plan.m <= 4) == (sastre.plan.m <= 4)
    if ps.plan.m <= 4:
        assert ps.plan._replace(scheme="sastre") == sastre.plan
        assert ps.mults == sastre.mults
        assert ps.value.a.tobytes() == sastre.value.a.tobytes()


def test_a_ps_call_makes_a_power_stack_only_for_a_block_sum(monkeypatch):
    # Orders 1, 2 and 4 read W^2 at most and go to a formula, so the ps
    # call asks its stack for no row; from order 6 on the selector forms
    # W^3 into one.
    asked = []
    row = poly_mod._PowerStack.row

    def recording(stack, p):
        asked.append(p)
        return row(stack, p)

    monkeypatch.setattr(poly_mod._PowerStack, "row", recording)
    rng = np.random.default_rng(63)
    orders = set()
    for n in (1, 8, 33):
        for norm in np.geomspace(1e-9, 40.0, 12):
            for eps in (2.0 ** -53, 1e-8, 1e-5):
                asked.clear()
                m = expm(random_with_norm(rng, n, norm), eps, "ps").plan.m
                orders.add(m)
                assert (asked == []) == (m <= 4), (n, norm, eps, m, asked)
    assert orders == {1, 2, 4, 6, 9, 12, 16}


@pytest.mark.parametrize("norm", [1e-5, 2e-3, 0.05, 0.3, 3.0])
def test_a_made_stack_holds_every_power_in_its_rows(norm):
    # Once a block sum will read the powers, the list holds W, copied into
    # row 0, and then rows of the stack, and no power outside it; the
    # low-rank path, where every order is a block sum, forms V^2 straight
    # into its row.
    W = random_with_norm(np.random.default_rng(64), 12, norm)
    for scheme, ladder, rows in ((select_mod.SCHEME_PS, select_mod.PS_TABLES, engine_mod._PS_ROWS),
                                 (select_mod.SCHEME_LOWRANK, select_mod.LOWRANK_TABLES,
                                  engine_mod._LOWRANK_ROWS)):
        powers = poly_mod._PowerStack(rows)
        plan = select_mod._select(ladder, scheme, W, 1e-8, MulLedger(), powers)
        if len(powers) < 2 or (scheme == select_mod.SCHEME_PS and plan.m <= 4):
            assert powers.a is None, (scheme, plan.m)
            continue
        assert powers.a.shape == (rows, 12, 12)
        assert powers[0] is W and np.array_equal(powers.a[0], W.a)
        assert all(P.a.base is powers.a and np.shares_memory(P.a, powers.a[p])
                   for p, P in enumerate(powers) if p), (scheme, plan.m)


def _outcome(res):
    plan = res.plan
    return (plan.m, plan.s, plan.e1, plan.e2, res.mults, res.value.a.tobytes())


def test_results_do_not_depend_on_the_callers_memory_layout():
    # The inputs are stored in C order, so a Fortran-ordered copy of the
    # same entries gets the same norms, plans and value bytes.
    rng = np.random.default_rng(3)
    for n in (5, 8, 16, 33, 64):
        for norm in (1e-3, 0.5, 3.0, 40.0):
            arr = rng.uniform(-1.0, 1.0, (n, n))
            arr *= norm / np.abs(arr).sum(axis=0).max()
            C, F = Matrix(arr), Matrix(np.asfortranarray(arr))
            assert F.a.flags.c_contiguous
            for scheme in ("sastre", "ps"):
                assert _outcome(expm(C, 1e-8, scheme)) == _outcome(expm(F, 1e-8, scheme))
            assert _outcome(expm_baseline(C, 1e-8)) == _outcome(expm_baseline(F, 1e-8))
        t = max(1, n // 8)
        for norm in (1e-3, 0.5, 3.0):
            a1 = rng.uniform(-1.0, 1.0, (n, t))
            a2 = rng.uniform(-1.0, 1.0, (t, n))
            a2 *= norm / np.abs(a2 @ a1).sum(axis=0).max()
            C = LowRankPair(a1, a2)
            F = LowRankPair(np.asfortranarray(a1), np.asfortranarray(a2))
            assert F.a1.flags.c_contiguous and F.a2.flags.c_contiguous
            assert _outcome(expm_lowrank(C, 1e-8)) == _outcome(expm_lowrank(F, 1e-8))


def _suite_outcomes():
    out = []
    for seed in (2024, 13):
        config = expmkit.bench.default_suite_config(seed)
        for spec in config.specs():
            W = expmkit.gen_matrix(spec)
            for scheme in config.schemes:
                try:
                    res = expmkit.bench._run_scheme(W, scheme, config.eps)
                except (MatrixError, ArithmeticError) as exc:
                    out.append(type(exc).__name__)
                else:
                    out.append((res.plan.m, res.plan.s, res.mults, res.value.a.tobytes()))
    return out


def test_blas_norms_keep_every_plan_and_value_of_the_default_suite(monkeypatch):
    # The 1-norm sums columns by one BLAS product, in an order the BLAS
    # picks; numpy's sequential reduce, which it replaced, gives the same
    # plans, counts and value bytes on every cell of the default suite.
    blas = _suite_outcomes()

    def sequential(A):
        sums = np.add.reduce(np.abs(A.a), axis=0)
        return float(sums[sums.argmax()])

    for mod in (matrix_mod, engine_mod, select_mod, expmkit.oracle):
        monkeypatch.setattr(mod, "one_norm", sequential)
    assert _suite_outcomes() == blas


@pytest.mark.parametrize("driver, arrays", [
    # W^2, the live formula terms and the product
    pytest.param(lambda W: expm(W, 1e-8, "sastre"), 6, id="sastre"),
    # the power stack's four rows (copies of W and W^2, then W^3 and W^4),
    # the block buffer and the product
    pytest.param(lambda W: expm(W, 1e-8, "ps"), 6, id="ps"),
    # x, B, the last term and its product; the next term goes into the last term's buffer
    pytest.param(lambda W: expm_baseline(W, 1e-8), 4, id="baseline"),
])
def test_a_scaled_call_holds_no_rescaled_copy(driver, arrays):
    # The powers are evaluated unscaled, with 2^-s folded into the
    # coefficients, and each buffer is freed once nothing reads it: the
    # rescaled copies took a scaled sastre or ps call to 8 n x n arrays.
    n = 256
    W = random_with_norm(np.random.default_rng(4), n, 40.0)
    assert driver(W).plan.s > 0  # and the caches are warm
    tracemalloc.start()
    try:
        driver(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * n * n * 8 + 64 * 1024, peak / (n * n * 8)


# ---------------------------------------------------------------------------
# what a result says about itself: phase counts and the plan's flags
# ---------------------------------------------------------------------------

def test_phase_counts_equal_the_tracers():
    # perfbench/tracing.py counts each phase's products by wrapping the
    # modules' mat_mul; the plan gives the same three counts.
    import fingerprint
    import tracing  # perfbench/tracing.py, on the path fingerprint sets up
    import workloads

    calls = [*islice(fingerprint.workload_calls("flow_small", 13), 0, None, 16),
             *islice(fingerprint.workload_calls("large_dense", 13), 3, None, 12)]
    schemes = Counter()
    for W, scheme, eps in calls:
        with tracing.Tracer() as tracer:
            try:
                res = workloads._call(W, scheme, eps)
            except (MatrixError, ArithmeticError):
                continue
        spans = tracer.spans
        traced = Counter(phase for span, phase in zip(spans, tracing.phases(spans))
                         if span.name == tracing.MAT_MUL_SPAN)
        assert set(traced) <= {"select", "poly", "squaring"}
        assert (res.select_mults, res.eval_mults, res.square_mults) == \
            (traced["select"], traced["poly"], traced["squaring"]), (scheme, res.plan)
        assert res.select_mults + res.eval_mults + res.square_mults == res.mults
        schemes[scheme] += 1
    assert set(schemes) == {"sastre", "ps", "baseline", "lowrank"}
    assert sum(schemes.values()) > 100


def test_a_capped_plan_that_misses_eps_is_flagged():
    # ||W||_1 = 3.16e6 takes both selectors to the cap, where the scaled
    # bound stays above eps: 140 eps for sastre, 45.8 eps for ps.
    W = expmkit.gen_matrix(expmkit.GeneratorSpec("rotation_block", 16, 3.16e6, 0))
    for scheme, ratio in (("sastre", 139.69), ("ps", 45.776)):
        plan = expm(W, 1e-8, scheme).plan
        assert plan.s == select_mod.MAX_SCALING and plan.cap_hit and not plan.bound_met
        assert plan.eps == 1e-8 and plan.bound == pytest.approx(ratio * 1e-8, rel=1e-4)
        # the scaled two-term bound of the plan's own e1 and e2
        m, s = plan.m, plan.s
        assert plan.bound == pytest.approx(
            math.ldexp(plan.e1, -s * (m + 1)) + math.ldexp(plan.e2, -s * (m + 2)), rel=1e-12)
    # The baseline has no cap; its bound is the term norm that ended its loop.
    plan = expm_baseline(W, 1e-8).plan
    assert plan.s > select_mod.MAX_SCALING and not plan.cap_hit
    assert plan.log2_bound == math.log2(plan.e1) and plan.e1 <= plan.eps and plan.bound_met


def test_no_returning_small_flow_call_is_flagged():
    import fingerprint
    import workloads

    worst = 0.0
    returned = 0
    for W, scheme, eps in fingerprint.workload_calls("flow_small", 13):
        try:
            plan = workloads._call(W, scheme, eps).plan
        except (MatrixError, ArithmeticError):
            continue
        returned += 1
        assert not plan.cap_hit and plan.bound_met and plan.eps == eps, (scheme, plan)
        worst = max(worst, plan.bound / eps)
    assert returned > 1500 and 0.9 < worst <= 1.0


@pytest.mark.parametrize("scheme", ["sastre", "ps"])
def test_an_unscaled_or_zero_plan_is_met(scheme):
    for W in (Matrix(np.zeros((3, 3))), random_with_norm(np.random.default_rng(2), 5, 0.1)):
        plan = expm(W, 1e-8, scheme).plan
        assert plan.s == 0 and not plan.cap_hit and plan.bound_met
        # formed in log domain, so within rounding of e1 + e2
        assert plan.bound == pytest.approx(plan.e1 + plan.e2, rel=1e-12, abs=0.0)
        assert plan.log2_bound <= math.log2(plan.eps)


# ---------------------------------------------------------------------------
# the guard's boundary: expm and expm_baseline enter np.errstate only above
# GUARD_NORM (see the engine module docstring)
# ---------------------------------------------------------------------------

_DENSE_DRIVERS = {
    "sastre": lambda W, eps: expm(W, eps, "sastre"),
    "ps": lambda W, eps: expm(W, eps, "ps"),
    "baseline": lambda W, eps: expm_baseline(W, eps),
}
_EPS_GRID = (2.0 ** -53, 1e-8, 1e-5)


def _at_the_constant():
    """Inputs with ||W||_1 = GUARD_NORM exactly: the sums are of integers."""
    c = engine_mod.GUARD_NORM
    rng = np.random.default_rng(38)
    # Nonnegative with every column summing to c: its dominant eigenvalue
    # is c itself, so e^W is near e^256 ~ 1.5e111.
    dense = rng.integers(0, 31, (8, 8)).astype(float)
    dense[-1] = c - dense[:-1].sum(axis=0)
    # Nonnormal: large entries above a small diagonal.
    tri = np.triu(rng.integers(-40, 41, (6, 6)).astype(float), 1)
    tri[np.diag_indices(6)] = 1.0
    tri[:, -1] = [200.0, -40.0, 10.0, -4.0, 1.0, 1.0]
    return {"cI": Matrix(c * np.eye(5)), "dense": Matrix(dense), "triangular": Matrix(tri),
            "1x1": Matrix([[c]]), "-1x1": Matrix([[-c]])}


def _record_error_state(monkeypatch):
    """Wrap the first building block each dense driver's body calls (the
    selectors, and the baseline's scale_pow2); returns the list of numpy's
    overflow modes they ran under, one per call."""
    seen = []
    for name in ("select_ps", "select_sastre", "scale_pow2"):
        def recorded(*args, _f=getattr(engine_mod, name)):
            seen.append(np.geterr()["over"])
            return _f(*args)
        monkeypatch.setattr(engine_mod, name, recorded)
    return seen


@pytest.mark.parametrize("driver", sorted(_DENSE_DRIVERS))
def test_a_call_at_the_constant_runs_unguarded_and_cannot_overflow(driver, monkeypatch):
    # Inside a caller's raising np.errstate, the body runs in the caller's
    # state and raises nothing; its bytes are those of the same call with
    # every flag ignored.
    run = _DENSE_DRIVERS[driver]
    seen = _record_error_state(monkeypatch)
    for name, W in _at_the_constant().items():
        assert one_norm(W) == engine_mod.GUARD_NORM, name
        for eps in _EPS_GRID:
            with np.errstate(over="ignore", invalid="ignore"):
                want = run(W, eps)
            seen.clear()
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                got = run(W, eps)
            assert seen == ["raise"], (name, eps)
            assert np.isfinite(got.value.a).all()
            assert _outcome(got) == _outcome(want), (name, eps)


def _above_the_constant():
    """Inputs whose norm is above GUARD_NORM or NaN, with the outcome of
    each dense driver: a finite value, or the raised type."""
    c = engine_mod.GUARD_NORM
    finite = {"sastre": "ok", "ps": "ok", "baseline": "ok"}
    overflow = {"sastre": "NonFiniteError", "ps": "NonFiniteError",
                "baseline": "NonFiniteError"}
    rot = expmkit.gen_matrix(expmkit.GeneratorSpec("rotation_block", 16, 1e7, 1))
    return [
        ("just_above", Matrix(np.nextafter(c, np.inf) * np.eye(3)), finite),
        ("1x1_just_above", Matrix([[-np.nextafter(c, np.inf)]]), finite),
        ("nan", matrix_mod._wrap(np.full((2, 2), math.nan)), overflow),
        ("column_sums_overflow", Matrix(np.full((3, 3), 1e308)), overflow),
        ("710", Matrix([[710.0]]), overflow),
        # The selectors cap s at 20 and overflow; the baseline scales on.
        ("-1e308", Matrix([[-1e308]]), {**overflow, "baseline": "ok"}),
        ("rotation_1e7", rot, {**overflow, "baseline": "ok"}),
    ]


@pytest.mark.parametrize("driver", sorted(_DENSE_DRIVERS))
def test_a_call_above_the_constant_takes_the_guard(driver, monkeypatch):
    # Even inside a caller's raising np.errstate, the body runs with
    # overflow ignored, warns nowhere, and leaves the caller's state as
    # it was, whether the call returns or raises.
    run = _DENSE_DRIVERS[driver]
    seen = _record_error_state(monkeypatch)
    for name, W, outcomes in _above_the_constant():
        assert not one_norm(W) <= engine_mod.GUARD_NORM, name
        for eps in _EPS_GRID:
            seen.clear()
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                before = np.geterr()
                try:
                    got = "ok", run(W, eps)
                except NonFiniteError as exc:
                    got = type(exc).__name__, None
                assert np.geterr() == before
            assert got[0] == outcomes[driver], (name, eps)
            # The baseline raises on a non-finite norm before its body.
            early = driver == "baseline" and not math.isfinite(one_norm(W))
            assert seen == ([] if early else ["ignore"]), (name, eps)
            if got[1] is not None:
                assert np.isfinite(got[1].value.a).all()
                with np.errstate(over="ignore", invalid="ignore"):
                    assert _outcome(run(W, eps)) == _outcome(got[1])


def test_the_low_rank_path_is_guarded_at_any_norm(monkeypatch):
    # V = A2 A1 and the assembly can overflow from small factors, so
    # expm_lowrank takes the guard whatever ||V||_1 is.
    seen = []
    select = engine_mod._select

    def recorded(*args):
        seen.append(np.geterr()["over"])
        return select(*args)

    monkeypatch.setattr(engine_mod, "_select", recorded)
    pair = LowRankPair(np.full((4, 1), 0.5), np.full((1, 4), 0.25))
    with np.errstate(over="raise", invalid="raise"):
        res = expm_lowrank(pair, 1e-8)
    assert seen == ["ignore"] and np.isfinite(res.value.a).all()
