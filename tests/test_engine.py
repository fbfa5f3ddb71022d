import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        def recorded(A, B, ledger, _name=mod.__name__.rsplit(".", 1)[1],
                     _mul=mod.mat_mul):
            C = _mul(A, B, ledger)
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
