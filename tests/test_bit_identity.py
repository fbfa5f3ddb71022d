"""The in-place evaluators against the chained array formulas they replace.

Each reference below spells an evaluator out with array operators, one
temporary per operation and the identity as a full matrix.  The library
forms the same sums in place and adds c*I on the diagonal only, so every
entry must round the same.  The one allowed difference is the sign of a
zero off the diagonal: the chained form adds c*I to every entry, and
0 + (-0) is +0.

``ps_eval`` is held to a rounding contract instead: each of its block
sums is one BLAS product, which may add in any order and fuse
multiply-adds, so each block is checked against its exact sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expmkit import (
    EXP_COEFFS,
    GeneratorSpec,
    LOWRANK_ORDERS,
    LowRankPair,
    Matrix,
    MulLedger,
    eval_low_order,
    eval_t8,
    eval_t15p,
    expm_baseline,
    expm_lowrank,
    gen_matrix,
    mat_mul,
    one_norm,
    phi1_coeffs,
    ps_eval,
    ps_shape,
    scale_pow2,
    taylor_coeffs_exp,
)
from expmkit import poly

KINDS = ("dense", "diag", "triangular", "nilpotent", "zero")


def mm(x, y, ledger=None):
    """x @ y as the library's charged product forms it."""
    return mat_mul(Matrix(x), Matrix(y), MulLedger() if ledger is None else ledger).a


def ref_low_order(A, m):
    a, eye = A.a, np.eye(A.n)
    if m == 1:
        return a + eye
    a2 = mm(a, a)
    if m == 2:
        return 0.5 * a2 + a + eye
    inner = (0.25 * a2 + a) / 3 + eye
    return 0.5 * mm(inner, a2) + a + eye


def ref_t8(A):
    c, a = EXP_COEFFS.t8, A.a
    a2 = mm(a, a)
    y02 = mm(a2, c[0] * a2 + c[1] * a)
    prod = mm(y02 + c[2] * a2 + c[3] * a, y02 + c[4] * a2)
    return prod + c[5] * y02 + 0.5 * a2 + a + np.eye(A.n)


def ref_t15p(A):
    c, a = EXP_COEFFS.t15p, A.a
    a2 = mm(a, a)
    y02 = mm(a2, c[0] * a2 + c[1] * a)
    y12 = mm(y02 + c[2] * a2 + c[3] * a, y02 + c[4] * a2) + c[5] * y02 + c[6] * a2
    return (mm(y12 + c[7] * a2 + c[8] * a, y12 + c[9] * y02 + c[10] * a)
            + c[11] * y12 + c[12] * y02 + c[13] * a2 + c[14] * a + c[15] * np.eye(A.n))


def ref_baseline(W, eps):
    """The term loop forming every term's norm: the value, s, the k the
    loop ends at, the norm that ended it and the products charged."""
    ledger = MulLedger()
    norm1 = one_norm(W)
    s = 0
    while math.ldexp(norm1, -s) >= 0.5:
        s += 1
    b = scale_pow2(W, s).a
    x = np.eye(W.n)
    y = b
    k = 2
    while (e1 := one_norm(Matrix(y))) > eps:
        x = x + y
        y = mm(b, y, ledger) / k
        k += 1
    for _ in range(s):
        x = mm(x, x, ledger)
    return x, s, k, e1, ledger.count


def assert_baseline_matches_reference(W, eps):
    res = expm_baseline(W, eps)
    x, s, k, e1, mults = ref_baseline(W, eps)
    # No sum here adds c*I, so even the signs of zeros agree.
    assert res.value.a.tobytes() == x.tobytes(), ("baseline", eps)
    assert (res.plan.m, res.plan.s, res.plan.e1, res.plan.e2, res.mults) == \
        (k - 2, s, e1, 0.0, mults), ("baseline", eps)


def ref_lowrank(pair, m):
    """The chained assembly I + A1 psi A2 around ps_eval's own psi."""
    psi = ps_eval(phi1_coeffs(m), [Matrix(pair.a2 @ pair.a1)], MulLedger()).a
    return np.eye(pair.n) + pair.a1 @ (psi @ pair.a2)


def assert_same_bits(got: Matrix, w: np.ndarray, what):
    g = got.a
    assert g.shape == w.shape, what
    # Byte for byte once -0 reads as +0 ...
    assert (g + 0.0).tobytes() == (w + 0.0).tobytes(), what
    # ... and a raw difference only in the sign of an off-diagonal zero.
    rows, cols = np.nonzero(g.view(np.uint64) != w.view(np.uint64))
    assert (g[rows, cols] == 0.0).all() and (rows != cols).all(), what


# ---------------------------------------------------------------------------
# ps_eval's rounding contract: block r of degree m, with j powers and
# k blocks, is B_r = c_rj I + c_(rj+1) A + ... + c_(rj+L-1) A^(L-1), its
# L terms summed in one BLAS product and a diagonal add.  The computed
# block is within gamma_(L+1) (|c_rj| I + sum_t |c_(rj+t)| |A^t|) of
# B_r, entry by entry, with gamma_n = n u / (1 - n u) and u = 2^-53.
# ---------------------------------------------------------------------------

U_INV = 2 ** 53


def _exact(a):
    """The entries of a times 2^1074, as exact Python integers in an
    object array: every binary64 number is an integer multiple of
    2^-1074, so sums and products of these are exact rational arithmetic."""
    ints = []
    for x in a.ravel().tolist():
        num, den = x.as_integer_ratio()
        ints.append(num << (1075 - den.bit_length()))  # den = 2^(bit_length - 1)
    return np.array(ints, dtype=object).reshape(a.shape)


def _recorded_ps_eval(coeffs, A):
    """ps_eval(coeffs, [A]) and the (left, right, result) arrays of each
    product it forms, in order: the powers first, then the Horner steps."""
    seen = []

    def recorded(X, Y, ledger, out=None):
        C = mat_mul(X, Y, ledger, out=out)
        seen.append((X.a.copy(), Y.a.copy(), C.a.copy()))
        return C

    poly.mat_mul = recorded
    try:
        value = ps_eval(coeffs, [A], MulLedger()).a
    finally:
        poly.mat_mul = mat_mul
    return value, seen


def assert_ps_blocks_meet_the_contract(coeffs, A, what):
    """Each block sum of ps_eval(coeffs, [A]) within the contract of its
    exact sum.  A Horner step adds the product P = q_(r+1) A^j to block
    r's computed sum and rounds once, so the sum q_r it hands on is
    checked as |q_r - B_r - P| <= gamma_(L+1) weight + u |q_r|."""
    m = len(coeffs) - 1
    shape = ps_shape(m)
    j, k = shape.j, shape.k
    value, seen = _recorded_ps_eval(coeffs, A)
    assert len(seen) == shape.mults, what
    pw = [A.a]
    for _, _, C in seen[:j - 1]:  # the powers, as the chained products form them
        assert C.tobytes() == mm(pw[-1], A.a).tobytes(), what
        pw.append(C)
    horner = seen[j - 1:]
    assert all(Y.tobytes() == pw[-1].tobytes() for _, Y, _ in horner), what
    sums = [X for X, _, _ in horner] + [value]  # q_(k-1), ..., q_0
    prods = [None] + [C for _, _, C in horner]  # the product each of them adds
    exact_pw = [_exact(P) for P in pw]
    eye = _exact(np.eye(A.n))
    for q, P, r in zip(sums, prods, range(k - 1, -1, -1)):
        lo = r * j
        L = (m if r == k - 1 else lo + j - 1) - lo + 1  # terms, c_lo I among them
        c = [_exact(np.array(float(coeffs[lo + t]))).item() for t in range(L)]
        exact = c[0] * eye + sum((c[t] * exact_pw[t - 1] for t in range(1, L)), 0 * eye)
        weight = abs(c[0]) * eye + sum((abs(c[t]) * abs(exact_pw[t - 1])
                                        for t in range(1, L)), 0 * eye)
        got = _exact(q) << 1074  # both at scale 2^2148
        slack = 0 * eye
        if P is not None:
            exact = exact + (_exact(P) << 1074)
            slack = abs(got)
        # |got - exact| <= g u / (1 - g u) weight + u slack, times 2^53 (2^53 - g)
        g = L + 1
        ok = (abs(got - exact) * U_INV * (U_INV - g)
              <= g * U_INV * weight + (U_INV - g) * slack)
        assert ok.all(), (what, r)


@st.composite
def _inputs(draw):
    """A square input of a drawn kind, 1-norm at most 2; a negated input
    holds -0 wherever it is zero.  An input drawn in Fortran order must
    reach the evaluators in C order, which :class:`Matrix` stores, so
    that the in-place sums see one layout whatever the caller's."""
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "diag":
        a = np.diag(np.diag(a))
    elif kind == "triangular":
        a = np.triu(a)
    elif kind == "nilpotent":
        a = np.triu(a, 1)
    elif kind == "zero":
        a = np.zeros((n, n))
    norm = float(np.abs(a).sum(axis=0).max())
    if norm > 0.0:
        a = a * (10.0 ** draw(st.floats(-4.0, math.log10(2.0))) / norm)
    if draw(st.booleans()):
        a = -a
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    A = Matrix(a)
    assert A.a.flags.c_contiguous
    return A


@settings(derandomize=True, max_examples=80, deadline=None)
@given(A=_inputs())
def test_evaluators_match_chained_matrix_formulas(A):
    with np.errstate(over="ignore", invalid="ignore"):
        for m in (1, 2, 4):
            assert_same_bits(eval_low_order([A], m, MulLedger()), ref_low_order(A, m),
                             ("low order", m))
        assert_same_bits(eval_t8([A], MulLedger()), ref_t8(A), "t8")
        assert_same_bits(eval_t15p([A], MulLedger()), ref_t15p(A), "t15p")
        for m in range(1, 17):
            assert_ps_blocks_meet_the_contract(taylor_coeffs_exp(m), A, ("ps exp", m))
        for m in LOWRANK_ORDERS:
            assert_ps_blocks_meet_the_contract(phi1_coeffs(m), A, ("ps phi1", m))
    assert_baseline_matches_reference(A, 1e-10)


def _corner_inputs(kind, n, norm, rng):
    """Inputs on which the baseline's corner test decides differently:
    dense ones, whose corner entry mostly exceeds eps, and three kinds
    whose corner stays at or below it on some or all terms."""
    if kind == "rotation_block":  # odd powers have a zero diagonal
        return gen_matrix(GeneratorSpec(kind, n, norm, int(rng.integers(2 ** 31))))
    a = rng.uniform(-1.0, 1.0, (n, n))
    if kind == "nilpotent":  # every power is strictly upper triangular
        a = np.triu(a, 1)
    elif kind == "tiny_corner_diag":
        a = np.diag(np.diag(a))
        a[0, 0] = 1e-300
    return Matrix(a * (norm / np.abs(a).sum(axis=0).max()))


@pytest.mark.parametrize("kind", ["dense", "rotation_block", "nilpotent", "tiny_corner_diag"])
def test_baseline_matches_a_loop_that_forms_every_norm(kind):
    rng = np.random.default_rng(15)
    for n in (2, 3, 8, 17):
        for norm in (1e-3, 0.3, 1.0, 5.0, 40.0):
            W = _corner_inputs(kind, n, norm, rng)
            for eps in (1e-4, 1e-8, 1e-12, 2.0 ** -53):
                assert_baseline_matches_reference(W, eps)
                assert_baseline_matches_reference(Matrix(-W.a), eps)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(1, 16), data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       log10_norm=st.floats(-4.0, math.log10(2.0)), negate=st.booleans())
def test_lowrank_assembly_matches_chained_formula(n, data, seed, log10_norm, negate):
    t = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-1.0, 1.0, (n, t))
    a2 = rng.uniform(-1.0, 1.0, (t, n))
    v_norm = float(np.abs(a2 @ a1).sum(axis=0).max())
    a2 *= 10.0 ** log10_norm / v_norm
    pair = LowRankPair(-a1 if negate else a1, a2)
    res = expm_lowrank(pair, 1e-10)
    assert_same_bits(res.value, ref_lowrank(pair, res.plan.m), ("lowrank", res.plan.m))
