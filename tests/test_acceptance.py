"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test finishes by printing a single pass line (visible with
``pytest -s tests/test_acceptance.py``); a failed assertion is the fail
line.  Expensive suites keep within the stated runtime budgets at desk
scale.
"""

import math
from fractions import Fraction

import numpy as np

from expmkit import (
    EXP_COEFFS,
    GeneratorSpec,
    LOWRANK_ORDERS,
    Matrix,
    MulLedger,
    default_suite_config,
    eval_low_order,
    eval_t8,
    eval_t15p,
    expm,
    expm_reference,
    frobenius_norm,
    gen_matrix,
    one_norm,
    poly_reference,
    ps_eval,
    relative_error,
    run_suite,
    scale_pow2,
    select_ps,
    select_sastre,
    taylor_coeffs_exp,
    write_records_csv,
)
from expmkit.bench import SuiteConfig


def _ok(num, text):
    print(f"[PASS] criterion {num}: {text}")


def _random_with_norm(rng, n, target):
    arr = rng.uniform(-1, 1, (n, n))
    return Matrix(arr * (target / np.abs(arr).sum(axis=0).max()))


# ---------------------------------------------------------------------------
# 1. coefficient fidelity
# ---------------------------------------------------------------------------

def test_criterion_01_coefficient_fidelity():
    # double-entry transcription of the printed tables
    t8 = (4.980119205559973e-3, 1.992047682223989e-2, 7.665265321119147e-2,
          8.765009801785554e-1, 1.225521150112075e-1, 2.974307204847627e0)
    t15p = (4.018761610201036e-4, 2.945531440279683e-3, -8.709066576837676e-3,
            4.017568440673568e-1, 3.230762888122312e-2, 5.768988513026145e0,
            2.338576034271299e-2, 2.381070373870987e-1, 2.224209172496374e0,
            -5.792361707073261e0, -4.130276365929783e-2, 1.040801735231354e1,
            -6.331712455883370e1, 3.484665863364574e-1, 1.0, 1.0)
    assert EXP_COEFFS.t8 == t8
    assert EXP_COEFFS.t15p == t15p
    recomputed = EXP_COEFFS.t15p[0] ** 4
    assert EXP_COEFFS.b16 == recomputed
    assert f"{recomputed:.15e}" == "2.608368698098256e-14"
    _ok(1, "tables embedded digit-for-digit; c1^4 = 2.608368698098256e-14")


# ---------------------------------------------------------------------------
# 2. polynomial identities on scalar probes
# ---------------------------------------------------------------------------

def test_criterion_02_scalar_polynomial_identities():
    b16 = EXP_COEFFS.b16
    for i in range(64):
        x = -2.0 + 4.0 * i / 63
        led = MulLedger()
        got8 = eval_t8([Matrix([[x]])], led).a[0, 0]
        want8 = float(sum(Fraction(x) ** k / math.factorial(k) for k in range(9)))
        assert abs(got8 - want8) <= 1e-12 * max(1.0, math.exp(x))

        got15 = eval_t15p([Matrix([[x]])], led).a[0, 0]
        want15 = float(sum(Fraction(x) ** k / math.factorial(k) for k in range(16))
                       + Fraction(b16) * Fraction(x) ** 16)
        assert abs(got15 - want15) <= 1e-12 * math.exp(x)
    _ok(2, "order-8 and order-15+ formulas match direct summation on 64 probes")


# ---------------------------------------------------------------------------
# 3. multiplication budgets
# ---------------------------------------------------------------------------

def test_criterion_03_multiplication_budgets():
    rng = np.random.default_rng(0)
    A = Matrix(rng.uniform(-0.25, 0.25, (6, 6)))

    for m, budget in ((1, 0), (2, 1), (4, 2)):
        led = MulLedger()
        eval_low_order([A], m, led)
        assert led.count == budget, f"low order {m}"
    led = MulLedger()
    eval_t8([A], led)
    assert led.count == 3
    led = MulLedger()
    eval_t15p([A], led)
    assert led.count == 4
    for m, budget in ((6, 3), (9, 4), (12, 5), (16, 6)):
        led = MulLedger()
        ps_eval(taylor_coeffs_exp(m), [A], led)
        assert led.count == budget, f"ps degree {m}"
    _ok(3, "budgets exact: 0/1/2 low, 3 for T8, 4 for T15+, 3/4/5/6 for PS 6/9/12/16")


# ---------------------------------------------------------------------------
# 4. forward accuracy at the working tolerance
# ---------------------------------------------------------------------------

def test_criterion_04_forward_accuracy():
    eps = 1e-8
    kinds = ("diag", "rotation_block", "random_dense")
    sizes = (8, 16, 32, 64)
    norms = np.geomspace(1e-2, 10.0, 200)
    worst = 0.0
    for i, target in enumerate(norms):
        spec = GeneratorSpec(kind=kinds[i % 3], n=sizes[(i // 3) % 4],
                             target_norm=float(target), seed=9000 + i)
        W = gen_matrix(spec)
        ref = expm_reference(W)
        for scheme in ("ps", "sastre"):
            err = relative_error(expm(W, eps, scheme).value, ref)
            worst = max(worst, err)
            assert err <= 1e-7, f"{spec} {scheme}: {err}"
    _ok(4, f"200 matrices, PS/Sastre Frobenius error <= 1e-7 (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. two-term tail bound dominates the realized remainder
# ---------------------------------------------------------------------------

def test_criterion_05_tail_bound_dominance():
    eps = 1e-8
    kinds = ("random_dense", "nonnormal_triangular", "nilpotent_perturbed",
             "rotation_block")
    sizes = (4, 8, 16, 32)
    norms = np.geomspace(1e-3, 8.0, 125)
    checked = 0
    worst_margin = math.inf
    for k_idx, kind in enumerate(kinds):
        for i, target in enumerate(norms):
            spec = GeneratorSpec(kind=kind, n=sizes[i % 4], target_norm=float(target),
                                 seed=31000 + 1000 * k_idx + i)
            W = gen_matrix(spec)
            scheme = ("ps", "sastre")[(k_idx + i) % 2]
            plan = (select_ps if scheme == "ps" else select_sastre)(W, eps, MulLedger(), [])
            assert plan.m >= 1
            B = scale_pow2(W, plan.s)
            if scheme == "sastre" and plan.m == 15:
                coeffs = taylor_coeffs_exp(15) + [EXP_COEFFS.b16]
            else:
                coeffs = taylor_coeffs_exp(plan.m)
            realized = one_norm(Matrix(expm_reference(B).a - poly_reference(B, coeffs).a))
            bound = (math.ldexp(plan.e1, -plan.s * (plan.m + 1))
                     + math.ldexp(plan.e2, -plan.s * (plan.m + 2)) + 1e-15)
            assert realized <= bound, (spec, scheme, realized, bound)
            worst_margin = min(worst_margin, bound / max(realized, 1e-300))
            checked += 1
    assert checked == 500
    _ok(5, f"two-term bound dominates realized remainder on 500 matrices "
           f"(tightest bound/realized ratio {worst_margin:.2f})")


# ---------------------------------------------------------------------------
# 6. cost ratios on the flow-norm suite
# ---------------------------------------------------------------------------

def test_criterion_06_cost_ratios():
    records = run_suite(default_suite_config(base_seed=2024))
    assert len(records) == 900
    totals = {}
    for r in records:
        assert math.isfinite(r.rel_err)
        totals[r.scheme] = totals.get(r.scheme, 0) + r.square_mults
    base_ratio = totals["baseline"] / totals["sastre"]
    ps_ratio = totals["ps"] / totals["sastre"]
    assert 1.6 <= base_ratio <= 2.4, totals
    assert 1.05 <= ps_ratio <= 1.35, totals
    _ok(6, f"300-matrix suite: baseline/sastre {base_ratio:.2f} in [1.6, 2.4], "
           f"ps/sastre {ps_ratio:.2f} in [1.05, 1.35]")


# ---------------------------------------------------------------------------
# 7. selector sanity
# ---------------------------------------------------------------------------

def test_criterion_07_selector_sanity():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 16))
        W = _random_with_norm(rng, n, float(10.0 ** rng.uniform(-6, 2)))
        for sel in (select_ps, select_sastre):
            plan = sel(W, 1e-8, MulLedger(), [])
            assert 0 <= plan.s <= 20
            if plan.e1 + plan.e2 <= 1e-8:
                assert plan.s == 0
    for sel in (select_ps, select_sastre):
        assert sel(Matrix([[1e60]]), 1e-8, MulLedger(), []).s == 20
    for _ in range(10):
        n = int(rng.integers(2, 12))
        W = _random_with_norm(rng, n, float(10.0 ** rng.uniform(-3, 1.1)))
        for scheme in ("ps", "sastre"):
            costs = [expm(W, eps, scheme).mults for eps in (1e-12, 1e-8, 1e-4)]
            assert costs[0] >= costs[1] >= costs[2]
    _ok(7, "s <= 20 always, early termination gives s = 0, cost monotone in eps")


# ---------------------------------------------------------------------------
# 8. structural identities
# ---------------------------------------------------------------------------

def test_criterion_08_structural_identities():
    rng = np.random.default_rng(8)
    # invertibility: run tight so truncation sits far below the 1e-10 bar
    for _ in range(8):
        n = int(rng.integers(2, 33))
        W = _random_with_norm(rng, n, float(rng.uniform(0.2, 2.0)))
        for scheme in ("ps", "sastre"):
            fwd = expm(W, 1e-12, scheme).value
            bwd = expm(Matrix(-1.0 * W.a), 1e-12, scheme).value
            defect = frobenius_norm(Matrix(fwd.a @ bwd.a - np.eye(n))) / math.sqrt(n)
            assert defect <= 1e-10
    checked = 0
    while checked < 8:
        n = int(rng.integers(2, 17))
        W = _random_with_norm(rng, n, float(rng.uniform(0.5, 2.0)))
        tr = float(np.trace(W.a))
        if abs(tr) < 0.2:
            continue
        for scheme in ("ps", "sastre"):
            sign, logdet = np.linalg.slogdet(expm(W, 1e-8, scheme).value.a)
            assert sign == 1.0
            assert abs(logdet - tr) <= 1e-8 * abs(tr)
        checked += 1
    _ok(8, "exp(W)exp(-W) = I to 1e-10; log det = trace to 1e-8")


# ---------------------------------------------------------------------------
# 9. low-rank path
# ---------------------------------------------------------------------------

def _shifted_tail_bound(plan):
    """Closed bound alpha^(m+1)/(m+2)! / (1 - alpha/(m+3)) on the whole tail
    sum_{k>m} V^k/(k+1)! (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl.
    31(3), 2009): alpha = max a_k^(1/k) over k = 2 and m+1..m+3 less the
    first even one, a_k = min_i ||V^2||^i ||V||^(k-2i) from the cached norms."""
    m, norms = plan.m, plan.norms  # norms[p - 1] = ||V^p||_1
    n1 = norms[0]
    n2 = norms[1] if len(norms) > 1 else n1 ** 2
    drop = m + 1 + (m + 1) % 2
    ks = [2] + [k for k in (m + 1, m + 2, m + 3) if k != drop]
    alpha = max(min(n2 ** i * n1 ** (k - 2 * i) for i in range(k // 2 + 1))
                ** (1 / k) for k in ks)
    assert alpha < m + 3
    return alpha ** (m + 1) / math.factorial(m + 2) / (1 - alpha / (m + 3))


def test_criterion_09_low_rank_path():
    from expmkit import expm_lowrank

    eps = 1e-8
    for i, target in enumerate((0.5, 1.0, 2.0, 3.5, 5.0)):
        spec = GeneratorSpec(kind="lowrank_pair", n=64, target_norm=target,
                             seed=500 + i)
        pair = gen_matrix(spec)
        assert pair.t == 8
        res = expm_lowrank(pair, eps)
        ref = expm_reference(Matrix(pair.a1 @ pair.a2))
        assert relative_error(res.value, ref) <= 1e-7
        assert res.plan.m in LOWRANK_ORDERS
        # independent check: the closed shifted-series bound at the chosen
        # order, with alpha built from the cached power norms, meets eps
        assert _shifted_tail_bound(res.plan) <= eps
    _ok(9, "low-rank path within 1e-7 of the oracle; orders satisfy the "
           "shifted-series bound")


# ---------------------------------------------------------------------------
# 10. benchmark determinism
# ---------------------------------------------------------------------------

def test_criterion_10_bench_determinism(tmp_path):
    cfg = SuiteConfig(eps=1e-8, sizes=(4, 8), kinds=("diag", "random_dense",
                                                     "rotation_block"),
                      schemes=("baseline", "ps", "sastre"), norm_min=1e-3,
                      norm_max=12.8, norm_count=3, base_seed=99)
    stripped = []
    for name in ("one", "two"):
        records = run_suite(cfg)
        path = tmp_path / f"{name}.csv"
        write_records_csv(records, path)
        rows = path.read_text().splitlines()
        stripped.append([",".join(r.split(",")[:-1]) for r in rows])
    assert stripped[0] == stripped[1]
    _ok(10, "repeated bench runs are identical apart from wall_time")
