import csv
import json
import math
import warnings

import numpy as np
import pytest

from expmkit import (
    BenchRecord,
    ConfigError,
    GeneratorSpec,
    LowRankPair,
    SuiteConfig,
    default_suite_config,
    emit_reports,
    gen_matrix,
    one_norm,
    performance_profile,
    read_records_csv,
    run_suite,
    summarize,
    write_records_csv,
)


def small_config(**overrides):
    base = dict(eps=1e-8, sizes=(4, 6), kinds=("diag", "random_dense"),
                schemes=("baseline", "ps", "sastre"), norm_min=1e-3,
                norm_max=4.0, norm_count=2, base_seed=5)
    base.update(overrides)
    return SuiteConfig(**base)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generation_is_deterministic():
    spec = GeneratorSpec(kind="random_dense", n=12, target_norm=3.0, seed=99)
    W1, W2 = gen_matrix(spec), gen_matrix(spec)
    assert np.array_equal(W1.a, W2.a)
    other = gen_matrix(GeneratorSpec(kind="random_dense", n=12, target_norm=3.0, seed=100))
    assert not np.array_equal(W1.a, other.a)


@pytest.mark.parametrize("kind", ["diag", "random_dense", "nonnormal_triangular",
                                  "nilpotent_perturbed", "rotation_block"])
def test_generated_norm_hits_target(kind):
    target = 12.57
    spec = GeneratorSpec(kind=kind, n=8, target_norm=target, seed=17)
    W = gen_matrix(spec)
    assert abs(one_norm(W) - target) <= 1e-12 * target


def test_diag_is_diagonal():
    W = gen_matrix(GeneratorSpec(kind="diag", n=6, target_norm=2.0, seed=1))
    off = W.a.copy()
    np.fill_diagonal(off, 0.0)
    assert not off.any()


def test_triangular_is_triangular():
    W = gen_matrix(GeneratorSpec(kind="nonnormal_triangular", n=7, target_norm=1.0, seed=2))
    assert not np.tril(W.a, -1).any()


def test_nilpotent_zero_noise_is_nilpotent():
    W = gen_matrix(GeneratorSpec(kind="nilpotent_perturbed", n=6, target_norm=3.0,
                                 seed=3, noise=0.0))
    assert not np.linalg.matrix_power(W.a, 6).any()
    noisy = gen_matrix(GeneratorSpec(kind="nilpotent_perturbed", n=6, target_norm=3.0,
                                     seed=3, noise=1e-8))
    assert np.linalg.matrix_power(noisy.a, 6).any()


def test_rotation_block_structure():
    W = gen_matrix(GeneratorSpec(kind="rotation_block", n=7, target_norm=1.5, seed=4))
    assert np.array_equal(W.a, -W.a.T)  # skew-symmetric, hence normal


def test_lowrank_pair_generation():
    pair = gen_matrix(GeneratorSpec(kind="lowrank_pair", n=64, target_norm=2.0, seed=5))
    assert isinstance(pair, LowRankPair)
    assert pair.t == 8
    v_norm = float(np.abs(pair.a2 @ pair.a1).sum(axis=0).max())
    assert abs(v_norm - 2.0) <= 1e-12 * 2.0


def test_generator_spec_validation():
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="hilbert", n=4, target_norm=1.0, seed=0)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="diag", n=0, target_norm=1.0, seed=0)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="diag", n=4, target_norm=0.0, seed=0)
    with pytest.raises(ConfigError):
        GeneratorSpec(kind="rotation_block", n=1, target_norm=1.0, seed=0)
    # the suite reader's type rules hold for a spec built in Python too
    for bad in (dict(n=2.5), dict(n=True), dict(n="4"), dict(seed=1.5), dict(seed=True),
                dict(seed=-1), dict(target_norm="1"), dict(target_norm=True),
                dict(noise="x"), dict(noise=False)):
        with pytest.raises(ConfigError):
            GeneratorSpec(**{**dict(kind="diag", n=4, target_norm=1.0, seed=0), **bad})
    # numpy integers and floats are numbers
    spec = GeneratorSpec(kind="diag", n=np.int64(4), target_norm=np.float32(2.0),
                         seed=np.uint64(3))
    assert gen_matrix(spec).n == 4


@pytest.mark.parametrize("kind", ["rotation_block", "nonnormal_triangular",
                                  "nilpotent_perturbed", "lowrank_pair"])
def test_unreachable_target_norm_is_config_error(kind):
    # the scale factor or an entry overflows binary64; no NumPy warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="binary64"):
            gen_matrix(GeneratorSpec(kind, 2 if kind == "nilpotent_perturbed" else 4,
                                     1.7e308, 0))


# ---------------------------------------------------------------------------
# suite configuration and runner
# ---------------------------------------------------------------------------

def test_config_from_dict_round_trip():
    cfg = SuiteConfig.from_dict({
        "eps": 1e-8,
        "sizes": [4, 8],
        "kinds": ["diag"],
        "norms": {"min": 1e-2, "max": 2.0, "count": 3, "scale": "log"},
        "seeds": {"base": 7},
        "schemes": ["ps", "sastre"],
    })
    assert cfg.norm_scale == "log"
    specs = cfg.specs()
    assert len(specs) == 2 * 3
    assert len({s.seed for s in specs}) == len(specs)


def test_config_rejects_garbage():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"eps": 1e-8})
    with pytest.raises(ConfigError):
        small_config(schemes=("pade",))
    with pytest.raises(ConfigError):
        small_config(kinds=("lowrank_pair",))
    with pytest.raises(ConfigError):
        small_config(norm_min=-1.0)
    with pytest.raises(ConfigError):
        small_config(norm_scale="sqrt")
    with pytest.raises(ConfigError):
        small_config(sizes=(0,))
    with pytest.raises(ConfigError):
        small_config(eps=2.0 ** -54)
    # the JSON reader's type rules hold for a config built in Python too
    for bad in (dict(sizes=(2.9,)), dict(sizes=(True,)), dict(norm_count=2.5),
                dict(norm_count=True), dict(base_seed=1.5), dict(base_seed=True),
                dict(noise="x"), dict(norm_max="4"), dict(eps=10 ** 400)):
        with pytest.raises(ConfigError):
            small_config(**bad)
    cfg = small_config(sizes=(np.int64(4),), norm_count=np.int64(2), base_seed=np.uint64(5))
    assert [spec.n for spec in cfg.specs()] == [4] * 4


def test_run_suite_empty_config():
    assert run_suite(small_config(sizes=())) == []
    assert run_suite(small_config(kinds=())) == []


def test_run_suite_records_and_costs():
    from expmkit import ps_shape, sastre_budget

    cfg = small_config()
    records = run_suite(cfg)
    assert len(records) == 2 * 2 * 2 * 3  # kinds * sizes * norms * schemes
    for r in records:
        assert math.isfinite(r.rel_err)
        assert r.rel_err <= 1e-6
        # cost identity is recoverable from the record alone
        if r.scheme == "baseline":
            assert r.square_mults == r.m + r.s
        elif r.m > 0:
            budget = ps_shape(r.m).mults if r.scheme == "ps" else sastre_budget(r.m)
            assert r.square_mults == budget + r.s


def test_run_suite_example_diag_grid():
    cfg = SuiteConfig(eps=1e-8, sizes=(6,), kinds=("diag",),
                      schemes=("baseline", "ps", "sastre"),
                      norm_min=1e-4, norm_max=12.8, norm_count=10, base_seed=77)
    records = run_suite(cfg)
    assert len(records) == 30
    assert all(r.rel_err <= 1e-7 for r in records)


# ---------------------------------------------------------------------------
# performance profile
# ---------------------------------------------------------------------------

def _record(seed, scheme, err):
    spec = GeneratorSpec(kind="diag", n=4, target_norm=1.0, seed=seed)
    return BenchRecord(spec, scheme, 1, 0, 1, err, 0.0)


def test_profile_unique_minimum():
    records = [_record(0, "ps", 1e-10), _record(0, "sastre", 5e-10),
               _record(0, "baseline", 2e-9)]
    prof = performance_profile(records, [1.0, 6.0, 30.0])
    assert prof["fractions"]["ps"] == [1.0, 1.0, 1.0]
    assert prof["fractions"]["sastre"] == [0.0, 1.0, 1.0]
    assert prof["fractions"]["baseline"] == [0.0, 0.0, 1.0]
    assert prof["matrices"] == 1 and prof["excluded"] == 0


def test_profile_ties_count_for_everyone():
    records = [_record(0, "ps", 3e-9), _record(0, "sastre", 3e-9)]
    prof = performance_profile(records, [1.0])
    assert prof["fractions"]["ps"] == [1.0]
    assert prof["fractions"]["sastre"] == [1.0]


def test_profile_fractions_nondecreasing_and_reach_one():
    rng = np.random.default_rng(71)
    records = []
    for seed in range(25):
        errs = 10.0 ** rng.uniform(-12, -7, 3)
        records += [_record(seed, sch, float(e))
                    for sch, e in zip(("baseline", "ps", "sastre"), errs)]
    alphas = [1.0, 2.0, 10.0, 1e5, 1e12]
    prof = performance_profile(records, alphas)
    for fr in prof["fractions"].values():
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert fr[-1] == 1.0  # 1e12 exceeds any error ratio drawn above


def test_profile_excludes_incomplete_matrices():
    records = [_record(0, "ps", 1e-9), _record(0, "sastre", 1e-9),
               _record(1, "ps", 1e-9)]  # seed 1 lacks the sastre row
    prof = performance_profile(records, [1.0])
    assert prof["matrices"] == 1
    assert prof["excluded"] == 1
    nan_records = records[:2] + [_record(2, "ps", math.nan), _record(2, "sastre", 1e-9)]
    prof = performance_profile(nan_records, [1.0])
    assert prof["excluded"] == 1


def test_profile_validates_alpha_grid():
    records = [_record(0, "ps", 1e-9)]
    with pytest.raises(ConfigError):
        performance_profile(records, [])
    with pytest.raises(ConfigError):
        performance_profile(records, [0.5, 2.0])
    with pytest.raises(ConfigError):
        performance_profile(records, [4.0, 2.0])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_emit_reports_empty(tmp_path):
    csv_path = tmp_path / "r.csv"
    summary_path = tmp_path / "s.json"
    emit_reports([], performance_profile([], [1.0, 2.0]), 0.5, csv_path, summary_path)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("generator_kind,")
    summary = json.loads(summary_path.read_text())
    assert summary["records"] == 0 and summary["schemes"] == {}
    assert summary["profile"]["matrices"] == 0
    assert summary["noise"] == 0.5


def test_csv_round_trip_exact(tmp_path):
    cfg = small_config()
    records = run_suite(cfg)
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.generator.kind == b.generator.kind
        assert a.generator.n == b.generator.n
        assert a.generator.target_norm == b.generator.target_norm
        assert a.generator.seed == b.generator.seed
        assert (a.scheme, a.m, a.s, a.square_mults) == (b.scheme, b.m, b.s, b.square_mults)
        assert a.rel_err == b.rel_err
        assert a.wall_time == b.wall_time


def test_summary_totals_match_csv(tmp_path):
    records = run_suite(small_config())
    prof = performance_profile(records, [1.0, 2.0])
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    summary = summarize(records, prof, small_config().noise)
    by_scheme = {}
    with open(path) as f:
        for row in csv.DictReader(f):
            by_scheme.setdefault(row["scheme"], 0)
            by_scheme[row["scheme"]] += int(row["square_mults"])
    for scheme, total in by_scheme.items():
        assert summary["schemes"][scheme]["total_mults"] == total
    assert "profile" in summary
    for stats in summary["schemes"].values():
        q = stats["m_quantiles"]
        assert q["p25"] <= q["p50"] <= q["p75"] <= q["max"]


def test_suite_determinism_modulo_wall_time(tmp_path):
    cfg = small_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(run_suite(cfg), p1)
    write_records_csv(run_suite(cfg), p2)

    def strip_wall(path):
        rows = path.read_text().strip().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]

    assert strip_wall(p1) == strip_wall(p2)


@pytest.mark.parametrize("scale", ["log", "linear"])
@pytest.mark.parametrize("lo, hi", [(1e-3, 4.0), (2.5, 2.5), (1.1e-300, 12.8),
                                    (1.1e-300, 1.1e-300), (3e-300, 7e300)])
def test_one_point_norm_grid_is_exactly_the_minimum(scale, lo, hi):
    # numpy sets the first point of geomspace and linspace to the start.
    cfg = small_config(norm_min=lo, norm_max=hi, norm_count=1, norm_scale=scale)
    assert np.array_equal(cfg.norm_grid(), [lo])


def test_default_suite_config_shape():
    cfg = default_suite_config()
    specs = cfg.specs()
    assert len(specs) == 300
    norms = sorted({s.target_norm for s in specs})
    assert norms[0] == pytest.approx(2.84e-4)
    assert norms[-1] == pytest.approx(12.8)
