import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expmkit
from expmkit import KINDS, Matrix, load_matrix, save_matrix
from expmkit.cli import main


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "w.txt"
    save_matrix(Matrix(np.diag([1.0, -0.5, 2.0])), path)
    return path


def suite_file(tmp_path, **overrides):
    cfg = {
        "eps": 1e-8,
        "sizes": [4],
        "kinds": ["diag", "random_dense"],
        "norms": {"min": 1e-2, "max": 2.0, "count": 2, "scale": "log"},
        "seeds": {"base": 3},
        "schemes": ["baseline", "ps", "sastre"],
    }
    cfg.update(overrides)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg))
    return path


def test_single_prints_plan(matrix_file, capsys):
    rc = main(["single", "--in", str(matrix_file), "--eps", "1e-8", "--scheme", "sastre"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "m=15" in out and "s=0" in out and "mults=4" in out


def test_single_writes_result(matrix_file, tmp_path, capsys):
    out_path = tmp_path / "e.txt"
    rc = main(["single", "--in", str(matrix_file), "--eps", "1e-8",
               "--scheme", "ps", "--out", str(out_path), "--stats"])
    assert rc == 0
    result = load_matrix(out_path)
    assert np.abs(result.a.diagonal() - np.exp([1.0, -0.5, 2.0])).max() <= 1e-7
    # --stats prints the plan's ||W||_1, the float one_norm(W) gives.
    want = expmkit.one_norm(load_matrix(matrix_file))
    assert f"n=3 one_norm={want!r}\n" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["sastre", "ps", "baseline"])
def test_single_stats_print_phase_counts_and_flags(tmp_path, scheme, capsys):
    # A rotation block at 1-norm 3.16e6 takes sastre and ps to the scaling
    # cap, where the bound misses eps; the baseline has no cap.
    W = expmkit.gen_matrix(expmkit.GeneratorSpec("rotation_block", 16, 3.16e6, 0))
    path = tmp_path / "w.txt"
    save_matrix(W, path)
    assert main(["single", "--in", str(path), "--eps", "1e-8", "--scheme", scheme,
                 "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(tok.split("=", 1) for line in lines for tok in line.split())
    res = expmkit.bench._run_scheme(W, scheme, 1e-8)
    assert [int(fields[f"{phase}_mults"]) for phase in ("select", "eval", "square")] == \
        [res.select_mults, res.eval_mults, res.square_mults]
    assert sum(int(fields[f"{phase}_mults"]) for phase in ("select", "eval", "square")) == \
        int(fields["mults"])
    capped = scheme != "baseline"
    assert (fields["cap_hit"], fields["bound_met"]) == (str(capped), str(not capped))
    assert float(fields["bound"]) == res.plan.bound


def test_single_baseline(matrix_file, capsys):
    rc = main(["single", "--in", str(matrix_file), "--eps", "1e-8", "--scheme", "baseline"])
    assert rc == 0
    assert "mults=" in capsys.readouterr().out


def test_single_bad_inputs(tmp_path, matrix_file, capsys):
    assert main(["single", "--in", str(tmp_path / "nope.txt"), "--eps", "1e-8",
                 "--scheme", "ps"]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1.0\n")
    assert main(["single", "--in", str(bad), "--eps", "1e-8", "--scheme", "ps"]) == 2
    # sub-roundoff and unbounded tolerances are invalid input
    for eps in ("1e-17", "inf"):
        assert main(["single", "--in", str(matrix_file), "--eps", eps,
                     "--scheme", "ps"]) == 2, eps
        assert capsys.readouterr().err.startswith("error: ")
    # a non-ASCII byte and an entry that overflows while loading
    for name, data in (("latin1.txt", b"1\n\xe9\n"), ("inf.txt", b"1\n1e400\n")):
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["single", "--in", str(bad), "--eps", "1e-8",
                     "--scheme", "sastre"]) == 2, name
        assert capsys.readouterr().err.startswith("error: ")


def test_single_numerical_failure(tmp_path, capsys):
    # exp(800) overflows binary64: the computation fails, not the input
    path = tmp_path / "big.txt"
    save_matrix(Matrix([[800.0]]), path)
    assert main(["single", "--in", str(path), "--eps", "1e-8", "--scheme", "sastre"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_bench_and_profile_round_trip(tmp_path, capsys):
    suite = suite_file(tmp_path)
    csv_path = tmp_path / "records.csv"
    summary_path = tmp_path / "summary.json"
    rc = main(["bench", "--suite", str(suite), "--csv", str(csv_path),
               "--summary", str(summary_path)])
    assert rc == 0
    summary = json.loads(summary_path.read_text())
    assert summary["records"] == 2 * 2 * 3
    assert set(summary["schemes"]) == {"baseline", "ps", "sastre"}

    assert summary["noise"] == 1e-8  # the default, as the suite gave none

    prof_path = tmp_path / "prof.json"
    rc = main(["profile", "--csv", str(csv_path), "--alphas", "1,2,4,1e9",
               "--out", str(prof_path)])
    assert rc == 0
    prof = json.loads(prof_path.read_text())
    assert prof["alphas"] == [1.0, 2.0, 4.0, 1e9]
    assert prof["matrices"] == 4
    capsys.readouterr()


def test_bench_deterministic_across_runs(tmp_path, capsys):
    suite = suite_file(tmp_path)
    outs = []
    for name in ("a", "b"):
        csv_path = tmp_path / f"{name}.csv"
        rc = main(["bench", "--suite", str(suite), "--csv", str(csv_path),
                   "--summary", str(tmp_path / f"{name}.json")])
        assert rc == 0
        rows = csv_path.read_text().strip().splitlines()
        outs.append([",".join(r.split(",")[:-1]) for r in rows])
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_bench_huge_exponentials_are_measured(tmp_path, capsys):
    # e^A near 1e304: the error metric must not square entries that large
    suite = suite_file(tmp_path, sizes=[8], kinds=["diag"], schemes=["sastre"],
                       norms={"min": 300, "max": 700, "count": 3}, seeds={"base": 5})
    csv_path = tmp_path / "records.csv"
    rc = main(["bench", "--suite", str(suite), "--csv", str(csv_path),
               "--summary", str(tmp_path / "summary.json")])
    assert "failures=0" in capsys.readouterr().out
    assert rc == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["s"]) for r in rows] == [8, 8, 9]
    assert all(0.0 < float(r["rel_err"]) < 1e-8 for r in rows)


def test_bench_measures_an_exponential_that_underflows_to_zero(tmp_path, capsys):
    # e^-800 rounds to 0.0 in every driver and in the reference: the
    # error is 0, not an invalid reference
    suite = suite_file(tmp_path, sizes=[1], kinds=["diag"],
                       norms={"min": 800.0, "max": 800.0, "count": 1})
    csv_path = tmp_path / "records.csv"
    rc = main(["bench", "--suite", str(suite), "--csv", str(csv_path),
               "--summary", str(tmp_path / "summary.json")])
    assert rc == 0, capsys.readouterr().err
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["scheme"] for r in rows] == ["baseline", "ps", "sastre"]
    assert all(float(r["rel_err"]) == 0.0 for r in rows)


def test_bench_reference_overflow_fails_without_warning(tmp_path):
    # e^800 overflows binary64, in the reference as in the driver: the row
    # fails and the run exits 3.  A fresh interpreter prints any
    # floating-point warning to stderr; none may appear.
    suite = suite_file(tmp_path, sizes=[2], kinds=["diag"], schemes=["ps"],
                       norms={"min": 800, "max": 800, "count": 1}, seeds={"base": 0})
    src = str(Path(expmkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "expmkit.cli", "bench", "--suite", str(suite),
                           "--csv", str(tmp_path / "c.csv"), "--summary", str(tmp_path / "s.json")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 3, proc.stderr
    assert "records=1 failures=1" in proc.stdout
    assert "Warning" not in proc.stderr, proc.stderr


def test_bench_bad_config(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["bench", "--suite", str(missing), "--csv", str(tmp_path / "c.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 2
    bad = suite_file(tmp_path, schemes=["pade"])
    assert main(["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 2
    capsys.readouterr()
    # a tolerance below the unit roundoff is invalid input, not a crash
    tiny = suite_file(tmp_path, eps=1e-17)
    assert main(["bench", "--suite", str(tiny), "--csv", str(tmp_path / "c.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unit roundoff" in err
    # malformed values are rejected before the run, not met by a traceback
    norms = {"min": 1e-2, "max": 2.0, "count": 2}
    for overrides in ({"norms": {**norms, "count": math.inf}},
                      {"norms": {**norms, "max": math.inf}},
                      {"sizes": [1], "kinds": ["rotation_block"]},
                      {"seeds": {"base": -1}},
                      {"noise": math.nan},
                      {"norms": {**norms, "max": 1.7e308}},
                      {"sizes": [2.9], "norms": {**norms, "count": 1.9}},
                      {"sizes": [2.0]},
                      {"sizes": ["3"]},
                      {"norms": {**norms, "count": True}},
                      {"seeds": {"base": 2.0}},
                      {"seeds": {"base": "7"}},
                      {"eps": math.inf},
                      {"eps": 2.0}):
        bad = suite_file(tmp_path, **overrides)
        assert main(["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 2, overrides
        assert capsys.readouterr().err.startswith("error: ")
    # a value of the wrong JSON type is rejected, not converted or iterated
    for field, overrides in (("norms.max", {"norms": {**norms, "max": True}}),
                             ("norms.min", {"norms": {**norms, "min": "0.01"}}),
                             ("eps", {"eps": "1e-8"}),
                             ("noise", {"noise": "0"}),
                             ("kinds", {"kinds": {"diag": 1}}),
                             ("kinds", {"kinds": "diag"}),
                             ("schemes", {"schemes": "ps"}),
                             ("seeds", {"seeds": 5}),
                             ("seeds", {"seeds": [1]}),
                             ("norms", {"norms": 5}),
                             ("eps", {"eps": 10 ** 400}),
                             ("norms.min", {"norms": {**norms, "min": 10 ** 400}}),
                             ("norms.max", {"norms": {**norms, "max": 10 ** 400}}),
                             ("noise", {"noise": 10 ** 400}),
                             ("norms.min", {"norms": {"max": 1.0, "count": 1}}),
                             ("norms.max", {"norms": {"min": 1e-2, "count": 1}}),
                             ("norms.count", {"norms": {"min": 1e-2, "max": 1.0}}),
                             # a count whose grid could not be allocated
                             ("norms.count", {"norms": {**norms, "count": 10 ** 13}}),
                             ("norms.count", {"norms": {**norms, "count": 10_001}}),
                             # an unknown key, not a default run in its place
                             ("'seed'", {"seed": {"base": 5}}),
                             ("'nosie'", {"noise": 0, "nosie": 0}),
                             ("'norms.scal'", {"norms": {**norms, "scal": "linear"}})):
        bad = suite_file(tmp_path, **overrides)
        assert main(["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 2, overrides
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, (overrides, err)
    # files that are not UTF-8, or nest deeper than the JSON decoder recurses
    for data in (b'{"eps": "\xff"}', b"[" * 100000):
        bad = tmp_path / "raw.json"
        bad.write_bytes(data)
        assert main(["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                     "--summary", str(tmp_path / "s.json")]) == 2, data[:8]
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
def test_bench_refuses_bad_noise_on_an_empty_suite(tmp_path, capsys, noise):
    # No generator spec is built for an empty suite, so the config itself
    # refuses a noise that would reach the summary (NaN is not JSON).
    summary = tmp_path / "s.json"
    bad = suite_file(tmp_path, sizes=[], noise=noise)
    assert main(["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                 "--summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "noise" in err, err
    assert not summary.exists()


def test_bench_refuses_a_generated_norm_beyond_binary64(tmp_path, capsys):
    # Finite entries near 1e308 whose column sum overflows: the norm is
    # inf, and scaling by target/inf would give a zero matrix labelled
    # with the target norm.  One error line, no numpy warning.
    suite = suite_file(tmp_path, kinds=["nilpotent_perturbed"], schemes=["sastre"],
                       norms={"min": 1, "max": 1, "count": 1}, noise=1e308)
    summary = tmp_path / "s.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", "--suite", str(suite), "--csv", str(tmp_path / "c.csv"),
                     "--summary", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not summary.exists()


def test_bench_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch):
    # A matrix too large to allocate exits 2 with one line, not numpy's
    # traceback.  The generator is stubbed, so nothing large is allocated.
    def too_large(spec):
        raise MemoryError(f"Unable to allocate an order-{spec.n} matrix")

    monkeypatch.setattr(expmkit.bench, "gen_matrix", too_large)
    suite = suite_file(tmp_path, kinds=["diag"], schemes=["ps"])
    assert main(["bench", "--suite", str(suite), "--csv", str(tmp_path / "c.csv"),
                 "--summary", str(tmp_path / "s.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate an order-4 matrix\n"


_MISSING = object()
_JUNK = st.sampled_from([_MISSING, None, "x", -1, 0, 1.5, math.nan, math.inf, [], {}, True])


@st.composite
def _suites(draw):
    """A suite JSON whose values, nested ones included, are drawn from small
    valid ranges (some out of range), with up to three replaced by junk or
    removed."""
    norms = {"min": draw(st.sampled_from([1e-3, 1.0, 12.8])),
             "max": draw(st.sampled_from([1e-3, 1.0, 12.8, 1.7e308])),
             "count": draw(st.integers(-1, 3)),
             "scale": draw(st.sampled_from(["log", "linear", "sqrt"]))}
    seeds = {"base": draw(st.integers(-2, 2 ** 70))}
    cfg = {"eps": draw(st.sampled_from([1e-8, 1e-3, 2.0 ** -53, 1e-17])),
           "sizes": draw(st.lists(st.integers(-2, 6), max_size=2)),
           "kinds": draw(st.lists(st.sampled_from(KINDS + ("nope",)), max_size=2)),
           "schemes": draw(st.lists(st.sampled_from(["baseline", "ps", "sastre", "pade"]),
                                    max_size=3)),
           "norms": norms, "seeds": seeds,
           "noise": draw(st.sampled_from([0.0, 1e-8]))}
    spots = [(cfg, key) for key in cfg] + [(norms, key) for key in norms] + [(seeds, "base")]
    for i in draw(st.lists(st.integers(0, len(spots) - 1), max_size=3, unique=True)):
        d, key = spots[i]
        value = draw(_JUNK)
        if value is _MISSING:
            del d[key]
        else:
            d[key] = value
    return cfg


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cfg=_suites())
def test_bench_exit_code_on_any_suite(cfg):
    # n <= 6 and at most 3 norms: no example allocates much
    with tempfile.TemporaryDirectory() as tmp:
        suite = os.path.join(tmp, "suite.json")
        with open(suite, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["bench", "--suite", suite, "--csv", os.path.join(tmp, "c.csv"),
                       "--summary", os.path.join(tmp, "s.json")])
    assert rc in (0, 2, 3)


_ENTRIES = st.sampled_from(["1.0", "-0.5", "0", "3e-3", "nan", "1e400", "1e300",
                            "x", "\xe9"])


@st.composite
def _matrix_texts(draw):
    """Matrix text of order <= 4 with a junk order line, rows of the wrong
    count or length, non-ASCII bytes and non-finite or huge entries."""
    n = draw(st.integers(1, 4))
    order = draw(st.sampled_from([str(n), str(n), "0", "-1", "2.5", "x", "\xe9"]))
    rows = []
    for _ in range(draw(st.sampled_from([n, n, n - 1, n + 1]))):
        width = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        rows.append(" ".join(draw(_ENTRIES) for _ in range(width)))
    return "\n".join([order] + rows) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(text=_matrix_texts(), eps=st.sampled_from(["1e-8", "1e-17", "nan", "inf", "-1"]),
       scheme=st.sampled_from(["baseline", "ps", "sastre"]))
def test_single_exit_code_on_any_matrix(text, eps, scheme):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.txt")
        with open(path, "wb") as f:
            f.write(text.encode("latin-1"))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["single", "--in", path, "--eps", eps, "--scheme", scheme,
                       "--out", os.path.join(tmp, "e.txt")])
    assert rc in (0, 2, 3)


def test_entry_point_exits_2_without_traceback(tmp_path):
    # the installed script runs sys.exit(main()); check it in a fresh interpreter
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1\n\xe9\n")
    src = str(Path(expmkit.__file__).resolve().parents[1])
    for argv in (["single", "--in", str(bad), "--eps", "1e-8", "--scheme", "ps"],
                 ["bench", "--suite", str(bad), "--csv", str(tmp_path / "c.csv"),
                  "--summary", str(tmp_path / "s.json")],
                 ["profile", "--csv", str(bad), "--alphas", "1,2",
                  "--out", str(tmp_path / "p.json")]):
        proc = subprocess.run([sys.executable, "-m", "expmkit.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, (argv[0], proc.stderr)
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_profile_bad_alphas(tmp_path, capsys):
    suite = suite_file(tmp_path)
    csv_path = tmp_path / "records.csv"
    main(["bench", "--suite", str(suite), "--csv", str(csv_path),
          "--summary", str(tmp_path / "s.json")])
    assert main(["profile", "--csv", str(csv_path), "--alphas", "0.5,2",
                 "--out", str(tmp_path / "p.json")]) == 2
    assert main(["profile", "--csv", str(tmp_path / "nothere.csv"), "--alphas", "1,2",
                 "--out", str(tmp_path / "p.json")]) == 2
    capsys.readouterr()
    # a NaN alpha would be written as invalid JSON
    assert main(["profile", "--csv", str(csv_path), "--alphas", "nan,1",
                 "--out", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    # a field longer than the csv module's limit
    huge = tmp_path / "huge.csv"
    huge.write_text(csv_path.read_text().splitlines()[0] + "\n" + "1" * 200000 + "\n")
    assert main(["profile", "--csv", str(huge), "--alphas", "1,2",
                 "--out", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_summary_carries_the_noise_the_csv_lacks(tmp_path, capsys):
    suite = suite_file(tmp_path, kinds=["nilpotent_perturbed"], noise=0)
    csv_path, summary_path = tmp_path / "r.csv", tmp_path / "s.json"
    assert main(["bench", "--suite", str(suite), "--csv", str(csv_path),
                 "--summary", str(summary_path)]) == 0
    noise = json.loads(summary_path.read_text())["noise"]
    assert noise == 0.0 and type(noise) is float
    # The CSV alone gives specs with the default noise; the summary's
    # restores the run's matrices, which are exactly nilpotent.
    config = expmkit.SuiteConfig.from_dict(json.loads(suite.read_text()))
    back = expmkit.read_records_csv(csv_path)
    assert back and all(r.generator.noise == 1e-8 for r in back)
    for r, spec in zip(back[::3], config.specs()):
        run = expmkit.gen_matrix(spec)
        again = expmkit.gen_matrix(dataclasses.replace(r.generator, noise=noise))
        assert again.a.tobytes() == run.a.tobytes()
        assert not np.tril(run.a).any()
        assert np.tril(expmkit.gen_matrix(r.generator).a, -1).any()
