"""Benchmark harness: generators, suite runner, profiles, reports.

Generation is a pure function of the spec (kind, order, target norm,
seed); the stream behind every seed is numpy's Philox counter PRNG, so
suites are reproducible bit for bit.  A suite runs serially in one
process, and records come out in spec order, then scheme order.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .engine import ExpmResult, LowRankPair, expm, expm_baseline
from .matrix import Matrix, MatrixError, _entries, _guarded, _real
from .oracle import expm_reference, relative_error
from .select import SCHEME_BASELINE, SCHEME_PS, SCHEME_SASTRE, ToleranceError, check_tolerance

__all__ = [
    "BenchRecord",
    "CSV_COLUMNS",
    "ConfigError",
    "GeneratorSpec",
    "KINDS",
    "SuiteConfig",
    "default_suite_config",
    "emit_reports",
    "gen_matrix",
    "performance_profile",
    "read_records_csv",
    "run_suite",
    "summarize",
    "write_records_csv",
]

KIND_DIAG = "diag"
KIND_DENSE = "random_dense"
KIND_TRIANGULAR = "nonnormal_triangular"
KIND_NILPOTENT = "nilpotent_perturbed"
KIND_ROTATION = "rotation_block"
KIND_LOWRANK = "lowrank_pair"

KINDS = (KIND_DIAG, KIND_DENSE, KIND_TRIANGULAR, KIND_NILPOTENT,
         KIND_ROTATION, KIND_LOWRANK)

_SCHEMES = (SCHEME_BASELINE, SCHEME_PS, SCHEME_SASTRE)

# Largest norms.count a suite may ask for: far more targets per (kind,
# order) than a benchmark needs, and few enough that the grid and the
# spec list always fit in memory.
MAX_NORM_COUNT = 10_000


class ConfigError(ValueError):
    """Invalid generator spec or suite configuration."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic matrix recipe.

    ``noise`` applies to nilpotent_perturbed only: the dense perturbation
    scale relative to the strict upper-triangular part (0 keeps the
    matrix exactly nilpotent).  Low-rank pairs use inner rank
    max(1, n // 8).
    """

    kind: str
    n: int
    target_norm: float
    seed: int
    noise: float = 1e-8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if _integer(self.n, "order") < 1:
            raise ConfigError("order must be at least 1")
        if self.kind in (KIND_NILPOTENT, KIND_ROTATION) and self.n < 2:
            raise ConfigError(f"{self.kind} needs order >= 2")
        if not _number(self.target_norm, "target norm") > 0:
            raise ConfigError("target norm must be positive")
        if _integer(self.seed, "seed") < 0:
            raise ConfigError("seed must be nonnegative")
        if not 0 <= _number(self.noise, "noise") < math.inf:
            raise ConfigError("noise must be finite and nonnegative")


def _integer(value, name: str) -> int:
    """value as ``operator.index`` takes it, numpy integers too; a bool, a
    float (2.0 too) or text is refused rather than truncated or parsed."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _number(value, name: str) -> float:
    """value as ``matrix._real`` takes it, or ConfigError naming the field."""
    try:
        return _real(value)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{name} {e}") from None


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@_guarded
def _scaled(arr: np.ndarray, target: float, norm: float | None = None) -> np.ndarray:
    """arr * (target / norm), with norm defaulting to arr's 1-norm.

    Raises :class:`ConfigError`, without a NumPy warning, when the norm
    or an entry of the result leaves the binary64 range.
    """
    if norm is None:
        norm = float(np.abs(arr).sum(axis=0).max())
    if norm == 0.0:
        raise ConfigError("generated matrix is zero; cannot hit a positive norm")
    factor = target / norm
    if not (math.isfinite(factor) and factor > 0.0):
        raise ConfigError(f"scale factor {target!r}/{norm!r} is out of binary64 range")
    out = arr * factor
    if not np.isfinite(out).all():
        raise ConfigError(f"target norm {target!r} is out of binary64 range")
    return out


def gen_matrix(spec: GeneratorSpec):
    """Generate the matrix (or factor pair) a spec describes.

    Bit-identical for identical specs; after scaling the 1-norm matches
    ``target_norm`` to within ~1e-12 relative (one rounding per entry).
    Raises :class:`ConfigError` when the spec cannot be generated, a
    target norm too large for binary64 included.
    """
    rng = _rng(spec.seed)
    n = spec.n
    if spec.kind == KIND_DIAG:
        d = rng.uniform(-1.0, 1.0, n)
        if not np.abs(d).max() > 0:
            d[0] = 1.0
        return Matrix(np.diag(_scaled(d, spec.target_norm, float(np.abs(d).max()))))
    if spec.kind == KIND_DENSE:
        return Matrix(_scaled(rng.uniform(-1.0, 1.0, (n, n)), spec.target_norm))
    if spec.kind == KIND_TRIANGULAR:
        arr = np.triu(rng.uniform(-1.0, 1.0, (n, n)))
        arr[np.diag_indices(n)] *= 0.25
        idx = np.arange(n)
        arr = arr * 0.5 ** np.maximum(idx[None, :] - idx[:, None], 0)
        return Matrix(_scaled(arr, spec.target_norm))
    if spec.kind == KIND_NILPOTENT:
        arr = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
        if spec.noise > 0:
            arr = arr + spec.noise * rng.uniform(-1.0, 1.0, (n, n))
        return Matrix(_scaled(arr, spec.target_norm))
    if spec.kind == KIND_ROTATION:
        arr = np.zeros((n, n))
        angles = rng.uniform(0.25, 1.0, n // 2)
        for i, theta in enumerate(angles):
            r = 2 * i
            arr[r, r + 1] = theta
            arr[r + 1, r] = -theta
        return Matrix(_scaled(arr, spec.target_norm))
    if spec.kind == KIND_LOWRANK:
        t = max(1, n // 8)
        a1 = rng.uniform(-1.0, 1.0, (n, t))
        a2 = rng.uniform(-1.0, 1.0, (t, n))
        v_norm = float(np.abs(a2 @ a1).sum(axis=0).max())
        return LowRankPair(a1, _scaled(a2, spec.target_norm, v_norm))
    raise ConfigError(f"unknown generator kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Suite configuration and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    eps: float
    sizes: tuple
    kinds: tuple
    schemes: tuple
    norm_min: float
    norm_max: float
    norm_count: int
    norm_scale: str = "log"
    base_seed: int = 0
    noise: float = 1e-8

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteConfig":
        d = _json_as(d, dict, "suite config")
        norms = _json_as(_json_field(d, "norms"), dict, "norms")
        seeds = _json_as(d.get("seeds", {}), dict, "seeds")
        # An unknown key, a typo perhaps, is refused rather than left to its default.
        for obj, parent, keys in ((d, "", "eps sizes kinds schemes norms seeds noise"),
                                  (norms, "norms.", "min max count scale"),
                                  (seeds, "seeds.", "base")):
            if unknown := [key for key in obj if key not in keys.split()]:
                raise ConfigError(f"bad suite config: unknown field '{parent}{unknown[0]}'")
        return cls(
            eps=_number(_json_field(d, "eps"), "eps"),
            sizes=tuple(_json_as(_json_field(d, "sizes"), list, "sizes")),
            kinds=tuple(_json_as(_json_field(d, "kinds"), list, "kinds")),
            schemes=tuple(_json_as(_json_field(d, "schemes"), list, "schemes")),
            norm_min=_number(_json_field(norms, "min", "norms."), "norms.min"),
            norm_max=_number(_json_field(norms, "max", "norms."), "norms.max"),
            norm_count=_json_field(norms, "count", "norms."),
            norm_scale=str(norms.get("scale", cls.norm_scale)),
            base_seed=seeds.get("base", cls.base_seed),
            noise=_number(d.get("noise", cls.noise), "noise"),
        )

    def validate(self):
        """The rules of both paths, the JSON reader's and the constructor's;
        messages name the JSON fields."""
        # Empty sizes/kinds/schemes are allowed and yield an empty suite.
        if any(_integer(n, "sizes") < 1 for n in self.sizes):
            raise ConfigError("sizes must be positive")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ConfigError(f"unknown generator kind {kind!r}")
            if kind == KIND_LOWRANK:
                raise ConfigError(
                    "lowrank_pair is exercised through the library API, "
                    "not the scheme suite")
        for scheme in self.schemes:
            if scheme not in _SCHEMES:
                raise ConfigError(f"unknown scheme {scheme!r}")
        if not (0 < _number(self.norm_min, "norms.min")
                <= _number(self.norm_max, "norms.max") < math.inf):
            raise ConfigError("need 0 < norms.min <= norms.max < inf")
        if not 1 <= _integer(self.norm_count, "norms.count") <= MAX_NORM_COUNT:
            raise ConfigError(f"norms.count must be from 1 to {MAX_NORM_COUNT}")
        if self.norm_scale not in ("log", "linear"):
            raise ConfigError("norms.scale must be 'log' or 'linear'")
        if _integer(self.base_seed, "seeds.base") < 0:
            raise ConfigError("seeds.base must be nonnegative")
        # Checked here too, since GeneratorSpec never runs on an empty suite.
        if not 0 <= _number(self.noise, "noise") < math.inf:
            raise ConfigError("noise must be finite and nonnegative")
        try:
            check_tolerance(_number(self.eps, "eps"))
        except ToleranceError as exc:
            raise ConfigError(str(exc)) from exc
        # GeneratorSpec holds the per-kind rules (minimum order).
        for kind in self.kinds:
            for n in self.sizes:
                GeneratorSpec(kind, n, self.norm_max, self.base_seed, self.noise)

    def norm_grid(self) -> np.ndarray:
        # One point is exactly [norm_min]: numpy sets the first to the start.
        if self.norm_scale == "log":
            return np.geomspace(self.norm_min, self.norm_max, self.norm_count)
        return np.linspace(self.norm_min, self.norm_max, self.norm_count)

    def specs(self) -> list[GeneratorSpec]:
        grid = self.norm_grid()
        out = []
        index = 0
        for kind in self.kinds:
            for n in self.sizes:
                for target in grid:
                    out.append(GeneratorSpec(
                        kind=kind, n=n, target_norm=float(target),
                        seed=_derive_seed(self.base_seed, index),
                        noise=self.noise))
                    index += 1
        return out


def _json_field(obj: dict, key: str, parent: str = ""):
    """obj[key]; a missing key is reported by its full name, such as
    ``norms.min``."""
    try:
        return obj[key]
    except KeyError:
        raise ConfigError(f"bad suite config: missing field '{parent}{key}'") from None


def _json_as(value, kind: type, name: str):
    """A JSON array or object as is, if its type is exactly ``kind``;
    anything else (a string for an array) is rejected rather than
    iterated."""
    if type(value) is not kind:
        raise ConfigError(f"{name} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _derive_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])


def default_suite_config(base_seed: int = 2024) -> SuiteConfig:
    """The flow-norm regime suite at eps 1e-8: 300 matrices with 1-norms
    log-spaced over [2.84e-4, 12.8] across orders 8..64."""
    return SuiteConfig(
        eps=1e-8,
        sizes=(8, 16, 32, 64),
        kinds=(KIND_DIAG, KIND_DENSE, KIND_ROTATION),
        schemes=_SCHEMES,
        norm_min=2.84e-4,
        norm_max=12.8,
        norm_count=25,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class BenchRecord:
    """One (matrix, scheme) experiment row; rel_err is NaN on failure."""

    generator: GeneratorSpec
    scheme: str
    m: int
    s: int
    square_mults: int
    rel_err: float
    wall_time: float


def _run_scheme(W: Matrix, scheme: str, eps: float) -> ExpmResult:
    if scheme == SCHEME_BASELINE:
        return expm_baseline(W, eps)
    return expm(W, eps, scheme)


def run_suite(config: SuiteConfig) -> list[BenchRecord]:
    """Run every (matrix, scheme) cell of the suite, one matrix at a time.

    Driver errors, and errors that cannot be formed against the reference,
    are recorded as NaN rows, never fatal; a spec whose
    matrix cannot be generated raises :class:`ConfigError`.  Records are
    in spec order, then in ``config.schemes`` order.  ``config`` was
    validated when it was built.
    """
    rows = []
    for spec in config.specs():
        W = gen_matrix(spec)
        try:
            ref = expm_reference(W)
        except (MatrixError, ArithmeticError):
            ref = None
        for scheme in config.schemes:
            try:
                res = _run_scheme(W, scheme, config.eps)
            except (MatrixError, ArithmeticError):
                rows.append(BenchRecord(spec, scheme, 0, 0, 0, math.nan, 0.0))
                continue
            try:
                err = math.nan if ref is None else relative_error(res.value, ref)
            except MatrixError:  # an error that cannot be formed fails the row
                err = math.nan
            rows.append(BenchRecord(spec, scheme, res.plan.m, res.plan.s,
                                    res.mults, err, res.wall_time))
    return rows


# ---------------------------------------------------------------------------
# Performance profile
# ---------------------------------------------------------------------------

def performance_profile(records, alphas) -> dict:
    """The JSON object the bench summary and ``expm profile`` write:
    ``fractions[scheme][i]`` is the fraction of matrices whose error is
    within ``alphas[i]`` of the per-matrix best.  Matrices where a scheme
    failed or is missing are ``excluded``.  The grid passes the input
    gate of :mod:`expmkit.matrix`, which makes it nonempty and finite."""
    try:
        alphas = _entries(alphas, "alpha grid", 1).tolist()
    except MatrixError as e:
        raise ConfigError(str(e)) from None
    if not all(a >= 1 for a in alphas):
        raise ConfigError("alpha grid values must be at least 1")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ConfigError("alpha grid must be ascending")
    schemes = sorted({r.scheme for r in records})
    by_matrix: dict = {}
    for r in records:
        by_matrix.setdefault(r.generator, {})[r.scheme] = r.rel_err
    rows = []
    excluded = 0
    for errs in by_matrix.values():
        if len(errs) == len(schemes) and all(math.isfinite(v) for v in errs.values()):
            rows.append(errs)
        else:
            excluded += 1
    fractions = {sch: [] for sch in schemes}
    for alpha in alphas:
        for sch in schemes:
            if not rows:
                fractions[sch].append(0.0)
                continue
            hits = sum(1 for errs in rows
                       if errs[sch] <= alpha * min(errs.values()))
            fractions[sch].append(hits / len(rows))
    return {"alphas": alphas, "fractions": fractions,
            "matrices": len(rows), "excluded": excluded}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("generator_kind", "n", "target_norm", "seed", "scheme",
               "m", "s", "square_mults", "rel_err", "wall_time_s")


def write_records_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([
                r.generator.kind, r.generator.n, repr(r.generator.target_norm),
                r.generator.seed, r.scheme, r.m, r.s, r.square_mults,
                repr(r.rel_err), repr(r.wall_time),
            ])


def read_records_csv(path) -> list[BenchRecord]:
    """The records of a bench CSV.  It has no noise column, so each spec
    takes the default noise 1e-8; the suite's is in the JSON summary."""
    with open(path, "r", newline="", encoding="ascii") as f:
        try:
            rows = list(csv.reader(f))
        except csv.Error as exc:
            raise ConfigError(f"unreadable CSV: {exc}") from exc
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ConfigError(f"unexpected CSV header {rows[0] if rows else None!r}")
    records = []
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            raise ConfigError(f"malformed CSV row {row!r}")
        spec = GeneratorSpec(kind=row[0], n=int(row[1]),
                             target_norm=float(row[2]), seed=int(row[3]))
        records.append(BenchRecord(
            generator=spec, scheme=row[4], m=int(row[5]), s=int(row[6]),
            square_mults=int(row[7]), rel_err=float(row[8]),
            wall_time=float(row[9])))
    return records


def _quantiles(values) -> dict:
    if not values:
        return {"p25": 0.0, "p50": 0.0, "p75": 0.0, "max": 0.0}
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return {"p25": float(q25), "p50": float(q50), "p75": float(q75),
            "max": float(max(values))}


def summarize(records, profile: dict, noise: float) -> dict:
    """Per-scheme totals and quantiles (equal to the CSV column sums), and noise."""
    schemes = sorted({r.scheme for r in records})
    per = {}
    for sch in schemes:
        rows = [r for r in records if r.scheme == sch]
        errs = [r.rel_err for r in rows if math.isfinite(r.rel_err)]
        per[sch] = {
            "records": len(rows),
            "failures": sum(1 for r in rows if not math.isfinite(r.rel_err)),
            "total_mults": sum(r.square_mults for r in rows),
            "mean_rel_err": float(np.mean(errs)) if errs else 0.0,
            "max_rel_err": float(max(errs)) if errs else 0.0,
            "mean_m": float(np.mean([r.m for r in rows])) if rows else 0.0,
            "mean_s": float(np.mean([r.s for r in rows])) if rows else 0.0,
            "m_quantiles": _quantiles([r.m for r in rows]),
            "s_quantiles": _quantiles([r.s for r in rows]),
            "total_wall_time_s": float(sum(r.wall_time for r in rows)),
        }
    return {
        "records": len(records),
        "matrices": len({r.generator for r in records}),
        "noise": float(noise),
        "schemes": per,
        "profile": profile,
    }


DEFAULT_PROFILE_ALPHAS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                          256.0, 512.0, 1024.0)


def emit_reports(records, profile, noise, csv_path, summary_path) -> None:
    """Write the per-row CSV and the JSON summary."""
    write_records_csv(records, csv_path)
    with open(summary_path, "w", encoding="ascii") as f:
        json.dump(summarize(records, profile, noise), f, indent=2)
        f.write("\n")
