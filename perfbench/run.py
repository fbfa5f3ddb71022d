"""Run one workload of the expmkit benchmark and print its metrics.

    python3 perfbench/run.py --workload flow_small --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: expmkit is imported from
./src, never from an installed copy.  Workloads are flow_small,
large_dense and suite_reference (see BENCHMARK.json).  Earlier lines of
standard output give the run environment, each metric with its unit,
sample counts and the correctness gate; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones, whose
spans are also written to perfbench/_out/.

Exit codes: 0 when every gate check passes, 1 when one fails, 2 when the
sources or BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORKLOADS = ("flow_small", "large_dense", "suite_reference")
# One BLAS thread keeps runs steady on a shared machine and within nproc.
BLAS_THREADS = "1"
# Set-up is repeated and its median reported, since one set-up is short.
SETUP_REPS = 5
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import expmkit; print(time.perf_counter() - t)")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _environment(args, numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__, "blas": blas_version,
        "python": platform.python_version(), "machine": platform.machine(),
    }


def _import_s() -> float:
    """Median seconds to import expmkit in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "expmkit" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: run from a source checkout; need {SRC / 'expmkit'} "
              f"and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import expmkit
    import tracing
    import workloads
    if Path(expmkit.__file__).resolve().parent != SRC / "expmkit":
        print(f"perfbench: imported expmkit from {expmkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(_environment(args, numpy)))

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, str(OUT))
    import_s = _import_s()
    setups = []
    for _ in range(SETUP_REPS):
        t1 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t1)
    print(f"setup import_s={import_s!r} reps_s={setups!r}")
    wl.prepare_gate()
    run = wl.measure(args.seconds)

    if args.trace:
        with tracing.Tracer(tracing.ITEM_SITES[:1]) as gen_trace:
            wl.setup()
        with tracing.Tracer() as tracer:
            traced = wl.measure(args.seconds, tracer)
        metrics = tracing.per_layer(tracer.spans, traced.passes, wl.gemm_s)
        if not metrics["bench.gen_calls"]:  # inputs were made in set-up
            made = tracing.per_layer(gen_trace.spans, 1, wl.gemm_s)
            metrics["bench.gen_s"] = made["bench.gen_s"]
            metrics["bench.gen_calls"] = made["bench.gen_calls"]
        for n in workloads.GEMM_SIZES:
            metrics[f"matrix.gemm_us.n{n}"] = 1e6 * wl.gemm_s[n]
        metrics["trace.overhead_frac"] = (1.0 - run.end_to_end()["item_cost_mean"]
                                          / traced.end_to_end()["item_cost_mean"])
        phase_sum = (metrics["select.mults"] + metrics["poly.mults"]
                     + metrics["engine.squaring_mults"])
        if phase_sum != traced.pass_mults:
            wl.problems.append(f"select + poly + squaring mults {phase_sum} != "
                               f"total_mults {traced.pass_mults}")
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
        run, wanted = traced, spec["per_layer"]
    else:
        metrics = run.end_to_end()
        metrics["setup_s"] = import_s + statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        wl.problems.append(f"metrics {sorted(set(metrics) ^ set(names))} are not "
                           "both computed and listed in BENCHMARK.json")
    for m in wanted:
        print(f"metric {m['name']} {metrics.get(m['name'])!r} {m['unit']}")
    print("notes " + json.dumps(run.notes()))
    for problem in wl.problems[:50]:
        print(f"gate FAIL {problem}")
    print(f"gate {'FAIL' if wl.problems else 'ok'} ({len(wl.problems)} problems)")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 1 if wl.problems else 0


if __name__ == "__main__":
    sys.exit(main())
