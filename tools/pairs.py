"""Alternating runs of the benchmark on a parent revision and on the
working tree, summarized per metric.

    python3 tools/pairs.py --parent REV --workload flow_small --seeds 9401 9402 9403

Run it from the root of a source checkout.  The parent revision is
extracted with ``git archive`` into a temporary directory, never checked
out as a worktree; the change is the working tree as it stands.  For
each seed, both trees run ``python3 perfbench/run.py`` once for the
``run_seconds`` BENCHMARK.json sets, the change first on odd seeds and
the parent first on even ones, so that a drift in machine speed falls on
both sides.

Prints one JSON object.  Per metric it holds both trees' values in seed
order, their inclusive quartiles, the ratio of the medians, how many
pairs the change wins or ties in the direction BENCHMARK.json gives, the
gap between the medians next to the parent's interquartile range, and
whether each seed gave identical values on both trees.  A metric with a
bound is marked ``unresolved`` when the parent's interquartile range over
the pairs run is at least half that bound, relative to the parent's
median: its spread then leaves no room to tell a move within the bound
from noise, so rerun it with more pairs.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def first_tree(seed: int) -> str:
    """The tree that runs first for a seed: the change on odd seeds."""
    return "change" if seed % 2 else "parent"


def extract(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def parse_output(stdout: str) -> dict:
    """The result of one perfbench run from its standard output: the
    last line's JSON object, with each metric reduced to its value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()}}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=3600)
    if out.returncode not in (0, 1):  # 1 is a failed gate, still reported
        raise RuntimeError(f"perfbench in {tree} exited {out.returncode}: {out.stderr}")
    return parse_output(out.stdout)


def quartiles(values) -> list[float]:
    """Inclusive quartiles (q1, median, q3)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, spec: list[dict]) -> dict:
    """Per-metric comparison of paired runs.

    ``runs`` is a list of {"seed", "first", "parent", "change"}, each tree's
    entry a :func:`parse_output` result; ``spec`` is BENCHMARK.json's list
    of metric definitions (name, unit, better and, end to end, bound).
    """
    out = {
        "seeds": [r["seed"] for r in runs],
        "order": [f"{r['first']} first" for r in runs],
        "correct": all(r[t]["correct"] for r in runs for t in TREES),
        "attempted_failed": {t: [[r[t]["attempted"], r[t]["failed"]] for r in runs]
                             for t in TREES},
        "metrics": {},
    }
    for m in spec:
        name = m["name"]
        vals = {t: [r[t]["metrics"][name] for r in runs] for t in TREES}
        sign = 1.0 if m["better"] == "lower" else -1.0
        # gain > 0 where the change is better than the parent.
        gains = [sign * (p - c) for p, c in zip(vals["parent"], vals["change"])]
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        entry = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": vals["parent"],
            "change": vals["change"],
            "parent_quartiles": qp,
            "change_quartiles": qc,
            "median_ratio_change_over_parent": qc[1] / qp[1] if qp[1] else None,
            "change_wins": sum(g > 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "pairs": len(runs),
            "median_gap": sign * (qp[1] - qc[1]),
            "parent_iqr": qp[2] - qp[0],
            "identical_per_seed": [p == c for p, c in zip(vals["parent"], vals["change"])],
        }
        if "bound" in m:
            worse_by = sign * (qc[1] / qp[1] - 1.0) if qp[1] else 0.0
            iqr = entry["parent_iqr"]
            entry.update(worse_by=worse_by, bound=m["bound"],
                         within_bound=worse_by <= m["bound"],
                         unresolved=iqr > 0 and 2 * iqr >= m["bound"] * abs(qp[1]))
        out["metrics"][name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = bench["per_layer" if args.trace else "end_to_end"]
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        extract(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        runs = []
        for seed in args.seeds:
            first = first_tree(seed)
            run = {"seed": seed, "first": first}
            for tree in (first, "parent" if first == "change" else "change"):
                print(f"seed {seed}: {tree}", file=sys.stderr, flush=True)
                run[tree] = run_once(trees[tree], args.workload, seed, seconds, args.trace)
            runs.append(run)
    summary = {"workload": args.workload, "parent": args.parent,
               "seconds": seconds, "trace": args.trace}
    summary.update(summarize(runs, spec))
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
