"""Run-to-run spread of the end-to-end metrics, and the change between two
sets of runs.

    python3 perfbench/spread.py --workloads certify,solve-large --seeds 0-9 --save a.json
    python3 perfbench/spread.py --compare a.json b.json

The first form runs ``run.py`` once per seed and workload, one run at a
time, and prints for every end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, against the metric's bound in BENCHMARK.json.  A spread above a
third of the bound is marked and makes the exit status 1.
The second form compares the medians of two saved sets and marks a metric
that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(workloads, seeds, seconds) -> dict:
    values = {w: {m: [] for m in METRICS} for w in workloads}
    for workload in workloads:
        for seed in seeds:
            child = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed}: exit {child.returncode}")
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"{workload} seed {seed}: wall_s {result['metrics']['wall_s']['value']:.3f}",
                  file=sys.stderr, flush=True)
    return values


def report(values) -> int:
    status = 0
    for workload, metrics in values.items():
        print(f"{workload} ({len(metrics['wall_s'])} runs)")
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = METRICS[name]["bound"]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above a third of the bound"
                status = 1
            print(f"  {name:12s} median {median:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}"
                  f"  spread {spread:7.2%}  bound {bound:.0%}{flag}")
    return status


def compare(first, second) -> int:
    status = 0
    for workload, metrics in first.items():
        print(workload)
        for name, vals in metrics.items():
            a = statistics.median(vals)
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if METRICS[name]["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > METRICS[name]["bound"]:
                flag = "  <-- worse by more than the bound"
                status = 1
            print(f"  {name:12s} {a:12.5f} -> {b:12.5f}  worse by {worse:7.2%}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return compare(first, second)
    values = collect(args.workloads.split(","), seed_list(args.seeds), args.seconds)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    return report(values)


if __name__ == "__main__":
    sys.exit(main())
