"""Check that the traced counts repeat exactly on the same seed.

    python3 perfbench/repeat_check.py --seed 0 [--workloads certify,solve-large]

Runs ``run.py --trace 1`` twice per workload, one run at a time, and
compares every per-layer metric whose unit is ``count`` or ``ratio``.  These
come from spans, return values and ``canonical_form.cache_info()``, so any
difference is a nondeterminism bug.  Exit status 1 lists the differences.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "ratio")


def traced_counts(workload: str, seed: int) -> dict:
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: traced run exited with {child.returncode}")
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in EXACT_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        print(f"{workload}: {len(first)} counts, {len(differ)} differ", flush=True)
        for name, (a, b) in sorted(differ.items()):
            print(f"  {name}: {a} then {b}")
        status = status or (1 if differ else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
