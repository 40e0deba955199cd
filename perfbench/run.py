"""Benchmark of the safesets library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The library is imported from ``src/`` of the same checkout and called through
its public API from this one process: no threads, no worker processes
(campaigns run with ``jobs=1``).  Every input is made from ``--seed``.

With ``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs one untraced pass, then one pass with spans
recorded around the layer functions (see spans.py), checks that both give
the same outputs, and prints the per-layer metrics; the spans are written to
``perfbench/out/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Exit status: 0 when every
output check passes, 1 when one fails, 2 when set-up fails (no result line).
``--workload all`` runs each workload in its own child process, one after
another, and exits nonzero if any of them does.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from spans import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, SetupError, clear_caches  # noqa: E402

ROUND_SECONDS = 25  # a round of any workload takes about this long on 2 cores
# Set-ups timed back to back before the rounds.  A batch timed after the
# rounds ran up to 18 % slower on certify (the heap the rounds leave
# behind), and a median over two such clusters jumps between them.
SETUP_REPEATS = 21
MODULES = (
    "graph", "graph6", "canon", "enumerate", "family",
    "contraction", "witness", "solver", "weights", "campaign",
)


def fresh_import() -> SimpleNamespace:
    """Import safesets from this checkout's src/, dropping any earlier copy,
    so that every set-up repetition pays for the import again."""
    for name in [m for m in sys.modules if m == "safesets" or m.startswith("safesets.")]:
        del sys.modules[name]
    pkg = importlib.import_module("safesets")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SetupError(f"safesets was imported from {pkg.__file__}, not from src/")
    return SimpleNamespace(
        pkg=pkg, **{m: importlib.import_module(f"safesets.{m}") for m in MODULES}
    )


def namespaces(lib) -> dict:
    """Caller name -> module, for every namespace the tracer patches."""
    out = {"api": lib.pkg}
    out.update((m, getattr(lib, m)) for m in MODULES)
    return out


def _ignore_op(index: int) -> None:
    pass


def timed_pass(workload, lib, state, index, op=_ignore_op):
    clear_caches(lib)
    start = time.perf_counter()
    raw = workload.timed(lib, state, index, op)
    return raw, time.perf_counter() - start


def report_notes(workload, outcome) -> None:
    for key, value in outcome.notes.items():
        print(f"{workload.name}: {key} {value}", file=sys.stderr)


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def plain_run(workload, lib, state, rounds):
    wall, latencies, attempted, failed, problems = 0.0, [], 0, 0, []
    for index in range(rounds):
        walls, outcomes = [], []
        for _ in range(workload.repeats):
            raw, seconds = timed_pass(workload, lib, state, index)
            outcomes.append(workload.check(lib, state, index, raw))
            walls.append(seconds)
            del raw
        first = outcomes[0]
        report_notes(workload, first)
        if any(o.digest != first.digest for o in outcomes):
            problems.append("outputs differ between repeats of a round")
        wall += min(walls)
        latencies += [min(times) for times in zip(*(o.latencies for o in outcomes))]
        attempted += first.attempted
        failed += max(o.failed for o in outcomes)
        problems += [p for o in outcomes for p in o.problems]
    metrics = {
        "wall_s": wall,
        "ops_per_s": attempted / wall,
        "op_p50_ms": _percentile(latencies, 50) * 1e3,
        "op_p90_ms": _percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, attempted, failed, problems


def traced_run(workload, lib, state, stamp):
    raw, plain_wall = timed_pass(workload, lib, state, 0)
    plain = workload.check(lib, state, 0, raw)
    del raw
    tracer = Tracer(namespaces(lib))
    clear_caches(lib)
    tracer.install()
    try:
        start = time.perf_counter()
        raw = workload.timed(lib, state, 0, tracer.op)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    info = lib.canon.canonical_form.cache_info()
    traced = workload.check(lib, state, 0, raw)
    report_notes(workload, traced)
    problems = plain.problems + traced.problems
    if traced.digest != plain.digest:
        problems.append("outputs differ with tracing on and off")
    metrics = per_layer_metrics(tracer, info.hits + info.misses)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload.name}-seed{stamp['seed']}.tsv"
    tracer.write(path, json.dumps(stamp, sort_keys=True))
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}", file=sys.stderr)
    return metrics, traced.attempted, traced.failed, problems


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_stamp(args, rounds) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "safesets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def load_metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[section]}


def time_setups(workload, seed, rounds):
    """Set up SETUP_REPEATS times; returns the times and the last set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        # Garbage left by the previous set-up would otherwise be collected at
        # a varying point inside the timed one.
        gc.collect()
        start = time.perf_counter()
        lib = fresh_import()
        state = workload.setup(lib, seed, rounds)
        times.append(time.perf_counter() - start)
    return times, lib, state


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    if not (SRC / "safesets" / "__init__.py").is_file():
        print("perfbench: no safesets sources under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        units = load_metric_units(args.trace)
        setup_times, lib, state = time_setups(workload, args.seed, rounds)
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    stamp = make_stamp(args, rounds)
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)

    if args.trace:
        metrics, attempted, failed, problems = traced_run(workload, lib, state, stamp)
    else:
        metrics, attempted, failed, problems = plain_run(workload, lib, state, rounds)
        metrics["setup_s"] = statistics.median(setup_times)

    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"check failed: ... {len(problems) - 20} more", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own child process, so each has its own peak RSS."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(f"{name}: {line}" for line in lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}", file=sys.stderr)
            status = status or child.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
