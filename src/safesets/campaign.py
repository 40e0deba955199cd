"""Systematic evidence gathering for the equal-safe-numbers characterizations.

For every connected graph in the selected sweeps (bipartite, chordal,
triangle-free) up to a maximum order, the campaign classifies the graph,
then backs the verdict with computation: members get randomized weight
samples that must all satisfy s = cs; non-members get a solver-verified
separating certificate whose every minimum safe set is also pushed through
the quotient construction and must land outside the bipartite members.
Divergences are collected as failure records, never silently dropped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .contraction import beta
from .enumerate import (
    FILTER_NAMES,
    MAX_ENUM_ORDER,
    SWEEP_FILTERS,
    enumerate_connected_graphs,
)
from .family import (
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    classify,
    classify_chordal,
    classify_bipartite,
)
from .graph import (
    InputError,
    components,
    diameter,
    is_connected,
    is_cycle_graph,
    vlist,
)
from .graph6 import parse_graph6, to_graph6
from .solver import MAX_SOLVER_ORDER, all_minimum_safe_sets, solve_pair
from .weights import format_rational
from .witness import certify_non_membership, verify_certificate

SWEEP_NAMES = tuple(SWEEP_FILTERS)
REPORT_SCHEMA_VERSION = 1
LARGE_ORDER_WARNING = (
    "orders above 7 enumerate tens of thousands of graphs; expect a long run"
)


def derive_seed(master_seed: int, graph6: str) -> int:
    """Stable per-graph seed, independent of enumeration order."""
    digest = hashlib.sha256(f"{master_seed}|{graph6}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _failure(graph6: str, kind: str, detail: str) -> dict:
    return {"graph6": graph6, "kind": kind, "detail": detail}


def study_graph(graph6: str, samples: int, master_seed: int) -> tuple[dict, list[dict]]:
    """Classify one graph and gather the evidence its verdict demands.

    Returns (record, failures); failures are data, not exceptions, so a run
    over thousands of graphs reports every divergence at once.
    """
    g = parse_graph6(graph6)
    if not is_connected(g):
        raise InputError("campaign graphs must be connected")
    failures: list[dict] = []
    sweeps = [name for name, keep in SWEEP_FILTERS.items() if keep(g)]
    cls = classify(g)
    record: dict = {
        "graph6": graph6,
        "order": g.n,
        "sweeps": sweeps,
        "verdict": cls.verdict,
        "family": cls.family,
        "params": cls.params,
        "reason": cls.reason,
    }

    if "chordal" in sweeps:
        chordal_cls = classify_chordal(g)
        if cls.verdict != chordal_cls.verdict:
            failures.append(
                _failure(
                    graph6,
                    "classifier-conflict",
                    f"dispatch says {cls.verdict}, chordal rule says {chordal_cls.verdict}",
                )
            )

    seed_g = derive_seed(master_seed, graph6)
    diam = diameter(g)
    large_diameter_tf = (
        "triangle-free" in sweeps and not is_cycle_graph(g) and diam >= 4
    )

    if cls.verdict == MEMBER and large_diameter_tf:
        failures.append(
            _failure(
                graph6,
                "member-with-large-diameter",
                f"triangle-free non-cycle of diameter {diam} classified MEMBER",
            )
        )

    if cls.verdict == MEMBER and sweeps:
        record["sampling"] = _sample_member(g, graph6, samples, seed_g, failures)

    needs_certificate = (cls.verdict == NON_MEMBER and sweeps) or large_diameter_tf
    if needs_certificate:
        _certify(g, graph6, cls.verdict, sweeps, seed_g, record, failures)

    return record, failures


def _sample_member(g, graph6, samples, seed, failures) -> dict:
    rng = random.Random(seed)
    top = g.n * g.n
    equal = 0
    for _ in range(samples):
        weights = tuple(Fraction(rng.randint(1, top)) for _ in range(g.n))
        s_sol, cs_sol = solve_pair(g, weights)
        if s_sol.optimum == cs_sol.optimum:
            equal += 1
        else:
            failures.append(
                _failure(
                    graph6,
                    "member-sample-gap",
                    "weights "
                    + ",".join(format_rational(x) for x in weights)
                    + f" give s={s_sol.optimum} < cs={cs_sol.optimum}",
                )
            )
    return {"seed": seed, "samples": samples, "allEqual": equal == samples}


def _certify(g, graph6, verdict, sweeps, seed, record, failures) -> None:
    cert = certify_non_membership(g, seed=seed)
    if cert is None:
        failures.append(
            _failure(graph6, "certificate-missing", "no separating weights found")
        )
        return
    record["certificate"] = cert.to_json()
    ok, problems = verify_certificate(record["certificate"])
    if not ok:
        failures.append(
            _failure(graph6, "certificate-invalid", "; ".join(problems))
        )
    if "chordal" in sweeps and verdict == NON_MEMBER and cert.pattern != "H1":
        failures.append(
            _failure(
                graph6,
                "chordal-pattern",
                f"expected a path-shaped quotient, got {cert.pattern}",
            )
        )
    record["betaChain"] = _check_beta_chain(g, graph6, cert, failures)


def _check_beta_chain(g, graph6, cert, failures) -> dict:
    """Every minimum safe set of a separating weight function must leave the
    complement disconnected, and its quotient must again be a bipartite
    non-member."""
    checked = 0
    ok = True
    for s in all_minimum_safe_sets(g, cert.weights):
        checked += 1
        if len(components(g, g.full_mask & ~s)) < 2:
            ok = False
            failures.append(
                _failure(
                    graph6,
                    "beta-chain-complement-connected",
                    f"minimum safe set {vlist(s)} leaves the rest connected",
                )
            )
            continue
        quotient = beta(g, s)
        verdict = classify_bipartite(quotient.quotient).verdict
        if verdict != NON_MEMBER:
            ok = False
            failures.append(
                _failure(
                    graph6,
                    "beta-chain-member-quotient",
                    f"quotient of {vlist(s)} classified {verdict}",
                )
            )
    return {"minimumSafeSets": checked, "ok": ok}


def _campaign_graphs(max_order: int, sweep_filter: str, input_graphs) -> list[str]:
    """The graph6 of every graph to study.  An input graph above the solver's
    order limit is refused before any graph is studied."""
    if input_graphs is not None:
        out = []
        for line in input_graphs:
            line = line.strip()
            if line:
                g = parse_graph6(line)
                if g.n > MAX_SOLVER_ORDER:
                    raise InputError(
                        f"input graph {to_graph6(g)} has order {g.n}, "
                        f"above the solver limit {MAX_SOLVER_ORDER}"
                    )
                out.append(to_graph6(g))
        return out
    names = SWEEP_NAMES if sweep_filter == "all" else (sweep_filter,)
    out = []
    for order in range(1, max_order + 1):
        for g in enumerate_connected_graphs(order):
            if any(SWEEP_FILTERS[name](g) for name in names):
                out.append(to_graph6(g))
    return out


def run_characterization_campaign(
    max_order: int = 7,
    samples_per_member: int = 50,
    seed: int = 0,
    sweep_filter: str = "all",
    input_graphs=None,
    jobs: int = 1,
) -> dict:
    """Run the sweeps and return a deterministic JSON-ready report.

    input_graphs, when given, is an iterable of graph6 lines studied instead
    of the enumerated families.  jobs > 1 distributes graphs over at most
    that many processes, capped by the CPU count and the number of graphs;
    the report is identical either way.
    """
    if not 1 <= max_order <= MAX_ENUM_ORDER:
        raise InputError(f"max order must be between 1 and {MAX_ENUM_ORDER}")
    if sweep_filter not in FILTER_NAMES:
        raise InputError(
            f"unknown sweep {sweep_filter!r}; expected " + ", ".join(FILTER_NAMES)
        )
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    if samples_per_member < 0:
        raise InputError("samples per member must be nonnegative")
    if max_order > 7 and input_graphs is None:
        warnings.warn(LARGE_ORDER_WARNING, stacklevel=2)

    graphs = _campaign_graphs(max_order, sweep_filter, input_graphs)
    workers = min(jobs, os.cpu_count() or 1, len(graphs))
    results: list[tuple[dict, list[dict]]] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _study_args,
                    [(g6, samples_per_member, seed) for g6 in graphs],
                    chunksize=16,
                )
            )
    else:
        results = [_study_args((g6, samples_per_member, seed)) for g6 in graphs]

    results.sort(key=lambda pair: (pair[0]["order"], pair[0]["graph6"]))
    records = [record for record, _ in results]
    failures = [f for _, fails in results for f in fails]
    failures.sort(key=lambda f: (f["graph6"], f["kind"], f["detail"]))

    counts = {
        "graphs": len(records),
        "members": sum(r["verdict"] == MEMBER for r in records),
        "nonMembers": sum(r["verdict"] == NON_MEMBER for r in records),
        "undecided": sum(r["verdict"] == UNDECIDED for r in records),
        "certificates": sum("certificate" in r for r in records),
        "failures": len(failures),
    }
    for name in SWEEP_NAMES:
        counts[_camel(name)] = sum(name in r["sweeps"] for r in records)

    return {
        "schemaVersion": REPORT_SCHEMA_VERSION,
        "maxOrder": max_order,
        "samplesPerMember": samples_per_member,
        "seed": seed,
        "filter": sweep_filter,
        "counts": counts,
        "records": records,
        "failures": failures,
    }


def _study_args(args: tuple[str, int, int]) -> tuple[dict, list[dict]]:
    """study_graph on one (graph6, samples, seed) tuple.  An InputError
    propagates; any other exception becomes an internal-error failure and a
    record without a verdict, so one graph cannot abort the run."""
    try:
        return study_graph(*args)
    except InputError:
        raise
    except Exception as exc:
        graph6 = args[0]
        record = {
            "graph6": graph6,
            "order": parse_graph6(graph6).n,
            "sweeps": [],
            "verdict": None,
            "family": None,
            "params": None,
            "reason": "internal-error",
        }
        detail = f"{type(exc).__name__}: {exc}"
        return record, [_failure(graph6, "internal-error", detail)]


def _camel(name: str) -> str:
    head, *rest = name.split("-")
    return head + "".join(part.capitalize() for part in rest)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def report_to_csv(report: dict) -> str:
    """Flat per-graph summary of a campaign report."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        [
            "graph6",
            "order",
            "sweeps",
            "verdict",
            "family",
            "reason",
            "pattern",
            "s",
            "cs",
            "samples",
            "allEqual",
        ]
    )
    for r in report["records"]:
        cert = r.get("certificate") or {}
        sampling = r.get("sampling") or {}
        writer.writerow(
            [
                r["graph6"],
                r["order"],
                ";".join(r["sweeps"]),
                r["verdict"],
                r["family"] or "",
                r["reason"],
                cert.get("pattern", ""),
                cert.get("s", ""),
                cert.get("cs", ""),
                sampling.get("samples", ""),
                sampling.get("allEqual", ""),
            ]
        )
    return out.getvalue()
