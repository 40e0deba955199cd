"""Command line front end.

Exit codes: 0 on success (a witness search that completes without finding
separating weights still succeeds, reporting "unknown"), 1 when verification
comes back negative (a certificate fails its re-check, a campaign records
failures), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .campaign import (
    run_characterization_campaign,
    report_to_csv,
    report_to_json,
)
from .contraction import beta, lift_weights, quotient_of_partition
from .enumerate import FILTER_NAMES
from .family import classify
from .graph import InputError, vlist, vset
from .graph6 import parse_graph6, to_graph6
from .solver import solve_pair
from .weights import format_rational, parse_weights_json
from .witness import certify_non_membership, verify_certificate


def _read_text(path: str) -> str:
    """The contents of a file, or of stdin when path is -."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_json_arg(inline: str | None, path: str | None, what: str):
    if inline is not None and path is not None:
        raise InputError(f"give {what} either inline or as a file, not both")
    if inline is not None:
        text, source = inline, f"inline {what}"
    elif path is not None:
        text, source = _read_text(path), "stdin" if path == "-" else path
    else:
        raise InputError(f"missing {what}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON in {source} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise InputError(f"invalid JSON in {source}: {exc}") from exc


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_solve(args) -> int:
    g = parse_graph6(args.graph6)
    weights = parse_weights_json(
        _read_json_arg(args.weights, args.weights_file, "weights"), g.n
    )
    s_sol, cs_sol = solve_pair(g, weights)
    out = {
        "schemaVersion": 1,
        "graph6": to_graph6(g),
        "weights": [format_rational(x) for x in weights],
        "s": format_rational(s_sol.optimum),
        "cs": format_rational(cs_sol.optimum),
        "minimumSafeSet": vlist(s_sol.witness_set),
        "minimumConnectedSafeSet": vlist(cs_sol.witness_set),
    }
    if args.all_minima:
        out["allMinimumSafeSets"] = [vlist(s) for s in s_sol.all_optima]
        out["allMinimumConnectedSafeSets"] = [vlist(s) for s in cs_sol.all_optima]
    _print_json(out)
    return 0


def _cmd_recognize(args) -> int:
    g = parse_graph6(args.graph6)
    _print_json(classify(g).to_json(g))
    return 0


def _cmd_witness(args) -> int:
    g = parse_graph6(args.graph6)
    cert = certify_non_membership(
        g, budget=args.budget, sample_count=args.samples, seed=args.seed
    )
    if cert is None:
        _print_json({"schemaVersion": 1, "graph6": to_graph6(g), "result": "unknown"})
        return 0
    _print_json(cert.to_json())
    return 0


def _cmd_verify_certificate(args) -> int:
    obj = _read_json_arg(None, args.input, "certificate")
    ok, problems = verify_certificate(obj)
    _print_json({"schemaVersion": 1, "ok": ok, "problems": problems})
    return 0 if ok else 1


def _cmd_contract(args) -> int:
    g = parse_graph6(args.graph6)
    obj = _read_json_arg(args.json, args.input, "contraction request")
    if not isinstance(obj, dict):
        raise InputError("contraction request must be a JSON object")
    weights = None
    if args.weights is not None or args.weights_file is not None:
        weights = parse_weights_json(
            _read_json_arg(args.weights, args.weights_file, "weights"), g.n
        )
    out = {"schemaVersion": 1, "graph6": to_graph6(g)}
    if "s" in obj:
        q = beta(g, vset(obj["s"]))
        out["quotientGraph6"] = to_graph6(q.quotient)
        out["bags"] = [vlist(b) for b in q.bags]
        out["inS"] = list(q.in_s)
        bags = q.bags
    elif "bags" in obj:
        if not isinstance(obj["bags"], list):
            raise InputError("the 'bags' field must be a list of vertex lists")
        bags = tuple(vset(b) for b in obj["bags"])
        quotient = quotient_of_partition(g, bags)
        out["quotientGraph6"] = to_graph6(quotient)
        out["bags"] = [vlist(b) for b in bags]
        out["inS"] = None
    else:
        raise InputError("contraction request needs an 's' or a 'bags' field")
    if weights is not None:
        out["liftedWeights"] = [format_rational(x) for x in lift_weights(bags, weights)]
    _print_json(out)
    return 0


def _cmd_campaign(args) -> int:
    input_graphs = None
    if args.input is not None:
        input_graphs = _read_text(args.input).splitlines()
    started = time.monotonic()
    report = run_characterization_campaign(
        max_order=args.max_order,
        samples_per_member=args.samples,
        seed=args.seed,
        sweep_filter=args.filter,
        input_graphs=input_graphs,
        jobs=args.jobs,
    )
    elapsed = time.monotonic() - started
    # timing goes to stderr so the report itself stays byte-for-byte
    # reproducible across runs
    print(
        f"campaign: {report['counts']['graphs']} graphs, "
        f"{report['counts']['failures']} failures, {elapsed:.1f}s",
        file=sys.stderr,
    )
    text = report_to_json(report)
    if args.out is None or args.out == "-":
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
    return 1 if report["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safesets",
        description="Weighted safe set solver, family recognition and evidence campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact safe numbers for a weighted graph")
    p.add_argument("--graph6", required=True, help="graph in graph6 form")
    p.add_argument("--weights", help="weights as inline JSON")
    p.add_argument("--weights-file", help="weights as a JSON file, or - for stdin")
    p.add_argument(
        "--all-minima", action="store_true", help="also list every optimal set"
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("recognize", help="classify a connected graph")
    p.add_argument("--graph6", required=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("witness", help="search for separating weights")
    p.add_argument("--graph6", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify-certificate", help="re-check a certificate")
    p.add_argument(
        "--input", default="-", help="certificate JSON file, or - for stdin"
    )
    p.set_defaults(func=_cmd_verify_certificate)

    p = sub.add_parser("contract", help="quotient a graph by a vertex set or bags")
    p.add_argument("--graph6", required=True)
    p.add_argument("--json", help="inline JSON with an 's' or 'bags' field")
    p.add_argument("--input", help="the same as a file, or - for stdin")
    p.add_argument("--weights", help="optional weights to lift, inline JSON")
    p.add_argument("--weights-file", help="optional weights to lift, JSON file")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("campaign", help="run the evidence campaign")
    p.add_argument("--max-order", type=int, default=7)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--filter",
        default="all",
        choices=FILTER_NAMES,
    )
    p.add_argument("--out", help="report path (default stdout)")
    p.add_argument("--csv", help="also write a per-graph CSV summary")
    p.add_argument("--input", help="study these graph6 lines instead of enumerating")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
