"""End-to-end acceptance checks, one test per criterion.

Each test pins its own time budget and uses exact rational arithmetic, so
every numeric comparison below is equality, not approximation.  Criteria
over whole graph families share one order-7 evidence campaign (50 samples
per member, seed 0), computed once per session.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles

from safesets.campaign import run_characterization_campaign
from safesets.family import (
    BOOK,
    EVEN_CYCLE,
    MEMBER,
    NON_MEMBER,
    build_d_family,
    book_pages,
    classify,
    d_params_member,
    normalize_d_params,
    recognize_d_family,
)
from safesets.graph import Graph, components, diameter, is_cycle_graph, vlist, vset
from safesets.graph6 import parse_graph6
from safesets.solver import all_minimum_safe_sets, solve_pair
from safesets.witness import certify_non_membership, verify_certificate


@pytest.fixture(scope="session")
def campaign():
    started = time.monotonic()
    report = run_characterization_campaign(
        max_order=7, samples_per_member=50, seed=0, sweep_filter="all")
    elapsed = time.monotonic() - started
    return report, elapsed


def sweep_records(report, name):
    return [r for r in report["records"] if name in r["sweeps"]]


def test_01_k23_certificate():
    started = time.monotonic()
    cert = certify_non_membership(Graph.complete_bipartite(2, 3))
    assert cert is not None
    assert cert.weights == tuple([Fraction(1)] * 5)
    assert (cert.s, cert.cs) == (2, 3)
    ok, problems = verify_certificate(cert.to_json())
    assert ok and problems == []
    assert time.monotonic() - started < 1.0


def test_02_p5_certified_within_doubling_budget():
    started = time.monotonic()
    g = Graph.path(5)
    cert = certify_non_membership(g)
    assert cert is not None
    assert cert.params is not None and 1 < cert.params.alpha <= 2**11
    assert cert.s < cert.cs
    minima = all_minimum_safe_sets(g, cert.weights)
    assert minima == [vset([1, 3])]
    assert len(components(g, minima[0])) == 2
    assert time.monotonic() - started < 1.0


def test_03_cycles_have_equal_halves():
    started = time.monotonic()
    for n in range(3, 9):
        g = Graph.cycle(n)
        rng = random.Random(1000 + n)
        for _ in range(100):
            w = tuple(Fraction(rng.randint(1, n * n)) for _ in range(n))
            s_sol, cs_sol = solve_pair(g, w)
            assert s_sol.optimum == cs_sol.optimum
            assert 2 * s_sol.optimum >= sum(w)
    assert time.monotonic() - started < 30.0


def test_04_bipartite_sweep_clean(campaign):
    report, elapsed = campaign
    records = sweep_records(report, "bipartite")
    assert records
    graphs = {r["graph6"] for r in records}
    assert not [f for f in report["failures"] if f["graph6"] in graphs]
    for r in records:
        if r["verdict"] == MEMBER:
            assert r["sampling"]["allEqual"]
        else:
            assert r["verdict"] == NON_MEMBER
            assert "certificate" in r
    assert elapsed < 600.0


def test_05_chordal_sweep_clean_with_path_quotients(campaign):
    report, elapsed = campaign
    records = sweep_records(report, "chordal")
    assert records
    graphs = {r["graph6"] for r in records}
    assert not [f for f in report["failures"] if f["graph6"] in graphs]
    assert not [f for f in report["failures"]
                if f["kind"] == "classifier-conflict"]
    non_members = [r for r in records if r["verdict"] == NON_MEMBER]
    assert non_members
    for r in non_members:
        assert r["certificate"]["pattern"] == "H1"
    assert elapsed < 600.0


def test_06_triangle_free_large_diameter_certified(campaign):
    report, elapsed = campaign
    checked = 0
    for r in sweep_records(report, "triangle-free"):
        g = parse_graph6(r["graph6"])
        if is_cycle_graph(g) or diameter(g) < 4:
            continue
        checked += 1
        assert "certificate" in r, r["graph6"]
        assert r["betaChain"]["ok"]
    assert checked > 0
    assert elapsed < 300.0


def test_07_two_block_grid_roundtrip_and_certificates():
    started = time.monotonic()
    for variant, m, n, p, q in itertools.product(
            ("D", "D*"), range(4), range(4), range(3), range(3)):
        g = build_d_family(variant, m, n, p, q)
        rep = recognize_d_family(g)
        expected = normalize_d_params(variant, m, n, p, q)
        assert rep == expected, (variant, m, n, p, q)
        verdict = classify(g).verdict
        _, nm, nn, np_, nq = expected
        assert verdict == (
            MEMBER if d_params_member(nm, nn, np_, nq) else NON_MEMBER)
    for args in (("D", 2, 1, 0, 0), ("D", 1, 1, 0, 1)):
        g = build_d_family(*args)
        cert = certify_non_membership(g)
        assert cert is not None and cert.s < cert.cs
        ok, problems = verify_certificate(cert.to_json())
        assert ok and problems == []
    assert time.monotonic() - started < 120.0


def test_08_books_recognized_and_sampled():
    started = time.monotonic()
    for pages in range(1, 6):
        g = Graph.book(pages)
        assert book_pages(g) == pages
        cls = classify(g)
        assert cls.verdict == MEMBER
        assert cls.family == (EVEN_CYCLE if pages == 1 else BOOK)
        rng = random.Random(2000 + pages)
        for _ in range(50):
            w = tuple(Fraction(rng.randint(1, g.n * g.n))
                      for _ in range(g.n))
            s_sol, cs_sol = solve_pair(g, w)
            assert s_sol.optimum == cs_sol.optimum
    assert time.monotonic() - started < 60.0


def test_09_solver_agrees_with_naive_oracle():
    started = time.monotonic()
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 9)
        edges = {(rng.randint(0, v - 1), v) for v in range(1, n)}
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in edges and rng.random() < 0.25:
                    edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        w = tuple(Fraction(rng.randint(1, 2 * n + 1)) for _ in range(n))
        sol, csol = solve_pair(g, w)
        best, best_c, minima, minima_c = oracles.solve(n, g.edges(), w)
        assert sol.optimum == best
        assert csol.optimum == best_c
        assert [tuple(vlist(mask)) for mask in sol.all_optima] == list(minima)
        assert [tuple(vlist(mask)) for mask in csol.all_optima] == \
            list(minima_c)
    assert time.monotonic() - started < 300.0


def test_10_quotient_chain_holds_everywhere(campaign):
    report, _ = campaign
    certified = [r for r in report["records"] if "certificate" in r]
    assert certified
    for r in certified:
        chain = r["betaChain"]
        assert chain["ok"], r["graph6"]
        assert chain["minimumSafeSets"] >= 1
    kinds = {f["kind"] for f in report["failures"]}
    assert not kinds & {"beta-chain-complement-connected",
                        "beta-chain-member-quotient"}
