import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from safesets.contraction import PatternMatch, find_pattern, validate_match
from safesets.enumerate import enumerate_connected_graphs
from safesets.family import UNDECIDED, classify
from safesets.graph import (
    MAX_SUBSET_ORDER,
    Graph,
    InputError,
    connected_subsets,
    vlist,
    vset,
)
from safesets.graph6 import parse_graph6
from safesets.solver import MAX_SOLVER_ORDER, _plan, is_safe_set, solve_pair
from safesets.weights import make_weights
from safesets.witness import (
    RANDOM_PATTERN,
    ParamError,
    WitnessParams,
    certify_non_membership,
    default_params,
    verify_certificate,
    weights_for_h1,
    weights_for_h2,
    weights_for_h3,
    weights_for_kmn,
)


def fr(x) -> Fraction:
    return Fraction(x)


def h2_wide_anchor() -> tuple[Graph, PatternMatch]:
    # 4-cycle through a 3-vertex part {3, 5, 6} with pendant 4 hanging off 3
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 5), (3, 5), (3, 6),
                             (3, 4)])
    m = PatternMatch("H2", (vset([0]), vset([1]), vset([2]), vset([3, 5, 6]),
                            vset([4])))
    return g, m


def h3_wide_middle() -> tuple[Graph, PatternMatch]:
    # theta shape whose second spoke part {3, 4} has two vertices
    g = Graph.from_edges(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 5),
                             (3, 4)])
    m = PatternMatch("H3", (vset([2]), vset([0]), vset([3, 4]), vset([1]),
                            vset([5])), {"v4": 1, "d": vset([5])})
    return g, m


def spread_bag_graph() -> Graph:
    # K(2,3) with the bag {0, 1, 2} on the two-vertex side
    return Graph.from_edges(7, [(0, 1), (1, 2),
                                (0, 4), (0, 5), (0, 6), (1, 4), (1, 5),
                                (1, 6), (2, 4), (2, 5), (2, 6),
                                (3, 4), (3, 5), (3, 6)])


class TestH1Weights:
    def test_p5(self):
        g = Graph.path(5)
        m = find_pattern(g, "H1")
        assert weights_for_h1(g, m, WitnessParams(fr(2))) == \
            make_weights([3, 3, 1, 2, 2])
        assert weights_for_h1(g, m, WitnessParams(fr(10))) == \
            make_weights([11, 11, 1, 10, 10])

    def test_middle_share(self):
        g = Graph.path(6)
        m = PatternMatch("H1", (vset([0]), vset([1]), vset([2, 3]),
                                vset([4]), vset([5])))
        validate_match(g, m)
        w = weights_for_h1(g, m, WitnessParams(fr(2)))
        assert w == make_weights([3, 3, "1/2", "1/2", 2, 2])

    def test_alpha_floor(self):
        g = Graph.path(5)
        m = find_pattern(g, "H1")
        with pytest.raises(ParamError):
            weights_for_h1(g, m, WitnessParams(fr(1)))


class TestH2Weights:
    def test_banner(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        m = find_pattern(g, "H2")
        w = weights_for_h2(g, m, WitnessParams(fr(3), eps=fr("1/2")))
        assert w == make_weights([3, 4, 3, 3, 3])

    def test_anchor_spread(self):
        g, m = h2_wide_anchor()
        validate_match(g, m)
        w = weights_for_h2(g, m, WitnessParams(fr(10), eps=fr("1/4")))
        assert w == make_weights([10, 11, 10, "15/2", 10, "5/4", "5/4"])

    def test_eps_bounds(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        m = find_pattern(g, "H2")
        for eps in (None, fr(0), fr(1)):
            with pytest.raises(ParamError):
                weights_for_h2(g, m, WitnessParams(fr(3), eps=eps))

    def test_anchor_must_stay_positive(self):
        g, m = h2_wide_anchor()
        with pytest.raises(ParamError, match="alpha too small"):
            weights_for_h2(g, m, WitnessParams(fr(2), eps=fr("1/4")))


class TestH3Weights:
    def test_k23(self):
        g = Graph.complete_bipartite(2, 3)
        m = find_pattern(g, "H3")
        w = weights_for_h3(g, m, default_params(g, m))
        assert w == make_weights([3, 2, 2, 2, 2])

    def test_middle_topup(self):
        g, m = h3_wide_middle()
        validate_match(g, m)
        params = WitnessParams(fr(10), eps3=fr("1/100"), eps5=fr("1/2000"),
                               eps4=fr("1/20000"))
        w = weights_for_h3(g, m, params)
        assert w == make_weights([11, 10, 10, "899/100", "101/100", 10])

    def test_eps_chain(self):
        g = Graph.complete_bipartite(2, 3)
        m = find_pattern(g, "H3")
        bad = [
            dict(eps3=fr("1/5"), eps5=fr("1/2000"), eps4=fr("1/20000")),
            dict(eps3=fr("1/100"), eps5=fr("1/200"), eps4=fr("1/20000")),
            dict(eps3=fr("1/100"), eps5=fr("1/2000"), eps4=fr("1/2000")),
            dict(eps3=None, eps5=None, eps4=None),
        ]
        for kwargs in bad:
            with pytest.raises(ParamError):
                weights_for_h3(g, m, WitnessParams(fr(2), **kwargs))

    def test_default_chain_valid(self):
        for n in (5, 6, 7, 12):
            e3, e5, e4 = (Fraction(1, 2 * n), Fraction(1, 8 * n * n),
                          Fraction(1, 16 * n**3))
            assert Fraction(1, n) > e3 > 2 * n * e5 > 2 * n * n * e4 > 0

    def test_anchor_must_stay_positive(self):
        g, m = h3_wide_middle()
        params = WitnessParams(fr("101/100"), eps3=fr("1/100"),
                               eps5=fr("1/2000"), eps4=fr("1/20000"))
        with pytest.raises(ParamError, match="alpha too small"):
            weights_for_h3(g, m, params)


class TestKmnWeights:
    def test_all_singletons_gives_ones(self):
        g = Graph.complete_bipartite(2, 3)
        m = find_pattern(g, "KMN")
        assert weights_for_kmn(g, m, None) == make_weights([1] * 5)

    def test_spread_bag(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2),
                                 (0, 4), (0, 5), (0, 6), (1, 4), (1, 5),
                                 (1, 6), (2, 4), (2, 5), (2, 6),
                                 (3, 4), (3, 5), (3, 6)])
        m = find_pattern(g, "KMN")
        assert [vlist(b) for b in m.bags] == [[0, 1, 2], [3], [4], [5], [6]]
        assert m.params == {"m": 2, "n": 3, "z_index": 0}
        w = weights_for_kmn(g, m, WitnessParams(fr(5), eps=fr("1/4")))
        assert w == make_weights(["9/2", "1/4", "1/4", 5, 5, 5, 5])

    def test_designated_singleton_gets_alpha(self):
        g = Graph.complete_bipartite(2, 3)
        m = find_pattern(g, "KMN")
        designated = PatternMatch("KMN", m.bags,
                                  {**m.params, "z_index": 0})
        w = weights_for_kmn(g, designated, WitnessParams(fr(2)))
        assert w == make_weights([2] * 5)

    def test_eps_bound(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2),
                                 (0, 4), (0, 5), (0, 6), (1, 4), (1, 5),
                                 (1, 6), (2, 4), (2, 5), (2, 6),
                                 (3, 4), (3, 5), (3, 6)])
        m = find_pattern(g, "KMN")
        with pytest.raises(ParamError):
            weights_for_kmn(g, m, WitnessParams(fr(5), eps=fr("1/2")))
        with pytest.raises(ParamError, match="alpha"):
            weights_for_kmn(g, m, None)


class TestInvariants:
    """The claimed light disconnected set and the exact part totals."""

    @staticmethod
    def _params(g, m):
        return replace(default_params(g, m), alpha=fr(16))

    def _each_match(self):
        for order in range(4, 7):
            for g in enumerate_connected_graphs(order):
                for pattern in ("H1", "H2", "H3"):
                    m = find_pattern(g, pattern, budget=10**5)
                    if m is not None:
                        yield g, m

    def test_v2_v4_light_and_safe(self):
        builders = {"H1": weights_for_h1, "H2": weights_for_h2,
                    "H3": weights_for_h3}
        seen = set()
        for g, m in self._each_match():
            seen.add(m.pattern)
            w = builders[m.pattern](g, m, self._params(g, m))
            s = m.bags[1] | m.bags[3]
            total = sum((w[v] for v in vlist(s)), fr(0))
            assert total == 2 * 16 + 1
            assert is_safe_set(g, w, s)
        assert seen == {"H1", "H2", "H3"}

    def test_h3_part_totals(self):
        for g, m in self._each_match():
            if m.pattern != "H3":
                continue
            w = weights_for_h3(g, m, self._params(g, m))
            for part in (m.bags[2], m.bags[3], m.params["d"]):
                assert sum((w[v] for v in vlist(part)), fr(0)) == 16


class TestCertification:
    def test_k23_fast_path(self):
        cert = certify_non_membership(Graph.complete_bipartite(2, 3))
        assert cert.pattern == "KMN"
        assert cert.weights == make_weights([1] * 5)
        assert (cert.s, cert.cs) == (2, 3)
        assert vlist(cert.minimum_safe_set) == [0, 1]
        assert cert.params is None and cert.seed is None

    def test_p5_escalates_alpha(self):
        cert = certify_non_membership(Graph.path(5))
        assert cert.pattern == "H1"
        assert cert.params.alpha == 4
        assert cert.weights == make_weights([5, 5, 1, 4, 4])
        assert (cert.s, cert.cs) == (9, 10)
        assert vlist(cert.minimum_safe_set) == [1, 3]

    def test_members_never_certified(self):
        for g in (Graph.cycle(4), Graph.cycle(6), Graph.complete_bipartite(3, 3),
                  Graph.book(2), Graph.complete(4), Graph.star(4)):
            assert certify_non_membership(g) is None

    def test_random_fallback(self):
        cert = certify_non_membership(Graph.path(5), budget=1, seed=0)
        assert cert.pattern == RANDOM_PATTERN
        assert cert.seed == 0
        assert cert.s < cert.cs
        ok, problems = verify_certificate(cert.to_json())
        assert ok and problems == []

    def test_random_fallback_exhausts(self):
        got = certify_non_membership(Graph.path(5), budget=1, sample_count=0)
        assert got is None

    def test_random_fallback_covers_a_pattern_miss(self):
        # F{dzo is UNDECIDED, outside every sweep, and no pattern route
        # certifies it; only the seeded random weights do.
        g = parse_graph6("F{dzo")
        assert classify(g).verdict == UNDECIDED
        assert certify_non_membership(g, sample_count=0) is None
        cert = certify_non_membership(g)
        assert cert.pattern == RANDOM_PATTERN and cert.seed == 0
        assert cert.s < cert.cs
        assert verify_certificate(cert.to_json()) == (True, [])

    def test_order_limit_is_the_subset_limit(self):
        # the pattern searches enumerate connected subsets, so certification
        # refuses above that limit even where the solver would go further
        assert MAX_SUBSET_ORDER < MAX_SOLVER_ORDER
        for g in (Graph.path(MAX_SUBSET_ORDER + 1),
                  Graph.complete_bipartite(2, MAX_SOLVER_ORDER - 2)):
            with pytest.raises(InputError, match=(
                    f"^certification limited to order {MAX_SUBSET_ORDER}$")):
                certify_non_membership(g)

    def test_route_walk_pin(self):
        # Every connected graph of order <= 6 without the random fallback:
        # 112 unknown, 9 H1, 12 H2, 7 H3 and 3 KMN certificates.
        lines = []
        for order in range(1, 7):
            for g in enumerate_connected_graphs(order):
                cert = certify_non_membership(g, sample_count=0)
                lines.append("unknown" if cert is None
                             else json.dumps(cert.to_json(), sort_keys=True))
        assert len(lines) == 143
        digest = hashlib.sha256("".join(f"{x}\n" for x in lines).encode())
        assert digest.hexdigest() == (
            "9e9ebe4816b512ab03eadc1c829e0d11c142ca992e9fc8dd8eef61daec3968c6")

    def test_solver_confirms_every_emission(self):
        for g in (Graph.path(5), Graph.path(6),
                  Graph.complete_bipartite(2, 3),
                  Graph.complete_bipartite(2, 4)):
            cert = certify_non_membership(g)
            s_sol, cs_sol = solve_pair(g, cert.weights)
            assert (s_sol.optimum, cs_sol.optimum) == (cert.s, cert.cs)
            assert s_sol.optimum < cs_sol.optimum


class TestMemoTraffic:
    def test_one_graph_at_a_time(self):
        # The plan and subset memos keep one graph.  Certifying and verifying
        # P5 and then P6 (both through a pattern search) must miss once per
        # graph: a second miss would mean a caller went back to a graph.
        _plan.cache_clear()
        connected_subsets.cache_clear()
        for g in (Graph.path(5), Graph.path(6)):
            cert = certify_non_membership(g, seed=0)
            assert cert.pattern == "H1"
            assert verify_certificate(cert.to_json()) == (True, [])
        assert _plan.cache_info().misses == 2
        assert connected_subsets.cache_info().misses == 2


class TestVerifyCertificate:
    def _valid(self) -> dict:
        return certify_non_membership(Graph.path(5)).to_json()

    def test_valid_passes(self):
        ok, problems = verify_certificate(self._valid())
        assert ok and problems == []

    def test_tampered_optimum(self):
        obj = self._valid()
        obj["s"] = "8"
        ok, problems = verify_certificate(obj)
        assert not ok and problems

    def test_tampered_weights(self):
        obj = self._valid()
        obj["weights"][2] = "7"
        ok, problems = verify_certificate(obj)
        assert not ok and problems

    def test_tampered_witness_set(self):
        obj = self._valid()
        obj["minimumSafeSet"] = [0, 1]
        ok, problems = verify_certificate(obj)
        assert not ok and problems

    def test_missing_field(self):
        obj = self._valid()
        del obj["weights"]
        with pytest.raises(InputError):
            verify_certificate(obj)

    def test_bad_graph6(self):
        obj = self._valid()
        obj["graph6"] = "~??"
        with pytest.raises(InputError):
            verify_certificate(obj)

    @staticmethod
    def _problems(obj) -> list[str]:
        ok, problems = verify_certificate(obj)
        assert ok == (problems == [])
        return problems

    @pytest.mark.parametrize("g,pattern", [
        (Graph.path(5), "H1"),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), "H2"),
        (h3_wide_middle()[0], "H3"),
        (spread_bag_graph(), "KMN"),
    ])
    def test_pattern_needs_params(self, g, pattern):
        obj = certify_non_membership(g).to_json()
        assert obj["pattern"] == pattern and obj["params"] is not None
        assert self._problems(obj) == []
        obj["params"] = None
        problems = self._problems(obj)
        assert len(problems) == 1
        assert problems[0].startswith("stated params are invalid")

    def test_pattern_needs_match(self):
        obj = self._valid()
        del obj["match"]
        with pytest.raises(InputError, match="needs a match"):
            verify_certificate(obj)

    def test_match_for_another_pattern(self):
        obj = self._valid()
        obj["match"]["pattern"] = "H2"
        problems = self._problems(obj)
        assert problems == ["invalid pattern match: match is for 'H2', not 'H1'"]

    def test_tampered_constant_kmn(self):
        obj = certify_non_membership(Graph.complete_bipartite(2, 3)).to_json()
        assert obj["params"] is None and self._problems(obj) == []
        obj["weights"][0] = "2"
        assert "weights do not match the construction" in self._problems(obj)

    def test_random_is_only_resolved(self):
        cert = certify_non_membership(Graph.path(5), budget=1, seed=0)
        assert cert.pattern == RANDOM_PATTERN
        obj = cert.to_json()
        obj["match"] = {"pattern": "H1", "bags": [[0]]}
        obj["params"] = {"alpha": "1"}
        assert self._problems(obj) == []
        obj["s"] = "1"
        assert self._problems(obj) == [f"s mismatch: stated 1, solved {cert.s}"]


class TestParamsJson:
    def test_roundtrip(self):
        params = WitnessParams(fr(4), eps3=fr("1/12"), eps5=fr("1/288"),
                               eps4=fr("1/3456"))
        assert WitnessParams.from_json(params.to_json()) == params

    def test_alpha_required(self):
        with pytest.raises(InputError):
            WitnessParams.from_json({"eps": "1/4"})
