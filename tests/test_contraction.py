import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs

from safesets.canon import canonical_form
from safesets.contraction import (
    PATTERN_NAMES,
    PatternMatch,
    beta,
    complete_bipartite_match,
    find_pattern,
    lift_weights,
    pattern_graph,
    quotient_of_partition,
    validate_match,
)
from safesets.graph import Graph, InputError, components, vlist, vset
from safesets.witness import certify_non_membership


def banner() -> Graph:
    # 4-cycle with one pendant
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])


def k42_blowup() -> Graph:
    # K(4,2) with one vertex of the 4-side blown up into the path 3-4-5: not
    # itself complete bipartite, so only the search over big bags finds it
    return Graph.from_edges(8, [(u, v) for u in (0, 1, 2) for v in (6, 7)]
                            + [(3, 4), (4, 5), (3, 6), (5, 7)])


class TestPatternGraphs:
    def test_shapes(self):
        assert pattern_graph("H1").edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert pattern_graph("H2").edges() == [
            (0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]
        assert pattern_graph("H3").edges() == [
            (0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4)]
        assert pattern_graph("KMN", 2, 3).adj == \
            Graph.complete_bipartite(2, 3).adj

    def test_h3_is_k23(self):
        assert canonical_form(pattern_graph("H3")) == \
            canonical_form(Graph.complete_bipartite(2, 3))

    def test_unknown_rejected(self):
        with pytest.raises(InputError):
            pattern_graph("H9")


class TestQuotient:
    def test_k33_sides_give_k2(self):
        g = Graph.complete_bipartite(3, 3)
        q = quotient_of_partition(g, (vset([0, 1, 2]), vset([3, 4, 5])))
        assert q.adj == Graph.complete(2).adj

    def test_c6_two_bags_plus_singletons(self):
        g = Graph.cycle(6)
        q = quotient_of_partition(
            g, (vset([0]), vset([3]), vset([1, 2]), vset([4, 5])))
        assert q.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_identity_partition(self):
        g = Graph.path(4)
        q = quotient_of_partition(g, tuple(1 << v for v in range(4)))
        assert q.adj == g.adj

    def test_bad_partitions(self):
        g = Graph.path(3)
        with pytest.raises(InputError, match="nonempty"):
            quotient_of_partition(g, (vset([0, 1, 2]), 0))
        with pytest.raises(InputError, match="disjoint"):
            quotient_of_partition(g, (vset([0, 1]), vset([1, 2])))
        with pytest.raises(InputError, match="cover"):
            quotient_of_partition(g, (vset([0]), vset([1])))


class TestBeta:
    def test_p5_alternating(self):
        g = Graph.path(5)
        q = beta(g, vset([1, 3]))
        assert q.in_s == (True, True, False, False, False)
        assert [vlist(b) for b in q.bags] == [[1], [3], [0], [2], [4]]
        assert canonical_form(q.quotient) == canonical_form(Graph.path(5))

    def test_c6_opposite_pair(self):
        g = Graph.cycle(6)
        q = beta(g, vset([0, 3]))
        assert [vlist(b) for b in q.bags] == [[0], [3], [1, 2], [4, 5]]
        assert canonical_form(q.quotient) == canonical_form(Graph.cycle(4))

    def test_connected_s_collapses(self):
        g = Graph.path(5)
        q = beta(g, vset([1, 2]))
        assert q.in_s == (True, False, False)
        assert canonical_form(q.quotient) == canonical_form(Graph.path(3))

    def test_rejects_trivial_sets(self):
        g = Graph.path(3)
        with pytest.raises(InputError):
            beta(g, 0)
        with pytest.raises(InputError):
            beta(g, g.full_mask)
        with pytest.raises(InputError):
            beta(g, vset([5]))

    @given(connected_graphs(min_order=2, max_order=7), st.data())
    def test_bag_counts(self, g, data):
        s = data.draw(st.integers(1, g.full_mask - 1))
        q = beta(g, s)
        inside = components(g, s)
        outside = components(g, g.full_mask ^ s)
        assert len(q.bags) == len(inside) + len(outside)
        assert sum(q.in_s) == len(inside)


class TestLiftWeights:
    def test_c6_sum(self):
        g = Graph.cycle(6)
        q = beta(g, vset([0, 3]))
        assert lift_weights(q.bags, (1, 2, 3, 4, 5, 6)) == (1, 4, 5, 11)

    def test_identity(self):
        g = Graph.path(5)
        q = beta(g, vset([1, 3]))
        # singleton bags permute the weights into bag order
        assert lift_weights(q.bags, (10, 20, 30, 40, 50)) == (20, 40, 10, 30, 50)


class TestFindPattern:
    def test_p5_h1_singletons(self):
        m = find_pattern(Graph.path(5), "H1")
        assert m.pattern == "H1"
        assert [vlist(b) for b in m.bags] == [[0], [1], [2], [3], [4]]

    def test_banner_h2(self):
        m = find_pattern(banner(), "H2")
        assert m.pattern == "H2"
        assert [vlist(b) for b in m.bags] == [[0], [1], [2], [3], [4]]

    def test_k23_h3(self):
        m = find_pattern(Graph.complete_bipartite(2, 3), "H3")
        assert m is not None
        validate_match(Graph.complete_bipartite(2, 3), m)
        assert "v4" in m.params and "d" in m.params

    def test_k24_kmn(self):
        m = find_pattern(Graph.complete_bipartite(2, 4), "KMN")
        assert m.params == {"m": 2, "n": 4, "z_index": None}
        assert [vlist(b) for b in m.bags] == [[0], [1], [2], [3], [4], [5]]

    def test_c6_has_none(self):
        for name in PATTERN_NAMES:
            assert find_pattern(Graph.cycle(6), name) is None

    # the least budget at which each match appears
    @pytest.mark.parametrize("g, name, least", [
        (Graph.path(5), "H1", 7),
        (Graph.path(7), "H1", 16),
        (banner(), "H2", 3),
        (Graph.complete_bipartite(2, 3), "H3", 37),
        (Graph.complete_bipartite(2, 4), "KMN", 0),
        (k42_blowup(), "KMN", 11),
    ], ids=["P5-H1", "P7-H1", "banner-H2", "K23-H3", "K24-KMN", "K42blowup-KMN"])
    def test_budget_exhaustion(self, g, name, least):
        match = find_pattern(g, name)
        assert match is not None
        if least > 0:
            assert find_pattern(g, name, budget=least - 1) is None
        assert find_pattern(g, name, budget=least) == match

    def test_k42_blowup_found_with_its_big_bag(self):
        m = find_pattern(k42_blowup(), "KMN")
        assert m.params == {"m": 4, "n": 2, "z_index": 3}
        assert [vlist(b) for b in m.bags] == [[0], [1], [2], [3, 4, 5], [6], [7]]

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError, match="budget must be nonnegative"):
            find_pattern(Graph.complete_bipartite(2, 4), "KMN", budget=-1)

    def test_unknown_pattern(self):
        with pytest.raises(InputError):
            find_pattern(Graph.path(5), "H4")

    @settings(max_examples=25)
    @given(connected_graphs(min_order=2, max_order=7),
           st.sampled_from(PATTERN_NAMES))
    def test_found_matches_validate(self, g, name):
        m = find_pattern(g, name, budget=10**5)
        if m is not None:
            validate_match(g, m)  # must not raise


class TestValidateMatch:
    def test_tampered_bags_rejected(self):
        g = Graph.path(5)
        m = find_pattern(g, "H1")
        bad = PatternMatch("H1", (m.bags[2], m.bags[1], m.bags[0],
                                  m.bags[3], m.bags[4]), dict(m.params))
        with pytest.raises(InputError):
            validate_match(g, bad)

    def test_wrong_pattern_name_rejected(self):
        g = Graph.path(5)
        m = find_pattern(g, "H1")
        with pytest.raises(InputError):
            validate_match(g, PatternMatch("H2", m.bags, dict(m.params)))

    def test_json_roundtrip(self):
        g = Graph.complete_bipartite(2, 3)
        m = find_pattern(g, "H3")
        back = PatternMatch.from_json(m.to_json())
        assert back == m
        validate_match(g, back)

    def test_malformed_json(self):
        with pytest.raises(InputError):
            PatternMatch.from_json({"bags": [[0]]})

    def test_h2_needs_one_edge_from_v1_to_v2(self):
        # bags {a}, {b1, b2}, {c}, {d}, {e}: a meets both b1 and b2
        a, b1, b2, c, d, e = range(6)
        g = Graph.from_edges(6, [(a, b1), (a, b2), (b1, b2), (b2, c),
                                 (c, d), (d, a), (d, e)])
        bags = (vset([a]), vset([b1, b2]), vset([c]), vset([d]), vset([e]))
        with pytest.raises(InputError,
                           match="H2 needs exactly one edge between V1 and V2"):
            validate_match(g, PatternMatch("H2", bags))

    # V1={0}, V2={1}, V3={2}, V4={3, 4}, V5={5, 6}; v4=3 carries the V4-V5
    # edge, and of the V5 components only {5} touches both V2 and v4.
    H3_GRAPH = Graph.from_edges(7, [(0, 1), (1, 2), (1, 5), (1, 6), (0, 3),
                                    (2, 3), (3, 5), (3, 4)])
    H3_BAGS = (vset([0]), vset([1]), vset([2]), vset([3, 4]), vset([5, 6]))

    def test_h3_pins(self):
        validate_match(self.H3_GRAPH,
                       PatternMatch("H3", self.H3_BAGS, {"v4": 3, "d": vset([5])}))
        assert find_pattern(self.H3_GRAPH, "H3").params == {"v4": 3, "d": vset([5])}

    @pytest.mark.parametrize("v4,d,message", [
        (None, vset([5]), "must pin a vertex v4 inside V4"),
        (0, vset([5]), "must pin a vertex v4 inside V4"),
        # 4 breaks both v4 rules, and d={0} is no component of G[V5] either:
        # the first rule wins
        (4, vset([0]), "v4 must have a neighbor in V3"),
        (3, None, r"must pin a component of G\[V5\]"),
        (3, vset([5, 6]), r"must pin a component of G\[V5\]"),
        (3, vset([6]), "the pinned component must touch both V2 and v4"),
    ])
    def test_h3_pin_rules_in_order(self, v4, d, message):
        match = PatternMatch("H3", self.H3_BAGS, {"v4": v4, "d": d})
        with pytest.raises(InputError, match=message):
            validate_match(self.H3_GRAPH, match)

    def test_h3_v4_carries_every_v4_v5_edge(self):
        g = Graph.from_edges(7, [*self.H3_GRAPH.edges(), (2, 4)])
        match = PatternMatch("H3", self.H3_BAGS, {"v4": 4, "d": vset([5])})
        with pytest.raises(InputError, match="every V4-V5 edge must be incident to v4"):
            validate_match(g, match)


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCompleteBipartiteMatch:
    UNBALANCED = [(m, n) for n in range(3, 6) for m in range(2, n)]

    @pytest.mark.parametrize("m,n", UNBALANCED)
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_equals_pattern_search(self, m, n, shuffled):
        g = Graph.complete_bipartite(m, n)
        if shuffled:
            perm = list(range(g.n))
            random.Random(10 * m + n).shuffle(perm)
            g = relabel(g, perm)
        match = complete_bipartite_match(g)
        assert match is not None
        assert match == find_pattern(g, "KMN")
        sides = sorted((match.params["m"], match.params["n"]))
        assert sides == [m, n] and match.params["z_index"] is None
        cert = certify_non_membership(g)
        assert cert.pattern == "KMN" and cert.params is None
        assert cert.match == match

    @pytest.mark.parametrize("g", [
        Graph.complete_bipartite(3, 3),
        Graph.complete_bipartite(1, 4),
        Graph.cycle(6),
        Graph.path(5),
        Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]),
    ], ids=["K33", "K14", "C6", "P5", "K23-minus-edge"])
    def test_none_otherwise(self, g):
        assert complete_bipartite_match(g) is None
