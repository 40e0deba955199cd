import networkx as nx
import pytest
from hypothesis import given, settings

from oracles import components_of, distances, adjacency, dominating_cliques
from conftest import arbitrary_graphs, connected_graphs

from safesets.enumerate import enumerate_connected_graphs
from safesets.graph import (
    Graph,
    MAX_ORDER,
    InputError,
    bipartition,
    components,
    connected_subsets,
    diameter,
    has_dominating_clique,
    is_chordal,
    is_connected,
    is_cycle_graph,
    is_tree,
    is_triangle_free,
    neighborhood_mask,
    popcount,
    vlist,
    vset,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.degree(1) == 2 and g.edges() == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(InputError):
            Graph(2, (2, 0))

    def test_rejects_order_beyond_limit(self):
        with pytest.raises(InputError):
            Graph.from_edges(63, [])

    def test_named_families(self):
        assert sorted(Graph.path(4).edges()) == [(0, 1), (1, 2), (2, 3)]
        assert Graph.cycle(5).edge_count() == 5
        assert Graph.complete(4).edge_count() == 6
        k23 = Graph.complete_bipartite(2, 3)
        assert k23.edge_count() == 6
        assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
        star = Graph.star(4)
        assert star.degree(0) == 4 and star.n == 5
        b3 = Graph.book(3)
        assert b3.n == 8 and b3.edge_count() == 1 + 3 * 3
        assert sorted(b3.degree(v) for v in range(8)) == [2] * 6 + [4, 4]


class TestComponents:
    def test_c4_adjacent_pair(self):
        g = Graph.cycle(4)
        assert components(g, vset([0, 1])) == [vset([0, 1])]

    def test_c4_antipodal_pair(self):
        g = Graph.cycle(4)
        assert components(g, vset([0, 2])) == [vset([0]), vset([2])]

    def test_p5_mixed(self):
        g = Graph.path(5)
        assert components(g, vset([0, 2, 3])) == [vset([0]), vset([2, 3])]

    def test_empty_mask(self):
        assert components(Graph.path(3), 0) == []

    @given(arbitrary_graphs(max_order=7))
    def test_matches_oracle(self, g):
        mask = g.full_mask
        got = {frozenset(vlist(c)) for c in components(g, mask)}
        want = set(components_of(adjacency(g.n, g.edges()), range(g.n)))
        assert got == want


class TestDistances:
    def test_p5_diameter(self):
        assert diameter(Graph.path(5)) == 4

    def test_k33_diameter(self):
        assert diameter(Graph.complete_bipartite(3, 3)) == 2

    def test_b2_diameter(self):
        assert diameter(Graph.book(2)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            diameter(Graph.from_edges(3, [(0, 1)]))

    @given(connected_graphs(max_order=7))
    def test_diameter_matches_floyd_warshall(self, g):
        assert diameter(g) == max(map(max, distances(g.n, g.edges())))


class TestPredicates:
    def test_chordal_examples(self):
        assert not is_chordal(Graph.cycle(4))[0]
        assert is_chordal(Graph.path(6))[0]
        k4e = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_chordal(k4e)[0]

    @given(connected_graphs(max_order=8))
    def test_chordal_matches_networkx(self, g):
        verdict, peo = is_chordal(g)
        assert verdict == (g.n < 3 or nx.is_chordal(to_nx(g)))
        if verdict:
            assert sorted(peo) == list(range(g.n))

    def test_bipartition_examples(self):
        assert bipartition(Graph.cycle(6)) == (vset([0, 2, 4]), vset([1, 3, 5]))
        assert bipartition(Graph.cycle(5)) is None
        sides = bipartition(Graph.complete_bipartite(2, 3))
        assert sorted(popcount(s) for s in sides) == [2, 3]

    @given(connected_graphs(max_order=8))
    def test_bipartition_matches_networkx(self, g):
        got = bipartition(g)
        assert (got is not None) == nx.is_bipartite(to_nx(g))
        if got is not None:
            a, b = got
            assert a | b == g.full_mask and a & b == 0
            for u, v in g.edges():
                assert ((1 << u) & a != 0) != ((1 << v) & a != 0)

    def test_triangle_free(self):
        assert is_triangle_free(Graph.cycle(5))
        assert not is_triangle_free(Graph.complete(4))
        assert is_triangle_free(Graph.book(3))

    def test_tree_and_cycle(self):
        assert is_tree(Graph.path(4))
        assert not is_tree(Graph.cycle(4))
        assert is_cycle_graph(Graph.cycle(3))
        assert not is_cycle_graph(Graph.path(3))
        assert not is_cycle_graph(Graph.complete(4))

    @given(connected_graphs(max_order=8))
    def test_tree_matches_networkx(self, g):
        assert is_tree(g) == nx.is_tree(to_nx(g))


class TestCliques:
    def test_star_center(self):
        star = Graph.star(4)
        assert dominating_cliques(star.n, star.edges(), max_size=1) == [(0,)]

    def test_p4_pairs(self):
        p4 = Graph.path(4)
        assert dominating_cliques(p4.n, p4.edges(), max_size=2) == [(1, 2)]

    def test_c6_none(self):
        c6 = Graph.cycle(6)
        assert dominating_cliques(c6.n, c6.edges(), max_size=3) == []
        assert diameter(Graph.cycle(6)) == 3

    def test_p5_has_none(self):
        assert not has_dominating_clique(Graph.path(5))
        assert has_dominating_clique(Graph.path(4))

    def test_matches_oracle_on_chordal_graphs(self):
        checked = 0
        for order in range(1, 8):
            for g in enumerate_connected_graphs(order, "chordal"):
                expected = bool(dominating_cliques(g.n, g.edges()))
                assert has_dominating_clique(g) == expected, g.edges()
                checked += 1
        assert checked == 354

    def test_requires_chordal(self):
        with pytest.raises(InputError, match="chordal"):
            has_dominating_clique(Graph.cycle(5))


class TestConnectedSubsets:
    def test_path_count(self):
        # contiguous runs only: n*(n+1)/2 of them
        assert len(connected_subsets(Graph.path(4))) == 10

    @given(connected_graphs(max_order=6))
    def test_exactly_the_connected_subsets(self, g):
        subs = connected_subsets(g)
        assert len(set(subs)) == len(subs)
        assert list(subs) == sorted(subs, key=lambda m: (popcount(m), m))
        listed = set(subs)
        adj = adjacency(g.n, g.edges())
        for mask in range(1, 1 << g.n):
            is_conn = len(components_of(adj, vlist(mask))) == 1
            assert (mask in listed) == is_conn


class TestMaskHelpers:
    def test_neighborhood(self):
        g = Graph.path(4)
        assert neighborhood_mask(g, vset([1])) == vset([0, 2])
        assert neighborhood_mask(g, vset([1, 2])) == vset([0, 1, 2, 3])

    def test_vset_vlist_roundtrip(self):
        assert vlist(vset([4, 1, 2])) == [1, 2, 4]
        with pytest.raises(InputError):
            vset([-1])
        assert vset([0, MAX_ORDER - 1]) == 1 | 1 << (MAX_ORDER - 1)

    @pytest.mark.parametrize("bad", [
        3, None, ["a"], [1.5], [True], [2.0], [MAX_ORDER], [1000]])
    def test_vset_checks_ids_before_shifting(self, bad):
        with pytest.raises(InputError):
            vset(bad)
