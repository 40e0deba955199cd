import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arbitrary_graphs

from safesets.canon import canonical_form, from_canonical_form
from safesets.graph import Graph


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonicalForm:
    @given(arbitrary_graphs(max_order=8), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(permuted(g, perm)) == canonical_form(g)

    @given(arbitrary_graphs(max_order=8))
    def test_roundtrip(self, g):
        form = canonical_form(g)
        assert canonical_form(from_canonical_form(form)) == form

    def test_distinguishes_regular_pair(self):
        # both 3-regular on 6 vertices, not isomorphic
        k33 = Graph.complete_bipartite(3, 3)
        prism = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                                     (0, 3), (1, 4), (2, 5)])
        assert canonical_form(k33) != canonical_form(prism)

    def test_stores_nothing_but_counts_calls(self):
        # cache_info() is the call counter that benchmark traces read
        before = canonical_form.cache_info().misses
        canonical_form(Graph.path(4))
        canonical_form(Graph.path(4))
        info = canonical_form.cache_info()
        assert (info.misses - before, info.hits, info.currsize) == (2, 0, 0)


class TestAreIsomorphic:
    """Equal canonical forms decide isomorphism."""

    @given(arbitrary_graphs(max_order=8), st.randoms(use_true_random=False))
    def test_permuted_copy(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(permuted(g, perm))

    @settings(max_examples=40)
    @given(arbitrary_graphs(max_order=7), arbitrary_graphs(max_order=7))
    def test_matches_networkx(self, g, h):
        a = nx.Graph()
        a.add_nodes_from(range(g.n))
        a.add_edges_from(g.edges())
        b = nx.Graph()
        b.add_nodes_from(range(h.n))
        b.add_edges_from(h.edges())
        assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(a, b)

    def test_order_mismatch(self):
        assert canonical_form(Graph.path(3)) != canonical_form(Graph.path(4))
