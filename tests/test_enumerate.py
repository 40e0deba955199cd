import hashlib

import networkx as nx
import pytest

from safesets.canon import canonical_form
from safesets.enumerate import (
    FILTER_NAMES,
    MAX_ENUM_ORDER,
    enumerate_connected_graphs,
    enumerate_graph_forms,
)
from safesets.graph import Graph, InputError, is_connected

# Counts of pairwise non-isomorphic graphs: all graphs and the connected
# ones are the classic sequences; the filtered rows were frozen from this
# implementation after cross-checking orders 1..7 against the atlas.
ALL_FORMS = [1, 2, 4, 11, 34, 156, 1044]
CONNECTED = [1, 1, 2, 6, 21, 112, 853]
BIPARTITE = [1, 1, 1, 3, 5, 17, 44]
CHORDAL = [1, 1, 2, 5, 15, 58, 272]
TRIANGLE_FREE = [1, 1, 1, 3, 6, 19, 59]


def forms_of(graphs) -> set:
    return {canonical_form(g) for g in graphs}


class TestCounts:
    @pytest.mark.parametrize("order", range(1, 8))
    def test_forms(self, order):
        assert len(enumerate_graph_forms(order)) == ALL_FORMS[order - 1]

    @pytest.mark.parametrize("order", range(1, 8))
    def test_connected_filters(self, order):
        expect = {
            "all": CONNECTED,
            "bipartite": BIPARTITE,
            "chordal": CHORDAL,
            "triangle-free": TRIANGLE_FREE,
        }
        for name in FILTER_NAMES:
            got = enumerate_connected_graphs(order, name)
            assert len(got) == expect[name][order - 1], name


class TestContents:
    def test_order_three(self):
        assert forms_of(enumerate_connected_graphs(3)) == \
            forms_of([Graph.path(3), Graph.complete(3)])

    def test_order_four_bipartite(self):
        got = forms_of(enumerate_connected_graphs(4, "bipartite"))
        assert got == forms_of([Graph.path(4), Graph.cycle(4), Graph.star(3)])

    def test_all_connected(self):
        for g in enumerate_connected_graphs(6):
            assert g.n == 6 and is_connected(g)

    def test_no_duplicates(self):
        forms = [canonical_form(g) for g in enumerate_connected_graphs(6)]
        assert len(forms) == len(set(forms))

    def test_filters_nest(self):
        for order in range(1, 8):
            all_forms = forms_of(enumerate_connected_graphs(order))
            for name in ("bipartite", "chordal", "triangle-free"):
                sub = forms_of(enumerate_connected_graphs(order, name))
                assert sub <= all_forms


class TestAtlasAgreement:
    def test_connected_forms_match_atlas(self):
        atlas: dict[int, set] = {order: set() for order in range(1, 8)}
        for h in nx.graph_atlas_g()[1:]:
            n = h.number_of_nodes()
            if n < 1 or not nx.is_connected(h):
                continue
            relabel = {u: i for i, u in enumerate(sorted(h.nodes()))}
            g = Graph.from_edges(
                n, [(relabel[u], relabel[v]) for u, v in h.edges()])
            atlas[n].add(canonical_form(g))
        for order in range(1, 8):
            assert forms_of(enumerate_connected_graphs(order)) == atlas[order]

    def test_canonical_labelling_pinned(self):
        # The atlas check holds for any valid canonical labelling; this pins
        # the one individualization-refinement picks: the forms themselves.
        digest = hashlib.sha256()
        for order in range(1, 8):
            digest.update("".join(
                f"{n} {mask}\n" for n, mask in enumerate_graph_forms(order)).encode())
        assert digest.hexdigest() == (
            "c2f3b5cb5fcf6b34e510780f45261b36b1ec827f5b4973f362431b851c3d5dfb")


class TestValidation:
    def test_order_bounds(self):
        for order in (0, MAX_ENUM_ORDER + 1, -3):
            with pytest.raises(InputError):
                enumerate_connected_graphs(order)

    def test_unknown_filter(self):
        with pytest.raises(InputError, match="planar"):
            enumerate_connected_graphs(3, "planar")


@pytest.mark.slow
class TestOrderEight:
    def test_counts(self):
        assert len(enumerate_graph_forms(8)) == 12346
        assert len(enumerate_connected_graphs(8)) == 11117
        assert len(enumerate_connected_graphs(8, "bipartite")) == 182
