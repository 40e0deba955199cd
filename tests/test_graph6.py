import networkx as nx
import pytest
from hypothesis import given

from conftest import arbitrary_graphs

from safesets.graph import Graph, InputError
from safesets.graph6 import parse_graph6, to_graph6


class TestEncode:
    def test_c4_frozen(self):
        # triangle bits (0,1)(0,2)(1,2)(0,3)(1,3)(2,3) = 101101 -> byte 108
        assert to_graph6(Graph.cycle(4)) == "Cl"

    def test_single_vertex(self):
        assert to_graph6(Graph(1, (0,))) == "@"

    @given(arbitrary_graphs(max_order=8))
    def test_roundtrip(self, g):
        assert parse_graph6(to_graph6(g)).adj == g.adj

    @given(arbitrary_graphs(max_order=8))
    def test_matches_networkx(self, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert to_graph6(g) == theirs
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(back.edges()) == {(u, v) for u, v in g.edges()}


class TestParse:
    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<Cl").adj == Graph.cycle(4).adj

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            parse_graph6("")

    def test_long_form_rejected(self):
        with pytest.raises(InputError, match="long form"):
            parse_graph6("~??")

    def test_bad_byte_position_named(self):
        with pytest.raises(InputError, match="position 7"):
            parse_graph6("garbage!!")

    def test_truncated_payload(self):
        with pytest.raises(InputError, match="needs 2 bytes, got 0"):
            parse_graph6("D")

    def test_trailing_garbage(self):
        with pytest.raises(InputError, match="payload"):
            parse_graph6("Cll")

    def test_surrounding_whitespace_ok(self):
        assert parse_graph6("  Cl\n").adj == Graph.cycle(4).adj

    def test_non_ascii(self):
        with pytest.raises(InputError, match="non-ascii"):
            parse_graph6("C\u00e9")
