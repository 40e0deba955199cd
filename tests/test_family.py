import hashlib
import itertools
import json

import pytest

from oracles import dominating_cliques
from safesets.canon import are_isomorphic
from safesets.enumerate import enumerate_connected_graphs
from safesets.family import (
    BOOK,
    D_FAMILY,
    D_STAR_FAMILY,
    DOUBLE_STAR,
    EVEN_CYCLE,
    K33_MINUS_EDGE,
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    all_d_representations,
    book_pages,
    build_d_family,
    classify,
    classify_bipartite,
    classify_chordal,
    d_params_member,
    double_star_leaves,
    is_double_star,
    normalize_d_params,
    recognize_d_family,
)
from safesets.graph import (
    Graph,
    InputError,
    bipartition,
    diameter,
    is_cycle_graph,
    vlist,
)


def k33_minus_edge() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)
                                if (u, v) != (0, 3)])


def petersen() -> Graph:
    return Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                 (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                                 (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


class TestDoubleStars:
    def test_examples(self):
        assert is_double_star(Graph.star(4))
        assert is_double_star(Graph.path(4))
        assert is_double_star(Graph(1, (0,)))
        assert is_double_star(Graph.path(2))
        assert not is_double_star(Graph.path(5))
        assert not is_double_star(Graph.cycle(4))
        # spider with three legs of length two has diameter 4
        spider = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4),
                                      (2, 5), (3, 6)])
        assert not is_double_star(spider)

    def test_leaf_counts(self):
        assert double_star_leaves(Graph.star(4)) == (3, 0)
        assert double_star_leaves(Graph.path(4)) == (1, 1)
        assert double_star_leaves(Graph.path(2)) == (0, 0)
        assert double_star_leaves(build_d_family("D", 0, 0, 3, 2)) == (3, 2)
        with pytest.raises(InputError):
            double_star_leaves(Graph.path(5))


class TestBooks:
    def test_pages(self):
        assert book_pages(Graph.cycle(4)) == 1
        assert book_pages(Graph.book(2)) == 2
        assert book_pages(Graph.book(3)) == 3
        assert book_pages(Graph.book(5)) == 5
        assert book_pages(Graph.complete_bipartite(2, 3)) is None
        assert book_pages(Graph.cycle(6)) is None
        assert book_pages(Graph.path(4)) is None

    def test_matches_isomorphism_oracle(self):
        # B2-B4 and every degree-preserving double-edge swap of them
        def swaps(g):
            edges = g.edges()
            for (a, b), (c, d) in itertools.combinations(edges, 2):
                if len({a, b, c, d}) < 4:
                    continue
                rest = set(edges) - {(a, b), (c, d)}
                for e, f in (((a, c), (b, d)), ((a, d), (b, c))):
                    new = {tuple(sorted(e)), tuple(sorted(f))}
                    if not new & rest:
                        yield Graph.from_edges(g.n, sorted(rest | new))

        graphs = [h for m in (2, 3, 4) for h in (Graph.book(m), *swaps(Graph.book(m)))]
        books = 0
        for g in graphs:
            m = (g.n - 2) // 2
            expected = m if are_isomorphic(g, Graph.book(m)) else None
            assert book_pages(g) == expected, g.edges()
            books += expected is not None
        assert (len(graphs), books) == (101, 22)

    def test_large_book(self):
        c = classify(Graph.book(30))
        assert (c.verdict, c.family, c.params) == (MEMBER, BOOK, {"pages": 30})


class TestDFamilyConstruction:
    def test_identities(self):
        assert recognize_d_family(Graph.cycle(4)) == ("D", 1, 0, 0, 0)
        assert recognize_d_family(Graph.book(2)) == ("D*", 1, 1, 0, 0)
        assert recognize_d_family(Graph.complete_bipartite(3, 3)) == \
            ("D", 2, 0, 0, 0)
        assert recognize_d_family(Graph.complete_bipartite(4, 4)) == \
            ("D", 3, 0, 0, 0)
        assert recognize_d_family(k33_minus_edge()) == ("D", 1, 1, 0, 0)
        assert recognize_d_family(build_d_family("D", 0, 0, 3, 2)) == \
            ("D", 0, 0, 3, 2)

    def test_non_examples(self):
        assert recognize_d_family(Graph.complete_bipartite(2, 3)) is None
        assert recognize_d_family(Graph.path(5)) is None
        assert recognize_d_family(Graph.cycle(6)) is None

    def test_normalization(self):
        assert normalize_d_params("D", 1, 2, 3, 4) == ("D", 2, 1, 4, 3)
        assert normalize_d_params("D*", 2, 2, 0, 1) == ("D*", 2, 2, 1, 0)
        assert normalize_d_params("D", 2, 2, 0, 1) == ("D", 2, 2, 1, 0)
        assert normalize_d_params("D*", 2, 0, 0, 1) == ("D", 2, 0, 1, 0)
        # distinct blocks of a plain D carry ordered pendant counts
        assert normalize_d_params("D", 2, 1, 0, 1) == ("D", 2, 1, 0, 1)

    def test_roundtrip_grid(self):
        for variant, m, n, p, q in itertools.product(
                ("D", "D*"), range(3), range(3), range(2), range(2)):
            g = build_d_family(variant, m, n, p, q)
            expected = normalize_d_params(variant, m, n, p, q)
            assert recognize_d_family(g) == expected, (variant, m, n, p, q)

    def test_representations_consistent(self):
        # every representation of one graph agrees on membership
        for variant, m, n in itertools.product(("D", "D*"), range(3), range(3)):
            g = build_d_family(variant, m, n, 1, 0)
            reps = all_d_representations(g)
            verdicts = {d_params_member(a, b, c, d)
                        for _, a, b, c, d in reps}
            assert len(verdicts) == 1

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            build_d_family("E", 1, 1, 0, 0)
        with pytest.raises(InputError):
            build_d_family("D", -1, 0, 0, 0)


class TestDParamsMember:
    def test_truth_table(self):
        assert d_params_member(2, 2, 5, 7)
        assert d_params_member(3, 2, 0, 0)
        assert d_params_member(2, 0, 1, 1)
        assert d_params_member(0, 0, 3, 2)
        assert d_params_member(1, 1, 0, 0)
        assert d_params_member(1, 0, 0, 0)
        assert not d_params_member(2, 1, 0, 0)
        assert not d_params_member(1, 1, 1, 0)
        assert not d_params_member(1, 0, 1, 0)
        assert not d_params_member(3, 1, 0, 0)


class TestClassifyBipartite:
    def test_even_cycles(self):
        c = classify_bipartite(Graph.cycle(8))
        assert (c.verdict, c.family) == (MEMBER, EVEN_CYCLE)
        assert c.params == {"length": 8}

    def test_double_star(self):
        c = classify_bipartite(Graph.star(4))
        assert (c.verdict, c.family) == (MEMBER, DOUBLE_STAR)
        assert c.params == {"leaves": [3, 0]}

    def test_book(self):
        c = classify_bipartite(Graph.book(3))
        assert (c.verdict, c.family) == (MEMBER, BOOK)
        assert c.params == {"pages": 3}

    def test_k33_minus_edge(self):
        c = classify_bipartite(k33_minus_edge())
        assert (c.verdict, c.family) == (MEMBER, K33_MINUS_EDGE)

    def test_two_block_verdicts(self):
        c = classify_bipartite(Graph.complete_bipartite(3, 3))
        assert (c.verdict, c.family) == (MEMBER, D_FAMILY)
        c = classify_bipartite(build_d_family("D*", 2, 2, 1, 0))
        assert (c.verdict, c.family) == (MEMBER, D_STAR_FAMILY)
        c = classify_bipartite(build_d_family("D", 2, 1, 0, 0))
        assert (c.verdict, c.family) == (NON_MEMBER, D_FAMILY)
        assert c.reason == "two-block-params-excluded"
        c = classify_bipartite(build_d_family("D", 1, 1, 0, 1))
        assert (c.verdict, c.params["p"], c.params["q"]) == (NON_MEMBER, 1, 0)

    def test_undecomposable(self):
        c = classify_bipartite(Graph.complete_bipartite(2, 3))
        assert (c.verdict, c.family) == (NON_MEMBER, None)
        assert c.reason == "no-two-block-decomposition"
        assert classify_bipartite(Graph.path(5)).verdict == NON_MEMBER

    def test_precedence(self):
        # C4 is simultaneously a cycle, a book and a two-block graph
        assert classify_bipartite(Graph.cycle(4)).family == EVEN_CYCLE
        # P4 is both a double star and a two-block graph
        assert classify_bipartite(Graph.path(4)).family == DOUBLE_STAR

    def test_input_errors(self):
        with pytest.raises(InputError):
            classify_bipartite(Graph.complete(3))
        with pytest.raises(InputError):
            classify_bipartite(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestClassifyChordal:
    def test_examples(self):
        assert classify_chordal(Graph.path(4)).verdict == MEMBER
        c = classify_chordal(Graph.path(5))
        assert (c.verdict, c.reason) == (NON_MEMBER, "chordal-diameter-ge-4")
        assert c.params == {"diameter": 4}
        assert classify_chordal(Graph.complete(4)).verdict == MEMBER
        assert classify_chordal(Graph.star(5)).verdict == MEMBER

    def test_not_chordal_rejected(self):
        with pytest.raises(InputError):
            classify_chordal(Graph.cycle(4))
        with pytest.raises(InputError):
            classify_chordal(Graph.cycle(5))


class TestClassify:
    def test_dispatch(self):
        assert classify(Graph.cycle(5)).reason == "cycle"
        assert classify(Graph.cycle(7)).verdict == MEMBER
        wheel = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                     (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
        c = classify(wheel)
        assert (c.verdict, c.reason) == (MEMBER, "universal-vertex")
        c = classify(petersen())
        assert (c.verdict, c.reason) == (UNDECIDED, "outside-decided-families")
        assert classify(Graph.complete(4)).reason == "dominating-clique"
        c = classify(Graph.complete(62))
        assert (c.verdict, c.reason) == (MEMBER, "dominating-clique")

    def test_report_bytes_pinned(self):
        # every classification of the 996 connected graphs of order <= 7
        digest = hashlib.sha256()
        for order in range(1, 8):
            for g in enumerate_connected_graphs(order):
                line = json.dumps(classify(g).to_json(g), sort_keys=True) + "\n"
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "bd12194246326f2ca45464b4c4cf991acf345033f2ffa0226821eeb16fe0ee43")

    def test_trees_member_iff_double_star(self):
        for order in range(1, 8):
            for g in enumerate_connected_graphs(order):
                if g.n > 1 and len(g.edges()) != g.n - 1:
                    continue
                verdict = classify(g).verdict
                assert verdict == (MEMBER if is_double_star(g) else NON_MEMBER)

    def test_json_shape(self):
        obj = classify(Graph.cycle(4)).to_json(Graph.cycle(4))
        assert obj == {
            "schemaVersion": 1,
            "graph6": "Cl",
            "verdict": MEMBER,
            "family": EVEN_CYCLE,
            "params": {"length": 4},
            "reason": "even-cycle",
        }


class TestMemberStructure:
    """Structural facts every decided bipartite member must satisfy."""

    def _members(self):
        for order in range(2, 8):
            for g in enumerate_connected_graphs(order, "bipartite"):
                if classify_bipartite(g).verdict == MEMBER:
                    yield g

    def test_cycle_or_dominating_edge(self):
        for g in self._members():
            assert is_cycle_graph(g) or dominating_cliques(g.n, g.edges(), 2)

    def test_no_twin_degree_two_vertices(self):
        for g in self._members():
            if g.n < 5:
                continue
            twos = [v for v in range(g.n) if g.degree(v) == 2]
            seen = set()
            for v in twos:
                assert g.adj[v] not in seen
                seen.add(g.adj[v])

    def test_non_cycle_members_have_small_diameter(self):
        for g in self._members():
            if not is_cycle_graph(g):
                assert diameter(g) <= 3
