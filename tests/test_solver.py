import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import connected_graphs, weight_lists

from safesets.graph import Graph, InputError, vlist, vset
from safesets.solver import all_minimum_safe_sets, is_safe_set, solve_pair


class TestIsSafeSet:
    def test_c4_pair(self):
        assert is_safe_set(Graph.cycle(4), [1, 1, 1, 1], vset([0, 1]))

    def test_p5_singleton_unsafe(self):
        assert not is_safe_set(Graph.path(5), [1] * 5, vset([0]))

    def test_tie_counts_as_safe(self):
        # components weigh 3+1=4 against the middle component of weight 4
        g = Graph.path(5)
        assert is_safe_set(g, [3, 3, 1, 2, 2], vset([1, 2]))

    def test_disconnected_member_set(self):
        g = Graph.path(5)
        # {1, 3}: {1} covers {0} and {2}, {3} covers {2} and ties {4}
        assert is_safe_set(g, [3, 3, 1, 2, 2], vset([1, 3]))
        assert is_safe_set(g, [5, 5, 1, 4, 4], vset([1, 3]))
        # {0, 2}: component {2} of weight 1 faces {1} of weight 5
        assert not is_safe_set(g, [5, 5, 1, 4, 4], vset([0, 2]))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            is_safe_set(Graph.path(3), [1, 1, 1], 0)


class TestFrozenExamples:
    def test_k23_ones(self):
        g = Graph.complete_bipartite(2, 3)
        s, cs = solve_pair(g, [1] * 5)
        assert s.optimum == 2
        assert cs.optimum == 3
        assert vlist(s.witness_set) == [0, 1]

    def test_c4_unit_all_minima(self):
        g = Graph.cycle(4)
        sol, csol = solve_pair(g, [1, 1, 1, 1])
        assert sol.optimum == csol.optimum == 2
        # every 2-subset is safe: adjacent ones are connected, opposite
        # corners split the cycle into two singletons of weight 1
        assert [vlist(m) for m in sol.all_optima] == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert [vlist(m) for m in csol.all_optima] == [
            [0, 1], [0, 3], [1, 2], [2, 3]]

    def test_single_vertex(self):
        sol = solve_pair(Graph(1, (0,)), [5])[0]
        assert sol.optimum == 5
        assert vlist(sol.witness_set) == [0]

    def test_p5_alpha2_gap_closed(self):
        # weights (a+1, a+1, 1, a, a) at a=2: the tie makes {1, 2} safe,
        # so both variants meet at 4 and the gap construction fails
        g = Graph.path(5)
        sol, csol = solve_pair(g, [3, 3, 1, 2, 2])
        assert sol.optimum == csol.optimum == 4
        assert [vlist(m) for m in sol.all_optima] == [[1, 2]]

    def test_p5_alpha4_gap_open(self):
        # same shape at a=4: {1, 3} beats every connected safe set by 1
        g = Graph.path(5)
        sol, csol = solve_pair(g, [5, 5, 1, 4, 4])
        assert sol.optimum == 9
        assert csol.optimum == 10
        assert [vlist(m) for m in sol.all_optima] == [[1, 3]]

    def test_fractional_weights(self):
        g = Graph.complete_bipartite(2, 3)
        w = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3),
             Fraction(1, 3), Fraction(1, 3)]
        assert solve_pair(g, w)[0].optimum == 1


class TestInstanceValidation:
    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            solve_pair(g, [1, 1, 1, 1])

    def test_wrong_length(self):
        with pytest.raises(InputError):
            solve_pair(Graph.path(3), [1, 1])

    def test_negative_weight(self):
        with pytest.raises(InputError):
            solve_pair(Graph.path(3), [1, -1, 1])

    def test_zero_weight_allowed(self):
        # zero is a legal weight; a zero-weight vertex is free to take
        sol = solve_pair(Graph.path(3), [1, 0, 1])[0]
        assert sol.optimum == 1

    def test_order_cap(self):
        g = Graph.path(25)
        with pytest.raises(InputError):
            solve_pair(g, [1] * 25)


class TestProperties:
    @given(connected_graphs(max_order=7), st.data())
    def test_matches_oracle(self, g, data):
        w = data.draw(weight_lists(g.n))
        sol, csol = solve_pair(g, w)
        best, best_c, minima, minima_c = oracles.solve(g.n, g.edges(), w)
        assert sol.optimum == best
        assert csol.optimum == best_c
        assert [tuple(vlist(m)) for m in sol.all_optima] == list(minima)
        assert [tuple(vlist(m)) for m in csol.all_optima] == list(minima_c)

    # Order 12 is the last solved from the cached per-graph plan and order
    # 13 the first scanned lazily; both must agree with the oracle.
    @pytest.mark.parametrize("order", [12, 13])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_matches_oracle_across_plan_cut(self, order, data):
        g = data.draw(connected_graphs(min_order=order, max_order=order))
        w = data.draw(weight_lists(g.n))
        sol, csol = solve_pair(g, w)
        best, best_c, minima, minima_c = oracles.solve(g.n, g.edges(), w)
        assert sol.optimum == best
        assert csol.optimum == best_c
        assert [tuple(vlist(m)) for m in sol.all_optima] == list(minima)
        assert [tuple(vlist(m)) for m in csol.all_optima] == list(minima_c)
        masks = data.draw(st.lists(st.integers(1, g.full_mask), min_size=20,
                                   max_size=20))
        for m in masks:
            assert is_safe_set(g, w, m) == oracles.is_safe(
                g.n, g.edges(), w, vlist(m))

    @given(connected_graphs(max_order=7), st.data())
    def test_connected_dominates(self, g, data):
        w = data.draw(weight_lists(g.n))
        sol, csol = solve_pair(g, w)
        assert sol.optimum <= csol.optimum
        assert is_safe_set(g, w, sol.witness_set)
        assert is_safe_set(g, w, csol.witness_set)

    @given(connected_graphs(max_order=7), st.data(),
           st.integers(min_value=2, max_value=7))
    def test_scaling_invariance(self, g, data, k):
        w = data.draw(weight_lists(g.n))
        sol = solve_pair(g, w)[0]
        scaled = solve_pair(g, [Fraction(k) * x for x in w])[0]
        assert scaled.optimum == k * sol.optimum
        assert scaled.witness_set == sol.witness_set

    @settings(max_examples=30)
    @given(connected_graphs(min_order=2, max_order=6), st.data())
    def test_minima_are_minimal(self, g, data):
        w = data.draw(weight_lists(g.n))
        for m in all_minimum_safe_sets(g, w):
            assert is_safe_set(g, w, m)
            total = sum((x for v, x in enumerate(w) if m >> v & 1),
                        Fraction(0))
            assert total == solve_pair(g, w)[0].optimum


@functools.lru_cache(maxsize=1)
def strict_gap_instances():
    """Scan small connected graphs under low-spread random weights and
    keep the instances where the connected optimum is strictly worse.
    Small integer weights produce ties, and ties produce gaps."""
    import random

    from safesets.enumerate import enumerate_connected_graphs

    found = [(Graph.from_edges(5, [(0, 1), (0, 3), (2, 1), (2, 3),
                                   (4, 1), (4, 3)]),
              (Fraction(1),) * 5)]  # K_{2,3}, the classic gap
    for order in range(4, 8):
        for g in enumerate_connected_graphs(order):
            rng = random.Random(order)
            for _ in range(12):
                w = tuple(Fraction(rng.randint(1, 3)) for _ in range(g.n))
                sol, csol = solve_pair(g, w)
                if sol.optimum < csol.optimum:
                    found.append((g, w))
    return tuple(found)


class TestStrictGapStructure:
    """Whenever the two optima separate, every minimum safe set must
    disconnect the rest of the graph, and a dominating clique can be
    neither inside nor outside any minimum safe set."""

    def test_minimum_sets_disconnect_complement(self):
        from safesets.graph import components

        instances = strict_gap_instances()
        assert len(instances) > 20
        for g, w in instances:
            for m in all_minimum_safe_sets(g, w):
                assert len(components(g, g.full_mask ^ m)) >= 2

    def test_dominating_clique_straddled(self):
        from safesets.graph import components, neighborhood_mask

        seen = 0
        for g, w in strict_gap_instances():
            cliques = [vset(k) for k in oracles.dominating_cliques(g.n, g.edges())]
            if not cliques:
                continue
            seen += 1
            for m in all_minimum_safe_sets(g, w):
                for k in cliques:
                    assert m & ~k, "minimum safe set inside the clique"
                    assert k & ~m, "dominating clique swallowed"
                    assert m & k, "minimum safe set misses the clique"
                rest = g.full_mask ^ m
                outside = components(g, rest)
                for comp in components(g, m):
                    reach = neighborhood_mask(g, comp)
                    touched = sum(1 for c in outside if reach & c)
                    assert touched >= 2
        assert seen > 10
