"""Exact minimum safe set solver.

A nonempty S <= V(G) is safe when every component C of G[S] outweighs every
component D of G - S it touches (w(C) >= w(D)).  The solver scans all subsets
in increasing popcount order (lexicographic within a size) against an
incumbent weight bound, entirely in scaled integer arithmetic, and reports
exact rational optima:

  * the safe number: lightest safe set (the whole vertex set is vacuously
    safe);
  * the connected safe number: lightest safe set inducing a connected
    subgraph.

Each mask has one record: the touching (C, D) component-mask pairs,
flattened to (C0, D0, C1, D1, ...), and whether G[mask] is connected.

  * Up to order 12 the records of every mask, in scan order, form a per-graph
    plan.  The plan of the graph in use is kept across solves (weight
    sampling and the alpha ladder solve one graph many times).  Each solve
    fills a subset-sum table ws[m] = ws[m ^ top] + w[top] (top: the highest
    bit of m) once, in 2^n steps, so the bound and every safety test are
    table lookups.
  * Above order 12 a plan of 2^n records would dominate peak memory, so the
    scan builds each record on demand with the same helper and sums a pair's
    weights over its bits.

Both paths stop a mask's safety test at the first failing pair and share
the acceptance logic.  The scan is exponential by design; orders above 24 are
refused outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterator, Sequence

from .graph import (
    Graph,
    InputError,
    components,
    is_connected,
    neighborhood_mask,
    vlist,
)
from .weights import WeightFn, make_weights, scaled_integers

MAX_SOLVER_ORDER = 24
_PLAN_MAX_ORDER = 12

Record = tuple[tuple[int, ...], bool]
Accept = Callable[[int, int, bool], int]


@dataclass(frozen=True)
class SafeSetSolution:
    """Optimum weight, the lexicographically least optimal set, and every
    optimal set in lexicographic order."""

    optimum: Fraction
    witness_set: int
    all_optima: tuple[int, ...]


def _check_instance(g: Graph, w: Sequence) -> WeightFn:
    if g.n == 0:
        raise InputError("safe sets are undefined on the empty graph")
    if g.n > MAX_SOLVER_ORDER:
        raise InputError(
            f"exact solve refused for order {g.n} (limit {MAX_SOLVER_ORDER})"
        )
    if not is_connected(g):
        raise InputError("the solver requires a connected graph")
    return make_weights(w, g.n)


def _record(g: Graph, mask: int) -> Record:
    """The touching (C, D) pairs of (G[mask], G - mask), flattened, and
    whether G[mask] is connected."""
    comps_in = components(g, mask)
    comps_out = components(g, g.full_mask ^ mask)
    pairs: list[int] = []
    for c in comps_in:
        reach = neighborhood_mask(g, c)
        for d in comps_out:
            if reach & d:
                pairs += (c, d)
    return tuple(pairs), len(comps_in) == 1


def _holds(pairs: tuple[int, ...], weigh: Callable[[int], int]) -> bool:
    """True when every C of a flattened record weighs at least its D."""
    it = iter(pairs)
    return all(weigh(c) >= weigh(d) for c, d in zip(it, it))


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of range(n) by size, then lexicographically."""
    return chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))


# One graph: every caller (member sampling, the alpha ladder, the beta chain,
# verify_certificate) finishes its solves of a graph before the next graph.
@lru_cache(maxsize=1)
def _plan(g: Graph) -> tuple[tuple[int, tuple[int, ...], bool], ...]:
    """Every mask of a graph of order <= 12 with its record, in scan order."""
    bits = [1 << v for v in range(g.n)]
    masks = (sum(map(bits.__getitem__, combo)) for combo in _subsets(g.n))
    return tuple((mask, *_record(g, mask)) for mask in masks)


def _scan_plan(g: Graph, ints: list[int], accept: Accept) -> None:
    """Scan the cached plan, weighing every set by subset-sum lookups."""
    ws = [0]
    for x in ints:
        ws += [s + x for s in ws]
    bound = ws[-1]
    for mask, pairs, connected in _plan(g):
        weight = ws[mask]
        if weight > bound:
            continue
        # _holds inlined: a call per mask made this hot loop about 4x slower
        it = iter(pairs)
        for c in it:
            if ws[c] < ws[next(it)]:
                break
        else:
            bound = accept(mask, weight, connected)


def _bit_summer(ints: list[int]) -> Callable[[int], int]:
    """Weight of a mask, summed over its bits."""

    def weigh(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += ints[low.bit_length() - 1]
            mask ^= low
        return total

    return weigh


def _scan_lazy(g: Graph, ints: list[int], accept: Accept) -> None:
    """Scan without a plan, building the record of each mask within bound."""
    bits = [1 << v for v in range(g.n)]
    weigh = _bit_summer(ints)
    bound = sum(ints)
    for combo in _subsets(g.n):
        weight = sum(map(ints.__getitem__, combo))
        if weight > bound:
            continue
        mask = sum(map(bits.__getitem__, combo))
        pairs, connected = _record(g, mask)
        if _holds(pairs, weigh):
            bound = accept(mask, weight, connected)


def is_safe_set(g: Graph, w: Sequence, s: int) -> bool:
    """Decide safety of the vertex set ``s`` (mask) under weights ``w``."""
    weights = make_weights(w, g.n)
    if s == 0:
        raise InputError("the empty set is never a safe set")
    if s & ~g.full_mask:
        raise InputError("safe set candidate out of range")
    ints, _ = scaled_integers(weights)
    pairs, _ = _record(g, s)
    return _holds(pairs, _bit_summer(ints))


def solve_pair(g: Graph, w: Sequence) -> tuple[SafeSetSolution, SafeSetSolution]:
    """Solve both variants in one subset scan.

    Returns (unrestricted, connected-required) solutions.  Ties on the witness
    break toward the lexicographically least vertex list, and all_optima lists
    every optimal set in that order.
    """
    weights = _check_instance(g, w)
    ints, denom = scaled_integers(weights)
    # V(G) is safe and connected, so the total weight bounds both optima.
    s_best = cs_best = sum(ints)
    s_optima: list[int] = []
    cs_optima: list[int] = []

    def accept(mask: int, weight: int, connected: bool) -> int:
        """Record a safe mask within the bound; return the new bound."""
        nonlocal s_best, s_optima, cs_best, cs_optima
        if weight < s_best:
            s_best, s_optima = weight, [mask]
        elif weight == s_best:
            s_optima.append(mask)
        if connected:
            if weight < cs_best:
                cs_best, cs_optima = weight, [mask]
            elif weight == cs_best:
                cs_optima.append(mask)
        return cs_best

    scan = _scan_plan if g.n <= _PLAN_MAX_ORDER else _scan_lazy
    scan(g, ints, accept)

    def finish(best: int, optima: list[int]) -> SafeSetSolution:
        # Vertex ids are below 256, so bytes keys sort like the vertex lists
        # at a quarter of their size; the keys set the peak memory when tens
        # of thousands of sets tie.
        ordered = tuple(sorted(optima, key=lambda m: bytes(vlist(m))))
        return SafeSetSolution(Fraction(best, denom), ordered[0], ordered)

    return finish(s_best, s_optima), finish(cs_best, cs_optima)


def all_minimum_safe_sets(g: Graph, w: Sequence) -> list[int]:
    """Every safe set of minimum weight, lexicographic."""
    return list(solve_pair(g, w)[0].all_optima)
