"""Canonical forms for deduplication: two graphs are isomorphic exactly when
their forms are equal.

Individualization-refinement over color classes: refine by iterated neighbor
color multisets, branch on every vertex of the first non-singleton class, and
take the minimum relabeled edge mask over all leaves.  Exhaustive over the
leaf set, so the form is a true isomorphism invariant; intended for the small
orders this package works at.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, iter_bits


def _refine(g: Graph, colors: tuple[int, ...]) -> tuple[int, ...]:
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            nbr = sorted(colors[u] for u in iter_bits(g.adj[v]))
            sigs.append((colors[v], tuple(nbr)))
        ranks = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[sig] for sig in sigs)
        if new == colors:
            return new
        colors = new


def _edge_mask(g: Graph, position: tuple[int, ...]) -> int:
    """Relabel v -> position[v] and pack the upper triangle column-major."""
    mask = 0
    for u, v in g.edges():
        i, j = position[u], position[v]
        if i > j:
            i, j = j, i
        mask |= 1 << (j * (j - 1) // 2 + i)
    return mask


# maxsize=0 stores nothing (no caller repeats a graph) but keeps cache_info()
# as a call counter.
@lru_cache(maxsize=0)
def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, canonical edge mask); equal forms mean isomorphic graphs."""
    n = g.n
    if n == 0:
        return (0, 0)
    best: int | None = None

    def descend(colors: tuple[int, ...]) -> None:
        nonlocal best
        colors = _refine(g, colors)
        classes: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            classes.setdefault(c, []).append(v)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = classes[c]
                break
        if target is None:
            position = tuple(colors)  # discrete: color ids are 0..n-1
            mask = _edge_mask(g, position)
            if best is None or mask < best:
                best = mask
            return
        for v in target:
            branched = tuple(
                (colors[u], 0 if u == v else 1) for u in range(n)
            )
            ranks = {sig: i for i, sig in enumerate(sorted(set(branched)))}
            descend(tuple(ranks[sig] for sig in branched))

    descend((0,) * n)
    assert best is not None
    return (n, best)


def from_canonical_form(form: tuple[int, int]) -> Graph:
    """Rebuild a concrete graph from (n, packed upper-triangle edge mask)."""
    n, mask = form
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))
