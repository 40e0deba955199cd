"""Independent reference implementations the fast code is checked against.

Everything here favors clarity over speed: plain dicts, sets and itertools,
sharing no helpers with the package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components_of(adj, subset):
    subset = set(subset)
    seen = set()
    comps = []
    for start in sorted(subset):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for nb in adj[u]:
                if nb in subset and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def is_safe(n, edges, w, s):
    adj = adjacency(n, edges)
    s = set(s)
    comps_in = components_of(adj, s)
    comps_out = components_of(adj, set(range(n)) - s)
    for c in comps_in:
        wc = sum(w[v] for v in c)
        for d in comps_out:
            touches = any(nb in d for v in c for nb in adj[v])
            if touches and wc < sum(w[v] for v in d):
                return False
    return True


def solve(n, edges, w):
    """(s, cs, minima, connected minima) by bare enumeration of all subsets."""
    adj = adjacency(n, edges)
    best = best_c = None
    minima: list[tuple] = []
    minima_c: list[tuple] = []
    for k in range(1, n + 1):
        for sub in itertools.combinations(range(n), k):
            if not is_safe(n, edges, w, sub):
                continue
            weight = sum((w[v] for v in sub), Fraction(0))
            if best is None or weight < best:
                best, minima = weight, [sub]
            elif weight == best:
                minima.append(sub)
            if len(components_of(adj, sub)) == 1:
                if best_c is None or weight < best_c:
                    best_c, minima_c = weight, [sub]
                elif weight == best_c:
                    minima_c.append(sub)
    return best, best_c, sorted(minima), sorted(minima_c)


def distances(n, edges):
    """All-pairs distances by Floyd-Warshall; None when unreachable."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def dominating_cliques(n, edges, max_size=None):
    """Every clique of at most max_size vertices (default: any size) whose
    closed neighborhood is the whole vertex set, as sorted tuples in
    lexicographic order, by trying every vertex subset."""
    adj = adjacency(n, edges)
    limit = n if max_size is None else max_size
    found = []
    for k in range(1, limit + 1):
        for sub in itertools.combinations(range(n), k):
            if any(v not in adj[u] for u, v in itertools.combinations(sub, 2)):
                continue
            if set(sub).union(*(adj[v] for v in sub)) == set(range(n)):
                found.append(sub)
    return sorted(found)
