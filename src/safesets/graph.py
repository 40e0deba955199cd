"""Immutable small-graph core with bitmask vertex sets.

Vertices are dense integer ids 0..n-1.  Every vertex set that crosses a
function boundary in this package is an int bitmask (bit v set means vertex v
is in the set), which keeps the exponential subset scans in the solver cheap.
Use :func:`vset` / :func:`vlist` to convert at the edges of the API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised when an argument violates a documented contract."""


MAX_ORDER = 62  # graph6 short form limit; nothing here needs more


def vset(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask.  Each id must be an int
    (not a bool) in 0..MAX_ORDER-1; it is checked before any shift."""
    try:
        ids = iter(vertices)
    except TypeError as exc:
        raise InputError(
            f"a vertex set must be a list of vertex ids, not {type(vertices).__name__}"
        ) from exc
    mask = 0
    for v in ids:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < MAX_ORDER:
            raise InputError(f"vertex id {v!r} must be an integer in 0..{MAX_ORDER - 1}")
        mask |= 1 << v
    return mask


def vlist(mask: int) -> list[int]:
    """Unpack a bitmask into an ascending list of vertex ids."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitmask of v.  Instances are immutable and
    hashable, so they can key caches.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError("vertex count must be nonnegative")
        if self.n > MAX_ORDER:
            raise InputError(f"graphs with more than {MAX_ORDER} vertices are not supported")
        if len(self.adj) != self.n:
            raise InputError("adjacency row count must equal the vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"adjacency row {v} references a vertex out of range")
            if row >> v & 1:
                raise InputError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise InputError(f"adjacency is not symmetric at ({v}, {u})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InputError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, combinations(range(n), 2))

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        return cls.complete_bipartite(1, leaves)

    @classmethod
    def book(cls, pages: int) -> "Graph":
        """Stack of ``pages`` 4-cycles sharing the spine edge 0-1.

        Page i occupies vertices 2+2i (adjacent to 0) and 3+2i (adjacent to 1).
        """
        if pages < 1:
            raise InputError("a book needs at least one page")
        edges = [(0, 1)]
        for i in range(pages):
            a, b = 2 + 2 * i, 3 + 2 * i
            edges += [(0, a), (a, b), (b, 1)]
        return cls.from_edges(2 + 2 * pages, edges)

    # -- basic queries -----------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def neighbors(self, v: int) -> list[int]:
        return vlist(self.adj[v])

    def edge_count(self) -> int:
        return sum(popcount(row) for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in vlist(self.adj[u]) if u < v]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def neighborhood_mask(g: Graph, mask: int) -> int:
    """Union of the neighbor masks of every vertex in ``mask`` (may overlap mask)."""
    adj = g.adj
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def components(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``.

    Returned component masks are ordered by ascending minimum vertex id; the
    list is empty exactly when ``mask`` is empty.
    """
    _check_mask(g, mask)
    adj = g.adj
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & rest & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def is_connected_mask(g: Graph, mask: int) -> bool:
    """True when ``mask`` is nonempty and induces a connected subgraph."""
    if mask == 0:
        return False
    seed = mask & -mask
    comp = seed
    frontier = seed
    while frontier:
        grown = 0
        for v in iter_bits(frontier):
            grown |= g.adj[v]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp == mask


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return is_connected_mask(g, g.full_mask)


def diameter(g: Graph) -> int:
    """The largest number of breadth-first layers past any start vertex."""
    if g.n == 0:
        raise InputError("diameter of the empty graph is undefined")
    if not is_connected(g):
        raise InputError("diameter requires a connected graph")
    best = 0
    for v in range(g.n):
        seen = frontier = 1 << v
        depth = -1
        while frontier:
            depth += 1
            frontier = neighborhood_mask(g, frontier) & ~seen
            seen |= frontier
        best = max(best, depth)
    return best


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-color a connected graph; returns (side of vertex 0, other side).

    Returns None when the graph contains an odd cycle.
    """
    if g.n == 0:
        raise InputError("bipartition of the empty graph is undefined")
    if not is_connected(g):
        raise InputError("bipartition requires a connected graph")
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    while queue:
        u = queue.pop()
        for v in iter_bits(g.adj[u]):
            if color[v] == -1:
                color[v] = color[u] ^ 1
                queue.append(v)
            elif color[v] == color[u]:
                return None
    side0 = vset(v for v in range(g.n) if color[v] == 0)
    return side0, g.full_mask & ~side0


def is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        for v in iter_bits(g.adj[u]):
            if v > u and g.adj[u] & g.adj[v]:
                return False
    return True


def is_cycle_graph(g: Graph) -> bool:
    """True when g is a single cycle C_n, n >= 3."""
    return (
        g.n >= 3
        and is_connected(g)
        and all(g.degree(v) == 2 for v in range(g.n))
    )


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count() == g.n - 1


def is_chordal(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Chordality test via maximum cardinality search.

    Returns (True, elimination_order) where eliminating vertices in the given
    order always removes a vertex whose remaining neighbors form a clique, or
    (False, None).  Works on disconnected graphs too.
    """
    n = g.n
    if n == 0:
        return True, ()
    weight = [0] * n
    placed = 0
    order_rev = []  # filled from the back of a perfect elimination order
    for _ in range(n):
        best = -1
        for v in range(n):
            if not placed >> v & 1 and (best == -1 or weight[v] > weight[best]):
                best = v
        order_rev.append(best)
        placed |= 1 << best
        for u in iter_bits(g.adj[best] & ~placed):
            weight[u] += 1
    order = tuple(reversed(order_rev))
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = vset(u for u in iter_bits(g.adj[v]) if pos[u] > i)
        if later == 0:
            continue
        parent = min(iter_bits(later), key=pos.__getitem__)
        rest = later & ~(1 << parent)
        if rest & ~g.adj[parent]:
            return False, None
    return True, order


def has_dominating_clique(g: Graph) -> bool:
    """True when some clique of the chordal graph g has V(G) as its closed
    neighborhood.  A clique dominates only if a maximal clique containing it
    does, and each maximal clique of a chordal graph is some v together with
    its neighbors later in a perfect elimination order (Fulkerson and Gross,
    1965), so the n cliques of that form decide it."""
    chordal, order = is_chordal(g)
    if not chordal:
        raise InputError("the dominating-clique test requires a chordal graph")
    later = g.full_mask
    for v in order:
        later ^= 1 << v
        clique = (1 << v) | (g.adj[v] & later)
        if clique | neighborhood_mask(g, clique) == g.full_mask:
            return True
    return False


@lru_cache(maxsize=1)
def connected_subsets(g: Graph) -> tuple[int, ...]:
    """All nonempty connected vertex subsets, smallest first and ascending as
    bitmask integers within a size: the order the pattern searches scan.

    Intended for pattern searches on small graphs.  Only the last graph's
    subsets are kept: a certification runs its pattern searches on one graph
    before it moves to the next.
    """
    if g.n > 20:
        raise InputError("connected subset enumeration is limited to 20 vertices")
    out = [m for m in range(1, 1 << g.n) if is_connected_mask(g, m)]
    return tuple(sorted(out, key=lambda m: (popcount(m), m)))


def _check_mask(g: Graph, mask: int) -> None:
    if mask < 0 or mask & ~g.full_mask:
        raise InputError("vertex set out of range for this graph")
