"""Quotient graphs and contraction-pattern search.

Contracting each part of a vertex partition to a single vertex (parts need not
be connected) yields a quotient whose edges record which parts touch.  Two
constructions matter here:

* ``beta(g, s)``: the quotient whose parts are the components of G[S] and of
  G - S.  It is always bipartite between the two kinds of parts.
* ``find_pattern``: searches for a partition of V(G) whose quotient is one of
  four fixed target shapes (with extra side conditions), each of which admits
  a weight function separating the safe number from its connected variant.

Patterns (bags are listed V1..V5 for the five-bag shapes):

* H1: path V1-V2-V3-V4-V5.
* H2: four-cycle V1-V2-V3-V4 with a pendant bag V5 on V4, and exactly one
  edge across each of (V1,V2) and (V2,V3).
* H3: complete bipartite sides {V2, V4} vs {V1, V3, V5} with V1, V2
  singletons, V3 connected, and a vertex v4 in V4 carrying every V4-V5 edge
  and at least one edge into V3.  Matches also pin a component of G[V5] that
  touches both V2 and v4, which the weight construction needs.
* KMN: complete bipartite K_{m,n}, m != n, both at least 2, every bag a
  single vertex except at most one connected bag Z.

Absence of a match within the search budget is reported as None and means
"unknown", never a certificate of non-contractibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator

from .graph import (
    Graph,
    InputError,
    bipartition,
    components,
    connected_subsets,
    is_connected,
    is_connected_mask,
    iter_bits,
    neighborhood_mask,
    popcount,
    vlist,
    vset,
)
from .weights import make_weights

PATTERN_NAMES = ("H1", "H2", "H3", "KMN")

_PATTERN_EDGES = {
    "H1": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "H2": ((0, 1), (1, 2), (2, 3), (3, 0), (3, 4)),
    "H3": ((0, 1), (1, 2), (1, 4), (0, 3), (2, 3), (3, 4)),
}


def pattern_graph(name: str, m: int = 0, n: int = 0) -> Graph:
    """The target shape itself (KMN needs the two side sizes)."""
    if name in _PATTERN_EDGES:
        return Graph.from_edges(5, _PATTERN_EDGES[name])
    if name == "KMN":
        return Graph.complete_bipartite(m, n)
    raise InputError(f"unknown pattern {name!r}")


@dataclass(frozen=True)
class QuotientGraph:
    """A contraction of a base graph: quotient vertex i is the part bags[i]."""

    quotient: Graph
    bags: tuple[int, ...]
    in_s: tuple[bool, ...]


def quotient_of_partition(g: Graph, bags: tuple[int, ...]) -> Graph:
    """Contract each bag; quotient edge ij iff some base edge joins bag i to j."""
    union = 0
    for b in bags:
        if b == 0:
            raise InputError("every bag must be nonempty")
        if b & union:
            raise InputError("bags must be pairwise disjoint")
        union |= b
    if union != g.full_mask:
        raise InputError("bags must cover every vertex")
    k = len(bags)
    reach = [neighborhood_mask(g, b) for b in bags]
    edges = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if reach[i] & bags[j]
    ]
    return Graph.from_edges(k, edges)


def beta(g: Graph, s: int) -> QuotientGraph:
    """Quotient by the components of G[S] and of G - S (S-side bags first)."""
    if not is_connected(g):
        raise InputError("beta requires a connected graph")
    if s == 0:
        raise InputError("beta requires a nonempty vertex set")
    if s & ~g.full_mask:
        raise InputError("vertex set out of range")
    if s == g.full_mask:
        raise InputError("beta requires a proper subset")
    inside = components(g, s)
    outside = components(g, g.full_mask ^ s)
    bags = tuple(inside + outside)
    in_s = tuple([True] * len(inside) + [False] * len(outside))
    return QuotientGraph(quotient_of_partition(g, bags), bags, in_s)


def lift_weights(bags: tuple[int, ...], w) -> tuple:
    """Weights for the quotient by ``bags``: each bag gets the sum over its
    members."""
    weights = make_weights(w, sum(popcount(b) for b in bags))
    return tuple(sum(weights[v] for v in iter_bits(b)) for b in bags)


@dataclass
class PatternMatch:
    """A witnessed contraction of g onto one of the target shapes.

    bags: for H1/H2/H3 the five parts V1..V5 in pattern order; for KMN first
    the m bags of the side containing Z (or vertex 0 when every bag is a
    singleton), then the n bags of the other side, each side ordered by
    minimum vertex id.
    params: KMN carries m, n and z_index (position of the big bag in bags, or
    None); H3 carries v4 (the distinguished vertex) and d (the pinned
    component of G[V5], as a mask).
    """

    pattern: str
    bags: tuple[int, ...]
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        params = {}
        for key, value in self.params.items():
            params[key] = vlist(value) if key == "d" else value
        return {
            "pattern": self.pattern,
            "bags": [vlist(b) for b in self.bags],
            "params": params,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PatternMatch":
        try:
            pattern = obj["pattern"]
            bags = tuple(vset(b) for b in obj["bags"])
            params = obj.get("params", {})
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed pattern match object: {exc}") from exc
        if not isinstance(pattern, str) or not isinstance(params, dict):
            raise InputError("a pattern match needs a string pattern and a params object")
        params = dict(params)
        for key in ("m", "n", "z_index", "v4"):
            value = params.get(key)
            if value is not None and type(value) is not int:
                raise InputError(f"match param {key!r} must be an integer")
        if "d" in params:
            params["d"] = vset(params["d"])
        return cls(pattern, bags, params)


def validate_match(g: Graph, match: PatternMatch) -> None:
    """Raise InputError unless the match is a sound contraction with all side
    conditions; the quotient is rebuilt from scratch and compared edge-for-edge
    against the target shape."""
    name = match.pattern
    if name not in PATTERN_NAMES:
        raise InputError(f"unknown pattern {name!r}")
    bags = match.bags
    quotient = quotient_of_partition(g, bags)

    if name in _PATTERN_EDGES:
        if len(bags) != 5:
            raise InputError(f"{name} needs exactly 5 bags")
        if quotient != pattern_graph(name):
            raise InputError(f"quotient does not equal the {name} shape")
        for idx in (1, 3):
            if not is_connected_mask(g, bags[idx]):
                raise InputError(f"bag V{idx + 1} must induce a connected subgraph")

    if name == "H2":
        if _edge_count(g, bags[0], bags[1]) != 1:
            raise InputError("H2 needs exactly one edge between V1 and V2")
        if _edge_count(g, bags[1], bags[2]) != 1:
            raise InputError("H2 needs exactly one edge between V2 and V3")

    if name == "H3":
        if popcount(bags[0]) != 1 or popcount(bags[1]) != 1:
            raise InputError("H3 needs singleton bags V1 and V2")
        if not is_connected_mask(g, bags[2]):
            raise InputError("H3 needs a connected bag V3")
        problem = _h3_pin_problem(g, bags, match.params.get("v4"), match.params.get("d"))
        if problem is not None:
            raise InputError(problem)

    if name == "KMN":
        m = match.params.get("m")
        n = match.params.get("n")
        z_index = match.params.get("z_index")
        if m is None or n is None or m + n != len(bags):
            raise InputError("KMN match must carry consistent side sizes")
        if m < 2 or n < 2 or m == n:
            raise InputError("KMN requires side sizes m != n, both at least 2")
        if quotient != Graph.complete_bipartite(m, n):
            raise InputError("quotient does not equal the K_{m,n} shape")
        big = [i for i, b in enumerate(bags) if popcount(b) >= 2]
        if len(big) > 1:
            raise InputError("KMN allows at most one bag with 2+ vertices")
        if big:
            if z_index != big[0]:
                raise InputError("z_index must point at the big bag")
            if not is_connected_mask(g, bags[big[0]]):
                raise InputError("the big bag must induce a connected subgraph")
        elif z_index is not None and not 0 <= z_index < len(bags):
            raise InputError("z_index out of range")


def find_pattern(g: Graph, pattern: str, budget: int = 10**6) -> PatternMatch | None:
    """Search for a contraction of g onto ``pattern``.

    Deterministic: candidate bags are scanned smallest-first in a fixed order,
    each candidate costs one budget unit, and the first valid match within
    the budget is returned.  None means no match was found within the budget;
    treat that as unknown.
    """
    if pattern not in PATTERN_NAMES:
        raise InputError(f"unknown pattern {pattern!r}")
    if budget < 0:
        raise InputError("search budget must be nonnegative")
    if not is_connected(g):
        raise InputError("pattern search requires a connected graph")
    # Each searcher is a lazy stream: None per budget unit spent and a match
    # wherever one is found, so a match after the whole budget is item
    # budget + 1.
    match = next(filter(None, islice(_SEARCHERS[pattern](g), budget + 1)), None)
    if match is not None:
        validate_match(g, match)
    return match


def _split_pairs(g: Graph) -> Iterator[tuple[int, int, int]]:
    """The (V2, V4) candidates shared by H1 and H2: disjoint, non-adjacent
    connected bags b and d, smallest first, with the remainder V(G) - b - d.
    An empty remainder yields no match."""
    full = g.full_mask
    subs = connected_subsets(g)
    for b in subs:  # V2
        closed = b | neighborhood_mask(g, b)
        for d in subs:  # V4
            if not d & closed:
                yield b, d, full ^ b ^ d


def _find_h1(g: Graph) -> Iterator[PatternMatch | None]:
    for b, d, rest in _split_pairs(g):
        yield None
        touch_b, touch_d, touch_both = [], [], []
        ok = True
        for comp in components(g, rest):
            creach = neighborhood_mask(g, comp)
            hits_b, hits_d = bool(creach & b), bool(creach & d)
            if hits_b and hits_d:
                touch_both.append(comp)
            elif hits_b:
                touch_b.append(comp)
            elif hits_d:
                touch_d.append(comp)
            else:
                ok = False
                break
        if not ok or not touch_b or not touch_d:
            continue
        if touch_both:
            v1 = _union(touch_b)
            v3 = _union(touch_both)
            v5 = _union(touch_d)
        elif len(touch_b) >= 2 and len(touch_d) >= 2:
            v1 = _union(touch_b[:-1])
            v3 = touch_b[-1] | touch_d[-1]
            v5 = _union(touch_d[:-1])
        else:
            continue
        yield PatternMatch("H1", (v1, b, v3, d, v5))


def _find_h2(g: Graph) -> Iterator[PatternMatch | None]:
    for b, d, rest in _split_pairs(g):
        yield None
        singles, extras = [], []
        ok = True
        for comp in components(g, rest):
            eb = _edge_count(g, comp, b)
            hits_d = bool(neighborhood_mask(g, comp) & d)
            if eb >= 2 or (eb == 0 and not hits_d):
                ok = False
                break
            if eb == 1:
                singles.append((comp, hits_d))
            else:
                extras.append(comp)
        if not ok or len(singles) != 2:
            continue
        for (p, p_hits), (q, q_hits) in (
            (singles[0], singles[1]),
            (singles[1], singles[0]),
        ):
            pool = list(extras)
            v1, v3 = p, q
            if not p_hits:
                if not pool:
                    continue
                v1 |= pool.pop(0)
            if not q_hits:
                if not pool:
                    continue
                v3 |= pool.pop(0)
            if not pool:
                continue
            v5 = _union(pool)
            yield PatternMatch("H2", (v1, b, v3, d, v5))


def _find_h3(g: Graph) -> Iterator[PatternMatch | None]:
    full = g.full_mask
    subs = connected_subsets(g)
    for v1 in range(g.n):
        b1 = 1 << v1
        for v2 in vlist(g.adj[v1]):
            b2 = 1 << v2
            avail = full ^ b1 ^ b2
            for v4_bag in subs:
                if v4_bag & ~avail:
                    continue
                r4 = neighborhood_mask(g, v4_bag)
                if not r4 & b1 or r4 & b2:
                    continue
                left = avail ^ v4_bag
                for v3_bag in subs:
                    if v3_bag & ~left:
                        continue
                    yield None
                    r3 = neighborhood_mask(g, v3_bag)
                    if not r3 & b2 or r3 & b1 or not r3 & v4_bag:
                        continue
                    v5_bag = left ^ v3_bag
                    if v5_bag == 0 or r3 & v5_bag:
                        continue
                    r5 = neighborhood_mask(g, v5_bag)
                    if r5 & b1 or not r5 & b2 or not r5 & v4_bag:
                        continue
                    match = _pin_h3(g, (b1, b2, v3_bag, v4_bag, v5_bag))
                    if match is not None:
                        yield match


def _pin_h3(g: Graph, bags: tuple[int, ...]) -> PatternMatch | None:
    """Choose v4 and the V5 component the weight construction will use: the
    first pair, v4 ascending and then the components of G[V5] in order, that
    breaks no pin rule."""
    comps5 = components(g, bags[4])
    for v4 in vlist(bags[3]):
        for d in comps5:
            if _h3_pin_problem(g, bags, v4, d) is None:
                return PatternMatch("H3", bags, {"v4": v4, "d": d})
    return None


def _h3_pin_problem(g: Graph, bags: tuple[int, ...], v4, d) -> str | None:
    """The first pin rule that v4 and d break, or None.  v4 lies in V4 with a
    neighbor in V3 and carries every V4-V5 edge; d is a component of G[V5]
    touching both V2 and v4."""
    if v4 is None or v4 < 0 or not bags[3] >> v4 & 1:
        return "H3 match must pin a vertex v4 inside V4"
    if not g.adj[v4] & bags[2]:
        return "v4 must have a neighbor in V3"
    others = bags[3] ^ (1 << v4)
    if others and neighborhood_mask(g, others) & bags[4]:
        return "every V4-V5 edge must be incident to v4"
    if d is None or d not in components(g, bags[4]):
        return "H3 match must pin a component of G[V5]"
    reach = neighborhood_mask(g, d)
    if not reach & bags[1] or not reach & (1 << v4):
        return "the pinned component must touch both V2 and v4"
    return None


def complete_bipartite_match(g: Graph) -> PatternMatch | None:
    """The all-singleton KMN match when g itself is K_{m,n} with m != n, both
    at least 2; None otherwise.  Needs no search, so it spends no budget."""
    sides = bipartition(g)
    if sides is None:
        return None
    x, y = sides
    mx, my = popcount(x), popcount(y)
    if mx == my or mx < 2 or my < 2:
        return None
    if any(g.adj[v] & y != y for v in iter_bits(x)):
        return None
    bags = tuple(1 << v for v in vlist(x)) + tuple(1 << v for v in vlist(y))
    return PatternMatch("KMN", bags, {"m": mx, "n": my, "z_index": None})


def _find_kmn(g: Graph) -> Iterator[PatternMatch | None]:
    match = complete_bipartite_match(g)
    if match is not None:
        yield match
    full = g.full_mask
    for z in connected_subsets(g):
        if popcount(z) < 2 or z == full:
            continue
        yield None
        rest = full ^ z
        x_side = vset(v for v in iter_bits(rest) if not g.adj[v] & z)
        y_side = rest ^ x_side
        m, n = popcount(x_side) + 1, popcount(y_side)
        if m < 2 or n < 2 or m == n:
            continue
        if any(g.adj[v] & x_side for v in iter_bits(x_side)):
            continue
        if any(g.adj[v] & y_side for v in iter_bits(y_side)):
            continue
        if any(g.adj[v] & y_side != y_side for v in iter_bits(x_side)):
            continue
        x_bags = sorted([z] + [1 << v for v in vlist(x_side)], key=vlist)
        bags = tuple(x_bags) + tuple(1 << v for v in vlist(y_side))
        yield PatternMatch(
            "KMN", bags, {"m": m, "n": n, "z_index": x_bags.index(z)}
        )


_SEARCHERS = {"H1": _find_h1, "H2": _find_h2, "H3": _find_h3, "KMN": _find_kmn}


def _edge_count(g: Graph, a: int, b: int) -> int:
    """The number of edges from ``a`` into the disjoint set ``b``."""
    return sum(popcount(g.adj[v] & b) for v in iter_bits(a))


def _union(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out
