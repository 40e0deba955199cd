"""Recognition of the graph families whose members keep the safe number and
the connected safe number equal for every weight function.

Connected bipartite graphs are decided completely: the members are exactly
the even cycles, double stars, books, K(3,3) minus an edge, and the graphs of
a two-block family (variants D and D*) whose parameters pass an explicit
test.  Connected chordal graphs are decided by diameter at most 3, which is
cross-checked against the existence of a dominating clique.  Cycles and
graphs with a universal vertex are members; anything else is left undecided.
Every family is recognized from its structure, with no isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .graph import (
    Graph,
    InputError,
    bipartition,
    components,
    diameter,
    has_dominating_clique,
    is_chordal,
    is_connected,
    is_cycle_graph,
    is_tree,
    iter_bits,
    popcount,
    vset,
)
from .graph6 import to_graph6

MEMBER = "MEMBER"
NON_MEMBER = "NON_MEMBER"
UNDECIDED = "UNDECIDED"

EVEN_CYCLE = "EVEN_CYCLE"
DOUBLE_STAR = "DOUBLE_STAR"
BOOK = "BOOK"
K33_MINUS_EDGE = "K33_MINUS_EDGE"
D_FAMILY = "D_FAMILY"
D_STAR_FAMILY = "D_STAR_FAMILY"

_VARIANT_TAG = {"D": D_FAMILY, "D*": D_STAR_FAMILY}


@dataclass(frozen=True)
class FamilyClassification:
    verdict: str
    family: str | None = None
    params: dict | None = None
    reason: str = ""

    def to_json(self, g: Graph) -> dict:
        return {
            "schemaVersion": 1,
            "graph6": to_graph6(g),
            "verdict": self.verdict,
            "family": self.family,
            "params": self.params,
            "reason": self.reason,
        }


def is_double_star(g: Graph) -> bool:
    """Trees of diameter at most 3: two adjacent centers carrying all leaves.
    The one- and two-vertex graphs count."""
    return is_tree(g) and diameter(g) <= 3


def double_star_leaves(g: Graph) -> tuple[int, int]:
    """Leaf counts (a, b) with a >= b; requires is_double_star."""
    if not is_double_star(g):
        raise InputError("not a double star")
    if g.n <= 2:
        return (0, 0)
    centers = [v for v in range(g.n) if g.degree(v) >= 2]
    if len(centers) == 1:
        return (g.degree(centers[0]) - 1, 0)
    a, b = (g.degree(v) - 1 for v in centers)
    return (max(a, b), min(a, b))


def book_pages(g: Graph) -> int | None:
    """Number of pages if g is a book: two adjacent hubs plus page pairs,
    each page an edge with one endpoint on each hub.  The one-page book is
    the 4-cycle.  Returns None otherwise.

    Past the degree sequence, g is the m-page book exactly when the hubs u
    and v are adjacent, their page neighborhoods N(u) - v and N(v) - u are
    disjoint, and every page vertex of u has a neighbor among those of v:
    the degrees then force a perfect matching between the two."""
    if g.n < 4 or g.n % 2:
        return None
    m = (g.n - 2) // 2
    if m == 1:
        return 1 if is_cycle_graph(g) else None
    degrees = sorted(g.degree(v) for v in range(g.n))
    if degrees != [2] * (2 * m) + [m + 1, m + 1]:
        return None
    u, v = (x for x in range(g.n) if g.degree(x) == m + 1)
    pages_u = g.adj[u] & ~(1 << v)
    pages_v = g.adj[v] & ~(1 << u)
    if not g.adj[u] >> v & 1 or pages_u & pages_v:
        return None
    if any(not g.adj[x] & pages_v for x in iter_bits(pages_u)):
        return None
    return m


def build_d_family(variant: str, m: int, n: int, p: int, q: int) -> Graph:
    """Construct the two-block graph with blocks K(X1, Y1) and K(X2, Y2)
    where |X1| = m, |Y1| = m + 1, |X2| = n + 1, |Y2| = n, plus p pendants on
    the distinguished y in Y1 and q pendants on the distinguished x in X2.
    Variant "D" joins X2 to Y1 completely; variant "D*" joins only x to Y1
    and y to X2, making x and y the centers of a spanning double star.
    """
    if variant not in _VARIANT_TAG:
        raise InputError(f"unknown variant {variant!r}")
    if min(m, n, p, q) < 0:
        raise InputError("parameters must be nonnegative")
    parts, start = [], 0
    for size in (m, m + 1, n + 1, n, p, q):  # X1, Y1, X2, Y2, P, Q
        parts.append(((1 << size) - 1) << start)
        start += size
    x, y = 2 * m + 1, m  # least vertices of X2 and Y1
    return Graph(start, _d_rows(start, variant, *parts, x, y))


def normalize_d_params(
    variant: str, m: int, n: int, p: int, q: int
) -> tuple[str, int, int, int, int]:
    """Collapse the parameter symmetries: sides may be swapped (exchanging
    (m, p) with (n, q)); for variant D* the two blocks may also be swapped
    independently, freeing p >= q; the same holds for variant D when the
    blocks have equal size or the core is complete (n == 0).  With n == 0
    the two variants describe the same graph, reported as "D"."""
    if m < n:
        m, n, p, q = n, m, q, p
    if (variant == "D*" or n == 0 or m == n) and p < q:
        p, q = q, p
    if n == 0:
        variant = "D"
    return variant, m, n, p, q


def d_params_member(m: int, n: int, p: int, q: int) -> bool:
    """Membership test for normalized (m >= n) two-block parameters: both
    blocks of size at least 2, or a complete core with m != 1, or one of the
    two sporadic pendant-free shapes (1,1;0,0) and (1,0;0,0)."""
    if m >= 2 and n >= 2:
        return True
    if n == 0 and m != 1:
        return True
    return (m, n, p, q) in ((1, 1, 0, 0), (1, 0, 0, 0))


def _pendant_mask(g: Graph, center: int) -> int:
    return vset(v for v in g.neighbors(center) if g.degree(v) == 1)


def _d_rows(n, variant, x1, y1, x2, y2, pend_p, pend_q, x, y) -> tuple[int, ...]:
    """Adjacency rows of the two-block graph on n vertices with the given
    part masks, as described in :func:`build_d_family`."""
    rows = [0] * n

    def connect(a_mask: int, b_mask: int) -> None:
        for u in iter_bits(a_mask):
            rows[u] |= b_mask
        for v in iter_bits(b_mask):
            rows[v] |= a_mask

    connect(x1, y1)
    connect(x2, y2)
    if variant == "D":
        connect(x2, y1)
    else:
        connect(1 << x, y1)
        connect(1 << y, x2)
    connect(1 << y, pend_p)
    connect(1 << x, pend_q)
    return tuple(rows)


def _candidate_splits(g: Graph, a_side: int, b_side: int, x: int, y: int):
    """Yield (variant, X1, Y1, X2, Y2, P, Q) part splits for the orientation
    that puts x on the a side and y on the b side, both universal."""
    if g.adj[x] != b_side or g.adj[y] != a_side:
        return
    pend_p = _pendant_mask(g, y) & a_side & ~(1 << x)
    pend_q = _pendant_mask(g, x) & b_side & ~(1 << y)
    xc = a_side & ~pend_p
    yc = b_side & ~pend_q
    if popcount(xc) != popcount(yc):
        return

    x2 = vset(v for v in iter_bits(xc) if g.adj[v] & yc == yc)
    y1 = vset(u for u in iter_bits(yc) if g.adj[u] & xc == xc)
    if x2 == xc and y1 == yc:
        yield ("D", xc & ~(1 << x), yc, 1 << x, 0, pend_p, pend_q)
    elif (1 << x) & x2 and (1 << y) & y1:
        yield ("D", xc & ~x2, y1, x2, yc & ~y1, pend_p, pend_q)

    rest = (xc | yc) & ~(1 << x) & ~(1 << y)
    comps = components(g, rest)
    if len(comps) > 2:
        return
    blocks = [(c & xc, c & yc) for c in comps]
    if any(popcount(cx) != popcount(cy) for cx, cy in blocks):
        return
    while len(blocks) < 2:
        blocks.append((0, 0))
    for (b1x, b1y), (b2x, b2y) in permutations(blocks, 2):
        yield (
            "D*",
            b1x,
            b1y | (1 << y),
            b2x | (1 << x),
            b2y,
            pend_p,
            pend_q,
        )


def all_d_representations(g: Graph) -> list[tuple[str, int, int, int, int]]:
    """Every normalized parameter tuple under which g is the two-block graph;
    empty when g is outside the family."""
    if g.n < 2 or not is_connected(g):
        return []
    sides = bipartition(g)
    if sides is None:
        return []
    # Each edge is read once, x on sides[0]: the reading from the other side
    # normalizes to the same tuple.
    found = set()
    for x in iter_bits(sides[0]):
        for y in g.neighbors(x):
            for variant, x1, y1, x2, y2, pp, qq in _candidate_splits(
                g, *sides, x, y
            ):
                m, n = popcount(x1), popcount(y2)
                if popcount(y1) != m + 1 or popcount(x2) != n + 1:
                    continue
                if _d_rows(g.n, variant, x1, y1, x2, y2, pp, qq, x, y) != g.adj:
                    continue
                found.add(normalize_d_params(variant, m, n, popcount(pp), popcount(qq)))
    return sorted(found)


def recognize_d_family(g: Graph) -> tuple[str, int, int, int, int] | None:
    """Normalized (variant, m, n, p, q) when g belongs to the two-block
    family, else None.  When several representations exist they must agree
    on membership; the lexicographically least is reported."""
    reps = all_d_representations(g)
    if not reps:
        return None
    verdicts = {d_params_member(m, n, p, q) for _, m, n, p, q in reps}
    if len(verdicts) != 1:
        raise RuntimeError(f"inconsistent representations for {to_graph6(g)}: {reps}")
    return reps[0]


def classify_bipartite(g: Graph) -> FamilyClassification:
    """Complete decision procedure for connected bipartite graphs."""
    if not is_connected(g):
        raise InputError("classification requires a connected graph")
    if bipartition(g) is None:
        raise InputError("graph is not bipartite")

    if is_cycle_graph(g):
        return FamilyClassification(
            MEMBER, EVEN_CYCLE, {"length": g.n}, "even-cycle"
        )
    if is_double_star(g):
        a, b = double_star_leaves(g)
        return FamilyClassification(
            MEMBER, DOUBLE_STAR, {"leaves": [a, b]}, "double-star"
        )
    pages = book_pages(g)
    if pages is not None:
        return FamilyClassification(MEMBER, BOOK, {"pages": pages}, "book")
    rep = recognize_d_family(g)
    if rep is not None:
        variant, m, n, p, q = rep
        params = {"variant": variant, "m": m, "n": n, "p": p, "q": q}
        if variant == "D" and (m, n, p, q) == (1, 1, 0, 0):
            return FamilyClassification(
                MEMBER, K33_MINUS_EDGE, params, "k33-minus-edge"
            )
        tag = _VARIANT_TAG[variant]
        if d_params_member(m, n, p, q):
            return FamilyClassification(MEMBER, tag, params, "two-block-params-admit")
        return FamilyClassification(
            NON_MEMBER, tag, params, "two-block-params-excluded"
        )
    return FamilyClassification(NON_MEMBER, None, None, "no-two-block-decomposition")


def classify_chordal(g: Graph) -> FamilyClassification:
    """Decision procedure for connected chordal graphs: members are exactly
    those of diameter at most 3, equivalently those with a dominating
    clique.  Both criteria are computed and must agree."""
    if not is_connected(g):
        raise InputError("classification requires a connected graph")
    if not is_chordal(g)[0]:
        raise InputError("graph is not chordal")
    diam = diameter(g)
    dominated = has_dominating_clique(g)
    if (diam <= 3) != dominated:
        raise RuntimeError(
            f"chordal criteria disagree on {to_graph6(g)}: "
            f"diameter {diam}, dominating clique {dominated}"
        )
    if dominated:
        return FamilyClassification(
            MEMBER, None, {"diameter": diam}, "dominating-clique"
        )
    return FamilyClassification(
        NON_MEMBER, None, {"diameter": diam}, "chordal-diameter-ge-4"
    )


def classify(g: Graph) -> FamilyClassification:
    """Dispatch: bipartite and chordal graphs are decided exactly; cycles and
    graphs with a universal vertex are members; the rest is undecided."""
    if not is_connected(g):
        raise InputError("classification requires a connected graph")
    if bipartition(g) is not None:
        return classify_bipartite(g)
    if is_chordal(g)[0]:
        return classify_chordal(g)
    if is_cycle_graph(g):
        return FamilyClassification(MEMBER, None, {"length": g.n}, "cycle")
    if any(g.degree(v) == g.n - 1 for v in range(g.n)):
        return FamilyClassification(MEMBER, None, None, "universal-vertex")
    return FamilyClassification(UNDECIDED, None, None, "outside-decided-families")
