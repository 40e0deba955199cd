"""Exhaustive generation of small graphs up to isomorphism.

Graphs of order k are produced by attaching a new vertex to every graph of
order k - 1 (connected or not) in every possible way, deduplicating through
canonical forms.  Keeping disconnected intermediates makes the augmentation
complete: deleting any vertex of a connected graph may disconnect it.
"""

from __future__ import annotations

from functools import lru_cache

from .canon import canonical_form, from_canonical_form
from .graph import (
    Graph,
    InputError,
    bipartition,
    is_chordal,
    is_connected,
    is_triangle_free,
    iter_bits,
)

MAX_ENUM_ORDER = 8

# The three structural sweeps; campaigns use the same table.
SWEEP_FILTERS = {
    "bipartite": lambda g: bipartition(g) is not None,
    "chordal": lambda g: is_chordal(g)[0],
    "triangle-free": is_triangle_free,
}

_FILTERS = {"all": lambda g: True, **SWEEP_FILTERS}

FILTER_NAMES = tuple(_FILTERS)


@lru_cache(maxsize=None)
def enumerate_graph_forms(order: int) -> tuple[tuple[int, int], ...]:
    """Canonical forms of every graph of the given order, connected or not,
    in ascending form order."""
    if not 1 <= order <= MAX_ENUM_ORDER:
        raise InputError(f"order must be between 1 and {MAX_ENUM_ORDER}")
    if order == 1:
        return (canonical_form(Graph(1, (0,))),)
    new = order - 1
    found = set()
    for form in enumerate_graph_forms(order - 1):
        parent = from_canonical_form(form)
        base = list(parent.adj)
        for nb in range(1 << new):
            rows = base + [nb]
            for v in iter_bits(nb):
                rows[v] |= 1 << new
            found.add(canonical_form(Graph(order, tuple(rows))))
    return tuple(sorted(found))


def enumerate_connected_graphs(order: int, filter_name: str = "all") -> list[Graph]:
    """All connected graphs of the given order up to isomorphism, optionally
    restricted to a structural class, in a deterministic order."""
    if filter_name not in _FILTERS:
        raise InputError(
            f"unknown filter {filter_name!r}; expected one of {', '.join(FILTER_NAMES)}"
        )
    keep = _FILTERS[filter_name]
    out = []
    for form in enumerate_graph_forms(order):
        g = from_canonical_form(form)
        if is_connected(g) and keep(g):
            out.append(g)
    return out
