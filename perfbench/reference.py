"""An exhaustive safe-set check written apart from the library.

It shares no code with ``safesets``: a graph is an order and an edge list, a
vertex set a bitmask.  ``optimality_faults`` proves a claimed pair of optima
(s, cs) exact: each witness is checked safe (the cs one also connected) at
its claimed weight, and a scan of every lighter vertex set finds no safe set
below s and no connected safe set below cs.  The scan is 2^n masks, so it
is meant for a sample of the instances, outside any timed region.

A vertex set S is safe when every component C of G[S] weighs at least each
component D of G - S adjacent to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

CHUNK = 8  # bits per lookup table


class _Instance:
    def __init__(self, n: int, edges, weights) -> None:
        adjacency = [0] * n
        for u, v in edges:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
        weights = [Fraction(x) for x in weights]
        scale = lcm(*(x.denominator for x in weights))
        ints = [int(x * scale) for x in weights]
        self.scale = scale
        self.full = (1 << n) - 1
        # Per chunk of CHUNK vertices: byte -> union of neighbourhoods, and
        # byte -> total weight.
        self.nbr_tables, self.weight_tables = [], []
        for base in range(0, n, CHUNK):
            verts = range(base, min(base + CHUNK, n))
            nbr, wt = [0] * (1 << CHUNK), [0] * (1 << CHUNK)
            for byte in range(1, 1 << CHUNK):
                low = (byte & -byte).bit_length() - 1
                rest = byte & (byte - 1)
                if low < len(verts):
                    nbr[byte] = nbr[rest] | adjacency[base + low]
                    wt[byte] = wt[rest] + ints[base + low]
                else:
                    nbr[byte], wt[byte] = nbr[rest], wt[rest]
            self.nbr_tables.append(nbr)
            self.weight_tables.append(wt)

    def neighbours(self, mask: int) -> int:
        out = 0
        for table in self.nbr_tables:
            out |= table[mask & 0xFF]
            mask >>= CHUNK
        return out

    def weight(self, mask: int) -> int:
        out = 0
        for table in self.weight_tables:
            out += table[mask & 0xFF]
            mask >>= CHUNK
        return out

    def components(self, mask: int) -> list[int]:
        comps = []
        while mask:
            comp = mask & -mask
            while True:
                grown = (self.neighbours(comp) | comp) & mask
                if grown == comp:
                    break
                comp = grown
            comps.append(comp)
            mask ^= comp
        return comps

    def is_safe(self, mask: int, inside=None) -> bool:
        inside = self.components(mask) if inside is None else inside
        for outer in self.components(self.full ^ mask):
            heavy, touching = self.weight(outer), self.neighbours(outer)
            if any(c & touching and self.weight(c) < heavy for c in inside):
                return False
        return True


def optimality_faults(n, edges, weights, s, s_witness, cs, cs_witness) -> list[str]:
    """Faults in the claim that s and cs (Fractions) are the least weights
    of a safe and of a connected safe set, with the given witness masks."""
    inst = _Instance(n, edges, weights)
    faults = []
    for label, optimum, witness, connected in (
        ("s", s, s_witness, False), ("cs", cs, cs_witness, True),
    ):
        if not 0 < witness <= inst.full or not inst.is_safe(witness):
            faults.append(f"{label} witness is not safe (exhaustive check)")
        elif connected and len(inst.components(witness)) != 1:
            faults.append(f"{label} witness is not connected (exhaustive check)")
        if Fraction(inst.weight(witness), inst.scale) != optimum:
            faults.append(f"{label} witness does not weigh the optimum (exhaustive check)")
    if faults:
        return faults
    s_cap, cs_cap = s * inst.scale, cs * inst.scale
    for mask in range(1, inst.full + 1):
        weight = inst.weight(mask)
        if weight >= cs_cap:
            continue
        inside = inst.components(mask)
        if weight >= s_cap and len(inside) != 1:
            continue
        if inst.is_safe(mask, inside):
            kind = "s" if weight < s_cap else "cs"
            return [f"a safe set of weight {Fraction(weight, inst.scale)} "
                    f"undercuts the reported {kind} optimum"]
    return []
