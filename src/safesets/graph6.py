"""Reader and writer for the short-form graph6 encoding (orders 0..62).

The first byte is 63 + n.  The upper triangle of the adjacency matrix is then
laid out column by column ((0,1), (0,2), (1,2), (0,3), ...), packed six bits
per byte with zero padding, each byte offset by 63.  The long form for graphs
with more than 62 vertices is deliberately not supported.
"""

from __future__ import annotations

from .graph import Graph, InputError

_HEADER = ">>graph6<<"
_OFFSET = 63


def _triangle_pairs(n: int):
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (an optional >>graph6<< header is allowed)."""
    if not isinstance(text, str):
        raise InputError(f"graph6 must be a string, not {type(text).__name__}")
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise InputError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise InputError(f"non-ascii character at position {exc.start}") from exc
    for idx, byte in enumerate(data):
        if not _OFFSET <= byte <= 126:
            raise InputError(f"invalid graph6 byte {byte} at position {idx}")
    if data[0] == 126:
        raise InputError("graph6 long form (order > 62) is not supported")
    n = data[0] - _OFFSET
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 != need:
        raise InputError(
            f"graph6 payload for order {n} needs {need} bytes, got {len(data) - 1}"
        )
    bits = []
    for byte in data[1:]:
        value = byte - _OFFSET
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    rows = [0] * n
    for bit, (i, j) in zip(bits, _triangle_pairs(n)):
        if bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode a graph as a short-form graph6 string."""
    out = [g.n + _OFFSET]
    acc = 0
    filled = 0
    for i, j in _triangle_pairs(g.n):
        acc = acc << 1 | (g.adj[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(acc + _OFFSET)
            acc, filled = 0, 0
    if filled:
        out.append((acc << (6 - filled)) + _OFFSET)
    return bytes(out).decode("ascii")
