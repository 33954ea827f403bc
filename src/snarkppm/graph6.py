"""graph6 encoding for simple graphs (one graph per line).

Implements the standard format: N(n) followed by the upper triangle of the
adjacency matrix packed 6 bits per printable byte (offset 63). Parsing
accepts an optional ``>>graph6<<`` header; writing emits none.
"""

from __future__ import annotations

from .multigraph import GraphError, Multigraph, VERTEX_CAP

_HEADER = ">>graph6<<"


class Graph6Error(GraphError):
    """Malformed graph6 input; message names the offending byte offset."""


def parse_graph6(line: str, cap: int = VERTEX_CAP) -> Multigraph:
    """Decode one graph6 line into a Multigraph.

    Edges come out in row-major upper-triangle order: (0,1), (0,2), ...,
    (0,n-1), (1,2), ... so the edge numbering is deterministic.
    """
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 line (byte offset 0)")
    data = s.encode("ascii", errors="strict") if _is_ascii(s) else None
    if data is None:
        raise Graph6Error("non-ASCII byte in graph6 line (byte offset 0)")
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise Graph6Error(f"invalid graph6 byte {byte} at byte offset {off}")

    n, pos = _decode_n(data)
    if n > cap:
        raise Graph6Error(
            f"vertex count {n} exceeds cap {cap} (header ends at byte offset {pos})"
        )

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, found {len(data) - pos}"
            f" (data starts at byte offset {pos})"
        )

    bits = 0
    for byte in data[pos:]:
        bits = (bits << 6) | (byte - 63)
    pad = nbytes * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error(f"nonzero padding bits at byte offset {len(data) - 1}")
    bits >>= pad

    # Bit k (from the top) is entry (i, j) of the upper triangle in
    # column-major order: j = 1..n-1, i = 0..j-1.
    adj = [[False] * n for _ in range(n)]
    k = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> k) & 1:
                adj[i][j] = True
            k -= 1

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i][j]:
                edges.append((i, j))
    return Multigraph(n, edges)


def write_graph6(g: Multigraph) -> str:
    """Encode a simple graph as a canonical (headerless) graph6 line."""
    if not g.is_simple():
        raise GraphError("graph6 cannot encode loops or parallel edges")
    n = g.n
    out = _encode_n(n)
    bits = 0
    nbits = n * (n - 1) // 2
    k = nbits - 1
    for j in range(1, n):
        mask_j = g.adjacency_mask(j)
        for i in range(j):
            if mask_j >> i & 1:
                bits |= 1 << k
            k -= 1
    nbytes = (nbits + 5) // 6
    bits <<= nbytes * 6 - nbits
    for shift in range(6 * (nbytes - 1), -1, -6):
        out.append(((bits >> shift) & 63) + 63)
    return bytes(out).decode("ascii")


def _is_ascii(s: str) -> bool:
    try:
        s.encode("ascii")
        return True
    except UnicodeEncodeError:
        return False


def _decode_n(data: bytes) -> tuple[int, int]:
    if data[0] != 126:
        return data[0] - 63, 1
    # '~' prefix: 3-byte count; '~~' (8-byte) exceeds the cap anyway.
    if len(data) >= 2 and data[1] == 126:
        raise Graph6Error("8-byte vertex count exceeds cap (byte offset 1)")
    if len(data) < 4:
        raise Graph6Error(f"truncated 3-byte vertex count (line has {len(data)} bytes)")
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return n, 4


def _encode_n(n: int) -> bytearray:
    if n <= 62:
        return bytearray([n + 63])
    return bytearray([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
