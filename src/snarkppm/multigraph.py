"""Core multigraph, cubic graph and cycle types.

Graphs are immutable after construction: vertex count plus an ordered edge
list. Loops and parallel edges are allowed; edge indices are stable and all
operations that modify a graph return a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

VERTEX_CAP = 128


class GraphError(ValueError):
    """Structural problem with a graph or graph argument."""


class Multigraph:
    """Undirected multigraph: ``n`` vertices, ordered list of endpoint pairs.

    Edge ``i`` is ``edges[i] = (a, b)``; loops are ``(a, a)``. Vertices are
    ``0..n-1``.
    """

    __slots__ = ("n", "edges", "_incident", "_adj_mask", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if n > VERTEX_CAP:
            raise GraphError(f"vertex count {n} exceeds cap {VERTEX_CAP}")
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(a), int(b)) for a, b in edges
        )
        incident: list[list[int]] = [[] for _ in range(n)]
        mask = [0] * n
        for i, (a, b) in enumerate(self.edges):
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge {i} = ({a},{b}) has endpoint outside 0..{n - 1}")
            incident[a].append(i)
            if b != a:
                incident[b].append(i)
                mask[a] |= 1 << b
                mask[b] |= 1 << a
        self._incident: tuple[tuple[int, ...], ...] = tuple(map(tuple, incident))
        self._adj_mask: tuple[int, ...] = tuple(mask)
        self._connected: bool | None = None  # set by the first is_connected()

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Loops count twice."""
        d = 0
        for i in self._incident[v]:
            a, b = self.edges[i]
            d += 2 if a == b else 1
        return d

    def degrees(self) -> list[int]:
        return [self.degree(v) for v in range(self.n)]

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edge indices touching v (a loop appears once)."""
        return self._incident[v]

    def adjacency_mask(self, v: int) -> int:
        """Bitmask of neighbours of v, ignoring loops and multiplicity."""
        return self._adj_mask[v]

    def neighbors(self, v: int) -> list[int]:
        out = []
        mask = self._adj_mask[v]
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def other_end(self, edge: int, v: int) -> int:
        a, b = self.edges[edge]
        if v == a:
            return b
        if v == b:
            return a
        raise GraphError(f"vertex {v} not an endpoint of edge {edge}")

    def edge_between(self, a: int, b: int) -> int | None:
        """Index of some edge joining a and b, or None."""
        for i in self._incident[a]:
            x, y = self.edges[i]
            if (x, y) == (a, b) or (x, y) == (b, a):
                return i
        return None

    def has_edge(self, a: int, b: int) -> bool:
        return self.edge_between(a, b) is not None

    # -- structure predicates ----------------------------------------------

    def is_simple(self) -> bool:
        seen = set()
        for a, b in self.edges:
            if a == b:
                return False
            key = (a, b) if a < b else (b, a)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_connected(self) -> bool:
        """Flooded once per graph; the graph is immutable, so the answer is
        kept."""
        if self._connected is None:
            adj = self._adj_mask
            seen = frontier = 1 if self.n else 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                fresh = adj[low.bit_length() - 1] & ~seen
                seen |= fresh
                frontier |= fresh
            self._connected = seen == (1 << self.n) - 1
        return self._connected

    def connected_components(self) -> list[list[int]]:
        comp = [-1] * self.n
        comps: list[list[int]] = []
        for s in range(self.n):
            if comp[s] >= 0:
                continue
            cid = len(comps)
            comp[s] = cid
            group = [s]
            frontier = [s]
            while frontier:
                v = frontier.pop()
                for i in self._incident[v]:
                    w = self.other_end(i, v)
                    if comp[w] < 0:
                        comp[w] = cid
                        group.append(w)
                        frontier.append(w)
            comps.append(sorted(group))
        return comps

    # -- derived graphs ------------------------------------------------------

    def without_edges(self, drop: Iterable[int]) -> "Multigraph":
        """Fresh graph with the given edge indices removed (others keep order)."""
        dropset = set(drop)
        return Multigraph(
            self.n, [e for i, e in enumerate(self.edges) if i not in dropset]
        )

    def relabeled(self, perm: Sequence[int]) -> "Multigraph":
        """Apply vertex permutation: new label of v is perm[v]."""
        return Multigraph(self.n, [(perm[a], perm[b]) for a, b in self.edges])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


class CubicGraph:
    """A 3-regular multigraph, optionally certified simple."""

    __slots__ = ("graph", "simple")

    def __init__(self, graph: Multigraph, require_simple: bool = False):
        for v in range(graph.n):
            d = graph.degree(v)
            if d != 3:
                raise GraphError(f"vertex {v} has degree {d}, expected 3")
        self.graph = graph
        self.simple = graph.is_simple()
        if require_simple and not self.simple:
            raise GraphError("graph has loops or parallel edges")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def __repr__(self) -> str:
        return f"CubicGraph(n={self.n}, simple={self.simple})"


def cubic(n: int, edges: Iterable[tuple[int, int]]) -> CubicGraph:
    return CubicGraph(Multigraph(n, edges))


# -- cycles ------------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    """Closed walk: ``edges[i]`` joins ``vertices[i]`` and ``vertices[i+1]``."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    def edge_set(self) -> frozenset[int]:
        return frozenset(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def check_cycle(g: Multigraph, c: Cycle) -> None:
    k = len(c.vertices)
    if k < 1 or len(c.edges) != k:
        raise GraphError(f"cycle has {k} vertices and {len(c.edges)} edges")
    if len(set(c.vertices)) != k:
        raise GraphError("cycle repeats a vertex")
    if len(set(c.edges)) != k:
        raise GraphError("cycle repeats an edge")
    if k == 1:
        a, b = g.edges[c.edges[0]]
        if a != b or a != c.vertices[0]:
            raise GraphError("length-1 cycle must be a loop at its vertex")
        return
    for i in range(k):
        a, b = c.vertices[i], c.vertices[(i + 1) % k]
        x, y = g.edges[c.edges[i]]
        if {a, b} != {x, y}:
            raise GraphError(f"cycle edge {c.edges[i]} does not join {a},{b}")


def girth(g: Multigraph) -> int:
    """Length of a shortest cycle (a loop is 1, parallel edges 2); n + 1 if
    there is none.

    On a simple graph, a breadth-first search from each vertex s, one layer
    of neighbour bitmasks at a time. An edge inside layer d closes a cycle
    of length at most 2d + 1, and a vertex of layer d + 1 reached from two
    vertices of layer d one of length at most 2d + 2; a shortest cycle is
    found exactly from each of its vertices. The search from s stops at the
    first layer d with 2d + 1 >= best.
    """
    if any(a == b for a, b in g.edges):
        return 1
    if not g.is_simple():
        return 2
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    best = g.n + 1
    for s in range(g.n):
        seen = layer = 1 << s
        depth = 0
        while layer and 2 * depth + 1 < best:
            nxt = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nbrs = adj[low.bit_length() - 1]
                if nbrs & layer:
                    best = 2 * depth + 1
                fresh = nbrs & ~seen
                if fresh & nxt and 2 * depth + 2 < best:
                    best = 2 * depth + 2
                nxt |= fresh
            seen |= nxt
            layer = nxt
            depth += 1
    return best


def is_dominating(g: CubicGraph, cycle_vertices: set[int]) -> bool:
    for a, b in g.graph.edges:
        if a not in cycle_vertices and b not in cycle_vertices:
            return False
    return True


# -- plain-text edge-list format -------------------------------------------
#
# First line "n m", then m lines "a b" (0-based ids, loops as "a a"). This is
# the interchange format for multigraphs; graph6 covers the simple case.


def parse_edge_list(text: str) -> Multigraph:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty edge-list input")
    n, m = _int_pair(lines[0], f"bad header line {lines[0]!r}, expected 'n m'")
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(lines) - 1}")
    return Multigraph(n, [_int_pair(ln, f"bad edge line {ln!r}") for ln in lines[1:]])


def _int_pair(line: str, error: str) -> tuple[int, int]:
    """The two integers of a line; GraphError(error) if it holds other than two."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise GraphError(error) from None
    return a, b


def write_edge_list(g: Multigraph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(out) + "\n"
