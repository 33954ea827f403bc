"""Cyclic edge connectivity by joining fundamental-cycle labels.

A cyclic edge cut is an edge set whose removal leaves at least two components
that each contain a cycle.

Labels: fix a BFS spanning tree. A non-tree edge gets its own bit, a tree edge
the bits of the non-tree edges whose fundamental cycle runs through it. The
labels of an edge set S XOR to 0 iff S meets every fundamental cycle in an
even number of edges. These cycles span the cycle space, whose orthogonal
complement is the cut space, so XOR 0 means S = delta(X) for a vertex set X.
With full-width labels no non-cut passes as a candidate.

Join: meet in the middle. The floor(c/2)-subsets go into a dict keyed by
their XOR; each ceil(c/2)-subset looks up its own XOR, and a pair counts only
when all of its first half comes first, so each zero-XOR c-set comes out once.

If K is a cyclic component of G - S, then delta(V(K)) lies in S and is itself
a cyclic cut, so every cyclic cut is a zero-XOR cyclic cut plus zero or more
edges. Candidates of both kinds are checked with ``_is_cyclic_cut``.

Graphs with no two vertex-disjoint cycles (e.g. K4) have no cyclic cut, so
``cyclic_edge_connectivity_at_least`` reports True for every k.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .multigraph import CubicGraph, GraphError, Multigraph


def cyclic_edge_connectivity_at_least(g: CubicGraph, k: int) -> bool:
    """True iff no edge cut of size < k separates two cycle-containing parts."""
    if not 2 <= k <= 6:
        raise GraphError(f"k={k} outside supported range 2..6")
    for _cut in cyclic_cuts_up_to(g.graph, k - 1):
        return False
    return True


def cyclic_cuts_up_to(g: Multigraph, max_size: int) -> Iterator[frozenset[int]]:
    """All cyclic edge cuts of size <= max_size, each reported once, in
    nondecreasing size. Raises GraphError at once on a disconnected graph."""
    if not g.is_connected():
        raise GraphError("cyclic edge connectivity needs a connected graph")
    return _cyclic_cuts(g, _cycle_labels(g), max_size)


def _cyclic_cuts(
    g: Multigraph, labels: list[int], max_size: int
) -> Iterator[frozenset[int]]:
    space_cuts: list[frozenset[int]] = []  # zero-XOR cyclic cuts of smaller sizes
    for size in range(1, max_size + 1):
        grown = {
            base.union(extra)
            for base in space_cuts
            for extra in combinations(set(range(g.m)) - base, size - len(base))
        }
        for cut in _zero_xor_sets(labels, size):
            grown.discard(cut)
            if _is_cyclic_cut(g, cut):
                space_cuts.append(cut)
                yield cut
        yield from (cut for cut in grown if _is_cyclic_cut(g, cut))


def _cycle_labels(g: Multigraph) -> list[int]:
    """Each edge's bitmask of the fundamental cycles (of a BFS tree) through it."""
    parent_edge = [-1] * g.n
    order = [0]
    for v in order:
        for e in g.incident_edges(v):
            w = g.other_end(e, v)
            if w != 0 and parent_edge[w] == -1:
                parent_edge[w] = e
                order.append(w)
    tree = set(parent_edge[1:])
    labels = [0] * g.m
    below = [0] * g.n  # XOR of the bits of the non-tree edges at each vertex
    for e, (a, b) in enumerate(g.edges):
        if e not in tree:
            labels[e] = 1 << e
            below[a] ^= labels[e]
            below[b] ^= labels[e]
    # A tree edge carries the bits of the non-tree edges with one end below it.
    for v in reversed(order[1:]):
        e = parent_edge[v]
        labels[e] = below[v]
        below[g.other_end(e, v)] ^= below[v]
    return labels


def _xor(labels: list[int], edges: Iterable[int]) -> int:
    x = 0
    for e in edges:
        x ^= labels[e]
    return x


def _zero_xor_sets(labels: list[int], size: int) -> Iterator[frozenset[int]]:
    """Every edge set of the given size whose labels XOR to 0, each once."""
    halves: dict[int, list[tuple[int, ...]]] = {}
    for first in combinations(range(len(labels)), size // 2):
        halves.setdefault(_xor(labels, first), []).append(first)
    for second in combinations(range(len(labels)), size - size // 2):
        for first in halves.get(_xor(labels, second), ()):
            if not first or first[-1] < second[0]:
                yield frozenset(first + second)


def _is_cyclic_cut(g: Multigraph, cut: frozenset[int]) -> bool:
    """Removal must leave >= 2 components that each contain a cycle."""
    comp = [-1] * g.n
    ncomp = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        comp[s] = ncomp
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for e in g.incident_edges(v):
                if e in cut:
                    continue
                w = g.other_end(e, v)
                if comp[w] == -1:
                    comp[w] = ncomp
                    frontier.append(w)
        ncomp += 1
    # A component has a cycle iff it keeps at least as many edges as vertices.
    surplus = [0] * ncomp
    for v in range(g.n):
        surplus[comp[v]] -= 1
    for e, (a, _b) in enumerate(g.edges):
        if e not in cut:
            surplus[comp[a]] += 1
    return sum(1 for x in surplus if x >= 0) >= 2
