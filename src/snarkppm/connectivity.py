"""Cyclic edge connectivity by joining fundamental-cycle labels.

A cyclic edge cut is an edge set whose removal leaves at least two components
that each contain a cycle.

Labels: fix a BFS spanning tree. A non-tree edge gets its own bit, a tree edge
the bits of the non-tree edges whose fundamental cycle runs through it. The
labels of an edge set S XOR to 0 iff S meets every fundamental cycle in an
even number of edges. These cycles span the cycle space, whose orthogonal
complement is the cut space, so XOR 0 means S = delta(X) for a vertex set X.
With full-width labels no non-cut passes as a candidate.

Join: meet in the middle, ordered. A c-set splits into its floor(c/2) least
edges and the rest. The second halves are taken by their least edge i, in
ascending order, and each one's XOR is looked up in a dict of first halves
keyed by XOR. A first half enters the dict just before the first i above
its last edge, so every hit is a c-set with XOR 0, found once; a set is
built only on a hit. The lists of halves are built once for all sizes.

If K is a cyclic component of G - S, then delta(V(K)) lies in S and is itself
a cyclic cut, so every cyclic cut is a zero-XOR cyclic cut plus zero or more
edges. Candidates of both kinds are checked with ``_is_cyclic_cut``.

Component count from the rank: the zero-XOR subsets of S are the cuts
delta(X) for X a union of components of G - S, 2^(c-1) of them for c
components, so c = |S| - rank(labels of S) + 1. With c known, a class of cut
ends (joined by non-cut edges) with no non-cut edge to any other vertex is a
whole component, counted on the spot; the other components are flooded one
at a time until one is left, and its vertex and edge counts follow by
subtraction. So the trivial cuts, around a vertex, an edge or a path of two
edges, are decided without a flood over the rest of the graph.

Graphs with no two vertex-disjoint cycles (e.g. K4, or the empty graph) have
no cyclic cut, so ``cyclic_edge_connectivity_at_least`` reports True for
every k.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator

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
    if g.n == 0:
        return iter(())
    return _cyclic_cuts(g, _cycle_labels(g), max_size)


def _cyclic_cuts(
    g: Multigraph, labels: list[int], max_size: int
) -> Iterator[frozenset[int]]:
    heads: list[list] = [[(0, ())]]  # _xor_combos lists, shared by all sizes
    tails: list[list] = [[(0, ())]]
    space_cuts: list[frozenset[int]] = []  # zero-XOR cyclic cuts of smaller sizes
    for size in range(1, max_size + 1):
        grown = {
            base.union(extra)
            for base in space_cuts
            for extra in combinations(set(range(g.m)) - base, size - len(base))
        }
        for cut in _zero_xor_sets(labels, size, heads, tails):
            grown.discard(cut)
            if _is_cyclic_cut(g, labels, cut):
                space_cuts.append(cut)
                yield cut
        yield from (cut for cut in grown if _is_cyclic_cut(g, labels, cut))


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


def _zero_xor_sets(
    labels: list[int], size: int, heads: list[list], tails: list[list]
) -> Iterator[frozenset[int]]:
    """Every edge set of the given size whose labels XOR to 0, each once.

    The set splits into a first half, its size // 2 least edges, and a
    second half: an edge i and a tail of later edges. For i ascending, the
    first halves that end before i enter the dict, so every hit is a valid
    set. XORs are carried from prefix to combination (``_xor_combos``), and
    a set is built only on a hit. ``heads`` and ``tails`` hold the
    combination lists of the edges and of the reversed edges, shared by all
    sizes. The dict is built again for each size: a full one from an
    earlier size would also hit on first halves that overlap the tail."""
    low, rest = size // 2, size - size // 2 - 1
    last = len(labels) - 1
    firsts = _xor_combos(heads, labels, low)
    # Tails over the reversed edge list: edge last - e for each entry e, so
    # the tails that start after i are the first comb(last - i, rest).
    ends = _xor_combos(tails, labels[::-1], rest)
    halves: dict[int, list[tuple[int, ...]]] = {}
    added = 0
    for i, label in enumerate(labels):
        for x, first in firsts[added : comb(i, low)]:
            halves.setdefault(x, []).append(first)
        added = comb(i, low)
        for x, tail in ends[: comb(last - i, rest)]:
            if x ^ label in halves:
                for first in halves[x ^ label]:
                    yield frozenset((*first, i, *(last - e for e in tail)))


def _xor_combos(
    lists: list[list[tuple[int, tuple[int, ...]]]], labels: list[int], r: int
) -> list[tuple[int, tuple[int, ...]]]:
    """(XOR of labels, edge ids) of every r-set of edges, in colex order (by
    last edge, then by the rest), so the sets inside range(j) come first,
    comb(j, r) of them. ``lists`` caches them by r, from [[(0, ())]] on;
    each XOR is carried from the set's prefix."""
    while len(lists) <= r:
        k = len(lists) - 1
        lists.append(
            [
                (x ^ label, (*c, e))
                for e, label in enumerate(labels)
                for x, c in lists[k][: comb(e, k)]
            ]
        )
    return lists[r]


def _is_cyclic_cut(g: Multigraph, labels: list[int], cut: frozenset[int]) -> bool:
    """Removal must leave >= 2 components that each contain a cycle.

    A component has a cycle iff it keeps at least as many edges as
    vertices. G - cut has len(cut) - rank + 1 components, the rank being
    that of the cut's labels. A class of cut ends, joined by the non-cut
    edges among them, that has no non-cut edge to any other vertex is a
    whole component, counted on the spot. The components at the other cut
    ends are flooded one by one while more than one is left; the last one's
    counts follow by subtraction.
    """
    basis: list[int] = []
    for e in cut:
        x = labels[e]
        for b in basis:
            if x ^ b < x:  # x has b's leading bit
                x ^= b
        if x:
            basis.append(x)
    left = len(cut) - len(basis) + 1  # components not counted yet
    if left < 2:
        return False
    vertices, kept = g.n, g.m - len(cut)  # in the components not counted yet
    cyclic = 0
    ends = {v for e in cut for v in g.edges[e]}
    open_ends = []
    seen: set[int] = set()
    for s in ends:
        if s not in seen:
            size, degree, closed = _flood(g, cut, s, seen, ends)
            if not closed:
                open_ends.append(s)
                continue
            cyclic += degree >= 2 * size
            vertices -= size
            kept -= degree // 2
            left -= 1
    seen = set()
    for s in open_ends:
        if left < 2 or cyclic >= 2:
            break
        if s not in seen:
            size, degree, _ = _flood(g, cut, s, seen, None)
            cyclic += degree >= 2 * size
            vertices -= size
            kept -= degree // 2
            left -= 1
    if left == 1:
        cyclic += kept >= vertices
    return cyclic >= 2


def _flood(
    g: Multigraph, cut: frozenset[int], s: int, seen: set[int], within: set[int] | None
) -> tuple[int, int, bool]:
    """Flood G - cut from s, marking seen and, if within is given, not
    leaving it. Returns the number of vertices reached, the sum of their
    degrees in G - cut (a loop counts twice) and whether no edge of G - cut
    leads outside within."""
    edges, incident = g.edges, g.incident_edges
    seen.add(s)
    stack = [s]
    size = degree = 0
    closed = True
    while stack:
        v = stack.pop()
        size += 1
        for e in incident(v):
            if e in cut:
                continue
            a, b = edges[e]
            if a == b:
                degree += 2
                continue
            degree += 1
            w = b if a == v else a
            if within is not None and w not in within:
                closed = False
            elif w not in seen:
                seen.add(w)
                stack.append(w)
    return size, degree, closed
