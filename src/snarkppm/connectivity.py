"""Cyclic edge connectivity by joining fundamental-cycle labels.

A cyclic edge cut is an edge set whose removal leaves at least two components
that each contain a cycle. The search lists only the cyclic bonds: the edge
cuts delta(X) whose two sides are connected and each contain a cycle.
These are all that callers need: if K is a cyclic component of G - S for a
cyclic cut S, and L the component of G - V(K) that holds another cyclic
component, then delta(L) lies in S and is a cyclic bond, strictly smaller
than S if G - S has three or more components. So every cyclic cut contains
a cyclic bond, and a smallest cyclic cut is one.

Labels: fix a BFS spanning tree. A non-tree edge gets its own bit, a tree edge
the bits of the non-tree edges whose fundamental cycle runs through it. The
labels of an edge set S XOR to 0 iff S meets every fundamental cycle in an
even number of edges. These cycles span the cycle space, whose orthogonal
complement is the cut space, so XOR 0 means S = delta(X) for a vertex set X.
With full-width labels no non-cut passes as a candidate.

Join: meet in the middle, ordered (Horowitz & Sahni, JACM 1974). A c-set
splits into its floor(c/2) least edges, the first half, then a pivot edge i
and a tail of later edges. At each pivot the smaller group, first halves
before i or tails after it, is probed against a dict of the other, keyed by
XOR. The first halves are the fewer at the low pivots: these are taken in
descending order, with a dict of tails that grows as i falls; the others
in ascending order, with a dict of first halves that grows as i rises. So
every hit is a c-set with XOR 0, found once; a set is built only on a hit.
The lists of halves are built once for all sizes.

Leaf-vertex rule: let v have at least 2 edges in a zero-XOR c-set S and
at most one edge end outside it (a loop has two). Were S a cyclic bond
delta(A), v in A, then v would have an edge f in A, as A = {v} has no
cycle, and be a leaf of G[A]. A - v is then connected with A's cycles,
B + v connected with B's, and delta(A - v), S less v's edges plus f, a
cyclic bond of size at most c - 1. Such sets, the trivial cuts of a cubic
graph among them, are dropped in the join, unbuilt, at each size up to
that of the first bond found, below which there is none to lose.

Component count from the rank: the zero-XOR subsets of S are the cuts
delta(X) for X a union of components of G - S, 2^(c-1) of them for c
components, so c = |S| - rank(labels of S) + 1. A zero-XOR S that leaves
two components A and B is the bond delta(A): each edge of S has one end on
each side. ``_is_cyclic_bond`` floods the two sides in turns from the ends
of one edge of S until one side is used up, so the trivial cuts, around a
vertex, an edge or a path of two edges, cost a few steps; the other side's
vertex and edge counts follow by subtraction.

Graphs with no two vertex-disjoint cycles (e.g. K4, or the empty graph) have
no cyclic cut, so ``cyclic_edge_connectivity_at_least`` reports True for
every k.
"""

from __future__ import annotations

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
    """Every cyclic bond of size <= max_size, each reported once, in
    nondecreasing size: an edge cut delta(X) whose two sides are connected
    and each contain a cycle. Every cyclic cut contains a cyclic bond, so a
    smallest cyclic cut comes first. Raises GraphError at once for
    max_size above 6 or a disconnected graph.

    A set S with a vertex v that has 2 or more edges in S and one edge end
    (a loop has two) or none outside it is no smallest cyclic bond: v's
    side would be {v}, with no cycle, or delta(side - v) a smaller cyclic
    bond. So such sets are skipped until the first bond is found."""
    if max_size > 6:
        raise GraphError(f"max_size={max_size} above the supported 6")
    if not g.is_connected():
        raise GraphError("cyclic edge connectivity needs a connected graph")
    if g.n == 0:
        return iter(())
    return _cyclic_bonds(g, max_size)


def _cyclic_bonds(g: Multigraph, max_size: int) -> Iterator[frozenset[int]]:
    """The search of ``cyclic_cuts_up_to`` once its input is checked."""
    labels = _cycle_labels(g)
    heads: list[list] = [[(0, ())]]  # _xor_combos lists, shared by all sizes
    tails: list[list] = [[(0, ())]]
    full = [max(2, d - 1) for d in g.degrees()]  # cut edges that make a leaf
    distinct = len(set(labels)) == len(labels)
    found = False
    for size in range(1, max_size + 1):
        # One edge XORs to 0 only if its label is 0 (a bridge), and two
        # edges only if their labels are equal.
        if size == 1 and 0 not in labels or size == 2 and distinct:
            continue
        leaf = None if found else (g.edges, full)
        for cut in _zero_xor_sets(labels, size, heads, tails, leaf):
            if _is_cyclic_bond(g, labels, cut):
                found = True
                yield cut


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
    labels: list[int], size: int, heads: list[list], tails: list[list], leaf=None
) -> Iterator[frozenset[int]]:
    """Every edge set of the given size whose labels XOR to 0, each once.

    The set splits into a first half, its size // 2 least edges, and a
    second half: a pivot edge i and a tail of later edges. At pivot i there
    are comb(i, low) first halves and comb(last - i, rest) tails; the
    smaller group is probed against a dict of the other. The first halves
    are the fewer below some pivot ``turn``: those pivots are taken in
    descending order, and the tails that start after i enter the dict; the
    others in ascending order, and the first halves that end before i
    enter it. Either way every hit is a valid set. XORs are carried from
    prefix to combination (``_xor_combos``), and a set is built only on a
    hit. ``heads`` and ``tails`` hold the combination lists of the edges in
    ascending and in descending order, shared by all sizes. A hit that
    ``leaf``, (edge ends, full), drops by ``_has_leaf`` is never built."""
    low, rest = size // 2, size - size // 2 - 1
    last = len(labels) - 1
    firsts = _xor_combos(heads, labels, range(last + 1), low)
    ends = _xor_combos(tails, labels, range(last, -1, -1), rest)

    def before(i: int) -> int:  # first halves inside range(i)
        return comb(i, low)

    def after(i: int) -> int:  # tails inside range(i + 1, last + 1)
        return comb(last - i, rest)

    turn = 0
    while turn <= last and before(turn) < after(turn):
        turn += 1
    for pivots, stored, stored_at, probed, probed_at in (
        (range(turn - 1, -1, -1), ends, after, firsts, before),
        (range(turn, last + 1), firsts, before, ends, after),
    ):
        halves: dict[int, list[tuple[int, ...]]] = {}
        added = 0
        for i in pivots:
            for x, half in stored[added : stored_at(i)]:
                halves.setdefault(x, []).append(half)
            added = stored_at(i)
            label = labels[i]
            for x, half in probed[: probed_at(i)]:
                if x ^ label in halves:
                    for other in halves[x ^ label]:
                        cut = (*half, i, *other)
                        if not (leaf and _has_leaf(cut, *leaf)):
                            yield frozenset(cut)


def _has_leaf(cut: tuple[int, ...], ends: tuple, full: list[int]) -> bool:
    """Whether some vertex v is an end of full[v] edges of the cut: at
    least 2, and all of its edge ends but at most one."""
    hits: dict[int, int] = {}
    for e in cut:
        for v in ends[e]:
            k = hits[v] = hits.get(v, 0) + 1
            if k == full[v]:
                return True
    return False


def _xor_combos(
    lists: list[list[tuple[int, tuple[int, ...]]]],
    labels: list[int],
    order: range,
    r: int,
) -> list[tuple[int, tuple[int, ...]]]:
    """(XOR of labels, edge ids) of every r-set of the edges in ``order``,
    in colex order by place in it (by last edge, then by the rest), so the
    sets of its first j edges come first, comb(j, r) of them. ``lists``
    caches them by r, from [[(0, ())]] on; each XOR is carried from the
    set's prefix."""
    while len(lists) <= r:
        k = len(lists) - 1
        lists.append(
            [
                (x ^ labels[e], (*c, e))
                for j, e in enumerate(order)
                for x, c in lists[k][: comb(j, k)]
            ]
        )
    return lists[r]


def _components(labels: list[int], cut: frozenset[int]) -> int:
    """The number of components of G - cut: len(cut) - rank + 1, the rank
    being that of the cut's labels."""
    basis: list[int] = []
    for e in cut:
        x = labels[e]
        for b in basis:
            if x ^ b < x:  # x has b's leading bit
                x ^= b
        if x:
            basis.append(x)
    return len(cut) - len(basis) + 1


def _is_cyclic_bond(g: Multigraph, labels: list[int], cut: frozenset[int]) -> bool:
    """Whether a cut whose labels XOR to 0, as the join finds, is a cyclic bond.

    Such a cut is delta(X); it is a bond iff the rank says G - cut has two
    components A and B. Then it is delta(A), so each cut edge has one end
    in A and one in B. The two sides are flooded in turns from the ends of
    one cut edge until one of them is used up; its vertex and edge counts
    say whether it has a cycle, and the other side's follow by subtraction.
    """
    if _components(labels, cut) != 2:
        return False
    edges, incident = g.edges, g.incident_edges
    ends = edges[next(iter(cut))]
    seen = set(ends)
    stacks = ([ends[0]], [ends[1]])
    sizes, degrees = [0, 0], [0, 0]
    side = 0
    while stack := stacks[side]:
        v = stack.pop()
        sizes[side] += 1
        for e in incident(v):
            if e in cut:
                continue
            a, b = edges[e]
            if a == b:
                degrees[side] += 2
                continue
            degrees[side] += 1
            w = b if a == v else a
            if w not in seen:
                seen.add(w)
                stack.append(w)
        side ^= 1
    size, kept = sizes[side], degrees[side] // 2
    return kept >= size and g.m - len(cut) - kept >= g.n - size

