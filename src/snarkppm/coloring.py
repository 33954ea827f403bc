"""Proper 3-edge-coloring search for cubic graphs, and the snark predicate."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .connectivity import cyclic_cuts_up_to, cyclic_edge_connectivity_at_least
from .multigraph import CubicGraph, GraphError, Multigraph


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring with colors from {1, 2, 3}."""

    color_of: dict[int, int]


def coloring_is_proper(g: Multigraph, coloring: EdgeColoring) -> bool:
    col = coloring.color_of
    if set(col) != set(range(g.m)):
        return False
    if any(c not in (1, 2, 3) for c in col.values()):
        return False
    for v in range(g.n):
        seen = set()
        for e in g.incident_edges(v):
            a, b = g.edges[e]
            if a == b:
                return False  # a loop is adjacent to itself
            if col[e] in seen:
                return False
            seen.add(col[e])
    return True


# Branching nodes the direct search may spend before the 4-cut reduction.
# Over 300 relabelings each (as the benchmark relabels), Petersen, B18, J6,
# J7 and J8 need at most 69; over 60, the criterion-7 star of Petersen
# needs 59-69 and those of the Blanusa snarks 501-4655.
_NODE_BUDGET = 128
# The largest side of a cyclic 4-cut that is replaced; the Blanusa blocks
# that the star construction puts at the crossings have 8 vertices.
_SIDE_MAX = 12

# The boundary types of a 4-pole, as the color bits of its four dangling
# edges in edge-id order.
_TYPES = {
    "aaaa": (1, 1, 1, 1),
    "aabb": (1, 1, 2, 2),
    "abab": (1, 2, 1, 2),
    "abba": (1, 2, 2, 1),
}
# The two pairs of dangling edges that each other type colors alike.
_PAIRS = {"aabb": ((0, 1), (2, 3)), "abab": ((0, 2), (1, 3)), "abba": ((0, 3), (1, 2))}


def find_3_edge_coloring(g: CubicGraph) -> EdgeColoring | None:
    """Exhaustive search for a proper 3-edge-coloring; None if there is none.

    The direct search (``_search``) runs first, under a budget of
    ``_NODE_BUDGET`` branching nodes. A graph that needs more is reduced at
    its cyclic 4-cuts (``_reduce``). A small side of such a cut is a 4-pole,
    and by the Parity Lemma (Isaacs 1975) its four dangling edges show the
    colors of one of the types aaaa, aabb, abab and abba. The side's color
    set, the types that its colorings show, comes from four searches with
    fixed boundary colors. Replacing the side by a smaller 4-pole with the
    same color set keeps colorability (Nedela & Skoviera, "Decompositions
    and reductions of snarks", JGT 1996): two edges realise {aaaa, p}, a
    dipole realises two types without aaaa, and an empty color set means
    there is no coloring. The reduced graph is searched to the end; a
    coloring of it is lifted back by a search on each replaced side with
    its boundary colors fixed, in reverse order. If no side reduces, the
    direct search runs again without a budget.
    """
    mg = g.graph
    if mg.m == 0:
        return EdgeColoring({})
    if any(a == b for a, b in mg.edges):
        return None
    try:
        bits = _search(mg, _symmetry_break(mg), _NODE_BUDGET)
    except _OutOfBudget:
        bits = _reduce(mg)
    if bits is None:
        return None
    return EdgeColoring({e: b.bit_length() for e, b in enumerate(bits)})


class _OutOfBudget(Exception):
    """The direct search used up its node budget."""


def _symmetry_break(mg: Multigraph) -> list[tuple[int, int]]:
    """The three edges at vertex 0 take colors 1, 2, 3."""
    return list(zip(sorted(mg.incident_edges(0)), (1, 2, 4)))


def _search(
    mg: Multigraph, fixed: list[tuple[int, int]], budget: float = math.inf
) -> list[int] | None:
    """Backtracking search for a proper coloring that gives each edge in
    ``fixed`` its color bit (1, 2 or 4). Returns the color bit of every
    edge, or None; raises ``_OutOfBudget`` after ``budget`` branching nodes.

    Edge sets are int bitmasks and each edge keeps a 3-bit mask of the
    colors it may still take. Coloring an edge removes its color from the
    edges that share a vertex with it (forward checking), and an edge left
    with one color is colored at once. At a vertex of degree 3 none of whose
    edges is colored yet, the three edges must take all three colors: a
    color none of them can take is a wipeout, and a color only one of them
    can take is forced onto it. A forced edge is colored at once; any other
    edge loses a color only at the end it shares with a colored edge, so
    only its far end needs the vertex check. Vertices of other degrees (the
    far ends of a 4-pole's dangling edges) get no vertex check.

    The search branches on the least-indexed edge among those with two
    colors left, or with three if none has two. So its time depends on the
    edge labels, which is why ``find_3_edge_coloring`` gives it a budget.
    """
    m = mg.m
    at = [mg.incident_edges(v) for v in range(mg.n)]
    nbmask = [0] * m
    for inc in at:
        for e in inc:
            for f in inc:
                if f != e:
                    nbmask[e] |= 1 << f
    # touch[f]: for each edge h sharing a vertex with f, the tuple (h, bit
    # of h, mask and tuple of the edges at h's far end from f); the mask is
    # 0 when h is parallel to f and so has no far end, or when the far end
    # does not have degree 3.
    touch: list[list[tuple[int, int, int, tuple[int, ...]]]] = []
    for f in range(m):
        ends = mg.edges[f]
        row = []
        rest = nbmask[f]
        while rest:
            hb = rest & -rest
            rest ^= hb
            h = hb.bit_length() - 1
            a, b = mg.edges[h]
            far = () if a in ends and b in ends else at[b if a in ends else a]
            if len(far) == 3:
                row.append((h, hb, sum(1 << x for x in far), far))
            else:
                row.append((h, hb, 0, ()))
        touch.append(row)

    avail = [0b111] * m  # bit k set: color k + 1 still possible
    color = [0] * m  # the color bit of a colored edge, else 0
    unc = (1 << m) - 1  # uncolored edges
    two = 0  # uncolored edges with exactly two colors left
    nodes = 0

    def force_vertex(
        inc: tuple[int, ...], trail: list[tuple[int, int]], queue: list[tuple[int, int]]
    ) -> bool:
        """The vertex rule at a vertex whose edges are all uncolored."""
        nonlocal two
        x, y, z = inc
        a, b, c = avail[x], avail[y], avail[z]
        if a | b | c != 0b111:
            return False
        only = (a ^ b ^ c) & ~(a & b & c)
        if only:
            for h, opts in ((x, a), (y, b), (z, c)):
                k = only & opts
                if k:
                    if k & (k - 1):
                        return False
                    if k != opts:
                        avail[h] = k
                        trail.append((h, opts ^ k))
                        two &= ~(1 << h)
                        queue.append((h, k))
        return True

    def assign(e: int, bit: int, trail: list[tuple[int, int]]) -> bool:
        """Color e and propagate; False on wipeout."""
        nonlocal unc, two
        queue = [(e, bit)]
        while queue:
            f, bit = queue.pop()
            if color[f]:
                if color[f] != bit:
                    return False
                continue
            if not avail[f] & bit:
                return False
            color[f] = bit
            trail.append((f, 0))
            fb = 1 << f
            unc ^= fb
            two &= ~fb
            for h, hb, farmask, far in touch[f]:
                if unc & hb and avail[h] & bit:
                    left = avail[h] ^ bit
                    avail[h] = left
                    trail.append((h, bit))
                    if left & (left - 1):
                        two |= hb
                        if farmask and unc & farmask == farmask:
                            if not force_vertex(far, trail, queue):
                                return False
                    elif left:
                        two &= ~hb
                        queue.append((h, left))
                    else:
                        return False
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for f, bits in reversed(trail):
            if bits:
                avail[f] |= bits
            else:
                color[f] = 0

    def solve() -> bool:
        nonlocal unc, two, nodes
        if not unc:
            return True
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        # Propagation leaves no uncolored edge with one color, so this is
        # the edge with fewest colors left, ties by index.
        pick = two or unc
        e = (pick & -pick).bit_length() - 1
        opts = avail[e]
        saved_unc, saved_two = unc, two
        while opts:
            bit = opts & -opts
            opts ^= bit
            trail: list[tuple[int, int]] = []
            if assign(e, bit, trail) and solve():
                return True
            undo(trail)
            unc, two = saved_unc, saved_two
        return False

    try:
        trail0: list[tuple[int, int]] = []
        for e, bit in fixed:
            if not assign(e, bit, trail0):
                return None
        return color if solve() else None
    finally:
        del solve  # the closure refers to itself: free it without the GC


def _reduce(mg: Multigraph) -> list[int] | None:
    """Color mg by replacing small sides of its cyclic 4-cuts (see
    ``find_3_edge_coloring``): the color bit of every edge, or None.

    The sides are replaced one by one in the current graph, an edge-id map
    to ends. A two-edge gadget keeps the id of the first dangling edge of
    each pair for the joined edge; a dipole keeps the four dangling edges
    and adds its two vertices and its middle edge under new ids, which the
    lift leaves behind."""
    ends = dict(enumerate(mg.edges))
    n, m = mg.n, mg.m  # the next free vertex and edge ids
    # (pole, internal ids, dangling ids, the pairs a two-edge gadget joined)
    done: list[tuple[Multigraph, list[int], list[int], tuple]] = []
    for side in _small_sides(mg):
        pole, internal, boundary = _pole(ends, side)
        if len(boundary) != 4:
            continue  # an earlier gadget joined two of its dangling edges
        kinds = _color_set(pole)
        if not kinds:
            return None
        outer = [ends[e][0] if ends[e][1] in side else ends[e][1] for e in boundary]
        if len(kinds) == 2 and "aaaa" in kinds:
            (p,) = kinds - {"aaaa"}
            joined = _PAIRS[p]
            for x, y in joined:
                ends[boundary[x]] = (outer[x], outer[y])
                del ends[boundary[y]]
        elif len(kinds) == 2:
            # The dipole's two ends at u are the pair of the missing type.
            (p,) = set(_PAIRS) - kinds
            (x, y), (z, w) = _PAIRS[p]
            joined = ()
            for j, end in ((x, n), (y, n), (z, n + 1), (w, n + 1)):
                ends[boundary[j]] = (outer[j], end)
            ends[m] = (n, n + 1)
            n, m = n + 2, m + 1
        else:
            continue
        for e in internal:
            del ends[e]
        done.append((pole, internal, boundary, joined))
    if not done:
        return _search(mg, _symmetry_break(mg))

    ids = sorted(ends)
    kept = sorted({v for e in ids for v in ends[e]})
    index = {v: i for i, v in enumerate(kept)}
    reduced = Multigraph(len(kept), [(index[a], index[b]) for a, b in map(ends.get, ids)])
    if any(a == b for a, b in reduced.edges):
        return None
    bits = _search(reduced, _symmetry_break(reduced))
    if bits is None:
        return None
    col = dict(zip(ids, bits))
    for pole, internal, boundary, joined in reversed(done):
        for x, y in joined:
            col[boundary[y]] = col[boundary[x]]
        first = len(internal)
        inside = _search(pole, [(first + j, col[e]) for j, e in enumerate(boundary)])
        if inside is None:
            raise RuntimeError("a replaced side does not extend its gadget's coloring")
        col.update(zip(internal, inside))
    return [col[e] for e in range(mg.m)]


def _small_sides(mg: Multigraph) -> list[frozenset[int]]:
    """Pairwise disjoint vertex sets of 4 to ``_SIDE_MAX`` vertices, each a
    side of a cyclic 4-bond; smallest first, ties by their sorted vertices.
    Each side of a bond is a component of G - S that all four edges of S
    leave, so the two ends of one cut edge reach both sides."""
    if not mg.is_connected():
        return []
    found = set()
    for cut in cyclic_cuts_up_to(mg, 4):
        if len(cut) == 4:
            for s in mg.edges[next(iter(cut))]:
                side = _small_component(mg, cut, s)
                if side:
                    found.add(side)
    chosen: list[frozenset[int]] = []
    taken: set[int] = set()
    for side in sorted(found, key=lambda s: (len(s), sorted(s))):
        if taken.isdisjoint(side):
            chosen.append(side)
            taken |= side
    return chosen


def _small_component(mg: Multigraph, cut: frozenset[int], s: int) -> frozenset[int] | None:
    """The component of G - cut at s if it has 4 to ``_SIDE_MAX`` vertices."""
    seen = {s}
    stack = [s]
    while stack:
        v = stack.pop()
        for e in mg.incident_edges(v):
            if e not in cut:
                a, b = mg.edges[e]
                w = b if a == v else a
                if w not in seen:
                    if len(seen) == _SIDE_MAX:
                        return None
                    seen.add(w)
                    stack.append(w)
    return frozenset(seen) if len(seen) >= 4 else None


def _pole(
    ends: dict[int, tuple[int, int]], side: frozenset[int]
) -> tuple[Multigraph, list[int], list[int]]:
    """The 4-pole of a vertex set in the graph with edge ends ``ends``.

    Returns the pole as a graph, and the ids of its internal and its
    dangling edges, each in increasing order. The pole's vertices are the
    side's, in increasing order, then one far end per dangling edge; its
    edges are the internal ones, then the dangling ones."""
    internal, boundary = [], []
    for e in sorted(ends):
        a, b = ends[e]
        if a in side and b in side:
            internal.append(e)
        elif a in side or b in side:
            boundary.append(e)
    index = {v: i for i, v in enumerate(sorted(side))}
    edges = [(index[a], index[b]) for a, b in map(ends.get, internal)]
    for j, e in enumerate(boundary):
        a, b = ends[e]
        edges.append((index[a] if a in side else index[b], len(side) + j))
    return Multigraph(len(side) + len(boundary), edges), internal, boundary


def _color_set(pole: Multigraph) -> set[str]:
    """The boundary types that extend to a coloring of a 4-pole whose last
    four edges are its dangling ones."""
    first = pole.m - 4
    return {
        kind
        for kind, bits in _TYPES.items()
        if _search(pole, [(first + j, bit) for j, bit in enumerate(bits)]) is not None
    }


def check_snark_input(g: CubicGraph) -> None:
    """Raise GraphError unless g is simple and connected."""
    if not g.simple:
        raise GraphError("snark test requires a simple cubic graph")
    if not g.graph.is_connected():
        raise GraphError("snark test requires a connected graph")


def is_snark(g: CubicGraph) -> bool:
    """Cyclically 4-edge-connected and not 3-edge-colorable (girth 4 allowed)."""
    check_snark_input(g)
    if not cyclic_edge_connectivity_at_least(g, 4):
        return False
    return find_3_edge_coloring(g) is None
