"""Proper 3-edge-coloring search for cubic graphs, and the snark predicate."""

from __future__ import annotations

from dataclasses import dataclass

from .connectivity import cyclic_edge_connectivity_at_least
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


def find_3_edge_coloring(g: CubicGraph) -> EdgeColoring | None:
    """Exhaustive backtracking search for a proper 3-edge-coloring.

    Returns a coloring, or None if there is none. Edge sets are int
    bitmasks and each edge keeps a 3-bit mask of the colors it may still
    take. Coloring an edge removes its color from the edges that share a
    vertex with it (forward checking), and an edge left with one color is
    colored at once. At a vertex none of whose edges is colored yet, the
    three edges must take all three colors: a color none of them can take
    is a wipeout, and a color only one of them can take is forced onto it.
    A forced edge is colored at once; any other edge loses a color only at
    the end it shares with a colored edge, so only its far end needs the
    vertex check.

    The three edges at vertex 0 take colors 1, 2, 3 (a symmetry break).
    The uncolored edges are split into components by a flood fill over
    neighbor masks, and the components are solved one by one, smallest
    first (ties by least edge); a failed component fails the branch
    outright, since components do not interact. Within a component the
    search branches on the least-indexed edge among those with two colors
    left, or with three if none has two. This static index order is kept
    on purpose: a breadth-first edge order from vertex 0 is faster on the
    criterion-7 stars of the Blanusa and J5 snarks but about 20 times
    slower on the star of the Goldberg snark G5.
    """
    mg = g.graph
    m = mg.m
    if m == 0:
        return EdgeColoring({})
    if any(a == b for a, b in mg.edges):
        return None

    at = [mg.incident_edges(v) for v in range(mg.n)]
    nbmask = [0] * m
    for inc in at:
        for e in inc:
            for f in inc:
                if f != e:
                    nbmask[e] |= 1 << f
    # touch[f]: for each edge h sharing a vertex with f, the tuple (h, bit
    # of h, mask and tuple of the edges at h's far end from f); the mask is
    # 0 when h is parallel to f and so has no far end.
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
            if a in ends and b in ends:
                row.append((h, hb, 0, ()))
            else:
                far = at[b if a in ends else a]
                row.append((h, hb, sum(1 << x for x in far), far))
        touch.append(row)

    avail = [0b111] * m  # bit k set: color k + 1 still possible
    color = [0] * m  # the color bit of a colored edge, else 0
    unc = (1 << m) - 1  # uncolored edges
    two = 0  # uncolored edges with exactly two colors left

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

    def components(comp: int) -> list[int]:
        out = []
        while comp:
            seen = frontier = comp & -comp
            while frontier:
                grow = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    grow |= nbmask[b.bit_length() - 1]
                frontier = grow & comp & ~seen
                seen |= frontier
            out.append(seen)
            comp ^= seen
        return out

    def solve(comp: int) -> bool:
        nonlocal unc, two
        comp &= unc
        if not comp:
            return True
        comps = components(comp)
        if len(comps) > 1:
            # Solve each region on its own; completed regions keep their
            # colors while siblings run, so a failure restores everything.
            saved = list(color), list(avail), unc, two
            for part in sorted(comps, key=lambda c: (c.bit_count(), c & -c)):
                if not solve(part):
                    color[:], avail[:], unc, two = saved
                    return False
            return True
        # Propagation leaves no uncolored edge with one color, so this is
        # the edge with fewest colors left, ties by index.
        pick = comp & two or comp
        e = (pick & -pick).bit_length() - 1
        opts = avail[e]
        saved_unc, saved_two = unc, two
        while opts:
            bit = opts & -opts
            opts ^= bit
            trail: list[tuple[int, int]] = []
            if assign(e, bit, trail) and solve(comp):
                return True
            undo(trail)
            unc, two = saved_unc, saved_two
        return False

    try:
        trail0: list[tuple[int, int]] = []
        for bit, e in zip((1, 2, 4), sorted(at[0])):
            if not assign(e, bit, trail0):
                return None
        if solve(unc):
            return EdgeColoring({e: color[e].bit_length() for e in range(m)})
        return None
    finally:
        del solve  # the closure refers to itself: free it without the GC


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
