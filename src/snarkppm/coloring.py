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
    """Backtracking search with saturation-first ordering and forward checking.

    Returns a proper 3-edge-coloring or None if there is none (the search is
    exhaustive). The most saturated uncolored edge is branched first, ties
    broken by edge index.
    """
    mg = g.graph
    m = mg.m
    if m == 0:
        return EdgeColoring({})
    if any(a == b for a, b in mg.edges):
        return None

    neighbors: list[list[int]] = [[] for _ in range(m)]
    for v in range(mg.n):
        inc = mg.incident_edges(v)
        for i in inc:
            for j in inc:
                if i != j and j not in neighbors[i]:
                    neighbors[i].append(j)

    ALL = 0b111  # bit c-1 set means color c available
    avail = [ALL] * m
    color = [0] * m
    COLOR_MARK = -1

    def assign(e: int, c: int, trail: list[tuple[int, int]]) -> bool:
        """Color e and propagate forced single-color edges; False on wipeout."""
        queue = [(e, c)]
        while queue:
            f, cf = queue.pop()
            if color[f] != 0:
                if color[f] != cf:
                    return False
                continue
            color[f] = cf
            trail.append((f, COLOR_MARK))
            bit = 1 << (cf - 1)
            for h in neighbors[f]:
                if color[h] == 0 and avail[h] & bit:
                    avail[h] &= ~bit
                    trail.append((h, bit))
                    left = avail[h]
                    if left == 0:
                        return False
                    if left in (1, 2, 4):
                        queue.append((h, left.bit_length()))
        return True

    def undo(trail: list[tuple[int, int]]) -> None:
        for f, bit in reversed(trail):
            if bit == COLOR_MARK:
                color[f] = 0
            else:
                avail[f] |= bit

    def components(uncolored: frozenset[int]) -> list[frozenset[int]]:
        left = set(uncolored)
        out = []
        while left:
            seed = left.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                e = frontier.pop()
                for f in neighbors[e]:
                    if f in left:
                        left.discard(f)
                        comp.add(f)
                        frontier.append(f)
            out.append(frozenset(comp))
        return sorted(out, key=lambda c: (len(c), min(c)))

    def solve(uncolored: frozenset[int]) -> bool:
        uncolored = frozenset(e for e in uncolored if color[e] == 0)
        if not uncolored:
            return True
        # Disjoint uncolored regions are independent: solve each on its
        # own, and a failed region fails the whole branch outright. The
        # whole state is restored on failure since completed regions keep
        # their colors while siblings run.
        comps = components(uncolored)
        if len(comps) > 1:
            saved_color = list(color)
            saved_avail = list(avail)
            if all(solve(comp) for comp in comps):
                return True
            color[:] = saved_color
            avail[:] = saved_avail
            return False
        comp = comps[0]
        e = min(comp, key=lambda x: (bin(avail[x]).count("1"), x))
        opts = avail[e]
        c = 1
        rest = comp - {e}
        while opts:
            if opts & 1:
                trail: list[tuple[int, int]] = []
                if assign(e, c, trail) and solve(rest):
                    return True
                undo(trail)
            opts >>= 1
            c += 1
        return False

    # Symmetry break: the three edges at vertex 0 get colors 1, 2, 3.
    first = sorted(mg.incident_edges(0))
    trail0: list[tuple[int, int]] = []
    ok = True
    for c, e in enumerate(first, start=1):
        if not (avail[e] & (1 << (c - 1))) or not assign(e, c, trail0):
            ok = False
            break
    if ok and solve(frozenset(e for e in range(m) if color[e] == 0)):
        return EdgeColoring({e: color[e] for e in range(m)})
    return None


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
