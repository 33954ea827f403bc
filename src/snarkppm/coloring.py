"""Proper 3-edge-coloring search for cubic graphs, and the snark predicate.

``find_3_edge_coloring`` and ``is_snark`` are two readings of one search,
``_color``. Its direct search (``_search``) runs first, under a budget of
``_NODE_BUDGET`` branching nodes. A graph that needs more is reduced at
its cyclic 4-cuts (``_reduce``), from one listing of its cyclic cuts up to
size 4. A small side of such a cut is a 4-pole, and by the Parity Lemma
(Isaacs 1975) its four dangling edges show the colors of one of the types
aaaa, aabb, abab and abba. The side's color set, the types that its
colorings show, comes from four searches with fixed boundary colors.
Replacing the side by a smaller 4-pole with the same color set keeps
colorability (Nedela & Skoviera, "Decompositions and reductions of
snarks", JGT 1996): two edges realise {aaaa, p}, a dipole realises two
types without aaaa, and an empty color set means there is no coloring.
The reduced graph is searched to the end; a coloring of it is lifted back
by a search on each replaced side with its boundary colors fixed, in
reverse order. If no side reduces, the direct search runs again without a
budget.

The snark test colors before it cuts. A coloring found in the budget run
answers False with no cut search; a budget run that ends with no coloring
leaves only the question whether the graph is cyclically 4-edge-connected.
When the budget trips, the one cut listing also guards the snark test: a
cut of size at most 3 answers False before any reduction or unbudgeted
search runs.

Each graph's search tables (``_tables``) are built once and shared by
every search of it: the budget run and the unbudgeted restart of the
input, the four color-set searches of a pole and that pole's lift, and
the one search of the reduced graph.
"""

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
# needs 59-69 and those of the Blanusa snarks 501-4655. The snark test
# spends this budget before it looks for cuts, so a graph with a cyclic
# cut of size at most 3 costs at most one budget run more than a test
# that lists its cuts first.
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

    The search is ``_color``'s, the one that ``is_snark`` reads too: a
    budget run, then the reduction at the cyclic 4-cuts of one cut listing,
    with one set of search tables per graph (see the module docstring).
    """
    bits, _listed = _color(g.graph)
    if bits is None:
        return None
    return EdgeColoring({e: b.bit_length() for e, b in enumerate(bits)})


class _OutOfBudget(Exception):
    """The direct search used up its node budget."""


class _SmallCut(Exception):
    """The snark test's cut listing met a cyclic cut of size at most 3."""


def _color(mg: Multigraph, snark: bool = False) -> tuple[list[int] | None, bool]:
    """The color bit of every edge of mg, or None if mg has no proper
    3-edge-coloring; and whether mg's cyclic cuts up to size 4 were listed.

    The direct search runs under ``_NODE_BUDGET`` branching nodes. If that
    trips, the cuts are listed once and the reduction runs on their small
    sides; the graph's search tables serve both its runs. With ``snark``,
    the listing raises ``_SmallCut`` at a cut of size at most 3, as a
    graph with one is no snark whatever its colorings."""
    if mg.m == 0:
        return [], False
    if any(a == b for a, b in mg.edges):
        return None, False
    touch = _tables(mg)
    try:
        return _search(touch, _symmetry_break(mg), _NODE_BUDGET), False
    except _OutOfBudget:
        pass
    cuts = []
    if mg.is_connected():
        for cut in cyclic_cuts_up_to(mg, 4):
            if snark and len(cut) < 4:
                raise _SmallCut
            cuts.append(cut)
    return _reduce(mg, touch, _small_sides(mg, cuts)), True


def _symmetry_break(mg: Multigraph) -> list[tuple[int, int]]:
    """The three edges at vertex 0 take colors 1, 2, 3."""
    return list(zip(sorted(mg.incident_edges(0)), (1, 2, 4)))


_Tables = list[list[tuple[int, int, int, tuple[int, ...]]]]


def _tables(mg: Multigraph) -> _Tables:
    """The tables of ``_search`` on mg, built once per graph: for each edge
    f, the tuple (h, bit of h, mask and tuple of the edges at h's far end
    from f) of each edge h sharing a vertex with f, by increasing h. The
    mask is 0 when h is parallel to f and so has no far end, or when the
    far end does not have degree 3."""
    at = [mg.incident_edges(v) for v in range(mg.n)]
    star = [sum(1 << e for e in inc) for inc in at]
    touch: _Tables = []
    for f, ends in enumerate(mg.edges):
        row = []
        rest = (star[ends[0]] | star[ends[1]]) & ~(1 << f)
        while rest:
            hb = rest & -rest
            rest ^= hb
            h = hb.bit_length() - 1
            a, b = mg.edges[h]
            if a in ends and b in ends:
                row.append((h, hb, 0, ()))
                continue
            w = b if a in ends else a
            if len(at[w]) == 3:
                row.append((h, hb, star[w], at[w]))
            else:
                row.append((h, hb, 0, ()))
        touch.append(row)
    return touch


def _search(
    touch: _Tables, fixed: list[tuple[int, int]], budget: float = math.inf
) -> list[int] | None:
    """Backtracking search for a proper coloring, on the graph whose
    ``_tables`` are ``touch``, that gives each edge in ``fixed`` its color
    bit (1, 2 or 4). Returns the color bit of every edge, or None; raises
    ``_OutOfBudget`` after ``budget`` branching nodes.

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
    edge labels, which is why ``_color`` gives it a budget.
    """
    m = len(touch)
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


def _reduce(mg: Multigraph, touch: _Tables, sides: list[frozenset[int]]) -> list[int] | None:
    """Color mg, whose ``_tables`` are ``touch``, by replacing the
    ``_small_sides`` of its cyclic 4-cuts (see the module docstring): the
    color bit of every edge, or None.

    The sides are replaced one by one in the current graph, an edge-id map
    to ends. A two-edge gadget keeps the id of the first dangling edge of
    each pair for the joined edge; a dipole keeps the four dangling edges
    and adds its two vertices and its middle edge under new ids, which the
    lift leaves behind."""
    ends = dict(enumerate(mg.edges))
    n, m = mg.n, mg.m  # the next free vertex and edge ids
    # (pole tables, internal ids, dangling ids, the pairs a two-edge gadget
    # joined); the pole's tables serve its color set and its lift
    done: list[tuple[_Tables, list[int], list[int], tuple]] = []
    for side in sides:
        pole, internal, boundary = _pole(ends, side)
        if len(boundary) != 4:
            continue  # an earlier gadget joined two of its dangling edges
        pole_touch = _tables(pole)
        kinds = _color_set(pole_touch)
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
        done.append((pole_touch, internal, boundary, joined))
    if not done:
        return _search(touch, _symmetry_break(mg))

    ids = sorted(ends)
    kept = sorted({v for e in ids for v in ends[e]})
    index = {v: i for i, v in enumerate(kept)}
    reduced = Multigraph(len(kept), [(index[a], index[b]) for a, b in map(ends.get, ids)])
    if any(a == b for a, b in reduced.edges):
        return None
    bits = _search(_tables(reduced), _symmetry_break(reduced))
    if bits is None:
        return None
    col = dict(zip(ids, bits))
    for pole_touch, internal, boundary, joined in reversed(done):
        for x, y in joined:
            col[boundary[y]] = col[boundary[x]]
        first = len(internal)
        inside = _search(pole_touch, [(first + j, col[e]) for j, e in enumerate(boundary)])
        if inside is None:
            raise RuntimeError("a replaced side does not extend its gadget's coloring")
        col.update(zip(internal, inside))
    return [col[e] for e in range(mg.m)]


def _small_sides(mg: Multigraph, cuts: list[frozenset[int]]) -> list[frozenset[int]]:
    """Pairwise disjoint vertex sets of 4 to ``_SIDE_MAX`` vertices, each a
    side of one of the cyclic 4-bonds in ``cuts`` (a listing of mg's
    cyclic bonds, so of every size up to 4); smallest first, ties by their
    sorted vertices. Each side of a bond is a component of G - S that all
    four edges of S leave, so the two ends of one cut edge reach both
    sides."""
    found = set()
    for cut in cuts:
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


def _color_set(touch: _Tables) -> set[str]:
    """The boundary types that extend to a coloring of the 4-pole whose
    ``_tables`` are ``touch`` and whose last four edges are its dangling
    ones."""
    first = len(touch) - 4
    return {
        kind
        for kind, bits in _TYPES.items()
        if _search(touch, [(first + j, bit) for j, bit in enumerate(bits)]) is not None
    }


def check_snark_input(g: CubicGraph) -> None:
    """Raise GraphError unless g is simple and connected."""
    if not g.simple:
        raise GraphError("snark test requires a simple cubic graph")
    if not g.graph.is_connected():
        raise GraphError("snark test requires a connected graph")


def is_snark(g: CubicGraph) -> bool:
    """Cyclically 4-edge-connected and not 3-edge-colorable (girth 4 allowed).

    The coloring comes first (``_color``), so that one coloring rules a
    graph out with no cut search. A budget run that ends with no coloring
    leaves one question, ``cyclic_edge_connectivity_at_least(g, 4)``. A
    tripped budget lists the cyclic cuts up to size 4 once: a cut of size
    at most 3 answers False before any reduction or unbudgeted search, and
    otherwise the 4-cuts of that listing feed the reduction.
    """
    check_snark_input(g)
    try:
        bits, listed = _color(g.graph, snark=True)
    except _SmallCut:
        return False
    if bits is not None:
        return False
    return listed or cyclic_edge_connectivity_at_least(g, 4)
