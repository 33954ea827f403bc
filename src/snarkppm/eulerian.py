"""Half-edge pairings of eulerian graphs, and the association with cubic graphs.

Half-edge ``2*e + s`` is the end of edge e at ``g.edges[e][s]``, so a loop
gives its vertex both halves. Pairing the halves at every vertex splits the
edges into closed trails: a walk that leaves along half h arrives at
``h ^ 1`` and leaves again along that half's partner. A transition pair
names two edges at a vertex (a pair {e} names both ends of loop e), and a
pairing uses it when it pairs halves of those edges there.

`pairing_search` lists the pairings that avoid given pairs and whose trails
either are all cycles (vertex-simple), which is a compatible cycle
decomposition (`cycles.enumerate_ccds`), or form one trail through every
edge (`eulerian_trail_transitions`).

The association splits a transitioned eulerian multigraph with degrees 4
and 6 into a cubic graph with a dominating cycle: each degree-4 vertex
splits into two vertices joined by a new edge, each degree-6 vertex splits
into three plus a new hub vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .multigraph import CubicGraph, Cycle, GraphError, Multigraph, is_dominating
from .ppm import TransitionSystem


@dataclass(frozen=True)
class Association:
    graph3: CubicGraph
    cycle: Cycle  # dominating cycle of graph3


def associate(g: Multigraph, t: TransitionSystem) -> Association:
    """Split away the trail transitions of (g, t), yielding (G3, C)."""
    if not g.is_connected():
        raise GraphError("association requires a connected graph")
    for v in range(g.n):
        if g.degree(v) not in (4, 6):
            raise GraphError(f"vertex {v} has degree {g.degree(v)}, expected 4 or 6")

    partner, pair_groups = _half_edge_pairing(g, t)
    trails = closed_trails(g, partner)
    if len(trails) != 1:
        raise GraphError("transitions do not form one eulerian trail")
    (trail,) = trails

    # Allocate split parts: one per transition pair, plus a hub at degree 6.
    part_of_half = [0] * (2 * g.m)
    parts_of: list[tuple[int, ...]] = []
    nxt = 0
    for v in range(g.n):
        ids = []
        for halves in pair_groups[v]:
            for h in halves:
                part_of_half[h] = nxt
            ids.append(nxt)
            nxt += 1
        if len(ids) == 3:
            ids.append(nxt)  # hub
            nxt += 1
        parts_of.append(tuple(ids))

    edges: list[tuple[int, int]] = []
    for e in range(g.m):
        edges.append((part_of_half[2 * e], part_of_half[2 * e + 1]))
    for v in range(g.n):
        ids = parts_of[v]
        if len(ids) == 2:
            edges.append((ids[0], ids[1]))
        else:
            hub = ids[3]
            edges.extend([(hub, ids[0]), (hub, ids[1]), (hub, ids[2])])
    g3 = CubicGraph(Multigraph(nxt, edges))

    # Cycle vertex i is the split part where trail edge i arrives, so cycle
    # vertex i and vertex i+1 are joined by trail edge i+1.
    cycle = [part_of_half[h ^ 1] for h in trail]
    cyc_edges = [h >> 1 for h in trail[1:] + trail[:1]]
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    cyc_edges = cyc_edges[k:] + cyc_edges[:k]
    if not is_dominating(g3, set(cycle)):
        raise GraphError("association produced a non-dominating cycle")
    return Association(g3, Cycle(tuple(cycle), tuple(cyc_edges)))


def half_edges_at(g: Multigraph, edges: Iterable[int]) -> list[list[int]]:
    """Per vertex, the halves of ``edges`` that sit there."""
    halves: list[list[int]] = [[] for _ in range(g.n)]
    for e in edges:
        a, b = g.edges[e]
        halves[a].append(2 * e)
        halves[b].append(2 * e + 1)
    return halves


def _half_edge_pairing(
    g: Multigraph, t: TransitionSystem
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    halves_at = half_edges_at(g, range(g.m))
    partner = [-1] * (2 * g.m)
    pair_groups: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        pairs = t.pairs(v)
        want = g.degree(v) // 2
        if len(pairs) != want:
            raise GraphError(
                f"vertex {v}: {len(pairs)} transition pairs, expected {want}"
            )
        free = list(halves_at[v])
        for pair in pairs:
            members = sorted(pair)
            if len(members) == 1:
                members = members * 2  # a loop paired with itself
            ends: list[int] = []
            for e in members:
                cand = next((h for h in free if h >> 1 == e), None)
                if cand is None:
                    raise GraphError(
                        f"vertex {v}: transition pair {members} does not match free"
                        " edge ends"
                    )
                free.remove(cand)
                ends.append(cand)
            a, b = ends
            partner[a], partner[b] = b, a
            pair_groups[v].append((a, b))
        if free:
            raise GraphError(f"vertex {v}: transition pairs leave edge ends unpaired")
    return partner, pair_groups


def closed_trails(g: Multigraph, partner: list[int]) -> list[list[int]]:
    """The closed trails of a pairing, as the halves they leave by; edges
    whose halves are unpaired (-1) are left out.

    Each trail starts on its least edge, leaving from that edge's first end,
    and the trails come in the order of their least edges.
    """
    seen = [False] * g.m
    trails = []
    for e in range(g.m):
        if seen[e] or partner[2 * e] < 0:
            continue
        trail = []
        h = 2 * e
        while True:
            trail.append(h)
            seen[h >> 1] = True
            h = partner[h ^ 1]
            if h == 2 * e:
                break
        trails.append(trail)
    return trails


def _admissible_pairings(
    halves: list[int], forbidden: set[frozenset[int]]
) -> list[tuple[tuple[int, int], ...]]:
    """Every pairing of ``halves`` that uses no forbidden edge pair."""
    if not halves:
        return [()]
    first, rest = halves[0], halves[1:]
    out = []
    for i, h in enumerate(rest):
        if frozenset({first >> 1, h >> 1}) in forbidden:
            continue
        for sub in _admissible_pairings(rest[:i] + rest[i + 1:], forbidden):
            out.append(((first, h),) + sub)
    return out


def _max_cardinality_order(g: Multigraph) -> list[int]:
    """Vertices with edges, each next the one with the most edges to those
    already placed (the least such vertex on ties)."""
    placed_edges = [0] * g.n
    left = [v for v in range(g.n) if g.incident_edges(v)]
    order = []
    while left:
        v = max(left, key=placed_edges.__getitem__)
        left.remove(v)
        order.append(v)
        for e in g.incident_edges(v):
            placed_edges[g.other_end(e, v)] += 1
    return order


def pairing_search(
    g: Multigraph, forbidden: list[set[frozenset[int]]], cycles: bool
) -> Iterator[list[int]]:
    """Every complete pairing that uses no forbidden pair and whose closed
    trails are all cycles (``cycles``) or are one trail through every edge.

    Each pairing comes once, as a partner list that the next one overwrites.
    Vertices are placed in max-cardinality order, each by one of its
    admissible pairings, computed once. The pairs placed so far join the
    edges into open trails, and each trail is known by its two free halves:
    ``end`` of one is the other, and ``size`` and ``mask`` of either are the
    trail's edge count and the set of vertices it passes through. A pair at
    v that closes a trail is refused for cycles if the trail passes v, and
    for the eulerian trail unless it holds all m edges. A pair that joins
    two trails is refused for cycles if either passes v or the two meet.
    """
    halves_at = half_edges_at(g, range(g.m))
    order = _max_cardinality_order(g)
    options = [_admissible_pairings(halves_at[v], forbidden[v]) for v in order]
    end = [h ^ 1 for h in range(2 * g.m)]
    size = [1] * (2 * g.m)
    mask = [0] * (2 * g.m)
    partner = [-1] * (2 * g.m)

    def place(i: int) -> Iterator[list[int]]:
        if i == len(order):
            yield partner
            return
        bit = 1 << order[i]
        for pairing in options[i]:
            done = 0
            for a, b in pairing:
                if end[a] == b:
                    if (mask[a] & bit) if cycles else (size[a] < g.m):
                        break
                else:
                    ma, mb = mask[a], mask[b]
                    if cycles and ((ma | mb) & bit or ma & mb):
                        break
                    a2, b2 = end[a], end[b]
                    end[a2], end[b2] = b2, a2
                    mask[a2] = mask[b2] = ma | mb | bit
                    size[a2] = size[b2] = size[a] + size[b]
                partner[a], partner[b] = b, a
                done += 1
            else:
                yield from place(i + 1)
            for a, b in reversed(pairing[:done]):
                a2, b2 = end[a], end[b]
                if a2 != b:  # undo a join; a closed trail left nothing to undo
                    end[a2], end[b2] = a, b
                    mask[a2], mask[b2] = mask[a], mask[b]
                    size[a2], size[b2] = size[a], size[b]

    try:
        yield from place(0)
    finally:
        del place  # the closure refers to itself: free it without the GC


def eulerian_trail_transitions(
    g: Multigraph, forbidden: dict[int, set[frozenset[int]]] | None = None
) -> TransitionSystem:
    """A transition system realizing one closed eulerian trail of g.

    ``forbidden`` maps a vertex to edge pairs that the trail must not use
    consecutively there; used to build trails compatible with a given cycle
    decomposition. The pairing search is exhaustive, so absence raises.
    """
    if g.m == 0 or not g.is_connected():
        raise GraphError("eulerian trail needs a connected graph with edges")
    for v in range(g.n):
        if g.degree(v) % 2:
            raise GraphError(f"vertex {v} has odd degree")
    forbidden = forbidden or {}
    at_v = [forbidden.get(v, set()) for v in range(g.n)]
    partner = next(pairing_search(g, at_v, cycles=False), None)
    if partner is None:
        raise GraphError("no eulerian trail satisfies the forbidden transitions")
    (trail,) = closed_trails(g, partner)
    pairs: list[list[frozenset[int]]] = [[] for _ in range(g.n)]
    for arrived, h in zip(trail[-1:] + trail[:-1], trail):
        pairs[g.edges[h >> 1][h & 1]].append(frozenset({arrived >> 1, h >> 1}))
    return TransitionSystem(tuple(tuple(p) for p in pairs))
