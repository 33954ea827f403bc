"""Eulerian-to-cubic association: splitting a transitioned eulerian graph.

An eulerian multigraph with degrees 4 and 6 plus trail transitions turns
into a cubic graph with a dominating cycle: each degree-4 vertex splits into
two vertices joined by a new edge, each degree-6 vertex splits into three
plus a new hub vertex. Transitions are resolved at half-edge granularity so
loops work (a loop contributes both its ends at the vertex).
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import CubicGraph, Cycle, GraphError, Multigraph, is_dominating
from .ppm import TransitionSystem

HalfEdge = tuple[int, int]  # (edge id, end 0/1)


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
    orbit = _single_trail_orbit(g, partner)

    # Allocate split parts: one per transition pair, plus a hub at degree 6.
    group_of_half: dict[HalfEdge, int] = {}
    parts_of: list[tuple[int, ...]] = []
    nxt = 0
    for v in range(g.n):
        ids = []
        for halves in pair_groups[v]:
            for h in halves:
                group_of_half[h] = nxt
            ids.append(nxt)
            nxt += 1
        if len(ids) == 3:
            ids.append(nxt)  # hub
            nxt += 1
        parts_of.append(tuple(ids))

    edges: list[tuple[int, int]] = []
    for e in range(g.m):
        edges.append((group_of_half[(e, 0)], group_of_half[(e, 1)]))
    for v in range(g.n):
        ids = parts_of[v]
        if len(ids) == 2:
            edges.append((ids[0], ids[1]))
        else:
            hub = ids[3]
            edges.extend([(hub, ids[0]), (hub, ids[1]), (hub, ids[2])])
    g3 = CubicGraph(Multigraph(nxt, edges))

    # Arrival half i sits at the split part visited after trail edge i, so
    # cycle vertex i and vertex i+1 are joined by trail edge i+1.
    cycle = [group_of_half[h] for h in orbit]
    cyc_edges = [orbit[(i + 1) % len(orbit)][0] for i in range(len(orbit))]
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    cyc_edges = cyc_edges[k:] + cyc_edges[:k]
    if not is_dominating(g3, set(cycle)):
        raise GraphError("association produced a non-dominating cycle")
    return Association(g3, Cycle(tuple(cycle), tuple(cyc_edges)))


def _half_edge_pairing(
    g: Multigraph, t: TransitionSystem
) -> tuple[dict[HalfEdge, HalfEdge], list[list[list[HalfEdge]]]]:
    halves_at: dict[int, list[HalfEdge]] = {v: [] for v in range(g.n)}
    for e, (a, b) in enumerate(g.edges):
        halves_at[a].append((e, 0))
        halves_at[b].append((e, 1))

    partner: dict[HalfEdge, HalfEdge] = {}
    pair_groups: list[list[list[HalfEdge]]] = [[] for _ in range(g.n)]
    for v in range(g.n):
        pairs = list(t.pairs(v))
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
            ends: list[HalfEdge] = []
            for e in members:
                cand = next((h for h in free if h[0] == e), None)
                if cand is None:
                    raise GraphError(
                        f"vertex {v}: transition pair {members} does not match free"
                        " edge ends"
                    )
                free.remove(cand)
                ends.append(cand)
            partner[ends[0]] = ends[1]
            partner[ends[1]] = ends[0]
            pair_groups[v].append(ends)
        if free:
            raise GraphError(f"vertex {v}: transition pairs leave edge ends unpaired")
    return partner, pair_groups


def _single_trail_orbit(
    g: Multigraph, partner: dict[HalfEdge, HalfEdge]
) -> list[HalfEdge]:
    """Arrival half-edges of the trail, or an error if it is not one trail."""
    if g.m == 0:
        raise GraphError("empty graph has no eulerian trail")

    def next_arrival(h: HalfEdge) -> HalfEdge:
        e, s = partner[h]
        return (e, 1 - s)

    start: HalfEdge = (0, 1)
    orbit = [start]
    h = next_arrival(start)
    while h != start:
        orbit.append(h)
        if len(orbit) > g.m:
            raise GraphError("transitions do not form one eulerian trail")
        h = next_arrival(h)
    edges = [x[0] for x in orbit]
    if len(edges) != g.m or len(set(edges)) != g.m:
        raise GraphError("transitions do not form one eulerian trail")
    return orbit


def eulerian_trail_transitions(
    g: Multigraph, forbidden: dict[int, set[frozenset[int]]] | None = None
) -> TransitionSystem:
    """A transition system realizing one closed eulerian trail of g.

    ``forbidden`` maps a vertex to half-edge pairs (as edge-index pairs) that
    the trail must not use consecutively; used to build trails compatible
    with a given cycle decomposition. Exhaustive backtracking over the
    per-vertex pairings, so absence raises.
    """
    if g.m == 0 or not g.is_connected():
        raise GraphError("eulerian trail needs a connected graph with edges")
    for v in range(g.n):
        if g.degree(v) % 2:
            raise GraphError(f"vertex {v} has odd degree")
    forbidden = forbidden or {}

    halves_at: list[list[HalfEdge]] = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(g.edges):
        halves_at[a].append((e, 0))
        halves_at[b].append((e, 1))

    verts = [v for v in range(g.n) if halves_at[v]]

    def pairings(items: list[HalfEdge]) -> list[list[tuple[HalfEdge, HalfEdge]]]:
        if not items:
            return [[]]
        first = items[0]
        out = []
        for i in range(1, len(items)):
            rest = items[1:i] + items[i + 1:]
            for sub in pairings(rest):
                out.append([(first, items[i])] + sub)
        return out

    def ok(v: int, pick: list[tuple[HalfEdge, HalfEdge]]) -> bool:
        bad = forbidden.get(v, set())
        return all(frozenset({a[0], b[0]}) not in bad for a, b in pick)

    def search(i: int, partner: dict[HalfEdge, HalfEdge]):
        if i == len(verts):
            try:
                _single_trail_orbit(g, partner)
            except GraphError:
                return None
            return dict(partner)
        v = verts[i]
        for pick in pairings(halves_at[v]):
            if not ok(v, pick):
                continue
            for a, b in pick:
                partner[a] = b
                partner[b] = a
            got = search(i + 1, partner)
            if got is not None:
                return got
            for a, b in pick:
                del partner[a]
                del partner[b]
        return None

    partner = search(0, {})
    if partner is None:
        raise GraphError("no eulerian trail satisfies the forbidden transitions")
    pairs: list[list[frozenset[int]]] = [[] for _ in range(g.n)]
    seen: set[HalfEdge] = set()
    for h, h2 in partner.items():
        if h in seen or h2 in seen:
            continue
        seen.add(h)
        seen.add(h2)
        v = g.edges[h[0]][h[1]]
        pairs[v].append(frozenset({h[0], h2[0]}))
    return TransitionSystem(tuple(tuple(p) for p in pairs))

