"""Cycle machinery: dominating and stable cycles, compatible cycle
decompositions, cycle double covers, intersection graphs, and the
dominating-cycle reduction loop.

Cycles are vertex-simple closed walks: length 1 (a loop edge), length 2
(a pair of parallel edges), or longer. A cycle is compatible with a
transition system when it holds no transition pair entirely; a self-pair
{e} (both ends of loop e) forbids e on any cycle. A compatible cycle
decomposition is therefore one pairing of the half-edges at each vertex
that uses no transition pair and whose closed trails are all cycles, and
`enumerate_ccds` lists these pairings with `eulerian.pairing_search`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .coloring import EdgeColoring, coloring_is_proper
from .eulerian import (
    Association,
    associate,
    closed_trails,
    half_edges_at,
    pairing_search,
)
from .multigraph import (
    CubicGraph,
    Cycle,
    GraphError,
    Multigraph,
    check_cycle,
    is_dominating,
)
from .ppm import (
    Component,
    ContractedGraph,
    K2Component,
    PseudoMatching,
    TransitionSystem,
    Violation,
    complement_cycles,
    contract,
    ppm_from_dominating_cycle,
    quotient_components,
)


def cycle_from_vertices(g: Multigraph, vertices: list[int]) -> Cycle:
    edges = []
    for i, v in enumerate(vertices):
        w = vertices[(i + 1) % len(vertices)]
        e = g.edge_between(v, w)
        if e is None:
            raise GraphError(f"no edge {v}-{w}")
        edges.append(e)
    c = Cycle(tuple(vertices), tuple(edges))
    check_cycle(g, c)
    return c


DECOMPOSITION = "decomposition"
CCD = "ccd"
CDC = "cdc"


@dataclass(frozen=True)
class CycleSet:
    cycles: tuple[Cycle, ...]
    role: str  # decomposition | ccd | cdc


def verify_cycle_set(g: Multigraph, s: CycleSet) -> Violation | None:
    """Check the role's edge-multiplicity contract; report the first breach."""
    want = 2 if s.role == CDC else 1
    for c in s.cycles:
        try:
            check_cycle(g, c)
        except GraphError as exc:
            return Violation(str(exc))
    count = [0] * g.m
    for c in s.cycles:
        for e in c.edges:
            count[e] += 1
    names = {0: "zero times", 1: "once", 2: "twice", 3: "three times"}
    for e in range(g.m):
        if count[e] != want:
            got = names.get(count[e], f"{count[e]} times")
            return Violation(f"edge {e} covered {got}, expected {names[want]}")
    return None


# ---------------------------------------------------------------------------
# Dominating and stable cycles
# ---------------------------------------------------------------------------


def find_dominating_cycles(
    g: CubicGraph, limit: int | None = None
) -> Iterator[Cycle]:
    """All dominating cycles (exhaustive unless limit is set), deterministic.

    Cycles come out grouped by their least vertex, each one exactly once;
    at most ``limit`` of them, so ``limit=0`` yields none. A negative limit
    raises GraphError before the search starts.
    """
    if limit is not None and limit < 0:
        raise GraphError(f"limit must be non-negative, got {limit}")
    if not g.graph.is_connected():
        raise GraphError("dominating-cycle search needs a connected graph")
    if limit == 0:
        return
    found = 0
    for c in _all_cycles(g.graph):
        if is_dominating(g, set(c.vertices)):
            yield c
            found += 1
            if found == limit:
                return


def _all_cycles(g: Multigraph) -> Iterator[Cycle]:
    """All cycles of length >= 2, least vertex first, each exactly once."""
    for s in range(g.n):
        yield from _cycles_from(g, s, set(), False)


def _cycles_from(
    g: Multigraph, s: int, required: set[int], below_ok: bool
) -> Iterator[Cycle]:
    """Cycles through s covering ``required``; vertices < s excluded unless
    below_ok (used by cycles_containing, where s = min(required))."""
    path = [s]
    on_path = {s}
    edges_used: list[int] = []

    def reachable_ok() -> bool:
        missing = required - on_path
        if not missing:
            return True
        seen = {path[-1]}
        frontier = [path[-1]]
        blocked = on_path - {path[-1], s}
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w in seen or w in blocked:
                    continue
                seen.add(w)
                frontier.append(w)
        return missing <= seen

    def extend() -> Iterator[Cycle]:
        v = path[-1]
        for e in sorted(g.incident_edges(v)):
            if edges_used and e == edges_used[-1]:
                continue
            w = g.other_end(e, v)
            if w == v:
                continue
            if w == s and len(path) >= 2:
                if e == edges_used[0]:
                    continue
                if len(path) == 2 and e < edges_used[0]:
                    continue  # digon reported once, by its lower first edge
                if len(path) > 2 and path[1] > path[-1]:
                    continue  # one traversal direction only
                if required <= on_path:
                    yield Cycle(tuple(path), tuple(edges_used + [e]))
                continue
            if w in on_path or (w < s and not below_ok):
                continue
            path.append(w)
            on_path.add(w)
            edges_used.append(e)
            if not required or reachable_ok():
                yield from extend()
            edges_used.pop()
            on_path.discard(w)
            path.pop()

    yield from extend()


def cycles_containing(g: Multigraph, required: set[int]) -> Iterator[Cycle]:
    """All cycles D (length >= 2) with required ⊆ V(D), each exactly once."""
    if not required:
        yield from _all_cycles(g)
        return
    yield from _cycles_from(g, min(required), set(required), True)


def is_stable(g: CubicGraph, c: Cycle) -> bool:
    """No distinct cycle D has V(C) ⊆ V(D)."""
    check_cycle(g.graph, c)
    target = c.edge_set()
    for d in cycles_containing(g.graph, set(c.vertices)):
        if d.edge_set() != target:
            return False
    return True


# ---------------------------------------------------------------------------
# Compatible cycle decompositions
# ---------------------------------------------------------------------------


def enumerate_ccds(cg: ContractedGraph) -> Iterator[CycleSet]:
    """Every transition-compatible cycle decomposition, each exactly once.

    A CCD is one pairing of the half-edges at each vertex that uses no
    transition pair and whose closed trails are all cycles.
    """
    g = cg.graph
    forbidden = [set(cg.transitions.pairs(v)) for v in range(g.n)]
    # A self-paired loop can lie on no compatible cycle.
    if any(len(pair) == 1 for pairs in forbidden for pair in pairs):
        return
    for partner in pairing_search(g, forbidden, cycles=True):
        yield CycleSet(_trail_cycles(g, partner), CCD)


def _trail_cycles(g: Multigraph, partner: list[int]) -> tuple[Cycle, ...]:
    """The closed trails of a pairing whose trails are all cycles."""
    return tuple(
        Cycle(
            tuple(g.edges[h >> 1][h & 1] for h in trail),
            tuple(h >> 1 for h in trail),
        )
        for trail in closed_trails(g, partner)
    )


def find_ccd(cg: ContractedGraph) -> CycleSet | None:
    return next(enumerate_ccds(cg), None)


def verify_ccd_compatible(cg: ContractedGraph, s: CycleSet) -> Violation | None:
    """Decomposition check plus |E(C) ∩ P| <= 1 for every transition pair."""
    bad = verify_cycle_set(cg.graph, s)
    if bad is not None:
        return bad
    for c in s.cycles:
        bad = _cycle_incompatible(cg, c)
        if bad is not None:
            return bad
    return None


def _cycle_incompatible(cg: ContractedGraph, c: Cycle) -> Violation | None:
    """The first transition pair that c holds entirely.

    A pair lies at a vertex both its edges touch, so only c's own vertices
    can hold one; a self-paired loop {e} forbids e outright.
    """
    edges = c.edge_set()
    for v in c.vertices:
        for pair in cg.transitions.pairs(v):
            if pair <= edges:
                return Violation(
                    f"cycle uses both edges of transition pair {sorted(pair)}"
                    f" at vertex {v}"
                )
    return None


# ---------------------------------------------------------------------------
# Lifting a CCD to a cycle double cover
# ---------------------------------------------------------------------------


def cdc_from_ccd(g: CubicGraph, m: PseudoMatching, ccd: CycleSet) -> CycleSet:
    """Lift each CCD cycle through the contraction and append the complement
    cycles, producing a cycle double cover of g."""
    cg = contract(g, m)
    bad = verify_ccd_compatible(cg, ccd)
    if bad is not None:
        raise GraphError(f"not a compatible cycle decomposition: {bad.message}")

    mg = g.graph
    comps = quotient_components(mg, m, cg)
    lifted: list[Cycle] = []
    for cyc in ccd.cycles:
        lifted.append(_lift_cycle(mg, cg, comps, cyc))
    lifted.extend(complement_cycles(g, m))
    out = CycleSet(tuple(lifted), CDC)
    bad = verify_cycle_set(mg, out)
    if bad is not None:
        raise GraphError(f"lift did not produce a CDC: {bad.message}")
    return out


def _lift_cycle(
    mg: Multigraph,
    cg: ContractedGraph,
    comps: dict[int, Component],
    cyc: Cycle,
) -> Cycle:
    """Lift one CCD cycle; a claw is crossed through its center, whose edge
    to each leaf is the graph's only edge between the two."""
    if len(cyc) == 1:
        # A quotient loop: its origin edge joins two vertices of one
        # component; close it up through the component's inside.
        o = cg.edge_origin[cyc.edges[0]]
        x, y = mg.edges[o]
        comp = comps[cyc.vertices[0]]
        if isinstance(comp, K2Component):
            lift = Cycle((x, y), (o, comp.edge))
        else:
            c = comp.center
            lift = Cycle((x, y, c), (o, mg.edge_between(y, c), mg.edge_between(c, x)))
        check_cycle(mg, lift)
        return lift
    verts: list[int] = []
    edges: list[int] = []
    k = len(cyc.edges)
    for i in range(k):
        q = cyc.vertices[i]
        o_in = cg.edge_origin[cyc.edges[i - 1]]
        o_out = cg.edge_origin[cyc.edges[i]]
        w_in = _endpoint_in(mg, o_in, cg, q)
        w_out = _endpoint_in(mg, o_out, cg, q)
        if w_in == w_out:
            raise GraphError("lift hit a transition pair; compatibility broken")
        comp = comps[q]
        if isinstance(comp, K2Component):
            verts.extend([w_in, w_out])
            edges.extend([comp.edge, o_out])
        else:
            c = comp.center
            verts.extend([w_in, c, w_out])
            edges.extend([mg.edge_between(w_in, c), mg.edge_between(c, w_out), o_out])
    lift = Cycle(tuple(verts), tuple(edges))
    check_cycle(mg, lift)
    return lift


def _endpoint_in(mg: Multigraph, edge: int, cg: ContractedGraph, q: int) -> int:
    """The end of a graph edge in component q. The edge lies on a CCD cycle
    of length at least 2, which is vertex-simple (``cdc_from_ccd`` checks
    that first), so it is no quotient loop: exactly one of its ends is in
    q. Loops, the length-1 cycles, are lifted apart by ``_lift_cycle``."""
    a, b = mg.edges[edge]
    if cg.component_of[a] == q:
        return a
    if cg.component_of[b] == q:
        return b
    raise GraphError(f"edge {edge} has no endpoint in component {q}")


# ---------------------------------------------------------------------------
# Intersection graphs and chromatic number
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionGraph:
    graph: Multigraph  # vertex i corresponds to cycle i


def intersection_graph(s: CycleSet) -> IntersectionGraph:
    k = len(s.cycles)
    edges = []
    vsets = [set(c.vertices) for c in s.cycles]
    for i in range(k):
        for j in range(i + 1, k):
            if vsets[i] & vsets[j]:
                edges.append((i, j))
    return IntersectionGraph(Multigraph(k, edges))


def chromatic_number(g: Multigraph) -> int:
    if any(a == b for a, b in g.edges):
        raise GraphError("chromatic number undefined with loops")
    n = g.n
    if n == 0:
        return 0
    adj = [g.adjacency_mask(v) for v in range(n)]
    if not any(adj):
        return 1
    order = sorted(range(n), key=lambda v: (-bin(adj[v]).count("1"), v))
    best = [n]
    colors = [0] * n

    def rec(i: int, used: int) -> None:
        if used >= best[0]:
            return
        if i == n:
            best[0] = used
            return
        v = order[i]
        taken = 0
        for u in range(n):
            if colors[u] and adj[v] >> u & 1:
                taken |= 1 << colors[u]
        for c in range(1, min(used + 1, best[0] - 1) + 1):
            if taken >> c & 1:
                continue
            colors[v] = c
            rec(i + 1, max(used, c))
            colors[v] = 0

    rec(0, 0)
    return best[0]


# ---------------------------------------------------------------------------
# CCDs from proper 3-edge-colorings
# ---------------------------------------------------------------------------


def ccd_from_coloring(
    g: CubicGraph, m: PseudoMatching, coloring: EdgeColoring
) -> CycleSet:
    """Push a proper 3-edge-coloring of g to G/M and split the color classes
    into cycles; the result is a CCD whose intersection graph is 3-colorable."""
    if not coloring_is_proper(g.graph, coloring):
        raise GraphError("coloring is not a proper 3-edge-coloring")
    cg = contract(g, m)
    cycles: list[Cycle] = []
    for color in (1, 2, 3):
        class_edges = [
            qe
            for qe in range(cg.graph.m)
            if coloring.color_of[cg.edge_origin[qe]] == color
        ]
        cycles.extend(_edge_disjoint_cycles(cg.graph, class_edges))
    out = CycleSet(tuple(cycles), CCD)
    bad = verify_ccd_compatible(cg, out)
    if bad is not None:
        raise GraphError(f"color classes not compatible: {bad.message}")
    return out


def _edge_disjoint_cycles(g: Multigraph, edges: list[int]) -> list[Cycle]:
    """Split an even subgraph whose vertices all have degree 0 or 2 (loops
    counting 2) into its cycles; loops become length-1 cycles."""
    partner = [-1] * (2 * g.m)
    for v, halves in enumerate(half_edges_at(g, edges)):
        if len(halves) not in (0, 2):
            raise GraphError(
                f"vertex {v} meets {len(halves)} edge ends, expected 0 or 2"
            )
        if halves:
            a, b = halves
            partner[a], partner[b] = b, a
    return list(_trail_cycles(g, partner))


# ---------------------------------------------------------------------------
# Reduction along non-stable dominating cycles
# ---------------------------------------------------------------------------

TAG_STABLE = "stable"
TAG_CYCLE = "cycle"
TAG_STUCK = "stuck"


@dataclass(frozen=True)
class ReductionLevel:
    graph3: CubicGraph
    cycle: Cycle
    stable: bool
    chosen_c1: Cycle | None
    extracted: tuple[Cycle, ...]  # disjoint compatible cycles on this level


@dataclass(frozen=True)
class ReductionTrace:
    levels: tuple[ReductionLevel, ...]
    tag: str
    contraction: ContractedGraph
    decomposition: CycleSet | None  # compatible decomposition of the top quotient


def sabidussi_reduce(g3: CubicGraph, c: Cycle) -> ReductionTrace:
    """Reduce (g3, c) along strictly larger dominating cycles until the
    residue is a bare cycle or the current cycle is stable, then reassemble
    a compatible decomposition of the top quotient on the way back up.

    A stable level whose contraction admits no CCD ends the trace with tag
    "stuck"; such instances are surfaced, never silently skipped.
    """
    check_cycle(g3.graph, c)
    if not is_dominating(g3, set(c.vertices)):
        raise GraphError("reduction requires a dominating cycle")
    levels, tag, cycles, cg = _reduce_level(g3, c)
    if cycles is None:
        return ReductionTrace(tuple(levels), tag, cg, None)
    decomposition = CycleSet(tuple(cycles), CCD)
    bad = verify_ccd_compatible(cg, decomposition)
    if bad is not None:
        raise GraphError(f"reassembled decomposition invalid: {bad.message}")
    return ReductionTrace(tuple(levels), tag, cg, decomposition)


def _reduce_level(
    g3: CubicGraph, c: Cycle
) -> tuple[list[ReductionLevel], str, list[Cycle] | None, ContractedGraph]:
    m = ppm_from_dominating_cycle(g3, c)
    cg = contract(g3, m)

    c1 = _least_larger_cycle(g3.graph, c)
    if c1 is None:
        ccd = find_ccd(cg)
        level = ReductionLevel(g3, c, True, None, ())
        if ccd is None:
            return [level], TAG_STUCK, None, cg
        return [level], TAG_STABLE, list(ccd.cycles), cg

    extracted = _extract_off_cycle(cg, c1)
    level = ReductionLevel(g3, c, False, c1, tuple(extracted))
    trail = _trail(cg, c1)
    passes = Counter(q for _qe, q in trail)
    if max(passes.values()) == 1:
        residual = _edge_disjoint_cycles(cg.graph, [qe for qe, _q in trail])
        return [level], TAG_CYCLE, extracted + residual, cg

    gprime, tprime, chains, kept_vertices = _suppress(trail, passes)
    assoc = associate(gprime, tprime)
    _assert_roundtrip(assoc, gprime)

    sub_levels, tag, sub_cycles, _sub_cg = _reduce_level(assoc.graph3, assoc.cycle)
    if sub_cycles is None:
        return [level] + sub_levels, tag, None, cg
    expanded = [
        _expand_chains(cyc, chains, kept_vertices) for cyc in sub_cycles
    ]
    return [level] + sub_levels, tag, extracted + expanded, cg


def _least_larger_cycle(g: Multigraph, c: Cycle) -> Cycle | None:
    target = c.edge_set()
    best: Cycle | None = None
    best_key: tuple[int, ...] | None = None
    for d in cycles_containing(g, set(c.vertices)):
        if d.edge_set() == target:
            continue
        key = tuple(sorted(d.edges))
        if best_key is None or key < best_key:
            best, best_key = d, key
    return best


def _extract_off_cycle(cg: ContractedGraph, c1: Cycle) -> list[Cycle]:
    """Quotient edges missed by C1 form vertex-disjoint compatible cycles."""
    on_c1 = c1.edge_set()
    off = [qe for qe, orig in enumerate(cg.edge_origin) if orig not in on_c1]
    if not off:
        raise GraphError("larger dominating cycle left nothing to extract")
    cycles = _edge_disjoint_cycles(cg.graph, off)
    if any(_cycle_incompatible(cg, cyc) for cyc in cycles):
        raise GraphError("extracted cycle is not compatible")
    return cycles


def _trail(cg: ContractedGraph, c1: Cycle) -> list[tuple[int, int]]:
    """C1's closed trail in the quotient: in C1's order, each edge of C1
    that is a quotient edge, with the quotient vertex that edge enters.

    Between two trail edges C1 runs inside one component, so the trail
    passes a quotient vertex once per such run. Each run starts on a vertex
    of C, so it passes a K2 at most twice and a claw at most three times.
    A trail that passes each vertex once is a single cycle.
    """
    q_of_orig = {orig: qe for qe, orig in enumerate(cg.edge_origin)}
    steps = zip(c1.edges, c1.vertices[1:] + c1.vertices[:1])  # edge, vertex entered
    return [(q_of_orig[e], cg.component_of[v]) for e, v in steps if e in q_of_orig]


@dataclass(frozen=True)
class _Chain:
    qedges: tuple[int, ...]  # quotient edges, ordered from q_from to q_to
    interior: tuple[int, ...]  # suppressed quotient vertices along the way
    q_from: int
    q_to: int


def _suppress(
    trail: list[tuple[int, int]], passes: Counter[int]
) -> tuple[Multigraph, TransitionSystem, list[_Chain], list[int]]:
    """Suppress the vertices that C1's trail passes once, and keep those it
    passes two or three times (degree 4 or 6); there is at least one.

    Returns the suppressed multigraph (vertex i = kept_vertices[i]), its
    trail transition system, and per new edge the chain it replaces.

    The closed trail is cut after each pass through a kept vertex, so its
    pieces hold every trail edge, and each runs from one kept vertex through
    suppressed ones to the next: a chain, and one new edge. Each pass pairs
    the chain it ends with the chain it starts, in C1's order. A chain runs
    from its least end, a (kept vertex, quotient edge) pair, and the chains
    are numbered in the order of their least ends.
    """
    kept_vertices = sorted(q for q, n in passes.items() if n > 1)
    new_id = {v: i for i, v in enumerate(kept_vertices)}
    cuts = [i for i, (_qe, q) in enumerate(trail) if q in new_id]
    pieces = [trail[cuts[-1] + 1:] + trail[:cuts[0] + 1]]  # piece j ends at cut j
    pieces += [trail[a + 1:b + 1] for a, b in zip(cuts, cuts[1:])]

    runs = []
    for j, piece in enumerate(pieces):
        u, w = pieces[j - 1][-1][1], piece[-1][1]
        qedges = tuple(qe for qe, _q in piece)
        interior = tuple(q for _qe, q in piece[:-1])
        if (w, qedges[-1]) < (u, qedges[0]):
            qedges, interior, u, w = qedges[::-1], interior[::-1], w, u
        runs.append(_Chain(qedges, interior, u, w))
    order = sorted(range(len(runs)), key=lambda j: (runs[j].q_from, runs[j].qedges[0]))
    chains = [runs[j] for j in order]
    chain_id = {j: cid for cid, j in enumerate(order)}
    gprime = Multigraph(
        len(kept_vertices), [(new_id[ch.q_from], new_id[ch.q_to]) for ch in chains]
    )

    pair_lists: list[list[frozenset[int]]] = [[] for _ in kept_vertices]
    for j, piece in enumerate(pieces):
        nxt = chain_id[(j + 1) % len(pieces)]
        pair_lists[new_id[piece[-1][1]]].append(frozenset({chain_id[j], nxt}))
    return gprime, TransitionSystem(tuple(tuple(p) for p in pair_lists)), chains, kept_vertices


def _assert_roundtrip(assoc: Association, gprime: Multigraph) -> None:
    m = ppm_from_dominating_cycle(assoc.graph3, assoc.cycle)
    back = contract(assoc.graph3, m)
    if back.graph.n != gprime.n or back.graph.edges != gprime.edges:
        raise GraphError("association round-trip failed to recover the quotient")


def _expand_chains(
    cyc: Cycle, chains: list[_Chain], kept_vertices: list[int]
) -> Cycle:
    """Map a suppressed-graph cycle back to a quotient cycle through chains."""
    verts: list[int] = []
    edges: list[int] = []
    k = len(cyc.edges)
    for i in range(k):
        chain = chains[cyc.edges[i]]
        start_q = kept_vertices[cyc.vertices[i]]
        if chain.q_from == start_q:
            qedges, interior = chain.qedges, chain.interior
        elif chain.q_to == start_q:
            qedges = tuple(reversed(chain.qedges))
            interior = tuple(reversed(chain.interior))
        else:
            raise GraphError("chain does not touch the cycle vertex")
        verts.append(start_q)
        verts.extend(interior)
        edges.extend(qedges)
    return Cycle(tuple(verts), tuple(edges))
