"""Crossing replacement and the star construction.

Every crossing of a pseudo-matching-avoiding drawing gets replaced by an
8-vertex block (the first Blanusa block) wired so that the two crossing
edges become vertex-disjoint through-paths. The enlarged graph keeps the
original's 3-edge-colorability status, its pseudo-matching extends to a
planarizing one, and cycle double covers extend across each replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import are_isomorphic
from .coloring import is_snark
from .connectivity import cyclic_cuts_up_to, cyclic_edge_connectivity_at_least
from .cycles import CDC, Cycle, CycleSet, cycle_from_vertices, verify_cycle_set
from .drawing import Drawing, _DrawingSearch, draw_m_avoiding
from .families import B0
from .multigraph import CubicGraph, GraphError, Multigraph
from .ppm import (
    Component,
    K2Component,
    PLANARIZING,
    PseudoMatching,
    claw_component,
    classify_ppm,
    k2_component,
    validate_ppm,
)

# The block is B0; x, x''', x', x'' attach at its a, a', b', b.
_ATTACH = {
    "x": B0.attach_a,
    "x'''": B0.attach_a_prime,
    "x'": B0.attach_b_prime,
    "x''": B0.attach_b,
}


@dataclass(frozen=True)
class CrossingReplacementRecord:
    graph_before: Multigraph
    graph_after: Multigraph
    removed_edge_a: tuple[int, int]  # (x, x''') as vertices of graph_before
    removed_edge_b: tuple[int, int]  # (x', x'')
    new_vertices: tuple[int, ...]  # x0..x7 as vertices of graph_after
    attachment: dict[str, int]  # label -> outside vertex


def _replace_one(
    graph: Multigraph,
    m: PseudoMatching,
    a_pair: tuple[int, int],
    b_pair: tuple[int, int],
) -> tuple[Multigraph, PseudoMatching, CrossingReplacementRecord]:
    x, xppp = a_pair
    xp, xpp = b_pair
    ea = graph.edge_between(x, xppp)
    eb = graph.edge_between(xp, xpp)
    if ea is None or eb is None or ea == eb:
        raise GraphError("crossing edges not present")
    if ea in m.edge_set(graph) or eb in m.edge_set(graph):
        raise GraphError("crossing involves a pseudo-matching edge")
    base = graph.n
    keep = [graph.edges[e] for e in range(graph.m) if e not in (ea, eb)]
    block = [(base + p, base + q) for p, q in B0.internal_edges]
    attach = [
        (x, base + _ATTACH["x"]),
        (xppp, base + _ATTACH["x'''"]),
        (xp, base + _ATTACH["x'"]),
        (xpp, base + _ATTACH["x''"]),
    ]
    enlarged = Multigraph(base + 8, keep + block + attach)

    parts: list[Component] = []
    for comp in m.components:
        if isinstance(comp, K2Component):
            p, q = graph.edges[comp.edge]
            parts.append(k2_component(enlarged, p, q))
        else:
            leaves = [graph.other_end(e, comp.center) for e in comp.leaf_edges]
            parts.append(claw_component(enlarged, comp.center, leaves))
    parts.append(claw_component(enlarged, base + 1, [base + 0, base + 2, base + 6]))
    parts.append(k2_component(enlarged, base + 3, base + 5))
    parts.append(k2_component(enlarged, base + 4, base + 7))
    record = CrossingReplacementRecord(
        graph,
        enlarged,
        (x, xppp),
        (xp, xpp),
        tuple(range(base, base + 8)),
        {label: {"x": x, "x'''": xppp, "x'": xp, "x''": xpp}[label] for label in _ATTACH},
    )
    return enlarged, PseudoMatching(tuple(parts)), record


def replace_crossing(
    g: CubicGraph, d: Drawing, which: int, m: PseudoMatching
) -> tuple[CubicGraph, CrossingReplacementRecord, PseudoMatching]:
    """Replace one crossing of a drawing; orientation is deterministic: for
    crossing (e, f) with e < f, (x, x''') are e's endpoints in stored order
    and (x', x'') are f's."""
    ea, eb = d.crossings[which]
    ga = g.graph
    enlarged, m2, record = _replace_one(ga, m, ga.edges[ea], ga.edges[eb])
    g2 = CubicGraph(enlarged)
    bad = validate_ppm(g2, m2)
    if bad is not None:
        raise GraphError(f"enlarged PPM invalid: {bad.message}")
    return g2, record, m2


@dataclass
class _Span:
    tail: int
    head: int
    crossings: list[int]


@dataclass(frozen=True)
class StarResult:
    graph: CubicGraph
    ppm: PseudoMatching
    records: tuple[CrossingReplacementRecord, ...]
    drawing: Drawing


def star_construction(
    g: CubicGraph, m: PseudoMatching, drawing: Drawing | None = None
) -> StarResult:
    """Replace every crossing of a pseudo-matching-avoiding drawing of g.

    The result has 8 more vertices per crossing, extends m, and its extended
    pseudo-matching is planarizing (asserted). A precomputed drawing of
    (g, m) may be supplied; by default ``draw_m_avoiding`` draws one.
    """
    if not cyclic_edge_connectivity_at_least(g, 4):
        raise GraphError("star construction requires cyclic 4-edge-connectivity")
    bad = validate_ppm(g, m)
    if bad is not None:
        raise GraphError(f"invalid PPM: {bad.message}")
    if drawing is None:
        drawing = draw_m_avoiding(g, m)
    elif drawing.base is not g or drawing.ppm is not m:
        if drawing.base.graph.edges != g.graph.edges:
            raise GraphError("drawing belongs to a different graph")

    dummy_to_ci = {d: i for i, d in enumerate(drawing.crossing_dummies)}
    spans: dict[int, list[_Span]] = {}
    for e in range(g.graph.m):
        path = drawing.segment_map[e]
        order = []
        at = g.graph.edges[e][0]
        for pe in path[:-1]:
            px, py = drawing.planarized.edges[pe]
            at = py if at == px else px
            order.append(dummy_to_ci[at])
        spans[e] = [_Span(g.graph.edges[e][0], g.graph.edges[e][1], order)]

    current = g.graph
    cur_m = m
    records: list[CrossingReplacementRecord] = []
    for ci, (ea, eb) in enumerate(drawing.crossings):
        sa, ia = _find_span(spans[ea], ci)
        sb, ib = _find_span(spans[eb], ci)
        base = current.n
        current, cur_m, record = _replace_one(
            current, cur_m, (sa.tail, sa.head), (sb.tail, sb.head)
        )
        records.append(record)
        _split_span(spans[ea], sa, ia, base + _ATTACH["x"], base + _ATTACH["x'''"])
        _split_span(spans[eb], sb, ib, base + _ATTACH["x'"], base + _ATTACH["x''"])

    star = CubicGraph(current)
    bad = validate_ppm(star, cur_m)
    if bad is not None:
        raise GraphError(f"star PPM invalid: {bad.message}")
    if classify_ppm(star, cur_m) != PLANARIZING:
        raise GraphError("star pseudo-matching failed to planarize")
    return StarResult(star, cur_m, tuple(records), drawing)


def _find_span(span_list: list[_Span], ci: int) -> tuple[_Span, int]:
    for span in span_list:
        if ci in span.crossings:
            return span, span.crossings.index(ci)
    raise GraphError(f"crossing {ci} not on any span")


def _split_span(
    span_list: list[_Span], span: _Span, idx: int, x0: int, x7: int
) -> None:
    pos = span_list.index(span)
    left = _Span(span.tail, x0, span.crossings[:idx])
    right = _Span(x7, span.head, span.crossings[idx + 1:])
    span_list[pos: pos + 1] = [left, right]


# ---------------------------------------------------------------------------
# CDC extension across one replacement
# ---------------------------------------------------------------------------


def extend_cdc(cdc: CycleSet, record: CrossingReplacementRecord) -> CycleSet:
    """Extend a cycle double cover across one crossing replacement.

    Rewires the at most four cycles through the removed edges along the
    block's through-paths and adds the block's own closed curve.
    """
    ga = record.graph_before
    gb = record.graph_after
    if cdc.role != CDC:
        raise GraphError("extend_cdc expects a cdc CycleSet")
    bad = verify_cycle_set(ga, cdc)
    if bad is not None:
        raise GraphError(f"input is not a CDC: {bad.message}")
    x, xppp = record.removed_edge_a
    xp, xpp = record.removed_edge_b
    v = record.new_vertices
    ea = ga.edge_between(x, xppp)
    eb = ga.edge_between(xp, xpp)
    p1 = [v[0], v[3], v[4], v[7]]  # interior of x..x'''
    p2 = [v[0], v[1], v[6], v[7]]
    p3 = [v[2], v[1], v[6], v[5]]  # interior of x'..x''
    p4 = [v[2], v[4], v[3], v[5]]

    with_a = [i for i, c in enumerate(cdc.cycles) if ea in c.edges]
    with_b = [i for i, c in enumerate(cdc.cycles) if eb in c.edges]
    shared = [i for i in with_a if i in with_b]
    only_a = [i for i in with_a if i not in shared]
    only_b = [i for i in with_b if i not in shared]

    # Pair the through-paths with cycles per the shared-cycle case analysis.
    plan: dict[int, list[tuple[int, tuple[int, int], list[int]]]] = {}
    paths_a = [(ea, (x, xppp), p1), (ea, (x, xppp), p2)]
    paths_b = [(eb, (xp, xpp), p3), (eb, (xp, xpp), p4)]
    if shared:
        plan.setdefault(shared[0], []).extend([paths_a[0], paths_b[0]])
        if len(shared) == 2:
            plan.setdefault(shared[1], []).extend([paths_a[1], paths_b[1]])
        else:
            plan.setdefault(only_a[0], []).append(paths_a[1])
            plan.setdefault(only_b[0], []).append(paths_b[1])
    else:
        plan.setdefault(only_a[0], []).append(paths_a[0])
        plan.setdefault(only_a[1], []).append(paths_a[1])
        plan.setdefault(only_b[0], []).append(paths_b[0])
        plan.setdefault(only_b[1], []).append(paths_b[1])

    out: list[Cycle] = []
    for i, cyc in enumerate(cdc.cycles):
        verts = list(cyc.vertices)
        if i in plan:
            for edge_id, (p, q), interior in plan[i]:
                verts = _splice(ga, verts, edge_id, p, q, interior)
        out.append(cycle_from_vertices(gb, verts))
    out.append(
        cycle_from_vertices(gb, [v[0], v[1], v[2], v[4], v[7], v[6], v[5], v[3]])
    )
    result = CycleSet(tuple(out), CDC)
    bad = verify_cycle_set(gb, result)
    if bad is not None:
        raise GraphError(f"extension is not a CDC: {bad.message}")
    return result


def _splice(
    ga: Multigraph,
    verts: list[int],
    edge_id: int,
    p: int,
    q: int,
    interior: list[int],
) -> list[int]:
    """Replace the step across edge_id (joining p, q) by the interior path."""
    k = len(verts)
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        if {a, b} == {p, q} and ga.edge_between(a, b) == edge_id:
            inner = interior if a == p else list(reversed(interior))
            return verts[: i + 1] + inner + verts[i + 1:]
    raise GraphError(f"cycle does not traverse edge {edge_id}")


# ---------------------------------------------------------------------------
# Injectivity experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityEntry:
    input_n: int
    crossings: int
    star_n: int
    cyclic_4_cuts: int
    block_cuts: int
    cuts_are_block_cuts: bool


@dataclass(frozen=True)
class InjectivityReport:
    entries: tuple[InjectivityEntry, ...]
    injective: bool


def _block_boundary(star_graph: Multigraph, block: set[int]) -> frozenset[int]:
    return frozenset(
        e
        for e, (a, b) in enumerate(star_graph.edges)
        if (a in block) != (b in block)
    )


def _has_pocket(star: StarResult) -> bool:
    """An intact edge joining two attachment points of one block makes the
    block-plus-endpoints set a cyclic 4-cut that is not a block cut."""
    g = star.graph.graph
    for record in star.records:
        block = set(record.new_vertices)
        outside = []
        for e in _block_boundary(g, block):
            a, b = g.edges[e]
            outside.append(b if a in block else a)
        for i in range(len(outside)):
            for j in range(i + 1, len(outside)):
                v, w = outside[i], outside[j]
                if v != w and g.has_edge(v, w):
                    return True
    return False


def _search_block_clean_star(g: CubicGraph, m: PseudoMatching) -> StarResult:
    """Star whose drawing avoids pocket cuts, if one shows up in a bounded
    deterministic search over edge insertion orders (one
    ``_DrawingSearch``, so the orders share its planarity answers)."""
    search = _DrawingSearch(g, m)
    non_m = search.non_m
    orders: list[list[int]] = []
    for shift in range(len(non_m)):
        orders.append(non_m[shift:] + non_m[:shift])
        orders.append(list(reversed(non_m[shift:] + non_m[:shift])))
    best: StarResult | None = None
    for order in orders:
        try:
            c = search.route(order)
        except GraphError:
            continue
        star = star_construction(g, m, drawing=search.finish(c))
        if best is None:
            best = star
        if not _has_pocket(star):
            return star
    if best is None:
        raise GraphError("no drawing produced a star")
    return best


def injectivity_experiment(
    instances: list[tuple[CubicGraph, PseudoMatching]],
) -> InjectivityReport:
    """Star-construct each instance, check pairwise non-isomorphism of the
    results, and verify every cyclic 4-edge-cut of each result is a block cut.

    The drawing of each instance is chosen from a bounded deterministic
    search so the block-cut claim's premise (no pocket cuts) holds when
    possible. Raises if two non-isomorphic inputs give isomorphic outputs
    (that would contradict the injectivity of the construction).
    """
    for g, m in instances:
        if not cyclic_edge_connectivity_at_least(g, 5):
            raise GraphError("instances must be cyclically 5-edge-connected")
        if not is_snark(g):
            raise GraphError("instances must be snarks")
    stars = [_search_block_clean_star(g, m) for g, m in instances]

    entries = []
    for (g, _m), star in zip(instances, stars):
        cuts = {frozenset(c) for c in cyclic_cuts_up_to(star.graph.graph, 4)}
        block_cuts = set()
        for record in star.records:
            boundary = _block_boundary(star.graph.graph, set(record.new_vertices))
            if len(boundary) != 4:
                raise GraphError("block boundary is not a 4-cut")
            block_cuts.add(boundary)
        entries.append(
            InjectivityEntry(
                g.n,
                len(star.records),
                star.graph.n,
                len(cuts),
                len(block_cuts),
                cuts == block_cuts,
            )
        )

    for i in range(len(stars)):
        for j in range(i + 1, len(stars)):
            if are_isomorphic(instances[i][0].graph, instances[j][0].graph):
                raise GraphError(f"inputs {i} and {j} are isomorphic")
            if are_isomorphic(stars[i].graph.graph, stars[j].graph.graph):
                raise GraphError(
                    f"star outputs {i} and {j} are isomorphic although the"
                    " inputs are not"
                )
    return InjectivityReport(tuple(entries), True)


# ---------------------------------------------------------------------------
# Homeomorphic spanning subgraph recovery
# ---------------------------------------------------------------------------


def through_path_subgraph(star: StarResult) -> Multigraph:
    """Spanning subgraph of the star graph homeomorphic to the input: keep
    only the two through-paths inside each block."""
    g = star.graph.graph
    drop: set[int] = set()
    for record in star.records:
        v = record.new_vertices
        for a, b in ((v[0], v[1]), (v[6], v[7]), (v[3], v[5]), (v[2], v[4])):
            e = g.edge_between(a, b)
            if e is None:
                raise GraphError("block wiring missing an edge")
            drop.add(e)
    return g.without_edges(drop)


def suppress_degree_two(g: Multigraph) -> Multigraph:
    """Smooth out degree-2 vertices (repeatedly), then drop isolated ones."""
    edges = [list(e) for e in g.edges]
    alive = [True] * len(edges)

    def incident(v: int) -> list[int]:
        return [
            i
            for i, e in enumerate(edges)
            if alive[i] and v in e and e[0] != e[1]
        ]

    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            inc = incident(v)
            loops = [
                i for i, e in enumerate(edges) if alive[i] and e[0] == e[1] == v
            ]
            if len(inc) == 2 and not loops:
                i, j = inc
                a = edges[i][0] if edges[i][1] == v else edges[i][1]
                b = edges[j][0] if edges[j][1] == v else edges[j][1]
                alive[i] = False
                alive[j] = False
                edges.append([a, b])
                alive.append(True)
                changed = True
    kept = [tuple(e) for i, e in enumerate(edges) if alive[i]]
    used = sorted({v for e in kept for v in e})
    remap = {v: i for i, v in enumerate(used)}
    return Multigraph(len(used), [(remap[a], remap[b]) for a, b in kept])