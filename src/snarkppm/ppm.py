"""Perfect pseudo-matchings: validation, enumeration, contraction.

A perfect pseudo-matching (PPM) is a spanning collection of vertex-disjoint
K2 and K1,3 subgraphs of a cubic graph. Contracting one yields an eulerian
multigraph with degrees 4 and 6 plus the transition system induced by the
complement cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .minors import has_k5_minor, planar_skeleton
from .multigraph import (
    CubicGraph,
    Cycle,
    GraphError,
    Multigraph,
    check_cycle,
    is_dominating,
)


@dataclass(frozen=True)
class K2Component:
    edge: int


@dataclass(frozen=True)
class ClawComponent:
    center: int
    leaf_edges: tuple[int, int, int]


Component = K2Component | ClawComponent


@dataclass(frozen=True)
class PseudoMatching:
    components: tuple[Component, ...]

    def edge_set(self, g: Multigraph) -> set[int]:
        out: set[int] = set()
        for comp in self.components:
            if isinstance(comp, K2Component):
                out.add(comp.edge)
            else:
                out.update(comp.leaf_edges)
        return out

    def component_vertices(self, g: Multigraph) -> list[tuple[int, ...]]:
        out = []
        for comp in self.components:
            if isinstance(comp, K2Component):
                out.append(tuple(g.edges[comp.edge]))
            else:
                verts = [comp.center]
                for e in comp.leaf_edges:
                    verts.append(g.other_end(e, comp.center))
                out.append(tuple(verts))
        return out

    def is_perfect_matching(self) -> bool:
        return all(isinstance(c, K2Component) for c in self.components)

    def claw_count(self) -> int:
        return sum(1 for c in self.components if isinstance(c, ClawComponent))


def k2_component(g: Multigraph, a: int, b: int) -> K2Component:
    """The K2 on an edge joining vertices a and b."""
    return K2Component(_edge_between(g, a, b))


def claw_component(g: Multigraph, center: int, leaves: list[int]) -> ClawComponent:
    """The claw joining center to each leaf."""
    return ClawComponent(
        center, tuple(sorted(_edge_between(g, center, leaf) for leaf in leaves))
    )


def _edge_between(g: Multigraph, a: int, b: int) -> int:
    e = g.edge_between(a, b)
    if e is None:
        raise GraphError(f"no edge {a}-{b}")
    return e


@dataclass(frozen=True)
class Violation:
    message: str


def validate_ppm(g: CubicGraph, m: PseudoMatching) -> Violation | None:
    """None when m is a valid PPM of g, else the first violation found."""
    mg = g.graph
    covered: dict[int, int] = {}
    for ci, comp in enumerate(m.components):
        if isinstance(comp, K2Component):
            if not 0 <= comp.edge < mg.m:
                raise GraphError(f"component {ci}: edge index {comp.edge} out of range")
            a, b = mg.edges[comp.edge]
            if a == b:
                return Violation(f"component {ci}: edge {comp.edge} is a loop")
            verts = (a, b)
        else:
            if len(set(comp.leaf_edges)) != 3:
                return Violation(f"component {ci}: claw edges not distinct")
            verts_list = [comp.center]
            for e in comp.leaf_edges:
                if not 0 <= e < mg.m:
                    raise GraphError(f"component {ci}: edge index {e} out of range")
                x, y = mg.edges[e]
                if comp.center not in (x, y):
                    return Violation(
                        f"component {ci}: edge {e} not incident to center {comp.center}"
                    )
                leaf = mg.other_end(e, comp.center)
                if leaf == comp.center:
                    return Violation(f"component {ci}: edge {e} is a loop")
                verts_list.append(leaf)
            if len(set(verts_list)) != 4:
                return Violation(f"component {ci}: claw vertices not distinct")
            verts = tuple(verts_list)
        for v in verts:
            if v in covered:
                return Violation(f"vertex {v} in two components")
            covered[v] = ci
    for v in range(mg.n):
        if v not in covered:
            return Violation(f"uncovered vertex {v}")
    return None


def enumerate_ppms(
    g: CubicGraph, perfect_matchings_only: bool = False
) -> Iterator[PseudoMatching]:
    """All PPMs of g, each exactly once, in a deterministic order.

    Branches on the lowest uncovered vertex: cover it by each incident K2
    (by edge index), by the claw centered there, or by a claw centered at
    a neighbour (by vertex). The uncovered vertices are a bitmask. After a
    component is placed, a branch in which a neighbour of its vertices is
    left with no uncovered neighbour is dropped: no K2 and no claw can
    cover that vertex any more (forward checking), so the branch yields
    nothing and the order of the rest is unchanged.
    """
    mg = g.graph
    adj = [mg.adjacency_mask(v) for v in range(mg.n)]

    def option(comp: Component, verts: list[int]) -> tuple[Component, int, int]:
        # The component, the mask of its vertices, and of their neighbours.
        mask = around = 0
        for x in verts:
            mask |= 1 << x
            around |= adj[x]
        return comp, mask, around & ~mask

    claws: list[tuple[Component, int, int] | None] = []
    for u in range(mg.n):
        inc = sorted(mg.incident_edges(u))
        leaves = [mg.other_end(e, u) for e in inc]
        if len(inc) == 3 and u not in leaves and len(set(leaves)) == 3:
            claws.append(option(ClawComponent(u, tuple(inc)), [u, *leaves]))
        else:
            claws.append(None)
    choices = []
    for v in range(mg.n):
        row = [
            option(K2Component(e), [v, w])
            for e in sorted(mg.incident_edges(v))
            if (w := mg.other_end(e, v)) != v
        ]
        if not perfect_matchings_only:
            row += [claws[u] for u in (v, *mg.neighbors(v)) if claws[u] is not None]
        choices.append(row)
    parts: list[Component] = []

    def rec(free: int) -> Iterator[PseudoMatching]:
        if not free:
            yield PseudoMatching(tuple(parts))
            return
        for comp, mask, around in choices[(free & -free).bit_length() - 1]:
            if mask & free != mask:
                continue
            rest = free ^ mask
            check = around & rest
            while check:
                low = check & -check
                if not adj[low.bit_length() - 1] & rest:
                    break  # a stranded vertex
                check ^= low
            else:
                parts.append(comp)
                yield from rec(rest)
                parts.pop()

    try:
        yield from rec((1 << mg.n) - 1)
    finally:
        del rec  # the closure refers to itself: free it without the GC


def complement_cycles(g: CubicGraph, m: PseudoMatching) -> list[Cycle]:
    """The disjoint cycles of g minus the PPM edges, with the edges walked.

    Each cycle starts at its least vertex and steps first along the
    lower-indexed available edge, so output is deterministic.
    """
    bad = validate_ppm(g, m)
    if bad is not None:
        raise GraphError(f"invalid PPM: {bad.message}")
    mg = g.graph
    in_m = m.edge_set(mg)
    next_edges: list[list[int]] = [[] for _ in range(mg.n)]
    for e in range(mg.m):
        if e in in_m:
            continue
        a, b = mg.edges[e]
        next_edges[a].append(e)
        next_edges[b].append(e)
    for v in range(mg.n):
        if len(next_edges[v]) not in (0, 2):  # claw centers have degree 0
            raise GraphError(
                f"complement degree at vertex {v} is {len(next_edges[v])}"
            )
    seen = [False] * mg.n
    cycles = []
    for s in range(mg.n):
        if seen[s] or not next_edges[s]:
            continue
        verts: list[int] = []
        walked: list[int] = []
        v, e = s, min(next_edges[s])
        while True:
            verts.append(v)
            walked.append(e)
            seen[v] = True
            v = mg.other_end(e, v)
            if v == s:
                break
            e = next_edges[v][0] if next_edges[v][1] == e else next_edges[v][1]
        cycles.append(Cycle(tuple(verts), tuple(walked)))
    return cycles


@dataclass(frozen=True)
class TransitionSystem:
    """Per contracted vertex, disjoint pairs of incident edge indices."""

    pairs_at: tuple[tuple[frozenset[int], ...], ...]

    def pairs(self, v: int) -> tuple[frozenset[int], ...]:
        return self.pairs_at[v]


@dataclass(frozen=True)
class ContractedGraph:
    graph: Multigraph
    transitions: TransitionSystem
    component_of: tuple[int, ...]  # original vertex -> quotient vertex
    edge_origin: tuple[int, ...]  # quotient edge -> original edge


def _numbering(g: CubicGraph, m: PseudoMatching) -> tuple[list[int], int]:
    """``component_of`` (original vertex -> quotient vertex, numbered by
    least original vertex) and the quotient's vertex count.

    Raises GraphError unless m is a valid PPM of a connected g. Every
    quotient vertex then has degree 4 or 6, as g is cubic: a K2's two ends
    keep two edges each, a claw's three leaves two each and its center none.
    """
    bad = validate_ppm(g, m)
    if bad is not None:
        raise GraphError(f"invalid PPM: {bad.message}")
    mg = g.graph
    if not mg.is_connected():
        raise GraphError("contraction requires a connected graph")
    comp_verts = m.component_vertices(mg)
    comp_verts.sort(key=min)
    component_of = [-1] * mg.n
    for q, verts in enumerate(comp_verts):
        for v in verts:
            component_of[v] = q
    return component_of, len(comp_verts)


def quotient(
    g: CubicGraph, m: PseudoMatching
) -> tuple[Multigraph, tuple[int, ...], tuple[int, ...]]:
    """The quotient of g by the PPM components, with ``component_of``
    (original vertex -> quotient vertex) and ``edge_origin`` (quotient edge
    -> original edge).

    Raises GraphError unless m is a valid PPM of a connected g.
    """
    component_of, k = _numbering(g, m)
    in_m = m.edge_set(g.graph)
    q_edges = []
    edge_origin = []
    for e, (a, b) in enumerate(g.graph.edges):
        if e not in in_m:
            # A complement edge that joins two vertices of one component
            # (e.g. two claw leaves) gives a quotient loop.
            q_edges.append((component_of[a], component_of[b]))
            edge_origin.append(e)
    return Multigraph(k, q_edges), tuple(component_of), tuple(edge_origin)


def quotient_skeleton(g: CubicGraph, m: PseudoMatching) -> dict[int, int]:
    """The simple skeleton of ``quotient(g, m)[0]`` as neighbour bitmasks
    (quotient vertex -> mask, in ascending vertex order, in ``quotient``'s
    numbering), with no ``Multigraph`` and no edge list.

    Validates m as ``quotient`` does, with the same GraphError. Every edge
    of m lies inside one component, so the skeleton's edges are the edges
    of g whose ends lie in two different components.
    """
    component_of, k = _numbering(g, m)
    adj = dict.fromkeys(range(k), 0)
    for a, b in g.graph.edges:
        qa = component_of[a]
        qb = component_of[b]
        if qa != qb:
            adj[qa] |= 1 << qb
            adj[qb] |= 1 << qa
    return adj


def contract(g: CubicGraph, m: PseudoMatching) -> ContractedGraph:
    """Quotient g by the PPM components, with the induced transition system."""
    q, component_of, edge_origin = quotient(g, m)
    # Transitions: quotient edge pairs consecutive on a complement cycle
    # through the component, i.e. the two non-PPM edges at each original
    # vertex that still has two of them.
    q_index = {e: i for i, e in enumerate(edge_origin)}
    mg = g.graph
    pairs: list[list[frozenset[int]]] = [[] for _ in range(q.n)]
    for v in range(mg.n):
        non_m = [q_index[e] for e in mg.incident_edges(v) if e in q_index]
        if len(non_m) == 2:
            pairs[component_of[v]].append(frozenset(non_m))
    for v in range(q.n):
        if len(pairs[v]) != q.degree(v) // 2:
            raise GraphError(f"quotient vertex {v} has {len(pairs[v])} transitions")
    return ContractedGraph(
        q,
        TransitionSystem(tuple(tuple(p) for p in pairs)),
        component_of,
        edge_origin,
    )


def quotient_components(
    g: Multigraph, m: PseudoMatching, cg: ContractedGraph
) -> dict[int, Component]:
    """The component of m behind each quotient vertex of cg = contract(g, m)."""
    verts = m.component_vertices(g)
    return {cg.component_of[vs[0]]: comp for comp, vs in zip(m.components, verts)}


PLANARIZING = "planarizing"
K5_MINOR_FREE_ONLY = "k5_minor_free_only"
NEITHER = "neither"


def classify_ppm(g: CubicGraph, m: PseudoMatching) -> str:
    """planarizing | k5_minor_free_only | neither, judged on the quotient.

    Reads only the quotient's skeleton, ``quotient_skeleton(g, m)``, so it
    builds neither a ``Multigraph`` nor a transition system. A K5 minor
    settles it (nonplanar): usually by the search's dive, with no
    planarity test. Only a K5-minor-free skeleton is asked
    ``planar_skeleton``.
    """
    q = quotient_skeleton(g, m)
    if has_k5_minor(q):
        return NEITHER
    return PLANARIZING if planar_skeleton(q) else K5_MINOR_FREE_ONLY


def ppm_from_dominating_cycle(g: CubicGraph, c: Cycle) -> PseudoMatching:
    """The PPM formed by the edges of g not on the dominating cycle c."""
    mg = g.graph
    check_cycle(mg, c)
    if not is_dominating(g, set(c.vertices)):
        raise GraphError("cycle is not dominating")
    cyc_edges = c.edge_set()
    rest = [e for e in range(mg.m) if e not in cyc_edges]
    deg = {v: [] for v in range(mg.n)}
    for e in rest:
        a, b = mg.edges[e]
        deg[a].append(e)
        deg[b].append(e)
    parts: list[Component] = []
    used: set[int] = set()
    for v in range(mg.n):
        if len(deg[v]) == 3 and v not in used:
            parts.append(ClawComponent(v, tuple(sorted(deg[v]))))
            used.add(v)
            for e in deg[v]:
                used.add(mg.other_end(e, v))
    for e in rest:
        a, b = mg.edges[e]
        if a in used or b in used:
            continue
        parts.append(K2Component(e))
        used.add(a)
        used.add(b)
    ppm = PseudoMatching(tuple(parts))
    bad = validate_ppm(g, ppm)
    if bad is not None:
        raise GraphError(f"cycle complement is not a PPM: {bad.message}")
    return ppm


# -- PPM sidecar text format -------------------------------------------------
#
# One line per component: "K2 a b" or "CLAW c x y z", with vertex ids of g.


def write_ppm(g: Multigraph, m: PseudoMatching) -> str:
    lines = []
    for comp in m.components:
        if isinstance(comp, K2Component):
            a, b = g.edges[comp.edge]
            lines.append(f"K2 {a} {b}")
        else:
            leaves = sorted(g.other_end(e, comp.center) for e in comp.leaf_edges)
            lines.append(f"CLAW {comp.center} {leaves[0]} {leaves[1]} {leaves[2]}")
    return "\n".join(lines) + "\n"


def parse_ppm(g: Multigraph, text: str) -> PseudoMatching:
    """Read the sidecar format; a malformed line raises GraphError naming it."""
    parts: list[Component] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, *fields = line.split()
        if (kind, len(fields)) not in (("K2", 2), ("CLAW", 4)):
            raise GraphError(f"ppm line {lineno}: unrecognized component {line!r}")
        try:
            ids = [int(f) for f in fields]
        except ValueError:
            raise GraphError(f"ppm line {lineno}: non-integer vertex in {line!r}") from None
        for v in ids:
            if not 0 <= v < g.n:
                raise GraphError(f"ppm line {lineno}: vertex {v} outside 0..{g.n - 1}")
        try:
            if kind == "K2":
                parts.append(k2_component(g, *ids))
            else:
                parts.append(claw_component(g, ids[0], ids[1:]))
        except GraphError as exc:
            raise GraphError(f"ppm line {lineno}: {exc}") from None
    return PseudoMatching(tuple(parts))
