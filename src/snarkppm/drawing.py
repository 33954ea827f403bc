"""Drawings with pseudo-matching-avoiding crossings.

A drawing is kept purely combinatorially: the planarization (original
vertices plus one degree-4 dummy per crossing), its rotation system, the
list of crossing pairs, and the path of planarized edges each original edge
maps to. New edges are inserted along face paths of the partial
planarization; every produced embedding is checked against Euler's formula.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .embedding import Dart, PlanarEmbedding, face_successor, trace_faces
from .minors import is_planar
from .multigraph import CubicGraph, GraphError, Multigraph, girth
from .ppm import (
    Component,
    ContractedGraph,
    K2Component,
    PseudoMatching,
    contract,
    quotient_components,
    validate_ppm,
)


@dataclass(frozen=True)
class Drawing:
    base: CubicGraph
    ppm: PseudoMatching
    planarized: Multigraph
    embedding: PlanarEmbedding
    crossings: tuple[tuple[int, int], ...]  # pairs of original edge ids
    crossing_dummies: tuple[int, ...]  # dummy vertex per crossing
    segment_map: dict[int, tuple[int, ...]]  # original edge -> planarized path


def validate_drawing(d: Drawing) -> None:
    """Check all structural invariants; raises GraphError on the first breach."""
    g = d.base.graph
    m_edges = d.ppm.edge_set(g)
    seen_pairs = set()
    for e, f in d.crossings:
        if e in m_edges or f in m_edges:
            raise GraphError(f"crossing ({e},{f}) involves a pseudo-matching edge")
        pair = frozenset({e, f})
        if len(pair) != 2:
            raise GraphError(f"crossing ({e},{f}) pairs an edge with itself")
        if pair in seen_pairs:
            raise GraphError(f"edges {e},{f} cross more than once")
        seen_pairs.add(pair)
        if set(g.edges[e]) & set(g.edges[f]):
            raise GraphError(f"adjacent edges {e},{f} cross")

    owner: dict[int, int] = {}
    for orig, path in d.segment_map.items():
        for pe in path:
            if pe in owner:
                raise GraphError(f"planarized edge {pe} owned twice")
            owner[pe] = orig
    if len(owner) != d.planarized.m:
        raise GraphError("segment map does not cover the planarization")

    for ci, dummy in enumerate(d.crossing_dummies):
        if d.planarized.degree(dummy) != 4:
            raise GraphError(f"dummy {dummy} has degree {d.planarized.degree(dummy)}")
        ring = d.embedding.rotation[dummy]
        owners = [owner[dart[0]] for dart in ring]
        if owners[0] != owners[2] or owners[1] != owners[3] or owners[0] == owners[1]:
            raise GraphError(f"dummy {dummy} does not alternate its edges: {owners}")
        if frozenset({owners[0], owners[1]}) != frozenset(d.crossings[ci]):
            raise GraphError(f"dummy {dummy} owners disagree with crossing {ci}")

    for orig, path in d.segment_map.items():
        a, b = g.edges[orig]
        at = a
        for pe in path:
            x, y = d.planarized.edges[pe]
            if at == x:
                at = y
            elif at == y:
                at = x
            else:
                raise GraphError(f"segment path of edge {orig} is not connected")
        if at != b:
            raise GraphError(f"segment path of edge {orig} ends at {at}, not {b}")

    d.embedding.verify_euler()


def crossings_component_local(g: CubicGraph, m: PseudoMatching, d: Drawing) -> bool:
    """True iff every crossing pair is incident to two different vertices of
    a single pseudo-matching component."""
    comps = m.component_vertices(g.graph)
    comp_of = {}
    for ci, verts in enumerate(comps):
        for v in verts:
            comp_of[v] = ci
    return all(
        _component_local(g.graph, comp_of, e, f) for e, f in d.crossings
    )


def _component_local(g: Multigraph, comp_of: dict[int, int], e: int, f: int) -> bool:
    for p in g.edges[e]:
        for q in g.edges[f]:
            if p != q and comp_of[p] == comp_of[q]:
                return True
    return False


# ---------------------------------------------------------------------------
# Incremental planarization
# ---------------------------------------------------------------------------


def _insert_across_face(
    edges: Sequence[tuple[int, int]], rot: dict[int, list[Dart]], e: int,
    da: Dart, db: Dart,
) -> None:
    """Put edge e = (tail(da), tail(db)) into rot across the face that has
    da and db on its boundary: (e, 0) goes just before da, (e, 1) just
    before db. This splits that face in two, so the rotation stays planar."""
    ru = rot[edges[da[0]][da[1]]]
    ru.insert(ru.index(da), (e, 0))
    rv = rot[edges[db[0]][db[1]]]
    rv.insert(rv.index(db), (e, 1))


class _Planarizer:
    """Planar rotation system under edge insertion with crossings.

    Each edge is owned by the id of the edge of G it draws, or by None for
    a patch boundary; subdividing keeps the owner. Faces and the planarity
    check come from ``embedding``.
    """

    def __init__(self) -> None:
        self.nv = 0
        self.edges: list[tuple[int, int]] = []
        self.owner: list[int | None] = []
        self.alive: list[bool] = []
        self.rot: dict[int, list[Dart]] = {}

    def new_vertex(self) -> int:
        v = self.nv
        self.nv += 1
        self.rot[v] = []
        return v

    def seed_edge(self, a: int, b: int, owner: int | None) -> int:
        """Append an edge without touching rotations (caller seeds those)."""
        e = len(self.edges)
        self.edges.append((a, b))
        self.owner.append(owner)
        self.alive.append(True)
        return e

    def tail(self, d: Dart) -> int:
        return self.edges[d[0]][d[1]]

    def verify_planar(self) -> None:
        self.live_graph()[2].verify_euler()

    # -- modification --------------------------------------------------------

    def subdivide(self, e: int) -> int:
        """Split live edge e = (x, y) at a new dummy, preserving faces.

        New edges are (x, dummy) and (dummy, y) with e's owner.
        """
        x, y = self.edges[e]
        d = self.new_vertex()
        self.alive[e] = False
        e1 = self.seed_edge(x, d, self.owner[e])
        e2 = self.seed_edge(d, y, self.owner[e])
        self._replace_dart(x, (e, 0), (e1, 0))
        self._replace_dart(y, (e, 1), (e2, 1))
        self.rot[d] = [(e1, 1), (e2, 0)]
        return d

    def _replace_dart(self, v: int, old: Dart, new: Dart) -> None:
        ring = self.rot[v]
        ring[ring.index(old)] = new

    def connect_darts(self, da: Dart, db: Dart, owner: int) -> int:
        """Insert an edge from tail(da) to tail(db) across the face that has
        da and db on its boundary (validity is the caller's responsibility)."""
        e = self.seed_edge(self.tail(da), self.tail(db), owner)
        _insert_across_face(self.edges, self.rot, e, da, db)
        return e

    def _find_route(
        self, u: int, v: int, can_cross: Callable[[int | None], bool]
    ) -> tuple[Dart, list[Dart]]:
        """Shortest face path from u to v; returns (start dart, crossed darts).

        A crossed dart lies on the face being left; distinct owners only.
        An empty dart list means u and v already share a face.
        """
        if not self.rot[u] or not self.rot[v]:
            raise GraphError("route endpoints must already carry an edge")
        walks, face_of = trace_faces(self.edges, self.rot)
        sources: dict[int, Dart] = {}
        for da in self.rot[u]:
            sources.setdefault(face_of[da], da)
        targets = {face_of[d] for d in self.rot[v]}
        hit = set(sources) & targets
        if hit:
            return sources[min(hit)], []
        prev: dict[int, tuple[int, Dart]] = {}
        seen = set(sources)
        queue = deque(sorted(sources))
        found = None
        while queue and found is None:
            f = queue.popleft()
            for dart in walks[f]:
                e = dart[0]
                if not can_cross(self.owner[e]):
                    continue
                g = face_of[(e, 1 - dart[1])]
                if g in seen:
                    continue
                seen.add(g)
                prev[g] = (f, dart)
                if g in targets:
                    found = g
                    break
                queue.append(g)
        if found is None:
            raise GraphError("no face route between endpoints")
        path: list[Dart] = []
        cur = found
        while cur not in sources:
            f, dart = prev[cur]
            path.append(dart)
            cur = f
        path.reverse()
        owners = [self.owner[d[0]] for d in path]
        if len(set(owners)) != len(owners):
            return self._route_dedup(walks, face_of, sources, targets, can_cross,
                                     len(path) + 4)
        return sources[cur], path

    def _route_dedup(self, walks, face_of, sources, targets, can_cross, cap):
        """Depth-limited search keeping crossed owners distinct on the path."""
        out: list[tuple[Dart, list[Dart]]] = []

        def dfs(f: int, owners: frozenset, path: list[Dart]) -> bool:
            if f in targets and path:
                return True
            if len(path) >= cap:
                return False
            for dart in walks[f]:
                e = dart[0]
                own = self.owner[e]
                if own in owners or not can_cross(own):
                    continue
                g = face_of[(e, 1 - dart[1])]
                path.append(dart)
                if dfs(g, owners | {own}, path):
                    return True
                path.pop()
            return False

        for f, da in sorted(sources.items()):
            path: list[Dart] = []
            if dfs(f, frozenset(), path):
                out.append((da, path))
                break
        if not out:
            raise GraphError("no owner-distinct face route between endpoints")
        return out[0]

    # -- extraction ----------------------------------------------------------

    def live_graph(self) -> tuple[Multigraph, dict[int, int], PlanarEmbedding]:
        live = [e for e in range(len(self.edges)) if self.alive[e]]
        remap = {e: i for i, e in enumerate(live)}
        g = Multigraph(self.nv, [self.edges[e] for e in live])
        rot = {v: [(remap[e], s) for e, s in self.rot[v]] for v in range(self.nv)}
        emb = PlanarEmbedding(g, rot)
        return g, remap, emb

    def owner_chain(self, owner: int, start: int) -> list[int]:
        """Live edges of one owner, ordered as a path starting at start."""
        mine = [
            e
            for e in range(len(self.edges))
            if self.alive[e] and self.owner[e] == owner
        ]
        at: dict[int, list[int]] = {}
        for e in mine:
            a, b = self.edges[e]
            at.setdefault(a, []).append(e)
            at.setdefault(b, []).append(e)
        chain = []
        cur = start
        prev_edge = -1
        for _ in range(len(mine)):
            e = next(x for x in at[cur] if x != prev_edge)
            chain.append(e)
            a, b = self.edges[e]
            cur = b if cur == a else a
            prev_edge = e
        return chain


# ---------------------------------------------------------------------------
# draw_m_avoiding
# ---------------------------------------------------------------------------


def draw_m_avoiding(g: CubicGraph, m: PseudoMatching) -> Drawing:
    """Draw g so that all crossings avoid the pseudo-matching edges, with
    few crossings (not minimal).

    Each candidate starts from a greedy maximal planar subgraph seeded with
    the matching, then inserts each leftover edge along a shortest face
    path, one dummy per crossed segment (the planarization method). The
    candidates are the edge orders of ``_search_orders``; the fewest
    crossings win, the first found on a tie. One ``_DrawingSearch`` routes
    them, so they share its planarity answers, and only the winner is
    finished and validated.

    The greedy (``_planar_subgraph``) keeps a rotation system of the kept
    edges and accepts an edge that joins two components, is a loop, or
    joins two vertices of one face; only the other edges take a planarity
    test, and every rejection comes from that test. The kept set is
    re-embedded by ``is_planar`` to seed the planarization, so a candidate
    depends only on g, m and its order. Each rejected edge crosses at
    least once when it is routed (else the kept set plus that edge would
    be planar), so an order is dropped as soon as its rejections reach the
    best crossing count so far: it cannot be strictly better. The search
    stops at a drawing with no more crossings than a lower bound on every
    drawing: deleting one edge per crossing of a simple graph with girth g
    leaves a planar graph of girth at least g, which has at most
    g(n - 2)/(g - 2) edges. For a multigraph the bound is 0.
    """
    floor = 0
    if g.simple and g.n >= 3:
        gi = girth(g.graph)
        floor = g.graph.m - gi * (g.n - 2) // (gi - 2)
    search = _DrawingSearch(g, m)
    best = None
    for order in _search_orders(search.non_m):
        try:
            c = search.route(order, None if best is None else len(best.crossings))
        except GraphError:
            continue
        if c is None:
            continue
        if best is None or len(c.crossings) < len(best.crossings):
            best = c
        if len(best.crossings) <= floor:
            break
    if best is None:
        raise GraphError("no drawing produced")
    return search.finish(best)


def _search_orders(non_m: list[int]) -> list[list[int]]:
    """The edge orders ``draw_m_avoiding`` tries, in turn: about 12
    rotations of the non-matching edges, each followed by its reverse; the
    one empty order when there are none."""
    stride = max(1, len(non_m) // 12)
    orders = []
    for shift in range(0, len(non_m), stride):
        rotated = non_m[shift:] + non_m[:shift]
        orders += [rotated, rotated[::-1]]
    return orders or [[]]


class _PlanarityMemo:
    """Planarity of edge sets of one graph, the sets as int masks of its
    edge ids.

    A set that contains a set known to be nonplanar is nonplanar. A set
    inside a set known to be planar is planar, with that set's rotation
    restricted to its edges: deleting edges keeps an embedding plane. Any
    other set takes one left-right test, whose answer is recorded; only
    the minimal known nonplanar and the maximal known planar sets are
    kept. Every answer is exact; only the rotation may differ from the
    left-right test's own.
    """

    def __init__(self, mg: Multigraph) -> None:
        self.mg = mg
        self.nonplanar: list[int] = []
        self.planar: list[tuple[int, dict[int, list[Dart]]]] = []
        self.embeddings: dict[tuple[int, ...], PlanarEmbedding | None] = {}

    def _subgraph(self, edge_ids: Sequence[int]) -> Multigraph:
        return Multigraph(self.mg.n, [self.mg.edges[x] for x in edge_ids])

    def rotation(self, mask: int) -> dict[int, list[Dart]] | None:
        """A planar rotation system of the edge set mask, keyed by edge ids
        of the graph (fresh lists the caller may change), or None if that
        set is nonplanar."""
        if any(bad & mask == bad for bad in self.nonplanar):
            return None
        for known, rot in self.planar:
            if known & mask == mask:
                return {
                    v: [d for d in ring if mask >> d[0] & 1] for v, ring in rot.items()
                }
        ids = [x for x in range(self.mg.m) if mask >> x & 1]
        emb = is_planar(self._subgraph(ids))
        if emb is None:
            self.nonplanar = [bad for bad in self.nonplanar if bad & mask != mask]
            self.nonplanar.append(mask)
            return None
        rot = {v: [(ids[i], s) for i, s in ring] for v, ring in emb.rotation.items()}
        self.planar = [(k, r) for k, r in self.planar if k & mask != k]
        self.planar.append((mask, rot))
        return {v: list(ring) for v, ring in rot.items()}

    def embedding(self, kept: list[int]) -> PlanarEmbedding | None:
        """``is_planar`` of the subgraph on the edges kept (sorted), which
        numbers its edges in that order; one test per distinct set."""
        key = tuple(kept)
        if key not in self.embeddings:
            self.embeddings[key] = is_planar(self._subgraph(kept))
        return self.embeddings[key]


@dataclass
class _Candidate:
    """A routed drawing of one edge order, not yet finished."""

    pl: _Planarizer
    crossings: list[tuple[int, int]]
    dummies: list[int]


class _DrawingSearch:
    """Candidate drawings of one (g, m) under different edge orders.

    The inputs are validated once, and the candidates share one
    ``_PlanarityMemo``. A candidate is only routed; ``finish`` builds and
    validates the drawing of the one the caller keeps.
    """

    def __init__(self, g: CubicGraph, m: PseudoMatching) -> None:
        bad = validate_ppm(g, m)
        if bad is not None:
            raise GraphError(f"invalid PPM: {bad.message}")
        mg = g.graph
        if not mg.is_connected():
            raise GraphError("drawing requires a connected graph")
        self.g, self.m, self.mg = g, m, mg
        self.m_set = m.edge_set(mg)
        self.non_m = [e for e in range(mg.m) if e not in self.m_set]
        self.memo = _PlanarityMemo(mg)

    def route(
        self, edge_order: list[int], max_rejected: int | None = None
    ) -> _Candidate | None:
        """Greedy planar subgraph under edge_order (the non-matching edges,
        each once), then the leftover edges routed in that order; raises
        GraphError if a route fails. Returns
        None as soon as the greedy has rejected max_rejected edges: each
        rejected edge crosses at least once when routed, so the candidate
        would have at least that many crossings."""
        mg = self.mg
        kept = _planar_subgraph(mg, self.m_set, edge_order, self.memo, max_rejected)
        if kept is None:
            return None
        emb = self.memo.embedding(kept)
        if emb is None:
            # Not a property of the input: the greedy accepted a wrong edge.
            raise RuntimeError("planar subgraph stage failed")

        pl = _Planarizer()
        for _ in range(mg.n):
            pl.new_vertex()
        for orig in kept:
            pl.seed_edge(*mg.edges[orig], orig)
        # Planarizer edge i mirrors embedded edge i (both enumerate kept in order).
        for v in range(mg.n):
            pl.rot[v] = list(emb.rotation[v])

        kept_set = set(kept)
        router = _Router(mg, self.m_set, set())
        for e in edge_order:
            if e not in kept_set:
                router.route(pl, e, *mg.edges[e])
        return _Candidate(pl, router.crossings, router.dummies)

    def finish(self, c: _Candidate) -> Drawing:
        """The validated drawing of a candidate; a drawing that fails its
        checks is a fault of this module, not of the edge order."""
        try:
            return _finish_drawing(self.g, self.m, c.pl, c.crossings, c.dummies)
        except GraphError as exc:
            raise RuntimeError(f"routed drawing failed validation: {exc}") from exc


def _planar_subgraph(
    mg: Multigraph,
    m_set: set[int],
    edge_order: list[int],
    memo: _PlanarityMemo,
    max_rejected: int | None = None,
) -> list[int] | None:
    """Greedy maximal planar subgraph: the edges of m_set, then each edge of
    edge_order that keeps the kept set planar; returned sorted, or None once
    max_rejected edges have been rejected.

    A rotation system of the kept edges, keyed by edge ids of mg, decides
    each candidate e = (a, b) by the first rule that applies:

    1. a and b lie in different components of the kept set: accept, with
       the new darts anywhere in the rotations at a and b;
    2. e is a loop, or a and b lie on a common face: accept, inserting e
       across that face (a loop's two darts side by side);
    3. otherwise ask memo (a ``_PlanarityMemo`` of mg, which may be shared
       by every order of one search) about the kept set plus e; if it is
       planar, accept and take the memo's rotation as the new one, since
       the old one may not extend.

    Rules 1 and 2 are sufficient for planarity and the memo is exact, so
    the kept set is exactly that of testing every candidate.
    """
    comp = list(range(mg.n))  # union-find over the kept edges

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    rot: dict[int, list[Dart]] = {v: [] for v in range(mg.n)}
    kept: list[int] = []
    mask = 0
    rejected = 0
    for e in [*sorted(m_set), *edge_order]:
        a, b = mg.edges[e]
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[ra] = rb
            rot[a].append((e, 0))
            rot[b].append((e, 1))
        elif a == b:
            rot[a][:0] = [(e, 0), (e, 1)]
        elif (pair := _shared_face(mg.edges, rot, a, b)) is not None:
            _insert_across_face(mg.edges, rot, e, *pair)
        else:
            trial = memo.rotation(mask | 1 << e)
            if trial is None:
                rejected += 1
                if max_rejected is not None and rejected >= max_rejected:
                    return None
                continue
            rot = trial
        kept.append(e)
        mask |= 1 << e
    return sorted(kept)


def _shared_face(
    edges: Sequence[tuple[int, int]], rot: dict[int, list[Dart]], a: int, b: int
) -> tuple[Dart, Dart] | None:
    """Darts at a and at b on one common face of rot, if there is one.
    Only the faces at a are walked."""
    seen: set[Dart] = set()
    for da in rot[a]:
        d = da
        while d not in seen:
            if edges[d[0]][d[1]] == b:
                return da, d
            seen.add(d)
            d = face_successor(edges, rot, d)
    return None


@dataclass
class _Router:
    """Inserts edges of G into a planarizer and records the crossings made.

    The one crossing rule: a segment may be crossed only if it draws an
    edge of G (not a patch boundary) that is off the PPM, is not adjacent
    to the routed edge (an edge is adjacent to itself), and has not crossed
    it before. ``crossed`` may be shared between routers.
    """

    mg: Multigraph
    m_edges: set[int]
    crossed: set[frozenset[int]]
    crossings: list[tuple[int, int]] = field(default_factory=list)  # in order
    dummies: list[int] = field(default_factory=list)  # one per crossing

    def route(self, pl: _Planarizer, orig: int, a: int, b: int) -> None:
        """Draw edge orig of G from planarizer vertex a to b along a shortest
        face path, one dummy per crossed segment."""
        ends = set(self.mg.edges[orig])

        def can_cross(other: int | None) -> bool:
            return (
                other is not None
                and other not in self.m_edges
                and not ends & set(self.mg.edges[other])
                and frozenset({orig, other}) not in self.crossed
            )

        cur_dart, path = pl._find_route(a, b, can_cross)
        for e, s in path:
            other = pl.owner[e]
            dummy = pl.subdivide(e)
            e1, e2 = len(pl.edges) - 2, len(pl.edges) - 1
            same_side = (e2, 0) if s == 0 else (e1, 1)
            beyond = (e1, 1) if s == 0 else (e2, 0)
            pl.connect_darts(cur_dart, same_side, orig)
            self.crossed.add(frozenset({orig, other}))
            self.crossings.append((min(orig, other), max(orig, other)))
            self.dummies.append(dummy)
            cur_dart = beyond
        # The last face reached holds b; walk it from cur_dart.
        d = cur_dart
        while pl.tail(d) != b:
            d = face_successor(pl.edges, pl.rot, d)
            if d == cur_dart:
                raise GraphError("route lost its target face")
        pl.connect_darts(cur_dart, d, orig)


def _finish_drawing(
    g: CubicGraph,
    m: PseudoMatching,
    pl: _Planarizer,
    crossings: list[tuple[int, int]],
    dummies: list[int],
) -> Drawing:
    plan, remap, emb = pl.live_graph()
    segment_map: dict[int, tuple[int, ...]] = {}
    for orig in range(g.graph.m):
        a, _b = g.graph.edges[orig]
        chain = pl.owner_chain(orig, a)
        segment_map[orig] = tuple(remap[e] for e in chain)
    d = Drawing(g, m, plan, emb, tuple(crossings), tuple(dummies), segment_map)
    validate_drawing(d)
    return d


# ---------------------------------------------------------------------------
# seek_planarizing_drawing
# ---------------------------------------------------------------------------


def seek_planarizing_drawing(g: CubicGraph, m: PseudoMatching) -> Drawing | None:
    """Witness drawing with component-local crossings, when M is planarizing.

    Built from a planar embedding of G/M by replacing each quotient vertex
    with a disk holding its component; quotient edge ends become legs routed
    inside the disk, so crossings only pair edges that are incident to
    different vertices of one component. Quotient loops (edges joining two
    vertices of one component) never leave their disk and are routed there
    directly. Returns None when G/M is nonplanar.
    """
    cg = contract(g, m)
    mg = g.graph

    # Embed the loopless quotient (loops never change planarity, and they
    # stay internal to their patches).
    nonloop = [qe for qe, (a, b) in enumerate(cg.graph.edges) if a != b]
    skeleton = Multigraph(cg.graph.n, [cg.graph.edges[qe] for qe in nonloop])
    sk_emb = is_planar(skeleton)
    if sk_emb is None:
        return None
    internal: dict[int, list[int]] = {}
    for qe, (a, b) in enumerate(cg.graph.edges):
        if a == b:
            internal.setdefault(a, []).append(cg.edge_origin[qe])

    m_edges = m.edge_set(mg)
    crossed: set[frozenset[int]] = set()
    patches: list[_Patch] = []  # patches[q] draws quotient vertex q
    comps = quotient_components(mg, m, cg)
    for q in range(cg.graph.n):
        darts = [(nonloop[e], s) for e, s in sk_emb.rotation[q]]
        patches.append(
            _build_patch(
                mg, cg, q, darts, comps[q], internal.get(q, []), m_edges, crossed
            )
        )
    drawing = _glue_patches(g, m, cg, patches)
    if not crossings_component_local(g, m, drawing):
        raise GraphError("witness drawing has a non-component-local crossing")
    return drawing


@dataclass
class _Patch:
    pl: _Planarizer
    local_of_gvertex: dict[int, int]
    boundary_count: int  # b-nodes are local ids 0..boundary_count-1
    stub_of_dart: dict[Dart, int]  # quotient dart -> its b-node local id
    crossings: list[tuple[int, int]]  # original edge pairs, in order
    crossing_dummies: list[int]  # local dummy ids


def _leg_target(mg: Multigraph, cg: ContractedGraph, dart: Dart) -> int:
    qe, side = dart
    return mg.edges[cg.edge_origin[qe]][side]


def _build_patch(
    mg: Multigraph,
    cg: ContractedGraph,
    q: int,
    darts: list[Dart],
    comp: Component,
    internal_origins: list[int],
    m_edges: set[int],
    crossed: set[frozenset[int]],
) -> _Patch:
    # Boundary positions are fixed by the quotient rotation (the interior
    # sees it mirrored); greedy routing can wall a later leg off, so retry
    # with different routing orders, which never move the boundary.
    base = list(reversed(darts))
    k2 = len(base)
    orders: list[list[int]] = [[]] if k2 == 0 else []
    for shift in range(k2):
        seq = list(range(shift, k2)) + list(range(0, shift))
        orders.append(seq)
        orders.append([seq[0]] + list(reversed(seq[1:])))
    last_error: GraphError | None = None
    for order in orders:
        snapshot = set(crossed)
        router = _Router(mg, m_edges, crossed)
        try:
            return _try_patch(mg, cg, base, order, comp, internal_origins, router)
        except GraphError as exc:
            crossed.clear()
            crossed.update(snapshot)
            last_error = exc
    raise GraphError(f"patch for quotient vertex {q} failed: {last_error}")


def _try_patch(
    mg: Multigraph,
    cg: ContractedGraph,
    darts: list[Dart],
    route_order: list[int],
    comp: Component,
    internal_origins: list[int],
    router: _Router,
) -> _Patch:
    k2 = len(darts)
    pl = _Planarizer()
    for _ in range(k2):
        pl.new_vertex()
    b_edges = [pl.seed_edge(i, (i + 1) % k2, None) for i in range(k2)] if k2 else []
    for i in range(k2):
        pl.rot[i] = [(b_edges[i], 0), (b_edges[(i - 1) % k2], 1)]

    local_of: dict[int, int] = {}
    if isinstance(comp, K2Component):
        a, b = mg.edges[comp.edge]
        local_of[a] = pl.new_vertex()
        local_of[b] = pl.new_vertex()
        em = pl.seed_edge(local_of[a], local_of[b], comp.edge)
        pl.rot[local_of[a]] = [(em, 0)]
        pl.rot[local_of[b]] = [(em, 1)]
    else:
        center = comp.center
        local_of[center] = pl.new_vertex()
        # Claw arms take the order the interior first meets each leaf.
        order: list[int] = []
        for dart in darts:
            t = _leg_target(mg, cg, dart)
            if t not in order:
                order.append(t)
        for e in comp.leaf_edges:
            leaf = mg.other_end(e, center)
            if leaf not in order:
                order.append(leaf)
        ring = []
        for leaf in order:
            local_of[leaf] = pl.new_vertex()
            em = pl.seed_edge(
                local_of[center], local_of[leaf], mg.edge_between(center, leaf)
            )
            ring.append((em, 0))
            pl.rot[local_of[leaf]] = [(em, 1)]
        pl.rot[local_of[center]] = ring

    stub_of: dict[Dart, int] = {}
    if k2:
        # First routed leg is placed by hand so the patch starts connected.
        first_b = route_order[0]
        first = darts[first_b]
        t0 = local_of[_leg_target(mg, cg, first)]
        leg0 = pl.seed_edge(first_b, t0, cg.edge_origin[first[0]])
        pl.rot[first_b] = [
            (b_edges[first_b], 0),
            (leg0, 0),
            (b_edges[(first_b - 1) % k2], 1),
        ]
        pl.rot[t0].append((leg0, 1))
        pl.verify_planar()
        stub_of[first] = first_b
        for i in route_order[1:]:
            dart = darts[i]
            target = local_of[_leg_target(mg, cg, dart)]
            router.route(pl, cg.edge_origin[dart[0]], i, target)
            stub_of[dart] = i

    for orig in internal_origins:
        x, y = mg.edges[orig]
        router.route(pl, orig, local_of[x], local_of[y])
    pl.verify_planar()
    return _Patch(pl, local_of, k2, stub_of, router.crossings, router.dummies)


def _glue_patches(
    g: CubicGraph,
    m: PseudoMatching,
    cg: ContractedGraph,
    patches: list[_Patch],
) -> Drawing:
    mg = g.graph
    pl = _Planarizer()
    for _ in range(mg.n):
        pl.new_vertex()

    # Global ids: component vertices keep their graph ids, dummies are fresh.
    global_of: list[dict[int, int]] = []
    for patch in patches:
        mapping = {lv: gv for gv, lv in patch.local_of_gvertex.items()}
        for lv in range(patch.boundary_count, patch.pl.nv):
            if lv not in mapping:
                mapping[lv] = pl.new_vertex()
        global_of.append(mapping)

    # Each quotient edge glues the two stub edges of its darts into one. A
    # patch holds one dart per non-loop quotient edge at it, so the stub is
    # the one segment of that edge's owner at the dart's b-node.
    stub_qedge: list[dict[int, int]] = []  # per patch: stub edge -> quotient edge
    stub_inner: dict[Dart, int] = {}
    for patch in patches:
        stubs: dict[int, int] = {}
        for dart, b_local in patch.stub_of_dart.items():
            orig = cg.edge_origin[dart[0]]
            legs = [
                e
                for e in range(len(patch.pl.edges))
                if patch.pl.alive[e]
                and patch.pl.owner[e] == orig
                and b_local in patch.pl.edges[e]
            ]
            if len(legs) != 1:
                raise GraphError("stub edge lookup failed")
            stubs[legs[0]] = dart[0]
            x, y = patch.pl.edges[legs[0]]
            stub_inner[dart] = y if x == b_local else x
        stub_qedge.append(stubs)

    merged: dict[int, int] = {}
    for qe in range(cg.graph.m):
        p0, p1 = cg.graph.edges[qe]
        if p0 == p1:
            continue  # quotient loops stay inside their patch
        x = global_of[p0][stub_inner[(qe, 0)]]
        y = global_of[p1][stub_inner[(qe, 1)]]
        merged[qe] = pl.seed_edge(x, y, cg.edge_origin[qe])

    edge_global: list[dict[int, int]] = [dict() for _ in patches]
    for pi, patch in enumerate(patches):
        for e in range(len(patch.pl.edges)):
            own = patch.pl.owner[e]
            if not patch.pl.alive[e] or own is None:
                continue
            if e in stub_qedge[pi]:
                edge_global[pi][e] = merged[stub_qedge[pi][e]]
                continue
            a, b = patch.pl.edges[e]
            edge_global[pi][e] = pl.seed_edge(global_of[pi][a], global_of[pi][b], own)

    for pi, patch in enumerate(patches):
        for lv in range(patch.boundary_count, patch.pl.nv):
            gv = global_of[pi][lv]
            ring = []
            for e, _s in patch.pl.rot[lv]:
                ge = edge_global[pi][e]
                a, _b = pl.edges[ge]
                ring.append((ge, 0 if a == gv else 1))
            pl.rot[gv] = ring

    crossings: list[tuple[int, int]] = []
    dummies: list[int] = []
    for pi, patch in enumerate(patches):
        for pair, dummy in zip(patch.crossings, patch.crossing_dummies):
            crossings.append(pair)
            dummies.append(global_of[pi][dummy])

    return _finish_drawing(g, m, pl, crossings, dummies)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def drawing_to_dot(d: Drawing) -> str:
    """Planarization as DOT; crossing dummies render as squares."""
    dummy = set(d.crossing_dummies)
    lines = ["graph planarization {"]
    for v in range(d.planarized.n):
        shape = "square" if v in dummy else "circle"
        lines.append(f"  {v} [shape={shape}];")
    for a, b in d.planarized.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
