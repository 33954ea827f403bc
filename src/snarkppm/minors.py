"""Planarity testing with embedding extraction, and K5-minor detection.

Planarity uses the left-right algorithm (Brandes' formulation) on the simple
skeleton of each connected component; parallel edges and loops are spliced
back into the rotation afterwards, so returned embeddings cover the full
multigraph. Every returned embedding is validated against Euler's formula.

K5-minor detection is an exact reduce-and-contract search on the simple
skeleton as bitmasks: at each node it deletes vertices of degree at most 1,
suppresses those of degree 2, answers at once below 5 vertices, at Mader's
bound m >= 3n - 5 and on planar graphs (left-right test per component),
splits at cut vertices, and otherwise branches on edge contractions,
remembering the reduced graphs already refuted. It raises
``KMinorUndecidedError`` if the node budget runs out instead of ever
returning a silent false.
"""

from __future__ import annotations

from .embedding import Dart, PlanarEmbedding
from .multigraph import Multigraph


class KMinorUndecidedError(RuntimeError):
    """Search budget exceeded before the K5-minor question was settled."""


# ---------------------------------------------------------------------------
# Planarity
# ---------------------------------------------------------------------------


def is_planar(g: Multigraph) -> PlanarEmbedding | None:
    """Planar embedding of g, or None if g is nonplanar.

    Parallel edges are embedded as nested arcs next to their mates (each
    bounds its own bigon face) and loops as trivial faces, so multi-edges
    never change the answer but do appear in the rotation.
    """
    rotation: dict[int, list[Dart]] = {v: [] for v in range(g.n)}
    for comp in g.connected_components():
        if not _embed_component(g, comp, rotation):
            return None
    emb = PlanarEmbedding(g, rotation)
    emb.verify_euler()
    return emb


def _embed_component(
    g: Multigraph, comp: list[int], rotation: dict[int, list[Dart]]
) -> bool:
    local = {v: i for i, v in enumerate(comp)}
    nloc = len(comp)

    # Collapse to a simple skeleton; remember loops and parallel classes.
    loops: dict[int, list[int]] = {v: [] for v in comp}
    para: dict[tuple[int, int], list[int]] = {}
    for e, (a, b) in enumerate(g.edges):
        if a not in local:
            continue
        if a == b:
            loops[a].append(e)
            continue
        key = (min(a, b), max(a, b))
        para.setdefault(key, []).append(e)

    adj: list[list[int]] = [[] for _ in range(nloc)]
    for (a, b) in sorted(para):
        adj[local[a]].append(local[b])
        adj[local[b]].append(local[a])
    for row in adj:
        row.sort()

    simple_rot = _lr_planarity(nloc, adj)
    if simple_rot is None:
        return False

    # Expand skeleton rotation into dart rotation with parallels spliced in.
    for v in comp:
        lv = local[v]
        darts: list[Dart] = []
        for lu in simple_rot[lv]:
            u = comp[lu]
            key = (min(v, u), max(v, u))
            bundle = para[key]
            # Nest parallels: clockwise at the lower endpoint, reversed at
            # the other, so consecutive mates bound bigons.
            ordered = bundle if v <= u else list(reversed(bundle))
            for e in ordered:
                a, _b = g.edges[e]
                darts.append((e, 0) if a == v else (e, 1))
        for e in loops[v]:
            darts.extend([(e, 0), (e, 1)])
        rotation[v] = darts
    return True


def _lr_planarity(n: int, adj: list[list[int]]) -> list[list[int]] | None:
    """Left-right planarity on a connected simple graph.

    Returns, per vertex, the clockwise neighbour order, or None.
    """
    if n <= 2:
        return [list(row) for row in adj]
    m = sum(len(row) for row in adj) // 2
    if m > 3 * n - 6:
        return None
    state = _LRState(n, adj)
    state.orient(0)
    state.sort_adjacency()
    if not state.test(0):
        return None
    return state.embed(0)


class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self) -> bool:
        return self.low is None and self.high is None

    def copy(self) -> "_Interval":
        return _Interval(self.low, self.high)


class _ConflictPair:
    __slots__ = ("L", "R")

    def __init__(self, L=None, R=None):
        self.L = L if L is not None else _Interval()
        self.R = R if R is not None else _Interval()

    def swap(self) -> None:
        self.L, self.R = self.R, self.L


class _LRState:
    def __init__(self, n: int, adj: list[list[int]]):
        self.n = n
        self.adj = adj
        self.height: list[int | None] = [None] * n
        self.parent_edge: list[tuple[int, int] | None] = [None] * n
        self.oriented: set[tuple[int, int]] = set()
        self.lowpt: dict[tuple[int, int], int] = {}
        self.lowpt2: dict[tuple[int, int], int] = {}
        self.nesting: dict[tuple[int, int], int] = {}
        self.ordered: list[list[int]] = [[] for _ in range(n)]
        self.ref: dict[tuple[int, int], tuple[int, int] | None] = {}
        self.side: dict[tuple[int, int], int] = {}
        self.S: list[_ConflictPair] = []
        self.stack_bottom: dict[tuple[int, int], _ConflictPair | None] = {}
        self.lowpt_edge: dict[tuple[int, int], tuple[int, int]] = {}

    # -- phase 1 -----------------------------------------------------------

    def orient(self, root: int) -> None:
        self.height[root] = 0
        # Frames: (v, adjacency index, pending tree edge awaiting postwork).
        stack: list[list] = [[root, 0, None]]
        while stack:
            frame = stack[-1]
            v, idx, pending = frame
            if pending is not None:
                self._orient_post(v, pending)
                frame[2] = None
            if idx >= len(self.adj[v]):
                stack.pop()
                continue
            frame[1] = idx + 1
            w = self.adj[v][idx]
            vw = (v, w)
            if vw in self.oriented or (w, v) in self.oriented:
                continue
            self.oriented.add(vw)
            self.lowpt[vw] = self.height[v]
            self.lowpt2[vw] = self.height[v]
            if self.height[w] is None:
                self.parent_edge[w] = vw
                self.height[w] = self.height[v] + 1
                frame[2] = vw
                stack.append([w, 0, None])
            else:
                self.lowpt[vw] = self.height[w]
                self._orient_post(v, vw)

    def _orient_post(self, v: int, vw: tuple[int, int]) -> None:
        self.nesting[vw] = 2 * self.lowpt[vw]
        if self.lowpt2[vw] < self.height[v]:
            self.nesting[vw] += 1
        e = self.parent_edge[v]
        if e is not None:
            if self.lowpt[vw] < self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt[e], self.lowpt2[vw])
                self.lowpt[e] = self.lowpt[vw]
            elif self.lowpt[vw] > self.lowpt[e]:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt[vw])
            else:
                self.lowpt2[e] = min(self.lowpt2[e], self.lowpt2[vw])

    def sort_adjacency(self) -> None:
        for v in range(self.n):
            out = [w for w in self.adj[v] if (v, w) in self.oriented]
            out.sort(key=lambda w: self.nesting[(v, w)])
            self.ordered[v] = out

    # -- phase 2 -----------------------------------------------------------

    def test(self, root: int) -> bool:
        for v in range(self.n):
            for w in self.ordered[v]:
                self.ref[(v, w)] = None
                self.side[(v, w)] = 1
        # Frames: (v, index into ordered[v], child edge awaiting postwork).
        stack: list[list] = [[root, 0, None]]
        while stack:
            frame = stack[-1]
            v, idx, pending = frame
            if pending is not None:
                if not self._test_post(v, pending, idx - 1):
                    return False
                frame[2] = None
            if idx >= len(self.ordered[v]):
                stack.pop()
                e = self.parent_edge[v]
                if e is not None:
                    if not self._test_finish(e):
                        return False
                continue
            frame[1] = idx + 1
            w = self.ordered[v][idx]
            ei = (v, w)
            self.stack_bottom[ei] = self.S[-1] if self.S else None
            if ei == self.parent_edge[w]:
                frame[2] = ei
                stack.append([w, 0, None])
            else:
                self.lowpt_edge[ei] = ei
                self.S.append(_ConflictPair(R=_Interval(ei, ei)))
                if not self._test_post(v, ei, idx):
                    return False
        return True

    def _test_post(self, v: int, ei: tuple[int, int], idx: int) -> bool:
        """Integrate edge ei (idx-th in ordered[v]) after it was processed."""
        if self.lowpt[ei] < self.height[v]:  # ei has a return edge
            e = self.parent_edge[v]
            if idx == 0:
                if e is not None:
                    self.lowpt_edge[e] = self.lowpt_edge[ei]
            else:
                if not self._add_constraints(ei, self.parent_edge[v]):
                    return False
        return True

    def _test_finish(self, e: tuple[int, int]) -> bool:
        u = e[0]
        self._trim_back_edges(e)
        if self.lowpt[e] < self.height[u]:  # e has a return edge
            top = self.S[-1]
            hl = top.L.high
            hr = top.R.high
            if hl is not None and (hr is None or self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr
        return True

    def _conflicting(self, interval: _Interval, b: tuple[int, int]) -> bool:
        return not interval.empty() and self.lowpt[interval.high] > self.lowpt[b]

    def _add_constraints(self, ei: tuple[int, int], e: tuple[int, int]) -> bool:
        P = _ConflictPair()
        # Merge return edges of ei into P.R.
        while True:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                return False
            if self.lowpt[Q.R.low] > self.lowpt[e]:
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:
                self.ref[Q.R.low] = self.lowpt_edge[e]
            top = self.S[-1] if self.S else None
            if top is self.stack_bottom[ei]:
                break
        # Merge conflicting return edges of earlier siblings into P.L.
        while self.S and (
            self._conflicting(self.S[-1].L, ei) or self._conflicting(self.S[-1].R, ei)
        ):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                return False
            self.ref[P.R.low] = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)
        return True

    def _lowest(self, P: _ConflictPair) -> int:
        if P.L.empty():
            return self.lowpt[P.R.low]
        if P.R.empty():
            return self.lowpt[P.L.low]
        return min(self.lowpt[P.L.low], self.lowpt[P.R.low])

    def _trim_back_edges(self, e: tuple[int, int]) -> None:
        u = e[0]
        while self.S and self._lowest(self.S[-1]) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:
            P = self.S.pop()
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref[P.L.high]
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref[P.R.high]
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)

    # -- phase 3 -----------------------------------------------------------

    def _sign(self, e: tuple[int, int]) -> int:
        chain = []
        while self.ref[e] is not None:
            chain.append(e)
            e = self.ref[e]
        result = self.side[e]
        for edge in reversed(chain):
            self.side[edge] *= result
            self.ref[edge] = None
            result = self.side[edge]
        return result

    def embed(self, root: int) -> list[list[int]]:
        for v in range(self.n):
            for w in self.ordered[v]:
                self.nesting[(v, w)] *= self._sign((v, w))
            self.ordered[v].sort(key=lambda w: self.nesting[(v, w)])

        rotation: list[list[int]] = [list(self.ordered[v]) for v in range(self.n)]
        left_ref: dict[int, int] = {}
        right_ref: dict[int, int] = {}

        stack: list[list] = [[root, 0]]
        while stack:
            frame = stack[-1]
            v, idx = frame
            if idx >= len(self.ordered[v]):
                stack.pop()
                continue
            frame[1] = idx + 1
            w = self.ordered[v][idx]
            ei = (v, w)
            if ei == self.parent_edge[w]:
                rotation[w].insert(0, v)
                left_ref[v] = w
                right_ref[v] = w
                stack.append([w, 0])
            else:
                if self.side[ei] == 1:
                    pos = rotation[w].index(right_ref[w])
                    rotation[w].insert(pos + 1, v)
                else:
                    pos = rotation[w].index(left_ref[w])
                    rotation[w].insert(pos, v)
                    left_ref[w] = v
        return rotation


# ---------------------------------------------------------------------------
# K5 minor
# ---------------------------------------------------------------------------

DEFAULT_K5_BUDGET = 20_000_000


def has_k5_minor(g: Multigraph, node_budget: int = DEFAULT_K5_BUDGET) -> bool:
    """True iff g has K5 as a minor.

    Exact search over edge contractions of the simple skeleton, which holds
    a K5 minor iff some sequence of contractions yields K5 as a subgraph.
    Each search node first reduces the graph (delete vertices of degree at
    most 1, suppress those of degree 2), then decides it outright where it
    can: fewer than 5 vertices, Mader's bound m >= 3n - 5, planarity. A
    nonplanar graph with cut vertices is split into its blocks, since K5 is
    2-connected; a nonplanar block is branched on by contracting each edge,
    fewest common neighbours (hence fewest lost edges) first. Reduced
    graphs already refuted are remembered. Every node counts against
    ``node_budget``; running out raises ``KMinorUndecidedError``.
    """
    adj = {v: 0 for v in range(g.n)}
    for a, b in g.edges:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    budget = [node_budget]
    refuted: set[tuple[tuple[int, int], ...]] = set()

    # Dicts stay in ascending vertex order throughout (deletions and value
    # updates keep insertion order), so ``tuple(adj.items())`` identifies
    # a labelled graph.
    def search(adj: dict[int, int]) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise KMinorUndecidedError(
                f"K5-minor search exceeded node budget {node_budget}"
            )
        _reduce(adj)
        n = len(adj)
        if n < 5:
            return False
        if sum(a.bit_count() for a in adj.values()) >= 2 * (3 * n - 5):
            return True
        key = tuple(adj.items())
        if key in refuted:
            return False
        pieces = [
            block
            for comp in _components(adj)
            if not _planar(adj, comp)
            for block in _blocks(adj, comp)
        ]
        if pieces == [_mask(adj)]:
            found = any(
                search(_contract(adj, u, v)) for u, v in _edges_by_overlap(adj)
            )
        else:
            found = any(
                search({v: adj[v] & p for v in adj if p >> v & 1}) for p in pieces
            )
        if not found:
            refuted.add(key)
        return found

    try:
        return search(adj)
    finally:
        del search  # the closure refers to itself: free it without the GC


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(adj: dict[int, int]) -> int:
    return sum(1 << v for v in adj)


def _reduce(adj: dict[int, int]) -> None:
    """Delete vertices of degree <= 1 and suppress those of degree 2, in place."""
    todo = [v for v, a in adj.items() if a.bit_count() <= 2]
    while todo:
        v = todo.pop()
        nbrs = adj.get(v)
        if nbrs is None or nbrs.bit_count() > 2:
            continue
        del adj[v]
        bit = 1 << v
        ends = list(_bits(nbrs))
        for w in ends:
            adj[w] &= ~bit
            todo.append(w)
        if len(ends) == 2:
            a, b = ends
            adj[a] |= 1 << b
            adj[b] |= 1 << a


def _components(adj: dict[int, int]) -> list[int]:
    """Vertex masks of the connected components."""
    comps = []
    rest = _mask(adj)
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= adj[v]
            frontier = grown & ~seen
            seen |= frontier
        comps.append(seen)
        rest &= ~seen
    return comps


def _planar(adj: dict[int, int], comp: int) -> bool:
    verts = list(_bits(comp))
    local = {v: i for i, v in enumerate(verts)}
    rows = [[local[w] for w in _bits(adj[v])] for v in verts]
    return _lr_planarity(len(verts), rows) is not None


def _blocks(adj: dict[int, int], comp: int) -> list[int]:
    """Vertex masks of the blocks of component comp that have at least 5
    vertices (smaller ones cannot hold a K5 minor)."""
    root = (comp & -comp).bit_length() - 1
    disc = {root: 0}
    low = {root: 0}
    parent = {root: -1}
    path = [root]
    frames = [(root, _bits(adj[root]))]
    blocks = []
    while frames:
        v, nbrs = frames[-1]
        for w in nbrs:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                parent[w] = v
                path.append(w)
                frames.append((w, _bits(adj[w])))
                break
            if w != parent[v]:
                low[v] = min(low[v], disc[w])
        else:
            frames.pop()
            if not frames:
                break
            p = frames[-1][0]
            low[p] = min(low[p], low[v])
            if low[v] >= disc[p]:
                block = 1 << p
                while True:
                    x = path.pop()
                    block |= 1 << x
                    if x == v:
                        break
                if block.bit_count() >= 5:
                    blocks.append(block)
    return blocks


def _edges_by_overlap(adj: dict[int, int]) -> list[tuple[int, int]]:
    edges = [
        (u, v) for u, a in adj.items() for v in _bits(a >> (u + 1) << (u + 1))
    ]
    edges.sort(key=lambda e: ((adj[e[0]] & adj[e[1]]).bit_count(), e))
    return edges


def _contract(adj: dict[int, int], u: int, v: int) -> dict[int, int]:
    """Copy of adj with edge uv (u < v) contracted onto u."""
    bu, bv = 1 << u, 1 << v
    out = {}
    for w, a in adj.items():
        if w != v:
            out[w] = (a & ~bv) | bu if a & bv else a
    out[u] = (adj[u] | adj[v]) & ~(bu | bv)
    return out
