"""Planarity by one left-right kernel, and K5-minor detection.

The kernel (``_lr_planarity``) is Brandes' formulation of the left-right
test (de Fraysseix & Ossona de Mendez; Brandes 2009) on a connected simple
graph, written on flat lists: oriented edges are int ids, every per-edge
quantity is a list indexed by them, and a conflict pair is a 4-slot list.
It runs in one of two modes:

- with the embedding phase, it returns a rotation. ``is_planar`` uses this
  mode on the simple skeleton of each component, splices parallel edges
  and loops back into the rotation, and checks the result against Euler's
  formula. The drawing code calls it for the rotations it draws on.
- without it, it returns only the verdict. ``planar_skeleton`` (behind
  ``planar``, ``classify_ppm``, the census and the drawing search's greedy)
  and each node of the K5-minor search use this mode.

Both verdicts start from the skeleton's neighbour bitmasks and one settle
step (``_settle``): delete vertices of degree at most 1, suppress those of
degree 2, then answer below 5 vertices and at Mader's bound m >= 3n - 5.
The K5-minor search first dives: it settles, contracts the edge whose ends
share the fewest neighbours (the least (u, v) on ties, found in one pass
with no sort), and repeats, with no planarity test. Mader's bound met on
the way proves a K5 minor; that settles nearly every PPM quotient of a
snark with one. Only a dive that ends below 5 vertices leaves the
question open, and the exact search then runs from the root:
it answers planar graphs (the verdict per component), splits at cut
vertices, and otherwise branches on edge contractions, remembering the
reduced graphs already refuted. Dive steps and search nodes share one
budget; running out raises ``KMinorUndecidedError`` instead of ever
returning a silent false. The search takes a ``Multigraph`` or a
skeleton: ``classify_ppm`` hands it the quotient's skeleton from
``ppm.quotient_skeleton``, with no ``Multigraph`` built, and asks
``planar_skeleton`` only when it finds no K5 minor, so a quotient that the
dive settles is never tested for planarity at all.
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
    # Remember loops and parallel classes; the kernel sees the skeleton.
    loops: list[list[int]] = [[] for _ in range(g.n)]
    para: dict[tuple[int, int], list[int]] = {}
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            loops[a].append(e)
        else:
            para.setdefault((a, b) if a < b else (b, a), []).append(e)
    adj = _skeleton(g)
    rotation: dict[int, list[Dart]] = {v: [] for v in range(g.n)}
    for comp in _components(adj):
        verts = list(_bits(comp))
        simple_rot = _lr_planarity(_rows(adj, verts), True)
        if simple_rot is None:
            return None
        # Expand the skeleton rotation into darts with parallels spliced in.
        for v, row in zip(verts, simple_rot):
            darts = rotation[v]
            for lu in row:
                u = verts[lu]
                # Nest parallels: clockwise at the lower endpoint, reversed
                # at the other, so consecutive mates bound bigons.
                if v < u:
                    bundle = para[v, u]
                else:
                    bundle = para[u, v][::-1]
                for e in bundle:
                    darts.append((e, 0) if g.edges[e][0] == v else (e, 1))
            for e in loops[v]:
                darts.extend([(e, 0), (e, 1)])
    emb = PlanarEmbedding(g, rotation)
    emb.verify_euler()
    return emb


def planar(g: Multigraph) -> bool:
    """True iff g is planar: the verdict of ``is_planar`` without building
    an embedding, which ``planar_skeleton`` gives on g's simple skeleton.
    """
    return planar_skeleton(_skeleton(g))


def planar_skeleton(adj: dict[int, int]) -> bool:
    """True iff the simple graph with neighbour bitmasks adj (vertex ->
    mask, in ascending vertex order) is planar; adj is reduced in place.

    ``_settle`` reduces it and answers where its bounds reach (planar below
    5 vertices, nonplanar at m >= 3n - 5); otherwise the graph is planar
    iff the left-right test passes on every component.
    """
    k5 = _settle(adj)
    if k5 is not None:
        return not k5
    return all(_planar_component(adj, comp) for comp in _components(adj))


def _lr_planarity(adj: list[list[int]], embed: bool) -> list[list[int]] | None:
    """Left-right planarity on a connected simple graph given by sorted
    adjacency rows.

    Returns None if the graph is nonplanar. Otherwise, with ``embed``, the
    clockwise neighbour order of each vertex; without it, an empty list.

    Oriented edges are ints in orientation order, and every per-edge
    quantity is a list indexed by them. A conflict pair is a 4-slot list
    ``[L.low, L.high, R.low, R.high]`` of edge ids, -1 for none.
    """
    n = len(adj)
    if n <= 2:
        return [list(row) for row in adj] if embed else []
    m = sum(map(len, adj)) // 2
    if m > 3 * n - 6:
        return None

    # Phase 1: orient by DFS from vertex 0; heights, lowpoints, nesting.
    height = [-1] * n
    parent_edge = [-1] * n
    src = [0] * m
    tgt = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    out: list[list[int]] = [[] for _ in range(n)]
    height[0] = 0
    oriented = 0
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        v, i = frame
        row = adj[v]
        if i < len(row):
            frame[1] = i + 1
            w = row[i]
            hv = height[v]
            hw = height[w]
            if hw >= 0 and (hw >= hv or w == src[parent_edge[v]]):
                continue  # oriented already, from w
            e = oriented
            oriented += 1
            src[e] = v
            tgt[e] = w
            lowpt2[e] = hv
            out[v].append(e)
            if hw < 0:
                lowpt[e] = hv
                parent_edge[w] = e
                height[w] = hv + 1
                frames.append([w, 0])
                continue
            lowpt[e] = hw  # a back edge: its postwork is due now
        else:
            frames.pop()
            e = parent_edge[v]
            if e < 0:
                continue
            v = src[e]  # a tree edge whose child is done
        low = lowpt[e]
        low2 = lowpt2[e]
        nesting[e] = 2 * low + (low2 < height[v])
        p = parent_edge[v]
        if p >= 0:
            lp = lowpt[p]
            if low < lp:
                lowpt2[p] = lp if lp < low2 else low2
                lowpt[p] = low
            else:
                if low > lp:
                    low2 = low
                if low2 < lowpt2[p]:
                    lowpt2[p] = low2
    by_nesting = nesting.__getitem__
    for row in out:
        row.sort(key=by_nesting)

    # Phase 2: the left-right constraints.
    ref = [-1] * m
    side = [1] * m
    lowpt_edge = list(range(m))  # a back edge is its own lowpoint edge
    stack_bottom: list[list[int] | None] = [None] * m
    S: list[list[int]] = []
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        v, i = frame
        row = out[v]
        if i < len(row):
            frame[1] = i + 1
            ei = row[i]
            stack_bottom[ei] = S[-1] if S else None
            w = tgt[ei]
            if ei == parent_edge[w]:
                frames.append([w, 0])
                continue
            S.append([-1, -1, ei, ei])
        else:
            frames.pop()
            ei = parent_edge[v]
            if ei < 0:
                continue
            # Trim the back edges that end at u, the tail of the finished
            # tree edge ei.
            u = src[ei]
            hu = height[u]
            while S:
                P = S[-1]
                if P[0] < 0 and P[1] < 0:
                    lowest = lowpt[P[2]]
                elif P[2] < 0 and P[3] < 0:
                    lowest = lowpt[P[0]]
                else:
                    lowest = min(lowpt[P[0]], lowpt[P[2]])
                if lowest != hu:
                    break
                S.pop()
                if P[0] >= 0:
                    side[P[0]] = -1
            if S:
                P = S[-1]
                while P[1] >= 0 and tgt[P[1]] == u:
                    P[1] = ref[P[1]]
                if P[1] < 0 and P[0] >= 0:
                    ref[P[0]] = P[2]
                    side[P[0]] = -1
                    P[0] = -1
                while P[3] >= 0 and tgt[P[3]] == u:
                    P[3] = ref[P[3]]
                if P[3] < 0 and P[2] >= 0:
                    ref[P[2]] = P[0]
                    side[P[2]] = -1
                    P[2] = -1
            if lowpt[ei] < hu:
                hl = S[-1][1]
                hr = S[-1][3]
                ref[ei] = hl if hl >= 0 and (hr < 0 or lowpt[hl] > lowpt[hr]) else hr
            v = u
            i = frames[-1][1] - 1
        # Integrate ei, the i-th out-edge of v, now that it is processed.
        e = parent_edge[v]
        if lowpt[ei] >= height[v]:
            continue
        if i == 0:
            if e >= 0:
                lowpt_edge[e] = lowpt_edge[ei]
            continue
        # Merge the return edges of ei into P.R.
        P = [-1, -1, -1, -1]
        le = lowpt[e]
        bottom = stack_bottom[ei]
        while True:
            Q = S.pop()
            if Q[0] >= 0 or Q[1] >= 0:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] >= 0 or Q[1] >= 0:
                    return None
            if lowpt[Q[2]] > le:
                if P[2] < 0 and P[3] < 0:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # Merge the conflicting return edges of earlier siblings into P.L.
        lb = lowpt[ei]
        while S:
            Q = S[-1]
            if Q[3] >= 0 and lowpt[Q[3]] > lb:  # R conflicts: swap it to L
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
                if Q[3] >= 0 and lowpt[Q[3]] > lb:
                    return None
            elif not (Q[1] >= 0 and lowpt[Q[1]] > lb):
                break
            S.pop()
            if P[2] >= 0:  # P.R may still be empty
                ref[P[2]] = Q[3]
            if Q[2] >= 0:
                P[2] = Q[2]
            if P[0] < 0 and P[1] < 0:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] >= 0 or P[1] >= 0 or P[2] >= 0 or P[3] >= 0:
            S.append(P)
    if not embed:
        return []

    # Phase 3: resolve each edge's side, then insert back edges beside
    # their tree edges.
    for e in range(m):
        chain = []
        while ref[e] >= 0:
            chain.append(e)
            e = ref[e]
        sign = side[e]
        for f in reversed(chain):
            sign = side[f] = side[f] * sign
            ref[f] = -1
    for row in out:
        for e in row:
            nesting[e] *= side[e]
        row.sort(key=by_nesting)
    rotation = [[tgt[e] for e in row] for row in out]
    left_ref = [0] * n
    right_ref = [0] * n
    frames = [[0, 0]]
    while frames:
        frame = frames[-1]
        v, i = frame
        row = out[v]
        if i == len(row):
            frames.pop()
            continue
        frame[1] = i + 1
        e = row[i]
        w = tgt[e]
        if e == parent_edge[w]:
            rotation[w].insert(0, v)
            left_ref[v] = right_ref[v] = w
            frames.append([w, 0])
        elif side[e] == 1:
            rot = rotation[w]
            rot.insert(rot.index(right_ref[w]) + 1, v)
        else:
            rot = rotation[w]
            rot.insert(rot.index(left_ref[w]), v)
            left_ref[w] = v
    return rotation


# ---------------------------------------------------------------------------
# K5 minor
# ---------------------------------------------------------------------------

DEFAULT_K5_BUDGET = 20_000_000


def has_k5_minor(
    g: Multigraph | dict[int, int], node_budget: int = DEFAULT_K5_BUDGET
) -> bool:
    """True iff g has K5 as a minor.

    g is a ``Multigraph`` or its simple skeleton as neighbour bitmasks
    (vertex -> mask, in ascending vertex order, as ``_skeleton`` and
    ``ppm.quotient_skeleton`` build it); a skeleton is read, never
    changed. The search works on the skeleton, which holds a K5 minor iff
    some sequence of contractions yields K5 as a subgraph. First a dive
    follows the search's first contraction from the root: settle the node by
    ``_settle`` (reduce, then fewer than 5 vertices or Mader's bound) and
    contract its first edge by ``_edges_by_overlap``, which
    ``_least_overlap`` finds in one pass, with no planarity test. Mader's
    bound on the way answers True. A dive that ends below 5 vertices
    proves nothing, and the exact search runs from the root.
    Each search node is settled by ``_settle`` where it can, then by the
    memo of reduced graphs already refuted, then by planarity. A nonplanar
    graph with cut vertices is split into its blocks, since K5 is
    2-connected; a nonplanar block is branched on by contracting each
    edge, fewest common neighbours (hence fewest lost edges) first. Every
    dive step and every search node counts against ``node_budget``;
    running out raises ``KMinorUndecidedError``.
    """
    adj = _skeleton(g) if isinstance(g, Multigraph) else g
    budget = [node_budget]
    refuted: set[tuple[tuple[int, int], ...]] = set()

    def spend() -> None:
        budget[0] -= 1
        if budget[0] < 0:
            raise KMinorUndecidedError(
                f"K5-minor search exceeded node budget {node_budget}"
            )

    # The dive: a contraction of g that meets Mader's bound is a K5 minor.
    node = dict(adj)
    while True:
        spend()
        found = _settle(node)
        if found is not None:
            break
        node = _contract(node, *_least_overlap(node))
    if found:
        return True

    # Dicts stay in ascending vertex order throughout (deletions and value
    # updates keep insertion order), so ``tuple(adj.items())`` identifies
    # a labelled graph.
    def search(adj: dict[int, int]) -> bool:
        spend()
        found = _settle(adj)
        if found is not None:
            return found
        key = tuple(adj.items())
        if key in refuted:
            return False
        pieces = [
            block
            for comp in _components(adj)
            if not _planar_component(adj, comp)
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
        return search(dict(adj))  # settled in place, so a copy
    finally:
        del search  # the closure refers to itself: free it without the GC


def _skeleton(g: Multigraph) -> dict[int, int]:
    """The simple skeleton of g as neighbour bitmasks, in vertex order."""
    return {v: g.adjacency_mask(v) for v in range(g.n)}


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(adj: dict[int, int]) -> int:
    return sum(1 << v for v in adj)


def _settle(adj: dict[int, int]) -> bool | None:
    """Reduce adj in place, then answer the K5-minor question where a bound
    settles it: False below 5 vertices (so planar), True at Mader's bound
    m >= 3n - 5 (so nonplanar), None otherwise.

    The reduction deletes vertices of degree <= 1 and suppresses those of
    degree 2, which keeps both planarity and K5 minors.
    """
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
    n = len(adj)
    if n < 5:
        return False
    if sum(map(int.bit_count, adj.values())) >= 2 * (3 * n - 5):
        return True
    return None


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


def _rows(adj: dict[int, int], verts: list[int]) -> list[list[int]]:
    """Sorted adjacency rows of the subgraph on verts (ascending), in the
    local indices 0..len(verts) - 1 that ``_lr_planarity`` takes."""
    local = {v: i for i, v in enumerate(verts)}
    return [[local[w] for w in _bits(adj[v])] for v in verts]


def _planar_component(adj: dict[int, int], comp: int) -> bool:
    """The left-right verdict, without embedding, on component comp."""
    return _lr_planarity(_rows(adj, list(_bits(comp))), False) is not None


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


def _least_overlap(adj: dict[int, int]) -> tuple[int, int]:
    """``_edges_by_overlap(adj)[0]`` in one pass: an edge whose ends share
    the fewest neighbours, the least (u, v) among those. adj is in
    ascending vertex order, so the first edge met with a smaller count is
    the least of its count, and one with none shared ends the pass."""
    best = None
    fewest = len(adj)
    for u, a in adj.items():
        rest = a >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            shared = (a & adj[v]).bit_count()
            if shared < fewest:
                best = u, v
                if not shared:
                    return best
                fewest = shared
    return best


def _contract(adj: dict[int, int], u: int, v: int) -> dict[int, int]:
    """Copy of adj with edge uv (u < v) contracted onto u."""
    bu, bv = 1 << u, 1 << v
    out = {}
    for w, a in adj.items():
        if w != v:
            out[w] = (a & ~bv) | bu if a & bv else a
    out[u] = (adj[u] | adj[v]) & ~(bu | bv)
    return out
