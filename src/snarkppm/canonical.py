"""Canonical labeling and isomorphism testing for small multigraphs.

Individualization-refinement (McKay & Piperno, "Practical graph
isomorphism, II", JSC 2014). An ordered partition of the vertices is
refined to the coarsest equitable partition: every vertex of a cell has the
same number of neighbours in every cell, counted with edge multiplicities
and loops. A cell is known by its first position, so colours are positions
and are isomorphism-invariant. The search individualizes each vertex of
the first non-singleton cell in turn and refines again, down to discrete
partitions, which are labelings. Each refinement leaves a trace (the splits
it made, with their counts and sizes); the canonical labeling is the leaf
with the greatest traces, then the greatest relabeled edge list. A node
whose trace falls below the best path's at its depth is pruned. Two leaves
with the same certificate give an automorphism; it sends the search back
to where the two paths part, and a child is skipped when the automorphisms
that fix the node's individualized vertices pointwise map an explored
child onto it. Two graphs get the same canonical edge list iff they are
isomorphic; the order among labelings is an internal detail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import Multigraph


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    canonical_edge_list: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        return f"{self.n}:" + ",".join(f"{a}-{b}" for a, b in self.canonical_edge_list)


def refinement_colors(g: Multigraph) -> list[int]:
    """Coarsest equitable colouring; a colour is its cell's first position,
    so colour ids are isomorphism-invariant."""
    return _root(g, _weighted_adjacency(g))[0]


def canonical_form(g: Multigraph) -> CanonicalForm:
    labeling = canonical_labeling(g)
    pos = [0] * g.n
    for lab, v in enumerate(labeling):
        pos[v] = lab
    return CanonicalForm(g.n, _relabeled_edges(g, pos))


def canonical_labeling(g: Multigraph) -> list[int]:
    """Vertex order (original id per new label) chosen by the canonical search."""
    return _search(g)[0]


def are_isomorphic(a: Multigraph, b: Multigraph) -> bool:
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    if sorted(refinement_colors(a)) != sorted(refinement_colors(b)):
        return False
    return canonical_form(a) == canonical_form(b)


def _search(g: Multigraph) -> tuple[list[int], list[list[int]]]:
    """The canonical labeling and the automorphisms the search recorded,
    each as a list sending vertex v to ``aut[v]``."""
    if g.n == 0:
        return [], []
    search = _Search(g)
    col, cells, trace = _root(g, search.adj)
    search.visit(col, cells, [trace], [], True)
    labeling = [0] * g.n
    for v, pos in enumerate(search.best_col):
        labeling[pos] = v
    return labeling, search.automorphisms


class _Search:
    """Depth-first individualization-refinement from the root partition.

    The best leaf so far is kept as its per-depth traces, its relabeled
    edge list, its colouring and its path of individualized vertices.
    """

    def __init__(self, g: Multigraph):
        self.g = g
        self.adj = _weighted_adjacency(g)
        self.best_traces: list[list[tuple]] = []
        self.best_edges: tuple[tuple[int, int], ...] = ()
        self.best_col: list[int] = []
        self.best_path: list[int] = []
        self.automorphisms: list[list[int]] = []

    def visit(
        self,
        col: list[int],
        cells: list[list[int] | None],
        traces: list[list[tuple]],
        path: list[int],
        ahead: bool,
    ) -> int:
        """Search below one node; return the depth to resume at.

        ``ahead`` says that no leaf has been reached yet or some trace on
        the path beat the best path's at its depth, so the first leaf below
        beats the best leaf.
        """
        depth = len(path)
        target = next((s for s, c in enumerate(cells) if c and len(c) > 1), None)
        if target is None:
            return self.leaf(col, traces, path, ahead)
        tried: list[int] = []
        for v in sorted(cells[target]):
            if tried and v in self.orbit_closure(tried, path):
                continue
            tried.append(v)
            child_col, child_cells = list(col), list(cells)
            trace = _individualize(self.adj, child_col, child_cells, target, v)
            child_ahead = ahead
            if not ahead:
                best = self.best_traces[depth + 1]
                if trace < best:
                    continue
                child_ahead = trace > best
            back = self.visit(
                child_col, child_cells, traces + [trace], path + [v], child_ahead
            )
            if back < depth:
                return back
            # The best leaf is now below this node, sharing its traces.
            ahead = False
        return depth

    def leaf(
        self, col: list[int], traces: list[list[tuple]], path: list[int], ahead: bool
    ) -> int:
        edges = _relabeled_edges(self.g, col)
        if ahead or edges > self.best_edges:
            self.best_traces, self.best_edges = traces, edges
            self.best_col, self.best_path = col, path
            return len(path)
        if edges < self.best_edges:
            return len(path)
        # Same certificate: best leaf -> this leaf is an automorphism. It
        # fixes the shared prefix and maps the earlier, finished subtree
        # where the paths part onto this one, so resume above that point.
        aut = [0] * self.g.n
        where = {pos: v for v, pos in enumerate(col)}
        for v, pos in enumerate(self.best_col):
            aut[v] = where[pos]
        self.automorphisms.append(aut)
        k = 0
        while k < len(path) and path[k] == self.best_path[k]:
            k += 1
        return k

    def orbit_closure(self, seeds: list[int], path: list[int]) -> set[int]:
        """The orbits of ``seeds`` under the recorded automorphisms that fix
        every vertex of ``path``."""
        gens = [a for a in self.automorphisms if all(a[x] == x for x in path)]
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            x = stack.pop()
            for a in gens:
                y = a[x]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen


def _root(
    g: Multigraph, adj: list[list[tuple[int, int]]]
) -> tuple[list[int], list[list[int] | None], list[tuple]]:
    """The equitable refinement of the partition by (degree, loops)."""
    loops = [0] * g.n
    for a, b in g.edges:
        if a == b:
            loops[a] += 1
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(g.n):
        groups.setdefault((g.degree(v), loops[v]), []).append(v)
    col = [0] * g.n
    cells: list[list[int] | None] = [None] * g.n
    queue = []
    pos = 0
    for key in sorted(groups):
        cell = groups[key]
        cells[pos] = cell
        for v in cell:
            col[v] = pos
        queue.append(pos)
        pos += len(cell)
    trace: list[tuple] = []
    _refine(adj, col, cells, queue, trace)
    return col, cells, trace


def _individualize(
    adj: list[list[tuple[int, int]]],
    col: list[int],
    cells: list[list[int] | None],
    start: int,
    v: int,
) -> list[tuple]:
    """Split v off the front of its cell, refine, and return the trace."""
    rest = [u for u in cells[start] if u != v]
    cells[start] = [v]
    cells[start + 1] = rest
    for u in rest:
        col[u] = start + 1
    trace: list[tuple] = []
    _refine(adj, col, cells, [start], trace)
    return trace


def _refine(
    adj: list[list[tuple[int, int]]],
    col: list[int],
    cells: list[list[int] | None],
    queue: list[int],
    trace: list[tuple],
) -> None:
    """Refine to the coarsest equitable partition below the given one.

    Each splitter cell in ``queue`` splits every cell whose vertices have
    different neighbour counts in it, pieces in increasing count. A split
    cell already queued has its new pieces queued; otherwise every piece
    but the first largest is, since its counts follow from the others'.
    Every decision reads positions and counts only, never vertex ids, and
    each split is appended to ``trace``. Cell lists are replaced, never
    mutated, so a shallow copy of ``cells`` is a snapshot.
    """
    queued = set(queue)
    i = 0
    while i < len(queue):
        w = queue[i]
        i += 1
        queued.discard(w)
        count: dict[int, int] = {}
        for u in cells[w]:
            for x, k in adj[u]:
                count[x] = count.get(x, 0) + k
        for start in sorted({col[x] for x in count}):
            cell = cells[start]
            if len(cell) == 1:
                continue
            groups: dict[int, list[int]] = {}
            for x in cell:
                groups.setdefault(count.get(x, 0), []).append(x)
            if len(groups) == 1:
                continue
            keys = sorted(groups)
            pieces = []
            pos = start
            for key in keys:
                piece = groups[key]
                cells[pos] = piece
                for x in piece:
                    col[x] = pos
                pieces.append((pos, len(piece)))
                pos += len(piece)
            trace.append((w, start, *keys, *(n for _, n in pieces)))
            if start in queued:
                fresh = pieces[1:]
            else:
                largest = max(pieces, key=lambda p: (p[1], -p[0]))
                fresh = [p for p in pieces if p is not largest]
            for p, _ in fresh:
                queue.append(p)
                queued.add(p)


def _weighted_adjacency(g: Multigraph) -> list[list[tuple[int, int]]]:
    """Per vertex, (neighbour, edge ends there) pairs; a loop counts 2."""
    mult: list[dict[int, int]] = [{} for _ in range(g.n)]
    for a, b in g.edges:
        mult[a][b] = mult[a].get(b, 0) + 1
        mult[b][a] = mult[b].get(a, 0) + 1
    return [list(d.items()) for d in mult]


def _relabeled_edges(g: Multigraph, pos: list[int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(
        (pos[a], pos[b]) if pos[a] <= pos[b] else (pos[b], pos[a])
        for a, b in g.edges
    ))
