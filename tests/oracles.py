"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written with different techniques than the
implementations under test: planarity via forbidden-minor partition
enumeration, cuts via raw subset enumeration, pseudo-matchings via edge
subset filtering, perfect matchings by deciding the edges in index order,
3-edge-colorability by Tait's perfect-matching criterion, 4-pole color sets
by listing every coloring of the pole, and a from-scratch graph6 decoder.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from snarkppm import Multigraph


# ---------------------------------------------------------------------------
# Independent graph6 decoder
# ---------------------------------------------------------------------------


def decode_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    """Small independent graph6 reader returning (n, edge set)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] == 63:
        n = (vals[1] << 12) + (vals[2] << 6) + vals[3]
        rest = vals[4:]
    else:
        n = vals[0]
        rest = vals[1:]
    bits = "".join(format(v, "06b") for v in rest)
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx] == "1":
                edges.add((i, j))
            idx += 1
    return n, edges


# ---------------------------------------------------------------------------
# Brute-force forbidden-minor machinery (bitmask graphs)
# ---------------------------------------------------------------------------


def adjacency_masks(g: Multigraph) -> list[int]:
    adj = [0] * g.n
    for a, b in g.edges:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _connected_table(adj: list[int]) -> list[bool]:
    n = len(adj)
    table = [False] * (1 << n)
    for mask in range(1, 1 << n):
        seed = mask & -mask
        grown = seed
        while True:
            nxt = grown
            m = grown
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1] & mask
                m ^= low
            if nxt == grown:
                break
            grown = nxt
        table[mask] = grown == mask
    return table


def _adjset_table(adj: list[int]) -> list[int]:
    n = len(adj)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        table[mask] = table[mask ^ low] | adj[low.bit_length() - 1]
    return table


@lru_cache(maxsize=None)
def _partition_patterns(n: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All set partitions of subsets of {0..n-1} into exactly `parts`
    nonempty blocks, each pattern a tuple of block bitmasks."""
    out: list[tuple[int, ...]] = []

    def rec(v: int, blocks: list[int]) -> None:
        if v == n:
            if len(blocks) == parts:
                out.append(tuple(blocks))
            return
        if len(blocks) + (n - v) < parts:
            return
        bit = 1 << v
        for i in range(len(blocks)):
            blocks[i] |= bit
            rec(v + 1, blocks)
            blocks[i] &= ~bit
        if len(blocks) < parts:
            blocks.append(bit)
            rec(v + 1, blocks)
            blocks.pop()
        rec(v + 1, blocks)  # v unused

    rec(0, [])
    return tuple(out)


def brute_has_k5_minor(g: Multigraph) -> bool:
    if g.n < 5 or len({(min(a, b), max(a, b)) for a, b in g.edges if a != b}) < 10:
        return False
    adj = adjacency_masks(g)
    conn = _connected_table(adj)
    adjset = _adjset_table(adj)
    for blocks in _partition_patterns(g.n, 5):
        if all(conn[b] for b in blocks) and all(
            adjset[blocks[i]] & blocks[j]
            for i in range(5)
            for j in range(i + 1, 5)
        ):
            return True
    return False


def brute_has_k33_minor(g: Multigraph) -> bool:
    if g.n < 6 or len({(min(a, b), max(a, b)) for a, b in g.edges if a != b}) < 9:
        return False
    adj = adjacency_masks(g)
    conn = _connected_table(adj)
    adjset = _adjset_table(adj)
    for blocks in _partition_patterns(g.n, 6):
        if not all(conn[b] for b in blocks):
            continue
        for left in combinations(range(6), 3):
            right = [i for i in range(6) if i not in left]
            if all(
                adjset[blocks[i]] & blocks[j] for i in left for j in right
            ):
                return True
    return False


def brute_is_planar(g: Multigraph) -> bool:
    """Wagner's characterization: planar iff no K5 and no K3,3 minor."""
    simple_edges = {(min(a, b), max(a, b)) for a, b in g.edges if a != b}
    sg = Multigraph(g.n, sorted(simple_edges))
    if sg.n >= 3 and sg.m > 3 * sg.n - 6:
        return False
    return not brute_has_k5_minor(sg) and not brute_has_k33_minor(sg)


# ---------------------------------------------------------------------------
# Brute-force cyclic cuts
# ---------------------------------------------------------------------------


def brute_cyclic_cuts(g: Multigraph, max_size: int) -> set[frozenset[int]]:
    """Every edge subset of size <= max_size whose removal leaves at least
    two components that each contain a cycle."""
    out = set()
    for size in range(1, max_size + 1):
        for subset in combinations(range(g.m), size):
            if leaves_two_cyclic_components(g, set(subset)):
                out.add(frozenset(subset))
    return out


def is_bond(g: Multigraph, cut: set[int]) -> bool:
    """Whether G - cut has exactly two components and every edge of cut
    joins them, by a union-find over the edges kept."""
    comp = list(range(g.n))

    def find(v: int) -> int:
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for e, (a, b) in enumerate(g.edges):
        if e not in cut:
            comp[find(a)] = find(b)
    if len({find(v) for v in range(g.n)}) != 2:
        return False
    return all(find(a) != find(b) for a, b in (g.edges[e] for e in cut))


def leaves_two_cyclic_components(g: Multigraph, cut: set[int]) -> bool:
    """Whether G - cut has two components that each keep as many edges as
    vertices, by one flood fill over the whole graph."""
    comp = [-1] * g.n
    ncomp = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        comp[s] = ncomp
        stack = [s]
        while stack:
            v = stack.pop()
            for e in g.incident_edges(v):
                if e in cut:
                    continue
                w = g.other_end(e, v)
                if comp[w] == -1:
                    comp[w] = ncomp
                    stack.append(w)
        ncomp += 1
    vcount = [0] * ncomp
    ecount = [0] * ncomp
    for v in range(g.n):
        vcount[comp[v]] += 1
    for e, (a, _b) in enumerate(g.edges):
        if e not in cut:
            ecount[comp[a]] += 1
    return sum(1 for c in range(ncomp) if ecount[c] >= vcount[c]) >= 2


# ---------------------------------------------------------------------------
# Brute-force pseudo-matchings
# ---------------------------------------------------------------------------


def brute_ppm_edge_sets(g: Multigraph) -> set[frozenset[int]]:
    """Edge sets of all PPMs, by filtering every edge subset of fitting size."""
    n = g.n
    out = set()
    # k K2 components and c claws satisfy 2k + 4c = n, using k + 3c edges.
    sizes = set()
    for c in range(n // 4 + 1):
        rem = n - 4 * c
        if rem >= 0 and rem % 2 == 0:
            sizes.add(rem // 2 + 3 * c)
    for size in sizes:
        for subset in combinations(range(g.m), size):
            if _is_ppm_edge_set(g, subset):
                out.add(frozenset(subset))
    return out


def _is_ppm_edge_set(g: Multigraph, subset: tuple[int, ...]) -> bool:
    deg: dict[int, int] = {}
    for e in subset:
        a, b = g.edges[e]
        if a == b:
            return False
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    if len(deg) != g.n:
        return False
    # Components must be exactly K2 or K1,3: every vertex has degree 1 or 3,
    # and no edge joins two vertices of degree > 1 (stars only).
    if any(d not in (1, 3) for d in deg.values()):
        return False
    for e in subset:
        a, b = g.edges[e]
        if deg[a] > 1 and deg[b] > 1:
            return False
    return True


def brute_perfect_matchings(g: Multigraph) -> set[frozenset[int]]:
    """Every perfect matching, by deciding the edges in index order: an edge
    may join when both its ends are free, and a branch dies once it passes
    the last edge of a vertex that is still free."""
    last = [-1] * g.n
    for e, (a, b) in enumerate(g.edges):
        last[a] = last[b] = e
    free = [True] * g.n
    chosen: list[int] = []
    out = set()

    def decide(e: int) -> None:
        if e == g.m:
            if not any(free):
                out.add(frozenset(chosen))
            return
        a, b = g.edges[e]
        if a != b and free[a] and free[b]:
            free[a] = free[b] = False
            chosen.append(e)
            decide(e + 1)
            chosen.pop()
            free[a] = free[b] = True
        if not ((free[a] and last[a] == e) or (free[b] and last[b] == e)):
            decide(e + 1)

    decide(0)
    return out


def brute_3_edge_colorable(g: Multigraph) -> bool:
    """Tait's criterion for cubic graphs: 3-edge-colorable iff there is no
    loop and some perfect matching leaves only even cycles, which then
    alternate the other two colors."""
    if any(a == b for a, b in g.edges):
        return False
    for pm in brute_perfect_matchings(g):
        rest = [[] for _ in range(g.n)]
        for e, (a, b) in enumerate(g.edges):
            if e not in pm:
                rest[a].append(b)
                rest[b].append(a)
        seen = [False] * g.n
        odd = False
        for s in range(g.n):
            if seen[s]:
                continue
            seen[s] = True
            stack = [s]
            size = 0
            while stack:
                size += 1
                for w in rest[stack.pop()]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            odd = odd or size % 2 == 1
        if not odd:
            return True
    return False


def brute_color_set(g: Multigraph, side: set[int]) -> set[str]:
    """The boundary types of the 4-pole of ``side``: its vertices, the edges
    with an end among them, and the four edges with one end outside (its
    dangling edges, taken in edge-id order). Lists every assignment of
    colors 1-3 to the pole's edges, edge by edge, that is proper at the
    side's vertices, and names the dangling colors c0..c3 by which of them
    are equal: aaaa, aabb (c0 = c1), abab (c0 = c2) or abba (c0 = c3)."""
    pole = [e for e, (a, b) in enumerate(g.edges) if a in side or b in side]
    dangling = [e for e in pole if (g.edges[e][0] in side) != (g.edges[e][1] in side)]
    assert len(dangling) == 4
    used: dict[int, set[int]] = {v: set() for v in side}
    color: dict[int, int] = {}
    found: set[str] = set()

    def extend(k: int) -> None:
        if k == len(pole):
            c0, c1, c2, c3 = (color[e] for e in dangling)
            if c0 == c1 == c2 == c3:
                found.add("aaaa")
            elif c0 == c1 and c2 == c3:
                found.add("aabb")
            elif c0 == c2 and c1 == c3:
                found.add("abab")
            else:
                assert c0 == c3 and c1 == c2, "a coloring breaks the Parity Lemma"
                found.add("abba")
            return
        a, b = g.edges[pole[k]]
        if a == b:
            return  # a loop meets itself
        ends = [v for v in (a, b) if v in side]
        for c in (1, 2, 3):
            if all(c not in used[v] for v in ends):
                for v in ends:
                    used[v].add(c)
                color[pole[k]] = c
                extend(k + 1)
                for v in ends:
                    used[v].discard(c)

    extend(0)
    return found


# ---------------------------------------------------------------------------
# Brute-force cycle double covers containing a given cycle
# ---------------------------------------------------------------------------


def brute_all_cycles(g: Multigraph) -> list[frozenset[int]]:
    """Edge sets of all simple cycles (length >= 1; loops count)."""
    cycles: set[frozenset[int]] = set()
    for e, (a, b) in enumerate(g.edges):
        if a == b:
            cycles.add(frozenset({e}))

    def extend(start: int, v: int, path_edges: list[int], on_path: set[int]) -> None:
        for e in g.incident_edges(v):
            if path_edges and e == path_edges[-1]:
                continue
            w = g.other_end(e, v)
            if w == v:
                continue
            if w == start and path_edges:
                cycles.add(frozenset(path_edges + [e]))
                continue
            if w in on_path or w < start:
                continue
            on_path.add(w)
            path_edges.append(e)
            extend(start, w, path_edges, on_path)
            path_edges.pop()
            on_path.discard(w)

    for s in range(g.n):
        extend(s, s, [], {s})
    return sorted(cycles, key=sorted)


def brute_cdc_containing(g: Multigraph, cycle_edges: frozenset[int]) -> bool:
    """Is there a cycle double cover of g that includes the given cycle?"""
    cycles = brute_all_cycles(g)
    need = [2] * g.m
    for e in cycle_edges:
        need[e] -= 1
    by_edge: dict[int, list[frozenset[int]]] = {e: [] for e in range(g.m)}
    for c in cycles:
        for e in c:
            by_edge[e].append(c)

    def rec(need: list[int]) -> bool:
        short = None
        for e in range(g.m):
            if need[e] > 0:
                short = e
                break
        if short is None:
            return True
        for c in by_edge[short]:
            if all(need[e] >= 1 for e in c):
                for e in c:
                    need[e] -= 1
                if rec(need):
                    return True
                for e in c:
                    need[e] += 1
        return False

    return rec(need)


# ---------------------------------------------------------------------------
# Brute-force compatible cycle decompositions
# ---------------------------------------------------------------------------


def brute_ccds(
    g: Multigraph, pairs_at: tuple[tuple[frozenset[int], ...], ...]
) -> list[frozenset[frozenset[int]]]:
    """Every compatible cycle decomposition, as a family of cycle edge sets.

    An exact cover of the edges by the cycles of ``brute_all_cycles`` that
    hold at most one edge of each transition pair and no self-paired loop.
    """
    pairs = [pair for at_v in pairs_at for pair in at_v]
    allowed = [
        c
        for c in brute_all_cycles(g)
        if all(len(c & p) <= 1 and not (len(p) == 1 and p <= c) for p in pairs)
    ]
    out: list[frozenset[frozenset[int]]] = []
    chosen: list[frozenset[int]] = []

    def cover(uncovered: frozenset[int]) -> None:
        if not uncovered:
            out.append(frozenset(chosen))
            return
        e = min(uncovered)
        for c in allowed:
            if e in c and c <= uncovered:
                chosen.append(c)
                cover(uncovered - c)
                chosen.pop()

    cover(frozenset(range(g.m)))
    return out
