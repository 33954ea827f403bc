"""Snark family constructors, each with its designated pseudo-matching.

Vertex numbering is block-major and documented per family so fixtures map
1:1 onto the usual labels:

* petersen: vertices v0..v9 with the 9-cycle complement of the designated
  pseudo-matching being v1 v2 v3 v4 v9 v7 v5 v8 v6.
* blanusa_snark(n, j): blocks H_1..H_n laid out consecutively; H_i for
  i < n is an 8-vertex B0 block (u0..u7), H_n is the 10-vertex B_j block.
* flower_snark(k): per spoke i (0-based), vertices 4i..4i+3 are
  v_i, u1_i, u2_i, u3_i.
* goldberg_snark(k): per block t (0-based), vertices 8t..8t+7 are
  v1..v8 of that block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import CubicGraph, GraphError, Multigraph
from .ppm import Component, PseudoMatching, claw_component, k2_component, validate_ppm


@dataclass(frozen=True)
class BlanusaBlock:
    kind: str  # B0 | B1 | B2
    size: int
    internal_edges: tuple[tuple[int, int], ...]
    attach_a: int
    attach_b: int
    attach_a_prime: int
    attach_b_prime: int


B0 = BlanusaBlock(
    "B0",
    8,
    ((0, 1), (1, 2), (5, 6), (6, 7), (0, 3), (3, 5), (1, 6), (2, 4), (4, 7), (3, 4)),
    attach_a=0,
    attach_b=5,
    attach_a_prime=7,
    attach_b_prime=2,
)

B1 = BlanusaBlock(
    "B1",
    10,
    (
        (0, 1), (1, 2), (2, 8), (5, 6), (6, 7), (7, 9), (0, 3), (3, 5),
        (1, 6), (2, 4), (4, 7), (8, 9), (3, 4),
    ),
    attach_a=0,
    attach_b=5,
    attach_a_prime=9,
    attach_b_prime=8,
)

B2 = BlanusaBlock(
    "B2",
    10,
    (
        (0, 1), (1, 2), (5, 6), (6, 7), (3, 9), (9, 4), (0, 3), (3, 5),
        (1, 8), (8, 6), (2, 4), (4, 7), (8, 9),
    ),
    attach_a=0,
    attach_b=5,
    attach_a_prime=7,
    attach_b_prime=2,
)


@dataclass(frozen=True)
class FamilyInstance:
    graph: CubicGraph
    designated_ppm: PseudoMatching
    family_tag: str


def _checked(graph: Multigraph, parts: list[Component], tag: str) -> FamilyInstance:
    g = CubicGraph(graph, require_simple=True)
    ppm = PseudoMatching(tuple(parts))
    bad = validate_ppm(g, ppm)
    if bad is not None:
        raise GraphError(f"{tag}: designated PPM invalid: {bad.message}")
    return FamilyInstance(g, ppm, tag)


def petersen() -> FamilyInstance:
    edges = [
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
        (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
    ]
    g = Multigraph(10, edges)
    parts: list[Component] = [
        claw_component(g, 0, [1, 4, 5]),
        k2_component(g, 2, 7),
        k2_component(g, 3, 8),
        k2_component(g, 6, 9),
    ]
    return _checked(g, parts, "petersen")


def blanusa_snark(n: int, j: int) -> FamilyInstance:
    if n < 1:
        raise GraphError(f"blanusa requires n >= 1, got {n}")
    if j not in (1, 2):
        raise GraphError(f"blanusa requires j in {{1, 2}}, got {j}")
    blocks = [B0] * (n - 1) + [B1 if j == 1 else B2]
    offsets = []
    total = 0
    for blk in blocks:
        offsets.append(total)
        total += blk.size
    edges: list[tuple[int, int]] = []
    for blk, off in zip(blocks, offsets):
        edges.extend((off + x, off + y) for x, y in blk.internal_edges)
    # Half-edge joins: a' and b' of H_i meet a and b of H_{i+1}, cyclically.
    for i in range(n):
        blk, off = blocks[i], offsets[i]
        nxt_blk, nxt_off = blocks[(i + 1) % n], offsets[(i + 1) % n]
        edges.append((off + blk.attach_a_prime, nxt_off + nxt_blk.attach_a))
        edges.append((off + blk.attach_b_prime, nxt_off + nxt_blk.attach_b))
    g = Multigraph(total, edges)

    parts: list[Component] = []
    for i in range(n - 1):
        off = offsets[i]
        if j == 1:
            parts.append(claw_component(g, off + 1, [off + 0, off + 2, off + 6]))
            parts.append(k2_component(g, off + 3, off + 5))
            parts.append(k2_component(g, off + 4, off + 7))
        else:
            parts.append(claw_component(g, off + 3, [off + 0, off + 4, off + 5]))
            parts.append(k2_component(g, off + 1, off + 2))
            parts.append(k2_component(g, off + 6, off + 7))
    off = offsets[-1]
    if j == 1:
        parts.append(claw_component(g, off + 1, [off + 0, off + 2, off + 6]))
        parts.append(k2_component(g, off + 3, off + 5))
        parts.append(k2_component(g, off + 4, off + 7))
        parts.append(k2_component(g, off + 8, off + 9))
    else:
        parts.append(k2_component(g, off + 0, off + 1))
        parts.append(k2_component(g, off + 2, off + 4))
        parts.append(k2_component(g, off + 3, off + 5))
        parts.append(k2_component(g, off + 6, off + 7))
        parts.append(k2_component(g, off + 8, off + 9))
    return _checked(g, parts, f"blanusa(n={n},j={j})")


def flower_graph(k: int) -> Multigraph:
    """The flower construction for any k >= 3 (a snark only for odd k)."""
    if k < 3:
        raise GraphError(f"flower requires k >= 3, got {k}")

    def v(i: int) -> int:
        return 4 * (i % k)

    def u(layer: int, i: int) -> int:
        return 4 * (i % k) + layer

    edges = []
    for i in range(k):
        edges.append((u(1, i), u(1, i + 1)))
    # The long cycle runs through layer 2 then layer 3.
    for i in range(k - 1):
        edges.append((u(2, i), u(2, i + 1)))
    edges.append((u(2, k - 1), u(3, 0)))
    for i in range(k - 1):
        edges.append((u(3, i), u(3, i + 1)))
    edges.append((u(3, k - 1), u(2, 0)))
    for i in range(k):
        edges.extend([(v(i), u(1, i)), (v(i), u(2, i)), (v(i), u(3, i))])
    return Multigraph(4 * k, edges)


def flower_claw_ppm(g: Multigraph, k: int) -> PseudoMatching:
    parts: list[Component] = [
        claw_component(g, 4 * i, [4 * i + 1, 4 * i + 2, 4 * i + 3])
        for i in range(k)
    ]
    return PseudoMatching(tuple(parts))


def flower_snark(k: int) -> FamilyInstance:
    if k < 3 or k % 2 == 0:
        raise GraphError(f"flower snark requires odd k >= 3, got {k}")
    g = flower_graph(k)
    return _checked(g, list(flower_claw_ppm(g, k).components), f"flower(k={k})")


def goldberg_snark(k: int) -> FamilyInstance:
    if k < 5 or k % 2 == 0:
        raise GraphError(f"goldberg snark requires odd k >= 5, got {k}")

    def v(t: int, jj: int) -> int:
        return 8 * (t % k) + (jj - 1)

    edges = []
    for t in range(k):
        edges.extend(
            (v(t, a), v(t, b))
            for a, b in ((1, 2), (1, 7), (2, 8), (3, 4), (3, 8), (4, 7), (5, 6), (6, 7), (6, 8))
        )
    for t in range(k):
        edges.append((v(t, 2), v(t + 1, 1)))
        edges.append((v(t, 4), v(t + 1, 3)))
        edges.append((v(t, 5), v(t + 1, 5)))
    g = Multigraph(8 * k, edges)
    parts: list[Component] = []
    for t in range(k):
        parts.append(k2_component(g, v(t, 1), v(t, 7)))
        parts.append(k2_component(g, v(t, 2), v(t, 8)))
        parts.append(k2_component(g, v(t, 3), v(t, 4)))
        parts.append(k2_component(g, v(t, 5), v(t, 6)))
    return _checked(g, parts, f"goldberg(k={k})")
