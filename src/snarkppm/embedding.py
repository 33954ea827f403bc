"""Combinatorial embeddings: rotation systems, darts, face tracing.

A dart is ``(edge_id, end)`` with ``end`` in {0, 1}: dart ``(e, 0)`` leaves
``edges[e][0]`` toward ``edges[e][1]``, dart ``(e, 1)`` is the reverse.
``rotation[v]`` lists the darts with tail ``v`` in clockwise order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .multigraph import GraphError, Multigraph

Dart = tuple[int, int]


def dart_tail(g: Multigraph, d: Dart) -> int:
    e, s = d
    return g.edges[e][s]


def twin(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


def face_successor(
    edges: Sequence[tuple[int, int]], rotation: dict[int, list[Dart]], d: Dart
) -> Dart:
    """The dart after d on its face: the dart after twin(d) in the rotation
    at head(d)."""
    t = twin(d)
    ring = rotation[edges[t[0]][t[1]]]
    return ring[(ring.index(t) + 1) % len(ring)]


def trace_faces(
    edges: Sequence[tuple[int, int]], rotation: dict[int, list[Dart]]
) -> tuple[list[list[Dart]], dict[Dart, int]]:
    """Face walks of a rotation system and the face index of every dart.

    Walks follow ``face_successor``, read from one map of each dart to the
    next in its rotation, and start at the first unvisited dart in vertex
    order, then rotation order, so face indices are deterministic.
    """
    after: dict[Dart, Dart] = {}
    for v, darts in rotation.items():
        for d in darts:
            if edges[d[0]][d[1]] != v:
                raise GraphError(f"dart {d} listed at vertex {v} but has tail elsewhere")
        after.update(zip(darts, darts[1:] + darts[:1]))
    walks: list[list[Dart]] = []
    face_of: dict[Dart, int] = {}
    for v in sorted(rotation):
        for start in rotation[v]:
            if start in face_of:
                continue
            walk = []
            d = start
            while d not in face_of:
                face_of[d] = len(walks)
                walk.append(d)
                d = after[d[0], 1 - d[1]]
            walks.append(walk)
    return walks, face_of


@dataclass
class PlanarEmbedding:
    """Rotation system describing a genus-0 embedding of a multigraph."""

    graph: Multigraph
    rotation: dict[int, list[Dart]]

    def faces(self) -> list[list[Dart]]:
        """One walk per face (see ``trace_faces``)."""
        return trace_faces(self.graph.edges, self.rotation)[0]

    def face_count(self) -> int:
        return len(self.faces())

    def verify_euler(self) -> None:
        """Check v - e + f = 2 on every connected component with an edge."""
        g = self.graph
        self._verify_rotation_complete()
        comps = g.connected_components()
        comp_of = {}
        for ci, verts in enumerate(comps):
            for v in verts:
                comp_of[v] = ci
        face_per_comp = [0] * len(comps)
        for walk in self.faces():
            face_per_comp[comp_of[dart_tail(g, walk[0])]] += 1
        edge_per_comp = [0] * len(comps)
        for a, _b in g.edges:
            edge_per_comp[comp_of[a]] += 1
        for ci, verts in enumerate(comps):
            v, e, f = len(verts), edge_per_comp[ci], face_per_comp[ci]
            if e == 0:
                continue
            if v - e + f != 2:
                raise GraphError(
                    f"embedding violates Euler formula on component {ci}: "
                    f"v={v} e={e} f={f}"
                )

    def _verify_rotation_complete(self) -> None:
        g = self.graph
        seen_darts: set[Dart] = set()
        for v in range(g.n):
            darts = self.rotation.get(v, [])
            for d in darts:
                e, s = d
                if not (0 <= e < g.m and s in (0, 1)):
                    raise GraphError(f"dart {d} at vertex {v} is no end of an edge")
                if d in seen_darts:
                    raise GraphError(f"dart {d} appears twice in rotation")
                seen_darts.add(d)
        if len(seen_darts) != 2 * g.m:
            raise GraphError(
                f"rotation lists {len(seen_darts)} darts, expected {2 * g.m}"
            )
