"""Coloring ↔ compatible-decomposition equivalence across the desk corpus.

For every cubic graph in the corpus and every pseudo-matching of it:
3-edge-colorable graphs admit a compatible decomposition whose intersection
graph is 3-colorable, uncolorable graphs admit none (checked by exhaustive
enumeration), and chromatic number exactly 2 characterizes matchings that
are color classes.
"""

from __future__ import annotations

import pytest

import named
from snarkppm import (
    CubicGraph,
    EdgeColoring,
    chromatic_number,
    ccd_from_coloring,
    coloring_is_proper,
    complement_cycles,
    contract,
    enumerate_ccds,
    enumerate_ppms,
    find_3_edge_coloring,
    intersection_graph,
)


def corpus(cubic_graphs_le8):
    out = [(f"le8_{i}", g) for i, g in enumerate(cubic_graphs_le8)]
    for name in (
        "petersen",
        "pentagonal_prism",
        "moebius_V10",
        "tietze",
        "frucht",
        "durer",
        "truncated_tetrahedron",
    ):
        out.append((name, named.EQUIVALENCE_CORPUS[name]()))
    return out


def test_equivalence_and_chi_two_characterization(cubic_graphs_le8):
    checked_graphs = 0
    checked_ppms = 0
    for name, g in corpus(cubic_graphs_le8):
        cg3 = CubicGraph(g)
        coloring = find_3_edge_coloring(cg3)
        checked_graphs += 1
        for m in enumerate_ppms(cg3):
            checked_ppms += 1
            cg = contract(cg3, m)
            if coloring is not None:
                # (i) -> (ii): the color classes witness chi <= 3.
                ccd = ccd_from_coloring(cg3, m, coloring)
                chi = chromatic_number(intersection_graph(ccd).graph)
                assert chi <= 3, (name, m)
            else:
                # (ii) -> (i), contrapositive: no CCD may be 3-chromatic.
                for ccd in enumerate_ccds(cg):
                    chi = chromatic_number(intersection_graph(ccd).graph)
                    assert chi >= 4, (name, m)
            # (iii) both directions, on every compatible decomposition.
            for ccd in enumerate_ccds(cg):
                chi = chromatic_number(intersection_graph(ccd).graph)
                if chi == 2:
                    assert m.is_perfect_matching(), (name, m)
                    assert _lifts_to_coloring(cg3, m, cg, ccd), (name, m)
    assert checked_graphs == 15
    assert checked_ppms > 100


def test_chi_two_converse(cubic_graphs_le8):
    # A perfect matching that is a color class yields a 2-chromatic CCD.
    for name, g in corpus(cubic_graphs_le8):
        cg3 = CubicGraph(g)
        for m in enumerate_ppms(cg3, perfect_matchings_only=True):
            cycles = complement_cycles(cg3, m)
            if any(len(c) % 2 for c in cycles):
                continue  # not a color class of any proper coloring
            coloring = _coloring_with_class(cg3, m, cycles)
            assert coloring_is_proper(g, coloring)
            ccd = ccd_from_coloring(cg3, m, coloring)
            chi = chromatic_number(intersection_graph(ccd).graph)
            assert chi == 2, name


def _coloring_with_class(g: CubicGraph, m, cycles) -> EdgeColoring:
    color = {}
    for e in m.edge_set(g.graph):
        color[e] = 3
    for cyc in cycles:
        for i, e in enumerate(cyc.edges):
            color[e] = 1 if i % 2 == 0 else 2
    return EdgeColoring(color)


def _lifts_to_coloring(cg3, m, cg, ccd) -> bool:
    """A 2-chromatic CCD plus the matching as third class colors the graph."""
    ig = intersection_graph(ccd).graph
    assign = _two_color(ig)
    if assign is None:
        return False
    color = {}
    for e in m.edge_set(cg3.graph):
        color[e] = 3
    for ci, cyc in enumerate(ccd.cycles):
        for qe in cyc.edges:
            color[cg.edge_origin[qe]] = assign[ci]
    return coloring_is_proper(cg3.graph, EdgeColoring(color))


def _two_color(g) -> list[int] | None:
    assign = [0] * g.n
    for s in range(g.n):
        if assign[s]:
            continue
        assign[s] = 1
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if assign[w] == 0:
                    assign[w] = 3 - assign[v]
                    stack.append(w)
                elif assign[w] == assign[v]:
                    return None
    return assign
