"""Workload inputs, ops and answer checks for the snarkppm benchmark.

Every input is a seeded random relabeling of a family member: vertices are
permuted, edges are reordered and reoriented, and a carried pseudo-matching
is mapped onto the new edge indices (its component order shuffled too).
The answers are isomorphism invariants, so each op has a known answer and
no speed-up can come from one lucky labeling.

Ops call the library through module attributes (``census.run_census``,
not a name bound at import), so a traced run sees the wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from snarkppm import (
    canonical,
    census,
    coloring,
    constructions,
    cycles,
    families,
    graph6,
    ppm,
)
from snarkppm.multigraph import CubicGraph, Multigraph
from snarkppm.ppm import ClawComponent, K2Component, PseudoMatching

# Source graphs: name -> constructor returning (graph, designated PPM). The
# even flowers are 3-edge-colorable; their PPM is the claw at every spoke.


def _family(make: Callable[[], families.FamilyInstance]):
    def build():
        inst = make()
        return inst.graph, inst.designated_ppm

    return build


def _colorable_flower(k: int):
    def build():
        g = families.flower_graph(k)
        return CubicGraph(g, require_simple=True), families.flower_claw_ppm(g, k)

    return build


SOURCES = {
    "petersen": _family(families.petersen),
    "b18_1": _family(lambda: families.blanusa_snark(2, 1)),
    "b18_2": _family(lambda: families.blanusa_snark(2, 2)),
    "j7": _family(lambda: families.flower_snark(7)),
    "j6": _colorable_flower(6),
    "j8": _colorable_flower(8),
}


def relabel(
    g: CubicGraph, m: PseudoMatching, rng: random.Random
) -> tuple[CubicGraph, PseudoMatching]:
    """A random isomorphic copy of g, with m carried over."""
    mg = g.graph
    perm = list(range(mg.n))
    rng.shuffle(perm)
    order = list(range(mg.m))
    rng.shuffle(order)
    new_index = [0] * mg.m
    edges = []
    for i, old in enumerate(order):
        new_index[old] = i
        a, b = mg.edges[old]
        edges.append((perm[a], perm[b]) if rng.random() < 0.5 else (perm[b], perm[a]))
    h = CubicGraph(Multigraph(mg.n, edges), require_simple=g.simple)
    comps = []
    for c in m.components:
        if isinstance(c, K2Component):
            comps.append(K2Component(new_index[c.edge]))
        else:
            leaves = tuple(sorted(new_index[e] for e in c.leaf_edges))
            comps.append(ClawComponent(perm[c.center], leaves))
    rng.shuffle(comps)
    return h, PseudoMatching(tuple(comps))


# ---------------------------------------------------------------------------
# census_snarks: run_census(line, mode="both") on one graph6 line
# ---------------------------------------------------------------------------

# Table 1 rows (n s no_planarizing_pm no_planarizing_ppm no_k5_free_pm
# no_k5_free_ppm) for a census of the single graph.
CENSUS_ROWS = {
    "petersen": "10 1 1 0 1 0",
    "b18_1": "18 1 0 0 0 0",
    "b18_2": "18 1 1 0 1 0",
    "j5": "20 1 1 0 1 0",
}


def census_input(source, rng: random.Random):
    g, _ = relabel(*source, rng)
    return graph6.write_graph6(g.graph)


def census_op(line: str):
    return census.run_census(line, mode="both")


def census_check(source: str, line: str, report) -> str | None:
    if not report.complete:
        return "report incomplete"
    if source not in CENSUS_ROWS:
        if report.non_snarks != [1] or report.rows:
            return f"non-snark not reported as such: {report.non_snarks}"
        return None
    if report.non_snarks:
        return "snark reported as non-snark"
    rows = report.to_tsv().splitlines()[1:]
    want = CENSUS_ROWS[source].replace(" ", "\t")
    if rows != [want]:
        return f"row {rows} != {want!r}"
    verdict = report.verdicts[0]
    if verdict.witness is None:
        return "no witness"
    g = CubicGraph(graph6.parse_graph6(line), require_simple=True)
    if ppm.validate_ppm(g, verdict.witness) is not None:
        return "witness invalid"
    if ppm.classify_ppm(g, verdict.witness) != verdict.best_ppm_class:
        return "witness class differs from the reported class"
    return None


# ---------------------------------------------------------------------------
# analyze_snarks: census.analyze(g, m) with the designated PPM mapped over
# ---------------------------------------------------------------------------

# analyze() on the unrelabeled sources. Only labeling-invariant content is
# compared: CCD/CDC cycle counts depend on the search order and are dropped,
# and cycle lists are compared as multisets.
ANALYZE_REPORTS = {
    "j6": """\
vertices: 24, edges: 36
snark: no
cyclically 6-edge-connected (checked up to 6)
3-edge-colorable: yes
pseudo-matching: 6 components, 6 claws
classification: planarizing
complement cycles: length 6, length 12
quotient: 6 vertices, 18 edges, degrees [6]
CCD found (7 cycles)
CDC verified (9 cycles)
""",
    "j7": """\
vertices: 28, edges: 42
snark: yes
cyclically 6-edge-connected (checked up to 6)
3-edge-colorable: no
pseudo-matching: 7 components, 7 claws
classification: planarizing
complement cycles: length 7, length 14
quotient: 7 vertices, 21 edges, degrees [6]
CCD found (8 cycles)
CDC verified (10 cycles)
""",
}


def invariant_lines(report: str) -> list[str]:
    out = []
    for line in report.splitlines():
        if line.startswith(("CCD found", "CDC ")):
            line = line.split(" (")[0]
        elif line.startswith("complement cycles: "):
            head, _, tail = line.partition(": ")
            line = head + ": " + ", ".join(sorted(tail.split(", ")))
        out.append(line)
    return sorted(out)


def relabeled_pair(source, rng: random.Random):
    return relabel(*source, rng)


def analyze_op(inp):
    return census.analyze(*inp)


def analyze_check(source: str, inp, report: str) -> str | None:
    if not any(line.startswith("CDC verified") for line in report.splitlines()):
        return "CDC not verified"
    if invariant_lines(report) != invariant_lines(ANALYZE_REPORTS[source]):
        return "report differs from the unrelabeled source"
    return None


# ---------------------------------------------------------------------------
# construct_star: the criterion-7 pipeline on one (graph, PPM)
# ---------------------------------------------------------------------------


def star_op(inp):
    g, m = inp
    star = constructions.star_construction(g, m)
    snark = coloring.is_snark(star.graph)
    smoothed = constructions.suppress_degree_two(constructions.through_path_subgraph(star))
    isomorphic = canonical.are_isomorphic(smoothed, g.graph)
    cdc = cycles.cdc_from_ccd(g, m, cycles.find_ccd(ppm.contract(g, m)))
    for record in star.records:
        cdc = constructions.extend_cdc(cdc, record)
    return star, snark, isomorphic, cycles.verify_cycle_set(star.graph.graph, cdc)


def star_check(source: str, inp, result) -> str | None:
    g, _ = inp
    star, snark, isomorphic, broken = result
    if not snark:
        return "star of a snark is not a snark"
    if not isomorphic:
        return "smoothed through-path graph not isomorphic to the input"
    if broken is not None:
        return f"extended CDC broken: {broken.message}"
    if star.graph.n != g.n + 8 * len(star.records):
        return "star vertex count is not 8 per crossing"
    if ppm.validate_ppm(star.graph, star.ppm) is not None:
        return "star PPM invalid"
    if ppm.classify_ppm(star.graph, star.ppm) != ppm.PLANARIZING:
        return "star PPM not planarizing"
    return None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    mix: tuple[str, ...]  # SOURCES names of one round, in order
    make_input: Callable[[tuple, random.Random], object]
    op: Callable[[object], object]
    check: Callable[[str, object, object], str | None]


# Why each workload exists is recorded in BENCHMARK.json. Inputs whose op
# time swings with the labeling by more than a 40 s run can average out are
# left out (bench/BASELINE.md has the measured ranges): J5 in the census
# (0.9-3.6 s per op) and in the star pipeline (1.0-3.1 s), G5 in analyze
# (its k=6 check stops at the first 5-cut: 4.6-8.3 s) and the B26 stars
# (coloring blow-ups, 1-25 s). The cheap analyze inputs (B18, B26, J5;
# 0.04-2 s) are left out so that the op-time median does not fall in the
# gap between them and the 4-8 s flowers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census_snarks",
            ("petersen", "b18_1", "b18_2", "j6", "j8"),
            census_input,
            census_op,
            census_check,
        ),
        Workload("analyze_snarks", ("j6", "j7"), relabeled_pair, analyze_op, analyze_check),
        Workload(
            "construct_star",
            ("petersen", "b18_1", "b18_2"),
            relabeled_pair,
            star_op,
            star_check,
        ),
    )
}
