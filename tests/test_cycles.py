"""Dominating/stable cycles, CCDs, CDC lifting, intersection graphs."""

from __future__ import annotations

from itertools import islice

import pytest

import named
import oracles
from snarkppm import (
    CCD,
    CDC,
    CubicGraph,
    Cycle,
    CycleSet,
    GraphError,
    K2Component,
    Multigraph,
    PseudoMatching,
    TransitionSystem,
    blanusa_snark,
    cdc_from_ccd,
    ccd_from_coloring,
    chromatic_number,
    contract,
    cycle_from_vertices,
    cycles_containing,
    enumerate_ccds,
    find_3_edge_coloring,
    find_ccd,
    find_dominating_cycles,
    intersection_graph,
    is_dominating,
    is_stable,
    enumerate_ppms,
    petersen,
    flower_snark,
    ppm_from_dominating_cycle,
    verify_ccd_compatible,
    verify_cycle_set,
)
from snarkppm.ppm import ContractedGraph

C0 = [1, 2, 3, 4, 9, 7, 5, 8, 6]
PAPER_CDC = [
    C0,
    [0, 1, 2, 7, 5],
    [0, 1, 6, 9, 4],
    [0, 4, 3, 8, 5],
    [2, 3, 8, 6, 9, 7],
]


class TestDominating:
    def test_c0_appears_among_petersen_dominating_cycles(self):
        g = petersen().graph
        target = frozenset(cycle_from_vertices(g.graph, C0).edges)
        found = {c.edge_set() for c in find_dominating_cycles(g)}
        assert target in found

    def test_k4_has_three_dominating_hamiltonians(self):
        g = CubicGraph(named.k4())
        cycles = list(find_dominating_cycles(g))
        hams = [c for c in cycles if len(c) == 4]
        assert len(hams) == 3
        for c in cycles:
            assert is_dominating(g, set(c.vertices))

    def test_limit_caps_the_stream(self):
        g = petersen().graph
        assert len(list(find_dominating_cycles(g, limit=3))) == 3

    def test_limit_zero_yields_nothing(self):
        assert list(find_dominating_cycles(petersen().graph, limit=0)) == []

    def test_negative_limit_refused_first(self):
        # Two disjoint thetas: the limit is refused before connectivity is
        # even looked at.
        g = CubicGraph(Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3))
        with pytest.raises(GraphError, match="limit must be non-negative"):
            next(find_dominating_cycles(g, limit=-3))

    def test_every_reported_cycle_is_dominating_and_unique(self):
        g = CubicGraph(named.prism())
        seen = set()
        for c in find_dominating_cycles(g):
            assert is_dominating(g, set(c.vertices))
            assert c.edge_set() not in seen
            seen.add(c.edge_set())

    def test_graph_without_dominating_cycle_yields_empty_stream(self):
        # Two triangles tied through a perfect matching of three paths, each
        # subdivided twice: the middle vertices form edges no short cycle
        # dominates. Built by double-subdividing the prism's matching edges.
        prism = named.prism()
        edges = []
        nxt = 6
        for a, b in prism.edges:
            if (a, b) in ((0, 3), (1, 4), (2, 5)):
                edges += [(a, nxt), (nxt, nxt + 1), (nxt + 1, b)]
                nxt += 2
            else:
                edges.append((a, b))
        g = Multigraph(12, edges)
        # Not cubic (middle vertices have degree 2), so check by hand that
        # no cycle dominates: every cycle misses a whole tie path.
        assert not any(
            all(
                a in set(c.vertices) or b in set(c.vertices)
                for a, b in g.edges
            )
            for c in cycles_containing(g, set())
        )


class TestStable:
    def test_triangle_inside_k4_is_not_stable(self):
        g = CubicGraph(named.k4())
        tri = cycle_from_vertices(g.graph, [0, 1, 2])
        assert not is_stable(g, tri)

    def test_hamiltonian_cycle_of_k4_is_not_stable(self):
        g = CubicGraph(named.k4())
        ham = cycle_from_vertices(g.graph, [0, 1, 2, 3])
        # V(C) = V(G); K4 has three hamiltonian cycles, so another cycle
        # contains all of V(C): not stable.
        assert not is_stable(g, ham)

    def test_petersen_c0_is_not_stable(self):
        # Petersen is hypohamiltonian: deleting the one vertex off C0 leaves
        # a hamiltonian graph, and that 9-cycle is not unique. Frozen result.
        g = petersen().graph
        c0 = cycle_from_vertices(g.graph, C0)
        assert is_stable(g, c0) is False

    def test_digon_of_theta_is_not_stable(self):
        # The theta-like cubic multigraph on 2 vertices has digon cycles only.
        g = CubicGraph(Multigraph(2, [(0, 1)] * 3))
        digon = Cycle((0, 1), (0, 1))
        assert not is_stable(g, digon)  # two other digons span {0,1}


def _petersen_contraction() -> tuple:
    inst = petersen()
    return inst, contract(inst.graph, inst.designated_ppm)


class TestCCD:
    def test_petersen_contraction_has_unique_ccd(self):
        inst, cg = _petersen_contraction()
        ccds = list(enumerate_ccds(cg))
        assert len(ccds) == 1
        assert verify_ccd_compatible(cg, ccds[0]) is None
        # Three digons plus the triangle of K2-components.
        lengths = sorted(len(c) for c in ccds[0].cycles)
        assert lengths == [2, 2, 2, 3]

    def test_flower_contraction_has_a_ccd(self):
        inst = flower_snark(5)
        cg = contract(inst.graph, inst.designated_ppm)
        ccd = find_ccd(cg)
        assert ccd is not None
        assert verify_ccd_compatible(cg, ccd) is None

    def test_two_loops_with_self_paired_transitions_infeasible(self):
        g = Multigraph(1, [(0, 0), (0, 0)])
        t = TransitionSystem(((frozenset({0}), frozenset({1})),))
        cg = ContractedGraph(g, t, (0,), (0, 1))
        assert find_ccd(cg) is None

    def test_two_loops_with_plain_transitions_decompose(self):
        g = Multigraph(1, [(0, 0), (0, 0)])
        t = TransitionSystem(((frozenset({0, 1}),),))
        cg = ContractedGraph(g, t, (0,), (0, 1))
        ccd = find_ccd(cg)
        assert ccd is not None and len(ccd.cycles) == 2

    def test_ccds_equal_brute_force_exact_covers(self, cubic_graphs_le8):
        # Whole CCD sets, as families of edge sets, against exact covers.
        cubics = [CubicGraph(g) for g in cubic_graphs_le8]
        quotients = [(g3, m) for g3 in cubics for m in enumerate_ppms(g3)]
        quotients += [(petersen().graph, m) for m in enumerate_ppms(petersen().graph)]
        for inst in (
            blanusa_snark(2, 1),
            blanusa_snark(2, 2),
            flower_snark(5),
            flower_snark(7),
        ):
            ppms = list(islice(enumerate_ppms(inst.graph), 20))
            quotients += [(inst.graph, m) for m in ppms + [inst.designated_ppm]]
        assert len(quotients) == 106 + 26 + 4 * 21
        for g, m in quotients:
            cg = contract(g, m)
            found = []
            for ccd in enumerate_ccds(cg):
                assert verify_ccd_compatible(cg, ccd) is None
                found.append(frozenset(c.edge_set() for c in ccd.cycles))
            assert len(set(found)) == len(found)
            want = oracles.brute_ccds(cg.graph, cg.transitions.pairs_at)
            assert set(found) == set(want)

    def test_every_ccd_respects_transitions_independently(self):
        inst = flower_snark(3)
        cg = contract(inst.graph, inst.designated_ppm)
        count = 0
        for ccd in enumerate_ccds(cg):
            assert verify_ccd_compatible(cg, ccd) is None
            count += 1
        assert count >= 1


class TestCDC:
    def test_petersen_cdc_matches_example(self):
        inst, cg = _petersen_contraction()
        ccd = find_ccd(cg)
        assert ccd is not None
        cdc = cdc_from_ccd(inst.graph, inst.designated_ppm, ccd)
        assert len(cdc.cycles) == len(ccd.cycles) + 1
        assert verify_cycle_set(inst.graph.graph, cdc) is None
        mine = {c.edge_set() for c in cdc.cycles}
        expect = {
            cycle_from_vertices(inst.graph.graph, vs).edge_set()
            for vs in PAPER_CDC
        }
        assert mine == expect

    def test_every_edge_twice(self):
        inst, cg = _petersen_contraction()
        cdc = cdc_from_ccd(inst.graph, inst.designated_ppm, find_ccd(cg))
        counts = [0] * inst.graph.m
        for c in cdc.cycles:
            for e in c.edges:
                counts[e] += 1
        assert all(x == 2 for x in counts)

    def test_lift_counts_across_small_corpus(self, cubic_graphs_le8):
        from snarkppm import complement_cycles

        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                cg = contract(cg3, m)
                ccd = find_ccd(cg)
                if ccd is None:
                    continue
                cdc = cdc_from_ccd(cg3, m, ccd)
                assert verify_cycle_set(g, cdc) is None
                assert len(cdc.cycles) == len(ccd.cycles) + len(
                    complement_cycles(cg3, m)
                )

    def test_lift_through_parallel_edges(self):
        # Complement cycles keep the parallel edge they walk, so digons lift.
        theta = CubicGraph(Multigraph(2, [(0, 1)] * 3))
        cases = [(theta, m) for m in enumerate_ppms(theta)]
        g = CubicGraph(
            Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])
        )
        cases.append((g, PseudoMatching((K2Component(2), K2Component(3)))))
        assert len(cases) == 4
        for g, m in cases:
            ccds = list(enumerate_ccds(contract(g, m)))
            assert ccds
            for ccd in ccds:
                cdc = cdc_from_ccd(g, m, ccd)
                assert verify_cycle_set(g.graph, cdc) is None

    def test_verify_reports_first_violation(self):
        inst, cg = _petersen_contraction()
        cdc = cdc_from_ccd(inst.graph, inst.designated_ppm, find_ccd(cg))
        dropped = CycleSet(cdc.cycles[1:], CDC)
        bad = verify_cycle_set(inst.graph.graph, dropped)
        assert bad is not None and "covered once" in bad.message
        doubled = CycleSet(cdc.cycles + cdc.cycles[:1], CDC)
        bad = verify_cycle_set(inst.graph.graph, doubled)
        assert bad is not None and "three times" in bad.message


class TestIntersectionGraph:
    def test_disjoint_cycles_are_edgeless(self):
        g = named.prism()
        s = CycleSet(
            (
                cycle_from_vertices(g, [0, 1, 2]),
                cycle_from_vertices(g, [3, 4, 5]),
            ),
            "decomposition",
        )
        ig = intersection_graph(s)
        assert ig.graph.m == 0
        assert chromatic_number(ig.graph) == 1

    def test_chromatic_number_exact_small(self):
        assert chromatic_number(named.k4()) == 4
        assert chromatic_number(named.k33()) == 2
        assert chromatic_number(named.petersen_standard()) == 3
        assert chromatic_number(Multigraph(3, [(0, 1), (1, 2), (0, 2)])) == 3
        assert chromatic_number(Multigraph(5, [])) == 1

    def test_k4_pm_contraction_ccd_chromatic_two(self):
        g = CubicGraph(named.k4())
        m = next(enumerate_ppms(g, perfect_matchings_only=True))
        col = find_3_edge_coloring(g)
        ccd = ccd_from_coloring(g, m, col)
        assert chromatic_number(intersection_graph(ccd).graph) == 2

    def test_petersen_every_ccd_needs_four_colors(self):
        inst, cg = _petersen_contraction()
        for ccd in enumerate_ccds(cg):
            chi = chromatic_number(intersection_graph(ccd).graph)
            assert chi >= 4


class TestCCDFromColoring:
    def test_even_flower_claw_ppm(self):
        from snarkppm import flower_graph
        from snarkppm.families import flower_claw_ppm

        g = CubicGraph(flower_graph(4))
        m = flower_claw_ppm(g.graph, 4)
        col = find_3_edge_coloring(g)
        ccd = ccd_from_coloring(g, m, col)
        cg = contract(g, m)
        assert verify_ccd_compatible(cg, ccd) is None
        assert chromatic_number(intersection_graph(ccd).graph) <= 3

    def test_snark_precondition_unmet(self):
        inst = petersen()
        assert find_3_edge_coloring(inst.graph) is None  # no coloring exists

    def test_improper_coloring_rejected(self):
        from snarkppm import EdgeColoring

        g = CubicGraph(named.k4())
        m = next(enumerate_ppms(g, perfect_matchings_only=True))
        with pytest.raises(GraphError):
            ccd_from_coloring(g, m, EdgeColoring({e: 1 for e in range(g.m)}))
