"""Eulerian association round-trips and the dominating-cycle reduction."""

from __future__ import annotations

import hashlib

import pytest

import named
import oracles
from snarkppm import (
    CubicGraph,
    GraphError,
    Multigraph,
    TransitionSystem,
    associate,
    are_isomorphic,
    blanusa_snark,
    contract,
    cycle_from_vertices,
    enumerate_ppms,
    eulerian_trail_transitions,
    find_ccd,
    find_dominating_cycles,
    flower_snark,
    is_dominating,
    petersen,
    ppm_from_dominating_cycle,
    sabidussi_reduce,
    verify_ccd_compatible,
)
from snarkppm.cycles import TAG_CYCLE, TAG_STABLE, TAG_STUCK

C0 = [1, 2, 3, 4, 9, 7, 5, 8, 6]


class TestAssociate:
    def test_two_loop_vertex_becomes_theta(self):
        g = Multigraph(1, [(0, 0), (0, 0)])
        t = TransitionSystem(((frozenset({0, 1}), frozenset({0, 1})),))
        assoc = associate(g, t)
        assert assoc.graph3.n == 2
        assert assoc.graph3.m == 3
        assert sorted(assoc.graph3.graph.edges) == [(0, 1), (0, 1), (0, 1)]

    def test_petersen_quotient_round_trip(self):
        inst = petersen()
        cg = contract(inst.graph, inst.designated_ppm)
        t = eulerian_trail_transitions(cg.graph)
        assoc = associate(cg.graph, t)
        assert is_dominating(assoc.graph3, set(assoc.cycle.vertices))
        m2 = ppm_from_dominating_cycle(assoc.graph3, assoc.cycle)
        back = contract(assoc.graph3, m2)
        assert are_isomorphic(back.graph, cg.graph)

    def test_rejects_disconnected_trails(self):
        # Transitions tracing two separate digons instead of one trail.
        g = Multigraph(2, [(0, 1), (0, 1), (0, 1), (0, 1)])
        t = TransitionSystem(
            (
                (frozenset({0, 1}), frozenset({2, 3})),
                (frozenset({0, 1}), frozenset({2, 3})),
            )
        )
        with pytest.raises(GraphError, match="one eulerian trail"):
            associate(g, t)

    def test_rejects_bad_degrees(self):
        g = Multigraph(2, [(0, 1), (0, 1)])
        t = TransitionSystem(((frozenset({0, 1}),), (frozenset({0, 1}),)))
        with pytest.raises(GraphError, match="degree"):
            associate(g, t)

    def test_trail_transitions_compatible_with_ccd(self):
        inst = petersen()
        cg = contract(inst.graph, inst.designated_ppm)
        ccd = find_ccd(cg)
        forbidden = {}
        for cyc in ccd.cycles:
            k = len(cyc.edges)
            for i in range(k):
                v = cyc.vertices[i]
                pair = frozenset({cyc.edges[i - 1], cyc.edges[i]})
                forbidden.setdefault(v, set()).add(pair)
        t = eulerian_trail_transitions(cg.graph, forbidden)
        # The trail realizes a closed walk avoiding every consecutive pair
        # used by the decomposition, witnessing Kotzig's converse.
        assoc = associate(cg.graph, t)
        assert assoc.graph3.m == cg.graph.m + sum(
            1 if cg.graph.degree(v) == 4 else 3 for v in range(cg.graph.n)
        )

    def test_trail_cdc_equivalence_on_petersen_quotient(self):
        # A CDC of G3 containing the association cycle exists iff the
        # transitioned quotient has a compatible decomposition.
        inst = petersen()
        cg = contract(inst.graph, inst.designated_ppm)
        t = eulerian_trail_transitions(cg.graph)
        assoc = associate(cg.graph, t)
        m2 = ppm_from_dominating_cycle(assoc.graph3, assoc.cycle)
        back = contract(assoc.graph3, m2)
        has_ccd = find_ccd(back) is not None
        has_cdc = oracles.brute_cdc_containing(
            assoc.graph3.graph, assoc.cycle.edge_set()
        )
        assert has_ccd == has_cdc

    def test_trail_cdc_equivalence_small_corpus(self, cubic_graphs_le8):
        # Same equivalence across every PPM contraction of the small cubics,
        # loops included.
        count = 0
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                cg = contract(cg3, m)
                count += 1
                t = eulerian_trail_transitions(cg.graph)
                assoc = associate(cg.graph, t)
                m2 = ppm_from_dominating_cycle(assoc.graph3, assoc.cycle)
                back = contract(assoc.graph3, m2)
                assert (find_ccd(back) is not None) == oracles.brute_cdc_containing(
                    assoc.graph3.graph, assoc.cycle.edge_set()
                )
        assert count == 106


class TestSabidussiReduce:
    def test_k4_hamiltonian_terminates_depth_one(self):
        g = CubicGraph(named.k4())
        ham = cycle_from_vertices(g.graph, [0, 1, 2, 3])
        trace = sabidussi_reduce(g, ham)
        assert trace.tag in (TAG_STABLE, TAG_CYCLE)
        assert trace.decomposition is not None
        assert verify_ccd_compatible(trace.contraction, trace.decomposition) is None

    def test_petersen_c0_terminates_and_reassembles(self):
        inst = petersen()
        c0 = cycle_from_vertices(inst.graph.graph, C0)
        trace = sabidussi_reduce(inst.graph, c0)
        assert trace.tag in (TAG_STABLE, TAG_CYCLE)
        assert len(trace.levels) >= 2  # C0 is not stable, so it recursed
        assert trace.decomposition is not None
        assert verify_ccd_compatible(trace.contraction, trace.decomposition) is None

    def test_nonstable_start_goes_deep(self):
        # A triangle of K4 is a dominating cycle properly contained in a
        # hamiltonian cycle, so the reduction must recurse at least once.
        g = CubicGraph(named.k4())
        tri = cycle_from_vertices(g.graph, [0, 1, 2])
        assert is_dominating(g, {0, 1, 2})
        trace = sabidussi_reduce(g, tri)
        assert not trace.levels[0].stable
        assert len(trace.levels) >= 2
        assert trace.tag in (TAG_STABLE, TAG_CYCLE)
        assert trace.decomposition is not None
        assert verify_ccd_compatible(trace.contraction, trace.decomposition) is None

    def test_all_dominating_cycles_of_small_cubics(self, cubic_graphs_le8):
        from snarkppm import find_dominating_cycles

        stuck = []
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for cyc in find_dominating_cycles(cg3, limit=8):
                trace = sabidussi_reduce(cg3, cyc)
                assert trace.tag in (TAG_STABLE, TAG_CYCLE, TAG_STUCK)
                if trace.tag == TAG_STUCK:
                    stuck.append((g, cyc))
                    continue
                assert trace.decomposition is not None
                assert (
                    verify_ccd_compatible(trace.contraction, trace.decomposition)
                    is None
                )
        # Stuck reductions surface as candidates rather than fail; none expected here.
        assert stuck == []

    def test_traces_are_pinned(self, cubic_graphs_le8):
        # One digest over whole traces: every dominating cycle of the small
        # cubics and of Petersen, and the first 10 of B18^1, B18^2 and J5.
        # These reach quotient-loop chains, closed chains through suppressed
        # vertices and kept vertices of degree 6, in 205 suppressions.
        graphs = [(CubicGraph(g), None) for g in cubic_graphs_le8]
        graphs.append((petersen().graph, None))
        for inst in (blanusa_snark(2, 1), blanusa_snark(2, 2), flower_snark(5)):
            graphs.append((inst.graph, 10))
        digest = hashlib.sha256()
        count = 0
        for g, limit in graphs:
            for cyc in find_dominating_cycles(g, limit=limit):
                trace = sabidussi_reduce(g, cyc)
                levels = [
                    (lv.stable, lv.chosen_c1, lv.extracted, lv.graph3.graph.edges, lv.cycle)
                    for lv in trace.levels
                ]
                key = repr((trace.tag, levels, trace.decomposition))
                digest.update((key + "\n").encode())
                count += 1
        assert count == 136
        assert digest.hexdigest() == (
            "a36154d7532a06464ab739d39bfec64f10aa117be959b0b45e416f3444972bc4"
        )

    def test_requires_dominating_cycle(self):
        g = CubicGraph(named.pentagonal_prism())
        pentagon = cycle_from_vertices(g.graph, [0, 1, 2, 3, 4])
        with pytest.raises(GraphError, match="dominating"):
            sabidussi_reduce(g, pentagon)
