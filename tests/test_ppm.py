"""Pseudo-matching validation, enumeration, contraction, classification."""

from __future__ import annotations

import hashlib
import random

import pytest

import named
import oracles
from snarkppm import (
    CubicGraph,
    GraphError,
    K2Component,
    K5_MINOR_FREE_ONLY,
    Multigraph,
    NEITHER,
    PLANARIZING,
    PseudoMatching,
    blanusa_snark,
    classify_ppm,
    complement_cycles,
    contract,
    cycle_from_vertices,
    enumerate_ppms,
    flower_snark,
    goldberg_snark,
    has_k5_minor,
    is_planar,
    parse_ppm,
    petersen,
    ppm_from_dominating_cycle,
    validate_ppm,
    write_ppm,
)
from snarkppm import minors

C0 = [1, 2, 3, 4, 9, 7, 5, 8, 6]  # the designated 9-cycle in petersen() labels


class TestValidate:
    def test_designated_petersen_ppm_is_ok(self):
        inst = petersen()
        assert validate_ppm(inst.graph, inst.designated_ppm) is None

    def test_missing_vertex_reported(self):
        inst = petersen()
        broken = PseudoMatching(inst.designated_ppm.components[:-1])
        bad = validate_ppm(inst.graph, broken)
        assert bad is not None and "uncovered vertex" in bad.message

    def test_overlap_reported(self):
        inst = petersen()
        g = inst.graph.graph
        e1 = g.edge_between(2, 7)
        e2 = g.edge_between(2, 3)
        broken = PseudoMatching((K2Component(e1), K2Component(e2)))
        bad = validate_ppm(inst.graph, broken)
        assert bad is not None and "vertex 2 in two components" in bad.message

    def test_out_of_range_edge_raises(self):
        inst = petersen()
        with pytest.raises(GraphError):
            validate_ppm(inst.graph, PseudoMatching((K2Component(99),)))


class TestEnumerate:
    def test_petersen_has_six_perfect_matchings(self):
        g = petersen().graph
        mine = [
            frozenset(m.edge_set(g.graph))
            for m in enumerate_ppms(g, perfect_matchings_only=True)
        ]
        assert len(mine) == 6
        assert set(mine) == oracles.brute_perfect_matchings(g.graph)

    def test_petersen_all_ppms_include_designated(self):
        inst = petersen()
        g = inst.graph
        mine = [frozenset(m.edge_set(g.graph)) for m in enumerate_ppms(g)]
        assert len(mine) == len(set(mine))  # each exactly once
        assert len(mine) >= 7
        assert frozenset(inst.designated_ppm.edge_set(g.graph)) in set(mine)
        assert set(mine) == oracles.brute_ppm_edge_sets(g.graph)

    def test_k4_counts(self):
        g = CubicGraph(named.k4())
        pms = list(enumerate_ppms(g, perfect_matchings_only=True))
        assert len(pms) == 3
        all_ppms = list(enumerate_ppms(g))
        claws = [m for m in all_ppms if m.claw_count()]
        assert len(claws) == 4
        assert len(all_ppms) == 7

    def test_matches_brute_force_on_small_cubics(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg = CubicGraph(g)
            mine = {frozenset(m.edge_set(g)) for m in enumerate_ppms(cg)}
            count = sum(1 for _ in enumerate_ppms(cg))
            assert count == len(mine)
            assert mine == oracles.brute_ppm_edge_sets(g)

    def test_every_enumerated_ppm_validates(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg = CubicGraph(g)
            for m in enumerate_ppms(cg):
                assert validate_ppm(cg, m) is None

    def test_order_is_pinned(self, cubic_graphs_le8):
        # Census witnesses are the first PPM of a class in this order, so
        # the whole sequence, in both modes, is pinned by one digest.
        rng = random.Random(2031)
        graphs = [CubicGraph(g) for g in cubic_graphs_le8]
        graphs += [
            make().graph
            for make in (
                petersen,
                lambda: blanusa_snark(2, 1),
                lambda: blanusa_snark(2, 2),
                lambda: flower_snark(5),
                lambda: flower_snark(7),
                lambda: blanusa_snark(3, 1),
            )
        ]
        for _ in range(30):
            # A configuration-model cubic multigraph: loops and parallel edges.
            n = rng.choice((2, 4, 6, 8, 10, 12))
            stubs = [v for v in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            graphs.append(CubicGraph(Multigraph(n, zip(stubs[::2], stubs[1::2]))))
        digest = hashlib.sha256()
        count = 0
        for g in graphs:
            for pm_only in (False, True):
                for m in enumerate_ppms(g, perfect_matchings_only=pm_only):
                    digest.update(repr(m.components).encode())
                    count += 1
                digest.update(b";")
        assert count == 6248
        assert digest.hexdigest() == (
            "d98bfa83870f9e149901e8c95c36c3088008f9e27a81adfcb2aeacbcbded857f"
        )


class TestComplementAndContract:
    def test_petersen_complement_is_c0(self):
        inst = petersen()
        cycles = complement_cycles(inst.graph, inst.designated_ppm)
        assert len(cycles) == 1
        assert _same_cycle(list(cycles[0].vertices), C0)

    def test_flower_complement_cycle_lengths(self):
        inst = flower_snark(5)
        lengths = sorted(len(c) for c in complement_cycles(inst.graph, inst.designated_ppm))
        assert lengths == [5, 10]

    def test_goldberg_complement_partitions_40(self):
        inst = goldberg_snark(5)
        lengths = sorted(len(c) for c in complement_cycles(inst.graph, inst.designated_ppm))
        assert sum(lengths) == 40
        # Frozen fixture: the ring of v5 vertices is the 5-cycle.
        assert lengths == [5, 10, 25]

    def test_complement_cycles_walk_parallel_edges(self):
        theta = CubicGraph(Multigraph(2, [(0, 1)] * 3))
        for e in range(3):
            (cyc,) = complement_cycles(theta, PseudoMatching((K2Component(e),)))
            assert cyc.vertices == (0, 1)
            assert sorted(cyc.edges) == [f for f in range(3) if f != e]

    def test_complement_covers_everything_but_claw_centers(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg = CubicGraph(g)
            for m in enumerate_ppms(cg):
                cycles = complement_cycles(cg, m)
                assert sum(len(c) for c in cycles) == g.n - m.claw_count()

    def test_petersen_quotient_shape(self):
        inst = petersen()
        cg = contract(inst.graph, inst.designated_ppm)
        assert cg.graph.n == 4
        assert cg.graph.m == 9
        assert sorted(cg.graph.degrees()) == [4, 4, 4, 6]
        assert sum(cg.graph.degrees()) == 18

    def test_flower_quotient_is_three_parallel_cycles(self):
        k = 5
        inst = flower_snark(k)
        cg = contract(inst.graph, inst.designated_ppm)
        assert cg.graph.n == k
        assert cg.graph.m == 3 * k
        assert all(d == 6 for d in cg.graph.degrees())
        # Exactly three edges between consecutive contracted spokes.
        for q in range(k):
            nxt = (q + 1) % k
            count = sum(
                1
                for a, b in cg.graph.edges
                if {a, b} == {q, nxt}
            )
            assert count == 3

    def test_pm_quotient_all_degree_four(self):
        g = CubicGraph(named.cube())
        m = next(enumerate_ppms(g, perfect_matchings_only=True))
        cg = contract(g, m)
        assert all(d == 4 for d in cg.graph.degrees())

    def test_quotient_invariants_over_small_corpus(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                cg = contract(cg3, m)
                assert cg.graph.m == g.m - len(m.edge_set(g))
                assert cg.graph.n == len(m.components)
                degs = cg.graph.degrees()
                assert all(d in (4, 6) for d in degs)
                assert degs.count(6) == m.claw_count()
                # Transitions: deg/2 disjoint pairs of incident edges.
                for q in range(cg.graph.n):
                    pairs = cg.transitions.pairs(q)
                    assert len(pairs) == degs[q] // 2

    def test_k4_claw_quotient_has_loops(self):
        g = CubicGraph(named.k4())
        claw = next(m for m in enumerate_ppms(g) if m.claw_count())
        cg = contract(g, claw)
        assert cg.graph.n == 1
        assert cg.graph.m == 3
        assert all(a == b for a, b in cg.graph.edges)


class TestClassify:
    def test_petersen_designated_is_planarizing(self):
        inst = petersen()
        assert classify_ppm(inst.graph, inst.designated_ppm) == PLANARIZING

    def test_petersen_perfect_matchings_are_neither(self):
        g = petersen().graph
        for m in enumerate_ppms(g, perfect_matchings_only=True):
            assert classify_ppm(g, m) == NEITHER

    def test_goldberg_matching_planarizing(self):
        inst = goldberg_snark(5)
        assert classify_ppm(inst.graph, inst.designated_ppm) == PLANARIZING

    def test_planarizing_implies_no_k5_minor(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                cls = classify_ppm(cg3, m)
                quotient = contract(cg3, m).graph
                if cls == PLANARIZING:
                    assert not has_k5_minor(quotient)
                elif cls == K5_MINOR_FREE_ONLY:
                    assert is_planar(quotient) is None


    def test_neither_takes_only_the_searchs_planarity_tests(self, monkeypatch):
        # A quotient with a K5 minor is classified by the search alone: no
        # left-right test beyond those has_k5_minor makes on its own.
        calls = [0]
        kernel = minors._lr_planarity

        def counted(adj, embed):
            calls[0] += 1
            return kernel(adj, embed)

        monkeypatch.setattr(minors, "_lr_planarity", counted)

        def tests_made(f, *args):
            before = calls[0]
            return f(*args), calls[0] - before

        neither = tested = 0
        for inst in (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2)):
            g = inst.graph
            for m in enumerate_ppms(g):
                cls, by_class = tests_made(classify_ppm, g, m)
                if cls != NEITHER:
                    continue
                found, by_search = tests_made(has_k5_minor, contract(g, m).graph)
                assert found
                assert by_class == by_search, m
                neither += 1
                tested += by_search > 0
        # Most quotients reach the kernel at the search's root: Mader's
        # bound alone settles the others without a test.
        assert (neither, tested) == (178, 170)


class TestDominatingComplement:
    def test_petersen_c0_gives_designated_ppm(self):
        inst = petersen()
        c0 = cycle_from_vertices(inst.graph.graph, C0)
        m = ppm_from_dominating_cycle(inst.graph, c0)
        assert m.edge_set(inst.graph.graph) == inst.designated_ppm.edge_set(
            inst.graph.graph
        )

    def test_k4_hamiltonian_leaves_matching(self):
        g = CubicGraph(named.k4())
        m = ppm_from_dominating_cycle(g, cycle_from_vertices(g.graph, [0, 1, 2, 3]))
        assert m.is_perfect_matching()
        assert m.claw_count() == 0

    def test_non_dominating_cycle_rejected(self):
        g = CubicGraph(named.pentagonal_prism())
        with pytest.raises(GraphError, match="not dominating"):
            ppm_from_dominating_cycle(g, cycle_from_vertices(g.graph, [0, 1, 2, 3, 4]))


class TestSidecar:
    def test_round_trip(self):
        inst = petersen()
        g = inst.graph.graph
        text = write_ppm(g, inst.designated_ppm)
        back = parse_ppm(g, text)
        assert back.edge_set(g) == inst.designated_ppm.edge_set(g)
        assert "CLAW 0" in text

    def test_parse_rejects_unknown_lines(self):
        with pytest.raises(GraphError):
            parse_ppm(named.k4(), "TRIANGLE 0 1 2\n")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("K2 x 1", "non-integer vertex"),
            ("K2 200 0", "vertex 200 outside 0..9"),
            ("CLAW 999 1 2 3", "vertex 999 outside 0..9"),
            ("K2 -1 0", "vertex -1 outside 0..9"),
            ("K2 0 2", "no edge 0-2"),
        ],
    )
    def test_parse_rejects_bad_vertices(self, text, reason):
        g = petersen().graph.graph
        with pytest.raises(GraphError, match=f"ppm line 2: {reason}"):
            parse_ppm(g, "K2 0 1\n" + text + "\n")


def _same_cycle(found: list[int], expect: list[int]) -> bool:
    if len(found) != len(expect):
        return False
    k = len(expect)
    doubled = expect + expect
    rev = list(reversed(expect)) * 2
    for i in range(k):
        if found == doubled[i: i + k] or found == rev[i: i + k]:
            return True
    return False
