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
from snarkppm import minors, ppm
from snarkppm.families import flower_claw_ppm, flower_graph

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

    def test_order_is_pinned_on_family_members(self, bench_relabel):
        # The census's own inputs: two seeded relabelings each of five
        # snarks and of the colourable flowers J6 and J8 (up to 32
        # vertices), whose PPM searches branch far deeper than the corpus's.
        rng = random.Random(1717)
        sources = [
            (inst.graph, inst.designated_ppm)
            for inst in (
                petersen(),
                blanusa_snark(2, 1),
                blanusa_snark(2, 2),
                flower_snark(5),
                flower_snark(7),
            )
        ]
        sources += [
            (CubicGraph(flower_graph(k)), flower_claw_ppm(flower_graph(k), k))
            for k in (6, 8)
        ]
        graphs = [bench_relabel(g, m, rng)[0] for g, m in sources for _ in range(2)]
        digest = hashlib.sha256()
        count = 0
        for g in graphs:
            for pm_only in (False, True):
                for m in enumerate_ppms(g, perfect_matchings_only=pm_only):
                    digest.update(repr(m.components).encode())
                    count += 1
                digest.update(b";")
        assert count == 28336
        assert digest.hexdigest() == (
            "cfb9eb5000ca7d327c2aade26f3417cf66246b4499dba91149a2a76c8a7f03b7"
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
        # The dive settles almost every quotient by Mader's bound on a
        # contraction, with no test; only the few it leaves open reach the
        # kernel, in the exact search.
        assert (neither, tested) == (178, 4)

    def test_classifies_the_quotient_that_contract_builds(self, monkeypatch):
        # classify_ppm builds only the quotient's skeleton; the graph it
        # asks about is the skeleton of contract's, vertex for vertex.
        asked = []
        search = ppm.has_k5_minor

        def recorded(q):
            asked.append(dict(q))
            return search(q)

        monkeypatch.setattr(ppm, "has_k5_minor", recorded)
        count = 0
        for inst in (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2)):
            g = inst.graph
            for m in enumerate_ppms(g):
                classify_ppm(g, m)
                skeleton = minors._skeleton(contract(g, m).graph)
                assert list(asked[-1].items()) == list(skeleton.items())
                count += 1
        assert len(asked) == count == 26 + 422


def _named_snarks():
    return (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2), flower_snark(5),
            flower_snark(7))


# SHA-256 over the class of every PPM of _named_snarks(), one "class\n" per
# PPM in enumeration order; taken when classify_ppm still read the quotient
# Multigraph.
CLASS_SEQUENCE_DIGEST = "f6a1c27090434ed1bed09cd73b2df8689e3e020151886241432123e83000e492"


@pytest.fixture(scope="module")
def skeleton_inputs(cubic_graphs_le8, bench_relabel):
    """(g, m) for every PPM of the cubic corpus and of _named_snarks(), and
    of 5 benchmark relabelings of each graph."""
    rng = random.Random(2300)
    graphs = [(CubicGraph(g), next(enumerate_ppms(CubicGraph(g)))) for g in cubic_graphs_le8]
    graphs += [(inst.graph, inst.designated_ppm) for inst in _named_snarks()]
    out = []
    for g, m in graphs:
        for h, _ in [(g, m)] + [bench_relabel(g, m, rng) for _ in range(5)]:
            out.extend((h, pm) for pm in enumerate_ppms(h))
    return out


class TestQuotientSkeleton:
    def test_is_the_skeleton_of_the_quotient(self, skeleton_inputs):
        for g, m in skeleton_inputs:
            want = minors._skeleton(ppm.quotient(g, m)[0])
            assert list(ppm.quotient_skeleton(g, m).items()) == list(want.items())
        assert len(skeleton_inputs) > 6 * 3786

    def test_k5_verdict_same_and_skeleton_unchanged(self, skeleton_inputs):
        for g, m in skeleton_inputs:
            q = ppm.quotient_skeleton(g, m)
            before = list(q.items())
            assert has_k5_minor(q) == has_k5_minor(ppm.quotient(g, m)[0])
            assert list(q.items()) == before

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda g: PseudoMatching(petersen().designated_ppm.components[:-1]),
             "invalid PPM: uncovered vertex"),
            (lambda g: PseudoMatching((K2Component(g.edge_between(2, 7)),
                                       K2Component(g.edge_between(2, 3)))),
             "invalid PPM: vertex 2 in two components"),
            (lambda g: PseudoMatching((K2Component(99),)),
             "component 0: edge index 99 out of range"),
        ],
    )
    def test_invalid_ppm_raises_as_quotient_does(self, make, message):
        g = petersen().graph
        m = make(g.graph)
        with pytest.raises(GraphError) as by_quotient:
            ppm.quotient(g, m)
        with pytest.raises(GraphError) as by_skeleton:
            ppm.quotient_skeleton(g, m)
        assert str(by_skeleton.value) == str(by_quotient.value)
        assert str(by_skeleton.value).startswith(message)

    def test_disconnected_graph_raises_as_quotient_does(self):
        k4 = named.k4()
        two = CubicGraph(Multigraph(8, list(k4.edges) + [(a + 4, b + 4) for a, b in k4.edges]))
        m = next(enumerate_ppms(two))
        for build in (ppm.quotient, ppm.quotient_skeleton):
            with pytest.raises(GraphError, match="^contraction requires a connected graph$"):
                build(two, m)

    def test_class_sequence_pinned(self):
        h = hashlib.sha256()
        for inst in _named_snarks():
            for m in enumerate_ppms(inst.graph):
                h.update(classify_ppm(inst.graph, m).encode() + b"\n")
        assert h.hexdigest() == CLASS_SEQUENCE_DIGEST


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
