"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 3 (census rows for orders 18/20/22) needs an externally supplied
convention-matched graph6 dataset; point SNARKPPM_SNARK_DATA_DIR at a
directory with snarks18.g6 / snarks20.g6 / snarks22.g6 to enable it.
Without the dataset it is replaced by the property suites per the criteria.
"""

from __future__ import annotations

import os
import time
from multiprocessing import Pool

import pytest

import named
import oracles
from snarkppm import (
    CDC,
    CubicGraph,
    PLANARIZING,
    are_isomorphic,
    cdc_from_ccd,
    ccd_from_coloring,
    crossings_component_local,
    chromatic_number,
    classify_ppm,
    complement_cycles,
    contract,
    cycle_from_vertices,
    cyclic_cuts_up_to,
    draw_m_avoiding,
    enumerate_ccds,
    enumerate_ppms,
    extend_cdc,
    find_3_edge_coloring,
    find_ccd,
    find_dominating_cycles,
    flower_graph,
    flower_snark,
    blanusa_snark,
    goldberg_snark,
    has_k5_minor,
    injectivity_experiment,
    intersection_graph,
    is_planar,
    is_snark,
    petersen,
    sabidussi_reduce,
    seek_planarizing_drawing,
    star_construction,
    suppress_degree_two,
    through_path_subgraph,
    validate_drawing,
    validate_ppm,
    verify_ccd_compatible,
    verify_cycle_set,
)
from snarkppm.census import run_census
from snarkppm.cycles import TAG_CYCLE, TAG_STABLE, TAG_STUCK
from snarkppm.graph6 import write_graph6

C0 = [1, 2, 3, 4, 9, 7, 5, 8, 6]
PAPER_CDC = [
    C0,
    [0, 1, 2, 7, 5],
    [0, 1, 6, 9, 4],
    [0, 4, 3, 8, 5],
    [2, 3, 8, 6, 9, 7],
]


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.monotonic() - self.start
        if exc_type is not None:
            print(f"FAIL {self.name} after {took:.2f}s")
        elif took < self.seconds:
            print(f"PASS {self.name}: {took:.2f}s (budget {self.seconds:.0f}s)")
        else:
            print(f"FAIL {self.name}: {took:.2f}s over budget {self.seconds:.0f}s")
            raise AssertionError(f"{self.name} exceeded {self.seconds}s")
        return False


def test_criterion_1_petersen_fixture():
    with _Budget("criterion 1 (Petersen fixture)", 1.0):
        inst = petersen()
        assert validate_ppm(inst.graph, inst.designated_ppm) is None
        cycles = complement_cycles(inst.graph, inst.designated_ppm)
        assert len(cycles) == 1 and len(cycles[0]) == 9
        assert _cycle_eq(list(cycles[0].vertices), C0)
        assert classify_ppm(inst.graph, inst.designated_ppm) == PLANARIZING
        cg = contract(inst.graph, inst.designated_ppm)
        ccd = find_ccd(cg)
        assert ccd is not None
        cdc = cdc_from_ccd(inst.graph, inst.designated_ppm, ccd)
        assert len(cdc.cycles) == 5
        mine = {c.edge_set() for c in cdc.cycles}
        expect = {
            cycle_from_vertices(inst.graph.graph, vs).edge_set() for vs in PAPER_CDC
        }
        assert mine == expect
        assert verify_cycle_set(inst.graph.graph, cdc) is None


def test_criterion_2_table1_row_10():
    with _Budget("criterion 2 (Table 1, n=10)", 5.0):
        inst = petersen()
        g = inst.graph
        pms = list(enumerate_ppms(g, perfect_matchings_only=True))
        assert len(pms) == 6
        for pm in pms:
            assert classify_ppm(g, pm) == "neither"
        assert any(
            m.claw_count() > 0 and classify_ppm(g, m) == PLANARIZING
            for m in enumerate_ppms(g)
        )
        report = run_census(write_graph6(g.graph) + "\n", mode="both")
        row = report.rows[0]
        assert (
            row.n, row.s, row.no_planarizing_pm, row.no_planarizing_ppm,
            row.no_k5_free_pm, row.no_k5_free_ppm,
        ) == (10, 1, 1, 0, 1, 0)


DATA_DIR = os.environ.get("SNARKPPM_SNARK_DATA_DIR")


@pytest.mark.skipif(
    not DATA_DIR,
    reason="criterion 3 needs SNARKPPM_SNARK_DATA_DIR with snarks{18,20,22}.g6;"
    " replaced by the property suites",
)
def test_criterion_3_table1_rows_18_20_22():
    expected = {18: (2, 1, 0, 1), 20: (6, 5, 0, 5), 22: (31, 29, 0, 29)}
    for n, (s, sppm_bar, spppm_bar, spmk5_bar) in expected.items():
        path = os.path.join(DATA_DIR, f"snarks{n}.g6")
        with open(path, encoding="ascii") as fh:
            report = run_census(fh.read(), mode="both")
        row = next(r for r in report.rows if r.n == n)
        assert row.s == s
        assert row.no_planarizing_pm == sppm_bar
        assert row.no_planarizing_ppm == spppm_bar
        assert row.no_k5_free_pm == spmk5_bar
    print("PASS criterion 3 (Table 1 rows 18/20/22)")


def test_criterion_4_family_suite():
    with _Budget("criterion 4 (family suite)", 30.0):
        assert are_isomorphic(
            blanusa_snark(1, 1).graph.graph, petersen().graph.graph
        )
        for n in (1, 2, 3):
            for j in (1, 2):
                inst = blanusa_snark(n, j)
                cls = classify_ppm(inst.graph, inst.designated_ppm)
                if (n, j) == (1, 2):
                    # Degenerate: B_1^2 is the Petersen graph and M_2 is a
                    # perfect matching, which row n=10 says cannot planarize
                    # (see the decisions ledger); asserted as found.
                    assert cls == "neither"
                else:
                    assert cls == PLANARIZING
        for k in (3, 5, 7, 9):
            inst = flower_snark(k)
            cg = contract(inst.graph, inst.designated_ppm)
            assert cg.graph.n == k
            assert all(d == 6 for d in cg.graph.degrees())
            assert is_planar(cg.graph) is not None
        assert is_snark(flower_snark(5).graph)
        assert is_snark(flower_snark(7).graph)
        assert find_3_edge_coloring(CubicGraph(flower_graph(4))) is not None
        g5 = goldberg_snark(5)
        assert is_snark(g5.graph)
        assert g5.designated_ppm.is_perfect_matching()
        assert classify_ppm(g5.graph, g5.designated_ppm) == PLANARIZING


def _equivalence_corpus(cubic_graphs_le8):
    corpus = list(cubic_graphs_le8)
    for name in (
        "petersen", "pentagonal_prism", "moebius_V10", "tietze",
        "frucht", "durer", "truncated_tetrahedron",
    ):
        corpus.append(named.EQUIVALENCE_CORPUS[name]())
    return corpus


def test_criterion_5_coloring_equivalence_suite(cubic_graphs_le8):
    with _Budget("criterion 5 (coloring equivalence suite)", 600.0):
        counterexamples = []
        for g in _equivalence_corpus(cubic_graphs_le8):
            cg3 = CubicGraph(g)
            coloring = find_3_edge_coloring(cg3)
            for m in enumerate_ppms(cg3):
                cg = contract(cg3, m)
                if coloring is not None:
                    ccd = ccd_from_coloring(cg3, m, coloring)
                    if chromatic_number(intersection_graph(ccd).graph) > 3:
                        counterexamples.append((g, m))
                else:
                    for ccd in enumerate_ccds(cg):
                        chi = chromatic_number(intersection_graph(ccd).graph)
                        if chi <= 3:
                            counterexamples.append((g, m))
                for ccd in enumerate_ccds(cg):
                    if chromatic_number(intersection_graph(ccd).graph) == 2:
                        if not m.is_perfect_matching():
                            counterexamples.append((g, m))
        assert counterexamples == []


def _oracle_disagreements(graphs: list) -> tuple[int, int]:
    """The numbers of graphs on which ``is_planar`` and ``has_k5_minor``
    disagree with the oracles."""
    planar_disagreements = 0
    minor_disagreements = 0
    for g in graphs:
        # Wagner's test, as in oracles.brute_is_planar (the corpus graphs
        # are simple), sharing one K5 oracle call.
        k5 = oracles.brute_has_k5_minor(g)
        planar = not k5 and not oracles.brute_has_k33_minor(g)
        if (is_planar(g) is not None) != planar:
            planar_disagreements += 1
        if has_k5_minor(g) != k5:
            minor_disagreements += 1
    return planar_disagreements, minor_disagreements


def test_criterion_6_oracle_equivalence(connected_graphs_le8):
    with _Budget("criterion 6 (planarity/minor oracle equivalence)", 600.0):
        corpus = [g for n in range(1, 9) for g in connected_graphs_le8[n]]
        assert len(corpus) == 12113
        # Two worker processes, each on every other graph, so that both
        # share the 8-vertex graphs where the oracles spend their time.
        with Pool(2) as pool:
            counts = pool.map(_oracle_disagreements, [corpus[0::2], corpus[1::2]])
        planar_disagreements = sum(planar for planar, _minor in counts)
        minor_disagreements = sum(minor for _planar, minor in counts)
        assert planar_disagreements == 0
        assert minor_disagreements == 0


def test_criterion_7_construction_suite():
    with _Budget("criterion 7 (construction suite)", 120.0):
        triples = [
            ("petersen", petersen().graph, petersen().designated_ppm),
            ("flower5", flower_snark(5).graph, flower_snark(5).designated_ppm),
            ("goldberg5", goldberg_snark(5).graph, goldberg_snark(5).designated_ppm),
        ]
        for name, g, m in triples:
            star = star_construction(g, m)
            assert is_snark(star.graph) == is_snark(g), name
            assert classify_ppm(star.graph, star.ppm) == PLANARIZING, name
            smoothed = suppress_degree_two(through_path_subgraph(star))
            assert are_isomorphic(smoothed, g.graph), name
            cdc = cdc_from_ccd(g, m, find_ccd(contract(g, m)))
            current = cdc
            for record in star.records:
                current = extend_cdc(current, record)
            assert verify_cycle_set(star.graph.graph, current) is None, name

        pet = petersen().graph
        pm = next(enumerate_ppms(pet, perfect_matchings_only=True))
        report = injectivity_experiment(
            [
                (pet, pm),
                (flower_snark(5).graph, flower_snark(5).designated_ppm),
                (flower_snark(7).graph, flower_snark(7).designated_ppm),
            ]
        )
        assert report.injective
        assert all(e.cuts_are_block_cuts for e in report.entries)


def test_criterion_8_drawing_suite(cubic_graphs_le8):
    with _Budget("criterion 8 (drawing suite)", 300.0):
        corpus: list[tuple[CubicGraph, object]] = []
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                corpus.append((cg3, m))
        inst = petersen()
        for m in enumerate_ppms(inst.graph):
            corpus.append((inst.graph, m))
        j5 = flower_snark(5)
        corpus.append((j5.graph, j5.designated_ppm))
        for g, m in corpus:
            d = draw_m_avoiding(g, m)
            validate_drawing(d)
            witness = seek_planarizing_drawing(g, m)
            planarizing = classify_ppm(g, m) == PLANARIZING
            assert (witness is not None) == planarizing
            if witness is not None:
                validate_drawing(witness)
                assert crossings_component_local(g, m, witness)
            else:
                assert not crossings_component_local(g, m, d)


def test_criterion_9_reduction_suite(cubic_graphs_le8):
    with _Budget("criterion 9 (reduction suite)", 300.0):
        stuck_candidates = []
        corpus = [CubicGraph(g) for g in cubic_graphs_le8]
        corpus.append(petersen().graph)
        for cg3 in corpus:
            for cyc in find_dominating_cycles(cg3, limit=5):
                trace = sabidussi_reduce(cg3, cyc)
                assert trace.tag in (TAG_STABLE, TAG_CYCLE, TAG_STUCK)
                if trace.tag == TAG_STUCK:
                    stuck_candidates.append((cg3, cyc))
                    continue
                assert trace.decomposition is not None
                assert (
                    verify_ccd_compatible(trace.contraction, trace.decomposition)
                    is None
                )
        # Unresolved (stuck) reductions surface as artifacts, not failures.
        for cg3, cyc in stuck_candidates:
            print(
                "UNRESOLVED REDUCTION CANDIDATE:",
                write_graph6(cg3.graph),
                list(cyc.vertices),
            )


def _cycle_eq(found: list[int], expect: list[int]) -> bool:
    if len(found) != len(expect):
        return False
    k = len(expect)
    doubled = expect + expect
    rev = list(reversed(expect)) * 2
    return any(
        found == doubled[i: i + k] or found == rev[i: i + k] for i in range(k)
    )
