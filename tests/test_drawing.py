"""Pseudo-matching-avoiding drawings and the planarizing witness search."""

from __future__ import annotations

import random

import pytest

import named
from snarkppm import (
    CubicGraph,
    GraphError,
    K2Component,
    Multigraph,
    PLANARIZING,
    PseudoMatching,
    crossings_component_local,
    classify_ppm,
    draw_m_avoiding,
    drawing_to_dot,
    enumerate_ppms,
    flower_snark,
    goldberg_snark,
    blanusa_snark,
    petersen,
    seek_planarizing_drawing,
    validate_drawing,
)
import snarkppm.drawing
from snarkppm.drawing import (
    _DrawingSearch,
    _PlanarityMemo,
    _planar_subgraph,
    _search_orders,
)
from snarkppm.embedding import PlanarEmbedding
from snarkppm.minors import is_planar


class TestDrawMAvoiding:
    def test_planar_input_zero_crossings(self):
        g = CubicGraph(named.prism())
        for m in enumerate_ppms(g):
            d = draw_m_avoiding(g, m)
            validate_drawing(d)
            assert d.crossings == ()

    def test_petersen_designated(self):
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        validate_drawing(d)
        assert len(d.crossings) >= 1  # Petersen is not planar
        m_edges = inst.designated_ppm.edge_set(inst.graph.graph)
        for e, f in d.crossings:
            assert e not in m_edges and f not in m_edges

    def test_petersen_every_ppm_draws(self):
        inst = petersen()
        g = inst.graph
        for m in enumerate_ppms(g):
            d = draw_m_avoiding(g, m)
            validate_drawing(d)

    def test_cube_all_ppms(self):
        g = CubicGraph(named.cube())
        for m in enumerate_ppms(g):
            d = draw_m_avoiding(g, m)
            validate_drawing(d)
            assert d.crossings == ()

    def test_flower_draws(self):
        inst = flower_snark(5)
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        validate_drawing(d)
        assert len(d.crossings) >= 1

    def test_planarized_counts(self):
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        c = len(d.crossings)
        assert d.planarized.n == 10 + c
        assert d.planarized.m == 15 + 2 * c

    def test_dot_export_mentions_squares(self):
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        dot = drawing_to_dot(d)
        assert "square" in dot and "--" in dot

    def test_invalid_ppm_raises(self):
        inst = petersen()
        bad = PseudoMatching((K2Component(0),))
        with pytest.raises(GraphError, match="invalid PPM"):
            draw_m_avoiding(inst.graph, bad)
        with pytest.raises(GraphError, match="invalid PPM"):
            seek_planarizing_drawing(inst.graph, bad)

    def test_empty_graph(self):
        d = draw_m_avoiding(CubicGraph(Multigraph(0, [])), PseudoMatching(()))
        validate_drawing(d)
        assert d.crossings == ()

    def test_no_worse_than_the_ascending_order(self, cubic_graphs_le8):
        # The ascending order, once the only default, is the search's first
        # candidate, so the winner has at most its crossings.
        for g in [petersen().graph] + [CubicGraph(g) for g in cubic_graphs_le8]:
            for m in enumerate_ppms(g):
                search = _DrawingSearch(g, m)
                ascending = search.route(search.non_m)
                d = draw_m_avoiding(g, m)
                assert len(d.crossings) <= len(ascending.crossings), g.graph.edges


class TestPlanarSubgraph:
    def test_equals_one_test_per_edge_greedy(self, cubic_graphs_le8):
        # K is the one-test-per-edge greedy set iff K holds M, K is planar
        # and each edge left out closes a nonplanar graph with the edges of
        # K before it: kept edges pass their test as subgraphs of K. This
        # needs one networkx test per rejection instead of one per edge.
        nx = pytest.importorskip("networkx")

        def planar(mg: Multigraph, edge_ids: list[int]) -> bool:
            return nx.check_planarity(nx.Graph([mg.edges[e] for e in edge_ids]))[0]

        cases = []
        for inst in (
            blanusa_snark(2, 1), blanusa_snark(2, 2), flower_snark(5), flower_snark(7)
        ):
            g, m = inst.graph, inst.designated_ppm
            m_set = m.edge_set(g.graph)
            non_m = [e for e in range(g.graph.m) if e not in m_set]
            cases += [(g, m_set, order) for order in _search_orders(non_m)]
        graphs = [petersen().graph] + [CubicGraph(g) for g in cubic_graphs_le8]
        graphs += [
            CubicGraph(Multigraph(2, [(0, 1)] * 3)),
            CubicGraph(Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])),
        ]
        for g in graphs:
            for m in enumerate_ppms(g):
                m_set = m.edge_set(g.graph)
                non_m = [e for e in range(g.graph.m) if e not in m_set]
                cases += [(g, m_set, non_m), (g, m_set, non_m[::-1])]
        assert len(cases) == 418
        # One memo per (graph, PPM) across its orders, as one drawing search
        # shares it, must keep the same sets as a fresh memo per order.
        shared: dict[tuple, _PlanarityMemo] = {}
        for g, m_set, order in cases:
            mg = g.graph
            kept = _planar_subgraph(mg, m_set, order, _PlanarityMemo(mg))
            memo = shared.setdefault((id(g), frozenset(m_set)), _PlanarityMemo(mg))
            assert _planar_subgraph(mg, m_set, order, memo) == kept
            assert kept == sorted(set(kept))
            assert m_set <= set(kept) <= m_set | set(order)
            assert planar(mg, kept), (mg.edges, order)
            before = sorted(m_set)
            for e in order:
                if e in kept:
                    before.append(e)
                else:
                    assert not planar(mg, before + [e]), (mg.edges, order, e)


class TestPlanarityMemo:
    @pytest.mark.parametrize(
        "mg",
        [
            petersen().graph.graph,
            blanusa_snark(2, 1).graph.graph,
            flower_snark(5).graph.graph,
            Multigraph(2, [(0, 1)] * 3),
            Multigraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3), (3, 3)]),
            Multigraph(
                6,
                [(a, b) for a in range(3) for b in range(3, 6)]
                + [(0, 3), (1, 4), (2, 2), (5, 5)],
            ),
            Multigraph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)] * 2),
        ],
        ids=["petersen", "b18_1", "j5", "theta", "loops", "k33_multi", "k5_multi"],
    )
    def test_answers_equal_is_planar(self, mg, monkeypatch):
        # Nested random edge sets, asked in shuffled order, so that answers
        # come from known nonplanar subsets and known planar supersets as
        # well as from fresh tests. Each answer must be is_planar's, and
        # each rotation an embedding of exactly the asked edges.
        tests = []

        def counted(graph):
            tests.append(graph)
            return is_planar(graph)

        monkeypatch.setattr(snarkppm.drawing, "is_planar", counted)
        rng = random.Random(mg.n * 1000 + mg.m)
        memo = _PlanarityMemo(mg)
        answered = {(fresh, planar): 0 for fresh in (0, 1) for planar in (0, 1)}
        for _ in range(12):
            order = list(range(mg.m))
            rng.shuffle(order)
            masks = [sum(1 << e for e in order[:k]) for k in range(mg.m + 1)]
            rng.shuffle(masks)
            for mask in masks:
                before = len(tests)
                rot = memo.rotation(mask)
                ids = [e for e in range(mg.m) if mask >> e & 1]
                sub = Multigraph(mg.n, [mg.edges[e] for e in ids])
                assert (rot is not None) == (is_planar(sub) is not None), ids
                answered[len(tests) - before, rot is not None] += 1
                if rot is None:
                    continue
                darts = [d for ring in rot.values() for d in ring]
                assert sorted(darts) == [(e, s) for e in ids for s in (0, 1)], ids
                index = {e: i for i, e in enumerate(ids)}
                local = {v: [(index[e], s) for e, s in ring] for v, ring in rot.items()}
                PlanarEmbedding(sub, local).verify_euler()
        assert answered[0, 1] and answered[1, 1], answered
        if answered[1, 0]:
            assert answered[0, 0], answered


class TestSeekPlanarizing:
    def test_petersen_designated_witness(self):
        inst = petersen()
        d = seek_planarizing_drawing(inst.graph, inst.designated_ppm)
        assert d is not None
        validate_drawing(d)
        assert crossings_component_local(inst.graph, inst.designated_ppm, d)

    def test_petersen_perfect_matchings_absent(self):
        g = petersen().graph
        for m in enumerate_ppms(g, perfect_matchings_only=True):
            assert seek_planarizing_drawing(g, m) is None

    def test_flower_witness_claw_local(self):
        inst = flower_snark(5)
        d = seek_planarizing_drawing(inst.graph, inst.designated_ppm)
        assert d is not None
        validate_drawing(d)
        assert crossings_component_local(inst.graph, inst.designated_ppm, d)
        # Crossing pairs sit at two distinct leaves of one claw.
        comps = inst.designated_ppm.component_vertices(inst.graph.graph)
        comp_of = {v: i for i, vs in enumerate(comps) for v in vs}
        for e, f in d.crossings:
            shared = {
                comp_of[p]
                for p in inst.graph.graph.edges[e]
                for q in inst.graph.graph.edges[f]
                if p != q and comp_of[p] == comp_of[q]
            }
            assert shared

    def test_goldberg_witness(self):
        inst = goldberg_snark(5)
        d = seek_planarizing_drawing(inst.graph, inst.designated_ppm)
        assert d is not None
        validate_drawing(d)
        assert crossings_component_local(inst.graph, inst.designated_ppm, d)

    def test_blanusa_witness(self):
        inst = blanusa_snark(2, 1)
        d = seek_planarizing_drawing(inst.graph, inst.designated_ppm)
        assert d is not None
        validate_drawing(d)
        assert crossings_component_local(inst.graph, inst.designated_ppm, d)

    def test_zero_crossing_vacuously_local(self):
        g = CubicGraph(named.prism())
        m = next(enumerate_ppms(g))
        d = seek_planarizing_drawing(g, m)
        assert d is not None and d.crossings == ()
        assert crossings_component_local(g, m, d)

    def test_failed_patch_retries_from_its_crossed_set(self, monkeypatch):
        # Every patch's first try routes in full, marks one more pair as
        # crossed and then fails; each retry must start from the crossed
        # set the failed try started from, and the drawing come out whole.
        real = snarkppm.drawing._try_patch
        marker = frozenset((-1, -2))

        def first_try_fails(mg, cg, darts, order, comp, internal, router):
            tries = starts.setdefault(comp, [])
            tries.append(set(router.crossed))
            result = real(mg, cg, darts, order, comp, internal, router)
            if len(tries) == 1:
                router.crossed.add(marker)
                raise GraphError("forced failure")
            return result

        monkeypatch.setattr(snarkppm.drawing, "_try_patch", first_try_fails)
        seen_crossed = False
        for inst in (
            petersen(), flower_snark(5), blanusa_snark(2, 1), goldberg_snark(5)
        ):
            starts: dict = {}
            g, m = inst.graph, inst.designated_ppm
            d = seek_planarizing_drawing(g, m)
            assert d is not None
            validate_drawing(d)
            assert crossings_component_local(g, m, d)
            assert len(starts) == len(m.components)
            for tries in starts.values():
                assert len(tries) >= 2
                assert all(t == tries[0] for t in tries)
                assert marker not in tries[0]
                seen_crossed |= bool(tries[0])
        # Some patch started after earlier patches had crossed pairs.
        assert seen_crossed


class TestComponentLocalBiconditional:
    def test_petersen_all_ppms(self):
        inst = petersen()
        g = inst.graph
        for m in enumerate_ppms(g):
            cls = classify_ppm(g, m)
            witness = seek_planarizing_drawing(g, m)
            assert (witness is not None) == (cls == PLANARIZING)
            if witness is not None:
                assert crossings_component_local(g, m, witness)
            else:
                # Any drawing of a non-planarizing PPM must break locality.
                d = draw_m_avoiding(g, m)
                assert not crossings_component_local(g, m, d)

    def test_small_cubic_corpus(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            cg3 = CubicGraph(g)
            for m in enumerate_ppms(cg3):
                cls = classify_ppm(cg3, m)
                witness = seek_planarizing_drawing(cg3, m)
                assert (witness is not None) == (cls == PLANARIZING)
                if witness is not None:
                    validate_drawing(witness)
                    assert crossings_component_local(cg3, m, witness)
