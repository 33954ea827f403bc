"""Pseudo-matching-avoiding drawings and the planarizing witness search."""

from __future__ import annotations

import hashlib
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
    _Router,
    _planar_subgraph,
    _search_orders,
)
from snarkppm.minors import is_planar, planar_skeleton


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

    def test_lost_target_face_is_not_skipped(self, monkeypatch):
        # A route that loses its target face is a fault of the router, not
        # a bad edge order for the order search to pass over.
        monkeypatch.setattr(snarkppm.drawing, "face_successor", lambda e, r, d: d)
        inst = petersen()
        with pytest.raises(RuntimeError, match="route lost its target face"):
            draw_m_avoiding(inst.graph, inst.designated_ppm)

    def test_drawings_pinned(self, bench_relabel):
        # One SHA-256 over the drawings of Petersen, B18^1, B18^2, J5, J7
        # and G5, each unrelabeled and in 25 relabelings, and of every PPM
        # of Petersen, B18^1 and B18^2 (604 drawings, 2189 crossings),
        # taken when each kept set was embedded once by is_planar.
        digest = hashlib.sha256()
        drawn = crossings = 0
        for inst, every_ppm in (
            (petersen(), True),
            (blanusa_snark(2, 1), True),
            (blanusa_snark(2, 2), True),
            (flower_snark(5), False),
            (flower_snark(7), False),
            (goldberg_snark(5), False),
        ):
            rng = random.Random(1010)
            cases = [(inst.graph, inst.designated_ppm)]
            cases += [
                bench_relabel(inst.graph, inst.designated_ppm, rng) for _ in range(25)
            ]
            if every_ppm:
                cases += [(inst.graph, m) for m in enumerate_ppms(inst.graph)]
            for g, m in cases:
                d = draw_m_avoiding(g, m)
                drawn += 1
                crossings += len(d.crossings)
                rotation = sorted(d.embedding.rotation.items())
                segments = sorted(d.segment_map.items())
                key = (d.planarized.n, d.planarized.edges, rotation, d.crossings,
                       d.crossing_dummies, segments)
                digest.update(repr(key).encode() + b"\n")
        assert (drawn, crossings) == (604, 2189)
        assert digest.hexdigest() == (
            "5deda442066d3f240ac7412a66ce0ce682d9d904ed90f22764e393f0a90953cf"
        )

    def test_empty_graph(self):
        d = draw_m_avoiding(CubicGraph(Multigraph(0, [])), PseudoMatching(()))
        validate_drawing(d)
        assert d.crossings == ()

    def test_route_crosses_each_edge_at_most_once(self, monkeypatch, bench_relabel):
        # Every face path crosses pairwise distinct edges of G, on the G5
        # copies of test_goldberg_crossings_do_not_rise and the star inputs
        # of test_crossing_counts_pinned.
        face_path = _Router._face_path
        routes = []

        def recorded(self, pl, orig, u, v):
            start, path = face_path(self, pl, orig, u, v)
            routes.append([pl.owner[e] for e, _s in path])
            return start, path

        monkeypatch.setattr(_Router, "_face_path", recorded)
        cases = []
        g5 = goldberg_snark(5)
        rng = random.Random(4242)
        cases += [bench_relabel(g5.graph, g5.designated_ppm, rng) for _ in range(30)]
        for inst in (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2)):
            rng = random.Random(1010)
            cases.append((inst.graph, inst.designated_ppm))
            cases += [
                bench_relabel(inst.graph, inst.designated_ppm, rng) for _ in range(25)
            ]
        for g, m in cases:
            draw_m_avoiding(g, m)
        assert max(map(len, routes)) >= 3
        repeated = [owners for owners in routes if len(set(owners)) != len(owners)]
        assert not repeated, repeated

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
        # shares it, must keep the same sets as a fresh memo per order, and
        # the memo's embedding of the kept set, which seeds the drawing,
        # must pass the Euler check.
        shared: dict[tuple, _PlanarityMemo] = {}
        for g, m_set, order in cases:
            mg = g.graph
            kept = _planar_subgraph(mg, m_set, order, _PlanarityMemo(mg))
            memo = shared.setdefault((id(g), frozenset(m_set)), _PlanarityMemo(mg))
            assert _planar_subgraph(mg, m_set, order, memo) == kept
            memo.embedding(kept).verify_euler()
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
        # well as from fresh tests. Each answer must be is_planar's.
        tests = []

        def counted(adj):
            tests.append(adj)
            return planar_skeleton(adj)

        monkeypatch.setattr(snarkppm.drawing, "planar_skeleton", counted)
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
                verdict = memo.verdict(mask)
                ids = [e for e in range(mg.m) if mask >> e & 1]
                sub = Multigraph(mg.n, [mg.edges[e] for e in ids])
                assert verdict == (is_planar(sub) is not None), ids
                answered[len(tests) - before, verdict] += 1
        assert answered[0, 1] and answered[1, 1], answered
        if answered[1, 0]:
            assert answered[0, 0], answered


class TestSeekPlanarizing:
    def test_witness_drawings_pinned(self, cubic_graphs_le8):
        # One SHA-256 over the witness of every PPM of the cubic corpus,
        # Petersen, B18^1, B18^2 and J5 (407 drawings, 500 None), taken when
        # the quotient's loops were left out of its embedding.
        graphs = [CubicGraph(g) for g in cubic_graphs_le8]
        for inst in (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2), flower_snark(5)):
            graphs.append(inst.graph)
        digest = hashlib.sha256()
        drawn = 0
        for g in graphs:
            for m in enumerate_ppms(g):
                d = seek_planarizing_drawing(g, m)
                if d is None:
                    digest.update(b"None\n")
                    continue
                drawn += 1
                rotation = sorted(d.embedding.rotation.items())
                segments = sorted(d.segment_map.items())
                key = (d.planarized.n, d.planarized.edges, rotation, d.crossings,
                       d.crossing_dummies, segments)
                digest.update(repr(key).encode() + b"\n")
        assert drawn == 407
        assert digest.hexdigest() == (
            "c78ca3f89a9cc9ec706814e1c9d18d226820c4d7dfafb3387ec3ca71ad773960"
        )

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
