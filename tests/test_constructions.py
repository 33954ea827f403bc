"""Crossing replacement, star construction, CDC extension, injectivity."""

from __future__ import annotations

import random

import pytest

import named
import snarkppm.constructions
import snarkppm.drawing
from snarkppm import (
    CCD,
    CubicGraph,
    GraphError,
    Multigraph,
    PLANARIZING,
    PseudoMatching,
    are_isomorphic,
    blanusa_snark,
    cdc_from_ccd,
    classify_ppm,
    contract,
    cyclic_cuts_up_to,
    cyclic_edge_connectivity_at_least,
    draw_m_avoiding,
    extend_cdc,
    find_3_edge_coloring,
    find_ccd,
    flower_snark,
    goldberg_snark,
    injectivity_experiment,
    is_snark,
    petersen,
    replace_crossing,
    star_construction,
    suppress_degree_two,
    through_path_subgraph,
    validate_drawing,
    verify_cycle_set,
)


class TestReplaceCrossing:
    def test_counts(self):
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        g2, record, m2 = replace_crossing(inst.graph, d, 0, inst.designated_ppm)
        assert g2.n == inst.graph.n + 8
        # 8 new cubic vertices force +12 edges (10 block + 4 stubs - 2 cut).
        assert g2.m == inst.graph.m + 12
        assert len(m2.components) == len(inst.designated_ppm.components) + 3

    def test_colorability_preserved_both_ways(self):
        # Starting from a colorable graph and from a snark.
        g = CubicGraph(named.pentagonal_prism())
        m = next(iter_ppms(g))
        d = draw_m_avoiding(g, m)
        if d.crossings:
            g2, _r, _m2 = replace_crossing(g, d, 0, m)
            assert (find_3_edge_coloring(g) is None) == (
                find_3_edge_coloring(g2) is None
            )
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        g2, _r, _m2 = replace_crossing(inst.graph, d, 0, inst.designated_ppm)
        assert find_3_edge_coloring(g2) is None

    def test_through_paths_exist(self):
        inst = petersen()
        d = draw_m_avoiding(inst.graph, inst.designated_ppm)
        g2, r, _m2 = replace_crossing(inst.graph, d, 0, inst.designated_ppm)
        v = r.new_vertices
        x, xppp = r.removed_edge_a
        xp, xpp = r.removed_edge_b
        for a, b in [
            (x, v[0]), (v[0], v[3]), (v[3], v[4]), (v[4], v[7]), (v[7], xppp),
            (xp, v[2]), (v[2], v[1]), (v[1], v[6]), (v[6], v[5]), (v[5], xpp),
        ]:
            assert g2.graph.has_edge(a, b)


def iter_ppms(g):
    from snarkppm import enumerate_ppms

    return enumerate_ppms(g)


class TestStarConstruction:
    def test_petersen_star(self):
        inst = petersen()
        star = star_construction(inst.graph, inst.designated_ppm)
        c = len(star.records)
        assert c == len(star.drawing.crossings)
        assert star.graph.n == 10 + 8 * c
        assert is_snark(star.graph)
        assert classify_ppm(star.graph, star.ppm) == PLANARIZING
        # The input pseudo-matching survives inside the extended one.
        old = {
            frozenset(vs)
            for vs in inst.designated_ppm.component_vertices(inst.graph.graph)
        }
        new = {
            frozenset(vs) for vs in star.ppm.component_vertices(star.graph.graph)
        }
        assert old <= new

    def test_planar_input_is_fixpoint(self):
        g = CubicGraph(named.cube())
        m = next(iter_ppms(g))
        star = star_construction(g, m)
        assert star.records == ()
        assert star.graph.graph.edges == g.graph.edges

    def test_empty_graph_is_its_own_star(self):
        star = star_construction(CubicGraph(Multigraph(0, [])), PseudoMatching(()))
        assert star.graph.n == 0 and star.records == ()

    def test_draws_once(self, monkeypatch):
        # Counted through the name constructions binds: a tracer that wraps
        # draw_m_avoiding in each module sees the star's drawing there.
        calls = []

        def counted(g, m):
            calls.append(m)
            return draw_m_avoiding(g, m)

        monkeypatch.setattr(snarkppm.constructions, "draw_m_avoiding", counted)
        inst = petersen()
        star_construction(inst.graph, inst.designated_ppm)
        assert calls == [inst.designated_ppm]

    def test_star_preserves_cyclic_4_connectivity(self):
        inst = petersen()
        star = star_construction(inst.graph, inst.designated_ppm)
        assert cyclic_edge_connectivity_at_least(star.graph, 4)

    @pytest.mark.parametrize(
        "make",
        [petersen, lambda: flower_snark(5), lambda: goldberg_snark(5)],
        ids=["petersen", "flower5", "goldberg5"],
    )
    def test_star_admits_cdc_through_complement(self, make):
        # The criterion-7 inputs; the G5 star has 120 vertices.
        inst = make()
        star = star_construction(inst.graph, inst.designated_ppm)
        ccd = find_ccd(contract(star.graph, star.ppm))
        assert ccd is not None
        cdc = cdc_from_ccd(star.graph, star.ppm, ccd)
        assert verify_cycle_set(star.graph.graph, cdc) is None

    def test_homeomorphic_spanning_subgraph(self):
        inst = petersen()
        star = star_construction(inst.graph, inst.designated_ppm)
        sub = through_path_subgraph(star)
        smoothed = suppress_degree_two(sub)
        assert are_isomorphic(smoothed, inst.graph.graph)

    def test_colorable_star_of_colorable_input(self):
        g = CubicGraph(named.pentagonal_prism())
        m = next(iter_ppms(g))
        star = star_construction(g, m)
        assert (find_3_edge_coloring(star.graph) is not None) == (
            find_3_edge_coloring(g) is not None
        )

    def test_nonplanar_greedy_result_is_not_skipped(self, monkeypatch):
        # A greedy that keeps a nonplanar edge set is a bug, not a bad edge
        # order for the order search to pass over.
        monkeypatch.setattr(
            snarkppm.drawing,
            "_planar_subgraph",
            lambda mg, m_set, edge_order, memo, max_rejected=None: list(range(mg.m)),
        )
        inst = petersen()
        with pytest.raises(RuntimeError, match="planar subgraph stage failed"):
            star_construction(inst.graph, inst.designated_ppm)
        with pytest.raises(RuntimeError, match="planar subgraph stage failed"):
            injectivity_experiment([(inst.graph, inst.designated_ppm)])

    def test_winner_failing_validation_is_not_skipped(self, monkeypatch):
        # Only the winning drawing is finished and validated; a winner that
        # fails is a bug, not a bad edge order.
        def broken(d):
            raise GraphError("broken on purpose")

        monkeypatch.setattr(snarkppm.drawing, "validate_drawing", broken)
        inst = petersen()
        with pytest.raises(RuntimeError, match="failed validation: broken"):
            star_construction(inst.graph, inst.designated_ppm)

    def test_failed_star_check_is_not_skipped(self, monkeypatch):
        # Only a drawing that fails is a bad edge order; a star that fails
        # its own checks is a bug and must surface.
        monkeypatch.setattr(snarkppm.constructions, "classify_ppm", lambda g, m: None)
        inst = petersen()
        with pytest.raises(GraphError, match="failed to planarize"):
            injectivity_experiment([(inst.graph, inst.designated_ppm)])


class TestSmallDrawing:
    @pytest.mark.parametrize(
        "make, crossings",
        [
            (petersen, 2),
            (lambda: blanusa_snark(2, 1), 4),
            (lambda: blanusa_snark(2, 2), 3),
        ],
        ids=["petersen", "b18_1", "b18_2"],
    )
    def test_crossing_counts_pinned(self, make, crossings, bench_relabel):
        # The counts of the order search on the benchmark's star inputs,
        # unrelabeled and on 25 seeded relabelings each.
        inst = make()
        rng = random.Random(1010)
        copies = [(inst.graph, inst.designated_ppm)]
        copies += [bench_relabel(inst.graph, inst.designated_ppm, rng) for _ in range(25)]
        for g, m in copies:
            d = draw_m_avoiding(g, m)
            validate_drawing(d)
            assert len(d.crossings) == crossings, g.graph.edges

    @pytest.mark.parametrize(
        "make",
        [
            petersen,
            lambda: blanusa_snark(2, 1),
            lambda: blanusa_snark(2, 2),
            lambda: flower_snark(5),
        ],
        ids=["petersen", "b18_1", "b18_2", "j5"],
    )
    def test_rejection_bound_keeps_the_first_minimum(self, make, bench_relabel):
        # Routing every order in full, with no bound on the greedy's
        # rejections, and keeping the first fewest-crossing candidate gives
        # the same drawing as the bounded search.
        from snarkppm.drawing import _DrawingSearch, _search_orders

        inst = make()
        rng = random.Random(1111)
        copies = [(inst.graph, inst.designated_ppm)]
        copies += [bench_relabel(inst.graph, inst.designated_ppm, rng) for _ in range(6)]
        dropped = 0
        for g, m in copies:
            search = _DrawingSearch(g, m)
            best = None
            for order in _search_orders(search.non_m):
                try:
                    c = search.route(order)
                except GraphError:
                    continue
                if best is not None and search.route(order, len(best.crossings)) is None:
                    # A dropped order is never strictly better.
                    assert len(c.crossings) >= len(best.crossings)
                    dropped += 1
                if best is None or len(c.crossings) < len(best.crossings):
                    best = c
            assert draw_m_avoiding(g, m) == search.finish(best), g.graph.edges
        assert dropped


class TestReplayOrder:
    def test_replacement_order_does_not_change_star_up_to_isomorphism(self):
        from snarkppm.constructions import (
            _ATTACH,
            _Span,
            _find_span,
            _replace_one,
            _split_span,
        )

        inst = petersen()
        g, m = inst.graph, inst.designated_ppm
        d = draw_m_avoiding(g, m)

        def replay(order):
            dummy_to_ci = {dd: i for i, dd in enumerate(d.crossing_dummies)}
            spans = {}
            for e in range(g.graph.m):
                path = d.segment_map[e]
                at = g.graph.edges[e][0]
                seq = []
                for pe in path[:-1]:
                    px, py = d.planarized.edges[pe]
                    at = py if at == px else px
                    seq.append(dummy_to_ci[at])
                spans[e] = [_Span(g.graph.edges[e][0], g.graph.edges[e][1], seq)]
            current, cur_m = g.graph, m
            for ci in order:
                ea, eb = d.crossings[ci]
                sa, ia = _find_span(spans[ea], ci)
                sb, ib = _find_span(spans[eb], ci)
                base = current.n
                current, cur_m, _rec = _replace_one(
                    current, cur_m, (sa.tail, sa.head), (sb.tail, sb.head)
                )
                _split_span(spans[ea], sa, ia, base + _ATTACH["x"], base + _ATTACH["x'''"])
                _split_span(spans[eb], sb, ib, base + _ATTACH["x'"], base + _ATTACH["x''"])
            return current

        rng = random.Random(5)
        base_order = list(range(len(d.crossings)))
        first = replay(base_order)
        for _ in range(2):
            shuffled = list(base_order)
            rng.shuffle(shuffled)
            assert are_isomorphic(first, replay(shuffled))


class TestExtendCdc:
    def _petersen_cdc(self):
        inst = petersen()
        cg = contract(inst.graph, inst.designated_ppm)
        return inst, cdc_from_ccd(inst.graph, inst.designated_ppm, find_ccd(cg))

    def test_extension_grows_by_one_per_replacement(self):
        inst, cdc = self._petersen_cdc()
        star = star_construction(inst.graph, inst.designated_ppm)
        current = cdc
        for record in star.records:
            extended = extend_cdc(current, record)
            assert verify_cycle_set(record.graph_after, extended) is None
            assert len(extended.cycles) <= len(current.cycles) + 1 + 4
            current = extended
        assert verify_cycle_set(star.graph.graph, current) is None

    def test_generic_counts(self):
        inst, cdc = self._petersen_cdc()
        star = star_construction(inst.graph, inst.designated_ppm)
        record = star.records[0]
        extended = extend_cdc(cdc, record)
        ga = record.graph_before
        ea = ga.edge_between(*record.removed_edge_a)
        eb = ga.edge_between(*record.removed_edge_b)
        shared = sum(
            1 for c in cdc.cycles if ea in c.edges and eb in c.edges
        )
        if shared == 0:
            assert len(extended.cycles) == len(cdc.cycles) + 1
        else:
            assert len(extended.cycles) == len(cdc.cycles) + 1

    def test_broken_input_rejected(self):
        inst, cdc = self._petersen_cdc()
        star = star_construction(inst.graph, inst.designated_ppm)
        from snarkppm import CDC, CycleSet

        broken = CycleSet(cdc.cycles[1:], CDC)
        with pytest.raises(GraphError):
            extend_cdc(broken, star.records[0])


class TestInjectivity:
    def test_three_instances(self):
        # The injectivity map fixes the snark family, not the
        # pseudo-matching; Petersen's designated PPM always leaves a pocket
        # cut (dedicated test below), so the experiment gets a matching.
        pet = petersen().graph
        pm = next(iter_ppms(pet))
        instances = [
            (pet, pm),
            (flower_snark(5).graph, flower_snark(5).designated_ppm),
            (flower_snark(7).graph, flower_snark(7).designated_ppm),
        ]
        report = injectivity_experiment(instances)
        assert report.injective
        assert len(report.entries) == 3
        for entry in report.entries:
            assert entry.cuts_are_block_cuts
            assert entry.cyclic_4_cuts == entry.block_cuts == entry.crossings

    def test_single_instance(self):
        report = injectivity_experiment(
            [(petersen().graph, petersen().designated_ppm)]
        )
        assert report.injective

    def test_rejects_low_connectivity(self):
        g = CubicGraph(named.cube())
        m = next(iter_ppms(g))
        with pytest.raises(GraphError):
            injectivity_experiment([(g, m)])

    def test_petersen_star_cut_census(self):
        # With the designated PPM the star keeps one extra cyclic 4-cut per
        # pocket: a block plus two attachment vertices joined by an intact
        # edge. Every cut is either a block cut or such a pocket.
        inst = petersen()
        star = star_construction(inst.graph, inst.designated_ppm)
        g = star.graph.graph
        cuts = {frozenset(c) for c in cyclic_cuts_up_to(g, 4)}
        blocks = set()
        pockets = set()
        for record in star.records:
            block = set(record.new_vertices)
            boundary = frozenset(
                e for e, (a, b) in enumerate(g.edges) if (a in block) != (b in block)
            )
            blocks.add(boundary)
            outside = [
                (b if a in block else a)
                for a, b in (g.edges[e] for e in boundary)
            ]
            for i in range(len(outside)):
                for j in range(i + 1, len(outside)):
                    v, w = outside[i], outside[j]
                    if v != w and g.has_edge(v, w):
                        side = block | {v, w}
                        pockets.add(
                            frozenset(
                                e
                                for e, (x, y) in enumerate(g.edges)
                                if (x in side) != (y in side)
                            )
                        )
        assert blocks <= cuts
        assert cuts <= blocks | pockets
