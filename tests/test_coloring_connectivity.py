"""3-edge-coloring, snark predicate, cyclic edge connectivity."""

from __future__ import annotations

import hashlib
import random
import time
from itertools import combinations

import pytest

import named
import oracles
from snarkppm import (
    CubicGraph,
    GraphError,
    Multigraph,
    blanusa_snark,
    coloring,
    coloring_is_proper,
    connectivity,
    cyclic_cuts_up_to,
    cyclic_edge_connectivity_at_least,
    find_3_edge_coloring,
    flower_graph,
    flower_snark,
    goldberg_snark,
    is_snark,
    petersen,
    star_construction,
)
from snarkppm.census import analyze
from snarkppm.connectivity import (
    _components,
    _cycle_labels,
    _is_cyclic_bond,
    _zero_xor_sets,
)
from snarkppm.families import FamilyInstance, flower_claw_ppm


class TestColoring:
    def test_k4_uses_each_color_twice(self):
        g = CubicGraph(named.k4())
        col = find_3_edge_coloring(g)
        assert col is not None and coloring_is_proper(g.graph, col)
        counts = sorted(
            list(col.color_of.values()).count(c) for c in (1, 2, 3)
        )
        assert counts == [2, 2, 2]

    def test_petersen_has_no_coloring(self):
        assert find_3_edge_coloring(CubicGraph(named.petersen_standard())) is None

    def test_cube_colorable(self):
        g = CubicGraph(named.cube())
        col = find_3_edge_coloring(g)
        assert col is not None and coloring_is_proper(g.graph, col)

    def test_even_flower_colorable_and_paper_assignment_validates(self):
        k = 4
        g = CubicGraph(flower_graph(k))
        col = find_3_edge_coloring(g)
        assert col is not None and coloring_is_proper(g.graph, col)
        # The explicit construction: spokes to layers 2 and 3 take their
        # layer's color, the short cycle alternates {2,3}, the long cycle
        # pairs up (3-3 colored 2, 2-2 colored 3), everything else color 1.
        mg = g.graph
        explicit = {}

        def v(i):
            return 4 * (i % k)

        def u(layer, i):
            return 4 * (i % k) + layer

        for i in range(k):
            explicit[mg.edge_between(u(1, i), u(1, i + 1))] = 2 if i % 2 == 0 else 3
            explicit[mg.edge_between(v(i), u(2, i))] = 2
            explicit[mg.edge_between(v(i), u(3, i))] = 3
        for i in range(0, k, 2):
            explicit[mg.edge_between(u(3, i), u(3, i + 1))] = 2
            explicit[mg.edge_between(u(2, i), u(2, i + 1))] = 3
        for e in range(mg.m):
            explicit.setdefault(e, 1)
        from snarkppm import EdgeColoring

        assert coloring_is_proper(mg, EdgeColoring(explicit))

    def test_theta_graph_is_colorable(self):
        g = CubicGraph(Multigraph(2, [(0, 1)] * 3))
        col = find_3_edge_coloring(g)
        assert col is not None and coloring_is_proper(g.graph, col)

    def test_loops_rule_out_coloring(self):
        g = CubicGraph(Multigraph(2, [(0, 0), (0, 1), (1, 1)]))
        assert find_3_edge_coloring(g) is None

    def test_exhaustive_absence_agrees_with_brute_force_small(
        self, cubic_graphs_le8
    ):
        # All cubic graphs on <= 8 vertices are 3-edge-colorable (the
        # smallest snark has 10 vertices).
        for g in cubic_graphs_le8:
            col = find_3_edge_coloring(CubicGraph(g))
            assert (col is not None) == oracles.brute_3_edge_colorable(g)
            assert col is not None  # class-1 at this size

    def test_petersen_matching_characterization(self):
        assert not oracles.brute_3_edge_colorable(named.petersen_standard())

    def test_agrees_with_oracle_on_random_cubic_multigraphs_and_snarks(self):
        # Configuration-model pairings: loops and parallel edges included.
        rng = random.Random(2027)
        cases = []
        for _ in range(150):
            n = rng.choice((2, 4, 6, 8, 10, 12))
            stubs = [v for v in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            cases.append(Multigraph(n, zip(stubs[::2], stubs[1::2])))
        cases.append(named.petersen_standard())
        cases += [blanusa_snark(2, j).graph.graph for j in (1, 2)]
        cases += [flower_graph(k) for k in range(3, 9)]
        outcomes = set()
        for g in cases:
            col = find_3_edge_coloring(CubicGraph(g))
            assert (col is not None) == oracles.brute_3_edge_colorable(g), g.edges
            if col is not None:
                assert coloring_is_proper(g, col)
            outcomes.add((any(a == b for a, b in g.edges), col is None))
        assert outcomes == {(True, True), (False, True), (False, False)}

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
    def test_stars_uncolorable_under_relabeling(self, make):
        # The criterion-7 stars drive the vertex rule deep into a proof of
        # non-colorability; the vertex labels move the symmetry break.
        inst = make()
        star = star_construction(inst.graph, inst.designated_ppm).graph.graph
        rng = random.Random(8)
        for _ in range(3):
            perm = list(range(star.n))
            rng.shuffle(perm)
            assert find_3_edge_coloring(CubicGraph(star.relabeled(perm))) is None


class TestSnark:
    def test_petersen_is_snark(self):
        assert is_snark(CubicGraph(named.petersen_standard()))

    def test_flower_j5_is_snark(self):
        assert is_snark(flower_snark(5).graph)

    def test_cube_is_not(self):
        assert not is_snark(CubicGraph(named.cube()))

    def test_tietze_is_not_snark_but_uncolorable(self):
        # A triangle makes it cyclically 3-edge-connected only.
        g = CubicGraph(named.tietze())
        assert not is_snark(g)
        assert find_3_edge_coloring(g) is None

    def test_requires_simple(self):
        theta = CubicGraph(Multigraph(2, [(0, 1)] * 3))
        with pytest.raises(GraphError):
            is_snark(theta)


def _random_simple_cubic(rng: random.Random, sizes) -> Multigraph:
    """A configuration-model cubic graph, drawn again until it is simple
    and connected."""
    while True:
        n = rng.choice(sizes)
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        g = Multigraph(n, zip(stubs[::2], stubs[1::2]))
        if CubicGraph(g).simple and g.is_connected():
            return g


def _snark_by_definition(g: Multigraph) -> bool:
    return not oracles.brute_cyclic_cuts(g, 3) and not oracles.brute_3_edge_colorable(g)


# The rings of ``_ring``: (piece, copies).
RINGS = {
    "g5_x3": (lambda: goldberg_snark(5).graph.graph, 3),
    "j13_x2": (lambda: flower_snark(13).graph.graph, 2),
    "petersen_x12": (named.petersen_standard, 12),
}


class TestSnarkOrder:
    """``is_snark`` colours before it cuts: the verdicts against the
    definition, and the cut listings and reductions that each path makes."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the cut search (``connectivity._cyclic_bonds``, behind
        every listing) and of the reduction (``coloring._reduce``)."""
        made = {"bonds": 0, "reduce": 0}
        for module, name, key in (
            (connectivity, "_cyclic_bonds", "bonds"),
            (coloring, "_reduce", "reduce"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _key=key):
                made[_key] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        return made

    def test_agrees_with_the_definition(self, cubic_graphs_le8):
        # No cyclic cut of size <= 3 and no 3-edge-colouring, by the
        # oracles: on the cubic corpus, the named graphs and 120 random
        # simple connected cubic graphs on 10-16 vertices.
        cases = [g for g in cubic_graphs_le8 if CubicGraph(g).simple]
        cases += [make() for make in named.EQUIVALENCE_CORPUS.values()]
        rng = random.Random(2727)
        cases += [_random_simple_cubic(rng, (10, 12, 14, 16)) for _ in range(120)]
        verdicts = set()
        for g in cases:
            verdict = is_snark(CubicGraph(g))
            assert verdict == _snark_by_definition(g), g.edges
            verdicts.add((verdict, oracles.brute_3_edge_colorable(g)))
        # Snarks, colourable graphs and uncolourable non-snarks all occur.
        assert verdicts == {(True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_rings_end_after_one_listing(self, name, counts):
        # Each ring has cyclic 2-cuts (two ring edges, checked by the
        # oracle), so by the definition it is no snark; it has no
        # colouring either. One listing settles it, with no reduction,
        # well under 0.1 s.
        piece, copies = RINGS[name]
        g = _ring(piece(), copies)
        # Each copy's last edge joins it to the next copy.
        step = g.m // copies
        assert oracles.leaves_two_cyclic_components(g, {step - 1, 2 * step - 1})
        start = time.perf_counter()
        assert not is_snark(CubicGraph(g))
        assert time.perf_counter() - start < 0.1
        assert counts == {"bonds": 1, "reduce": 0}
        assert find_3_edge_coloring(CubicGraph(g)) is None

    def test_colourable_graphs_make_no_cut_search(self, counts, bench_relabel):
        # A colouring found in the budget run answers the snark test: J6,
        # J8 and the cube, 20 benchmark relabelings of each, and random
        # colourable graphs.
        graphs = []
        rng = random.Random(2728)
        for inst in (_colorable_flower(6), _colorable_flower(8)):
            graphs.append(inst.graph.graph)
            graphs += [
                bench_relabel(inst.graph, inst.designated_ppm, rng)[0].graph for _ in range(20)
            ]
        graphs.append(named.cube())
        while len(graphs) < 100:
            g = _random_simple_cubic(rng, (10, 12, 14, 16, 20, 24))
            if oracles.brute_3_edge_colorable(g):
                graphs.append(g)
        for g in graphs:
            assert not is_snark(CubicGraph(g))
        assert counts == {"bonds": 0, "reduce": 0}

    @pytest.mark.parametrize(
        "make, listings, reductions",
        [
            (lambda: petersen().graph, 1, 0),
            (lambda: blanusa_snark(2, 1).graph, 1, 0),
            (lambda: blanusa_snark(2, 2).graph, 1, 0),
            (lambda: goldberg_snark(5).graph, 1, 1),
            (lambda: _star(blanusa_snark(2, 1)), 1, 1),
            (lambda: _star(blanusa_snark(2, 2)), 1, 1),
        ],
        ids=["petersen", "b18_1", "b18_2", "g5", "b18_1_star", "b18_2_star"],
    )
    def test_snarks_list_their_cuts_once(self, make, listings, reductions, counts):
        # A budget run that ends with no colouring leaves one connectivity
        # test; a tripped budget (G5 and the B18 stars) lists the cuts
        # once, and that listing feeds the reduction.
        g = make()
        counts.update(bonds=0, reduce=0)  # the star construction lists cuts too
        assert is_snark(g)
        assert counts == {"bonds": listings, "reduce": reductions}

    def test_one_set_of_tables_per_graph(self, monkeypatch):
        # Every search of one graph shares its tables. G5 (no cyclic 4-cut):
        # the budget run and the restart. The B18 star's 4 replaced sides:
        # 4 colour-set searches each, then the reduced graph. The 7 sides of
        # J6's star, which is colourable: 4 colour-set searches and a lift.
        built: list[list] = []
        searched: list[list] = []
        tables, search = coloring._tables, coloring._search

        def counted_tables(mg):
            built.append(tables(mg))
            return built[-1]

        def counted_search(touch, *args):
            searched.append(touch)
            return search(touch, *args)

        monkeypatch.setattr(coloring, "_tables", counted_tables)
        monkeypatch.setattr(coloring, "_search", counted_search)
        for g, colourable, uses in (
            (goldberg_snark(5).graph, False, [2]),
            (_star(blanusa_snark(2, 1)), False, [1, 4, 4, 4, 4, 1]),
            (_star(_colorable_flower(6)), True, [1, 5, 5, 5, 5, 5, 5, 5, 1]),
        ):
            built.clear()
            searched.clear()
            assert (find_3_edge_coloring(g) is not None) == colourable
            assert [sum(t is touch for t in searched) for touch in built] == uses


class TestCyclicConnectivity:
    def test_petersen_levels(self):
        g = CubicGraph(named.petersen_standard())
        assert cyclic_edge_connectivity_at_least(g, 5)
        assert not cyclic_edge_connectivity_at_least(g, 6)

    def test_petersen_has_a_cyclic_5_cut_around_a_pentagon(self):
        g = named.petersen_standard()
        cuts = set(cyclic_cuts_up_to(g, 5))
        outer = {g.edge_between(i, 5 + i) for i in range(5)}
        assert frozenset(outer) in cuts

    def test_k4_convention_true_for_all_k(self):
        g = CubicGraph(named.k4())
        for k in range(2, 7):
            assert cyclic_edge_connectivity_at_least(g, k)

    def test_prism_cut_between_triangles(self):
        g = CubicGraph(named.prism())
        assert cyclic_edge_connectivity_at_least(g, 3)
        assert not cyclic_edge_connectivity_at_least(g, 4)

    def test_agrees_with_brute_force_on_small_cubics(self, cubic_graphs_le8):
        for g in cubic_graphs_le8:
            brute = _agrees_with_brute_force(g, 5)
            for k in range(2, 7):
                expect = not any(len(c) < k for c in brute)
                assert cyclic_edge_connectivity_at_least(CubicGraph(g), k) == expect

    def test_agrees_with_brute_force_on_random_cubic_multigraphs(self):
        # Configuration-model pairings: loops and parallel edges included.
        rng = random.Random(2026)
        cases = [(named.petersen_standard(), 5)]
        while len(cases) < 101:
            n = rng.choice((2, 4, 6, 8, 10, 12))
            stubs = [v for v in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            g = Multigraph(n, zip(stubs[::2], stubs[1::2]))
            if g.is_connected():
                cases.append((g, 5 if n <= 8 else 4))
        assert any(a == b for g, _k in cases for a, b in g.edges)
        for g, k in cases:
            _agrees_with_brute_force(g, k)

    def test_agrees_with_brute_force_at_every_size_on_random_multigraphs(self):
        # Configuration-model multigraphs with degrees 2-4, loops and
        # parallel edges, at every max_size: the leaf-vertex rule must spare
        # looped vertices, and stop after the size of the first bond.
        rng = random.Random(2612)
        graphs = []
        while len(graphs) < 60:
            n = rng.randint(1, 10)
            degrees = [rng.choice((2, 3, 4)) for _ in range(n)]
            degrees[0] += sum(degrees) % 2
            stubs = [v for v in range(n) for _ in range(degrees[v])]
            rng.shuffle(stubs)
            g = Multigraph(n, zip(stubs[::2], stubs[1::2]))
            if g.is_connected():
                graphs.append(g)
        assert sum(any(a == b for a, b in g.edges) for g in graphs) > 30
        sizes = set()
        for g in graphs:
            for k in range(1, 7):
                sizes |= {len(c) for c in _agrees_with_brute_force(g, k)}
        assert sizes == set(range(1, 7))

    def test_sizes_without_a_zero_xor_set_are_skipped(self, monkeypatch):
        # Size 1 needs a label 0 (a bridge) and size 2 two equal labels (a
        # 2-edge cut); the join runs at no other size below 3. Two K4s with
        # a subdivided edge, joined by a bridge, have both; the Petersen
        # ring has 2-cuts and no bridge; Petersen has neither.
        k4_sub = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (3, 4)]
        bridged = Multigraph(
            10, k4_sub + [(a + 5, b + 5) for a, b in k4_sub] + [(4, 9)]
        )
        sizes: list[int] = []
        join = connectivity._zero_xor_sets

        def counted(labels, size, *args):
            sizes.append(size)
            return join(labels, size, *args)

        monkeypatch.setattr(connectivity, "_zero_xor_sets", counted)
        for g, want in (
            (bridged, [1, 2, 3, 4]),
            (_ring(named.petersen_standard(), 2), [2, 3, 4]),
            (named.petersen_standard(), [3, 4]),
        ):
            sizes.clear()
            list(cyclic_cuts_up_to(g, 4))
            assert sizes == want
            _agrees_with_brute_force(g, 4)

    def test_leaf_rule_spares_a_looped_vertex(self):
        # Petersen with edge 0 subdivided by a vertex v that carries a
        # loop: v's side is {v}, cyclic by the loop, so v's two other edges
        # are a cyclic bond although v has one edge outside them.
        p = named.petersen_standard()
        (a, b), v = p.edges[0], p.n
        g = Multigraph(v + 1, [(a, v), *p.edges[1:], (v, b), (v, v)])
        assert list(cyclic_cuts_up_to(g, 2)) == [frozenset({0, p.m})]

    @pytest.mark.parametrize(
        "make, max_size, calls",
        [
            (lambda: _colorable_flower(6), 5, 0),
            (lambda: flower_snark(7), 5, 0),
            (petersen, 3, 0),
            (lambda: blanusa_snark(2, 1), 3, 0),
            (lambda: blanusa_snark(2, 2), 3, 0),
            (lambda: flower_snark(5), 3, 0),
            (petersen, 5, 6),
            (lambda: goldberg_snark(5), 5, 16),
        ],
        ids=["j6", "j7", "petersen_3", "b18_1_3", "b18_2_3", "j5_3", "petersen", "g5"],
    )
    def test_leaf_rule_drops_the_trivial_cuts(
        self, make, max_size, calls, bench_relabel, monkeypatch
    ):
        # Vertex stars, edge cuts and two-path cuts never reach the flood
        # while no smaller bond is known: on these graphs only the
        # nontrivial cuts do (Petersen's six pentagon cuts, G5's 16 bonds).
        # The count is an invariant; the member and 20 relabelings of it.
        inst = make()
        rng = random.Random(2613)
        graphs = [inst.graph.graph]
        graphs += [bench_relabel(inst.graph, inst.designated_ppm, rng)[0].graph for _ in range(20)]
        count = [0]
        bond = connectivity._is_cyclic_bond

        def counted(*args):
            count[0] += 1
            return bond(*args)

        monkeypatch.setattr(connectivity, "_is_cyclic_bond", counted)
        for g in graphs:
            count[0] = 0
            list(cyclic_cuts_up_to(g, max_size))
            assert count[0] == calls

    def test_bond_path_matches_oracle_on_every_zero_xor_set(self):
        # The join's own path on configuration-model multigraphs (loops,
        # parallel edges; cubic, or degrees 2-4, where a side used up first
        # can be cyclic and the other not): every zero-XOR set of size 1-6,
        # each found once, goes through _is_cyclic_bond, which keeps the
        # cyclic bonds. Those that leave three or more components are
        # rejected, cyclic or not.
        rng = random.Random(1814)
        bonds = {True: 0, False: 0}
        many = {True: 0, False: 0}
        for trial in range(80):
            n = rng.choice((2, 4, 6, 8, 10))
            degrees = [3 if trial % 2 else rng.choice((2, 3, 4)) for _ in range(n)]
            degrees[0] += sum(degrees) % 2
            stubs = [v for v in range(n) for _ in range(degrees[v])]
            rng.shuffle(stubs)
            g = Multigraph(n, zip(stubs[::2], stubs[1::2]))
            if not g.is_connected():
                continue
            labels = _cycle_labels(g)
            heads, tails = [[(0, ())]], [[(0, ())]]
            for size in range(1, 7):
                found = list(_zero_xor_sets(labels, size, heads, tails))
                assert len(found) == len(set(found))
                assert set(found) == {
                    frozenset(c)
                    for c in combinations(range(g.m), size)
                    if not _xor(labels, c)
                }, g.edges
                for cut in found:
                    cyclic = oracles.leaves_two_cyclic_components(g, set(cut))
                    bond = oracles.is_bond(g, set(cut))
                    assert _is_cyclic_bond(g, labels, cut) == (cyclic and bond), (g.edges, cut)
                    assert bond == (_components(labels, cut) == 2), (g.edges, cut)
                    if bond:
                        bonds[cyclic] += 1
                    else:
                        many[cyclic] += 1
        assert min(*bonds.values(), many[True]) > 200, (bonds, many)

    @pytest.mark.parametrize(
        "make, counts",
        [
            (petersen, (0, 6)),
            (lambda: blanusa_snark(2, 1), (2, 28)),
            (lambda: blanusa_snark(2, 2), (1, 21)),
            (lambda: flower_snark(5), (0, 1)),
            (lambda: _colorable_flower(6), (0, 0)),
            (lambda: flower_snark(7), (0, 0)),
            (lambda: goldberg_snark(5), (0, 16)),
        ],
        ids=["petersen", "b18_1", "b18_2", "j5", "j6", "j7", "g5"],
    )
    def test_cut_counts_under_relabeling(self, make, counts, bench_relabel):
        # The numbers of cyclic cuts of size <= 4 and <= 5 are invariants;
        # 20 seeded relabelings of each family member.
        inst = make()
        rng = random.Random(1112)
        for _ in range(20):
            g = bench_relabel(inst.graph, inst.designated_ppm, rng)[0].graph
            for k, count in zip((4, 5), counts):
                cuts = list(cyclic_cuts_up_to(g, k))
                assert len(cuts) == len(set(cuts)) == count
                assert [len(c) for c in cuts] == sorted(len(c) for c in cuts)
                for cut in cuts:
                    assert oracles.leaves_two_cyclic_components(g, set(cut))

    @pytest.mark.parametrize(
        "make, digest",
        [
            (petersen, "6788803f129242018d04e48ecf1520b2bb7ee9d213d0175f1b4fd389b3a37abe"),
            (
                lambda: blanusa_snark(2, 1),
                "528c92144767e70150ec5510cd76cfaff2c17f958b700e7076fe08ef4659d898",
            ),
            (
                lambda: blanusa_snark(2, 2),
                "759eba7e408cbd3e77af36fda887ddb86aa2d0ec5e5b335533ef3daf149a69a3",
            ),
            (
                lambda: flower_snark(5),
                "0d29b8fc5531784b2988d9cc54f7a463459a14976ab2d9fd3a0963033d8dd9cc",
            ),
            # J6 and J7 have no cyclic cut of size <= 5: the same digest.
            (
                lambda: _colorable_flower(6),
                "efeb9bde9830f3dfccaa387c71ad51e406dc4424c94169cb7a20ff7ad5fb1388",
            ),
            (
                lambda: flower_snark(7),
                "efeb9bde9830f3dfccaa387c71ad51e406dc4424c94169cb7a20ff7ad5fb1388",
            ),
            (
                lambda: goldberg_snark(5),
                "d36eae574b1a4c19b79bca439273b0d0dd372eaad077577d505ec4166052749b",
            ),
            (
                lambda: blanusa_snark(3, 1),
                "7437d8b38c84a1fa96b805e758b1b892816c67b43e572f915eb4501e7c2b63f8",
            ),
        ],
        ids=["petersen", "b18_1", "b18_2", "j5", "j6", "j7", "g5", "b26_1"],
    )
    def test_cut_sets_pinned_under_relabeling(self, make, digest, bench_relabel):
        # The cut sets themselves, not only their counts: SHA-256 over the
        # sorted cyclic cuts of each size 3, 4 and 5 of the member and of 20
        # seeded relabelings of it.
        inst = make()
        rng = random.Random(1813)
        graphs = [inst.graph.graph]
        graphs += [bench_relabel(inst.graph, inst.designated_ppm, rng)[0].graph for _ in range(20)]
        h = hashlib.sha256()
        for g in graphs:
            cuts = list(cyclic_cuts_up_to(g, 5))
            assert min(map(len, cuts), default=3) >= 3
            for k in (3, 4, 5):
                h.update(repr(sorted(sorted(c) for c in cuts if len(c) == k)).encode())
        assert h.hexdigest() == digest

    def test_empty_graph_has_no_cyclic_cut(self):
        # No cycles at all, like the graphs without two disjoint cycles.
        for k in range(1, 7):
            assert list(cyclic_cuts_up_to(Multigraph(0, []), k)) == []

    def test_disconnected_rejected(self):
        two_thetas = Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        with pytest.raises(GraphError):
            cyclic_edge_connectivity_at_least(CubicGraph(two_thetas), 4)
        with pytest.raises(GraphError):
            cyclic_cuts_up_to(two_thetas, 2)

    def test_max_size_above_6_rejected_before_any_work(self):
        with pytest.raises(GraphError):
            cyclic_cuts_up_to(named.petersen_standard(), 7)
        ladder = Multigraph(
            128,
            [(i, (i + 1) % 64) for i in range(64)]
            + [(64 + i, 64 + (i + 1) % 64) for i in range(64)]
            + [(i, 64 + i) for i in range(64)],
        )
        start = time.perf_counter()
        with pytest.raises(GraphError):
            cyclic_cuts_up_to(ladder, 10**6)
        assert time.perf_counter() - start < 1.0

    def test_ring_of_goldberg_pieces_analyzed_in_under_a_second(self):
        # Three copies of G5 minus an edge, joined in a ring by the freed
        # ends: 120 vertices, cyclic 2-cuts, not colourable. The colouring
        # reduction looks for small sides at the cyclic 4-cuts delta(X); a
        # 2-cut plus two more edges is not one of them.
        g = _ring(goldberg_snark(5).graph.graph, 3)
        start = time.perf_counter()
        report = analyze(CubicGraph(g))
        assert time.perf_counter() - start < 1.0
        assert "cyclically 2-edge-connected" in report
        assert "3-edge-colorable: no" in report

    def test_ring_of_petersen_pieces_lists_its_cuts_in_under_a_second(self):
        # Twelve copies of Petersen minus an edge in a ring: every pair of
        # ring edges is a cyclic 2-cut, and neither a cyclic cut plus
        # further edges nor one that leaves three or more components (four
        # ring edges) is listed.
        g = _ring(named.petersen_standard(), 12)
        start = time.perf_counter()
        cuts = list(cyclic_cuts_up_to(g, 4))
        assert time.perf_counter() - start < 1.0
        assert len(cuts) == len(set(cuts)) == 1122
        for cut in cuts:
            assert oracles.is_bond(g, set(cut))
            assert oracles.leaves_two_cyclic_components(g, set(cut))


def _ring(g: Multigraph, copies: int) -> Multigraph:
    """Copies of g minus its edge 0, each joined to the next by an edge
    between the two vertices that edge 0 left with degree 2."""
    a, b = g.edges[0]
    edges = []
    for i in range(copies):
        off = i * g.n
        edges += [(x + off, y + off) for x, y in g.edges[1:]]
        edges.append((b + off, a + (i + 1) % copies * g.n))
    return Multigraph(copies * g.n, edges)


def _agrees_with_brute_force(g: Multigraph, k: int) -> set[frozenset[int]]:
    """Check the cuts up to size k against the oracle, and return the
    oracle's cyclic cuts: the yield is once each, in nondecreasing size,
    exactly those of them that are bonds, and every one of them contains a
    yielded cut."""
    cuts = list(cyclic_cuts_up_to(g, k))
    assert len(set(cuts)) == len(cuts)
    assert [len(c) for c in cuts] == sorted(len(c) for c in cuts)
    brute = oracles.brute_cyclic_cuts(g, k)
    assert set(cuts) == {c for c in brute if oracles.is_bond(g, set(c))}, g.edges
    assert all(any(cut <= c for cut in cuts) for c in brute), g.edges
    return brute


def _star(inst: FamilyInstance) -> CubicGraph:
    return star_construction(inst.graph, inst.designated_ppm).graph


def _colorable_flower(k: int) -> FamilyInstance:
    """The flower graph of even k (3-edge-colorable), with the claw PPM."""
    g = flower_graph(k)
    return FamilyInstance(
        CubicGraph(g, require_simple=True), flower_claw_ppm(g, k), f"flower(k={k})"
    )


def _xor(labels: list[int], edges) -> int:
    x = 0
    for e in edges:
        x ^= labels[e]
    return x
