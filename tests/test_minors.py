"""Planarity (with embeddings) and K5-minor detection vs brute-force oracles."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

import named
import oracles
from snarkppm import (
    GraphError,
    Multigraph,
    blanusa_snark,
    contract,
    enumerate_ppms,
    flower_snark,
    goldberg_snark,
    has_k5_minor,
    is_planar,
    petersen,
    planar,
    quotient,
)
from snarkppm import minors
from snarkppm.minors import KMinorUndecidedError


def _no_kernel(adj, embed):
    raise AssertionError("left-right test called")


class TestPlanarity:
    def test_k4_has_four_faces(self):
        emb = is_planar(named.k4())
        assert emb is not None
        assert emb.face_count() == 4

    def test_k5_and_k33_are_not_planar(self):
        assert is_planar(named.k5()) is None
        assert is_planar(named.k33()) is None

    def test_petersen_not_planar(self):
        assert is_planar(named.petersen_standard()) is None

    def test_flower_quotient_three_parallel_cycles_planar(self):
        inst = flower_snark(5)
        cg = contract(inst.graph, inst.designated_ppm)
        emb = is_planar(cg.graph)
        assert emb is not None
        emb.verify_euler()

    def test_loops_and_parallels_embed(self):
        g = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2), (2, 2), (0, 2)])
        emb = is_planar(g)
        assert emb is not None
        emb.verify_euler()
        # Each parallel mate adds a face, each loop adds a face:
        # v=3 e=6 -> f = 2 - 3 + 6 = 5.
        assert emb.face_count() == 5

    @pytest.mark.parametrize("bad", [(7, 0), (0, 2)])
    def test_bad_dart_rejected(self, bad):
        # A triangle's rotation with the dart (0, 0) replaced: an edge id
        # out of range, or an end other than 0 and 1.
        emb = is_planar(Multigraph(3, [(0, 1), (1, 2), (2, 0)]))
        for ring in emb.rotation.values():
            ring[:] = [bad if d == (0, 0) else d for d in ring]
        with pytest.raises(GraphError, match=re.escape(str(bad))):
            emb.verify_euler()

    def test_disconnected(self):
        g = Multigraph(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)])
        emb = is_planar(g)
        assert emb is not None
        emb.verify_euler()

    def test_exhaustive_small_graphs_vs_wagner_oracle(self, connected_graphs_le8):
        # n = 8 runs once more in the acceptance module (criterion 6).
        checked = 0
        for n in range(1, 8):
            for g in connected_graphs_le8[n]:
                expect = oracles.brute_is_planar(g)
                emb = is_planar(g)
                assert (emb is not None) == expect, f"disagree on {g.edges}"
                assert planar(g) == expect, f"verdict disagrees on {g.edges}"
                if emb is not None:
                    emb.verify_euler()
                checked += 1
        assert checked == 996

    def test_random_multigraphs_vs_oracle(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 10)
            m = rng.randint(0, 2 * n)
            edges = []
            for _e in range(m):
                a = rng.randrange(n)
                b = rng.randrange(n)
                edges.append((a, b))
            g = Multigraph(n, edges)
            expect = oracles.brute_is_planar(g)
            emb = is_planar(g)
            assert (emb is not None) == expect, f"disagree on n={n} {edges}"
            if emb is not None:
                emb.verify_euler()

    def test_networkx_cross_check_on_random_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(3, 16)
            edges = set()
            for _e in range(rng.randint(n, 3 * n)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a != b:
                    edges.add((min(a, b), max(a, b)))
            g = Multigraph(n, sorted(edges))
            gx = nx.Graph()
            gx.add_nodes_from(range(n))
            gx.add_edges_from(g.edges)
            expect = nx.check_planarity(gx)[0]
            assert (is_planar(g) is not None) == expect
            assert planar(g) == expect


class TestPlanarVerdict:
    def test_small_cases(self):
        assert planar(Multigraph(0, []))
        assert planar(named.k4())
        assert not planar(named.k5())  # at Mader's bound
        assert not planar(named.k33())
        assert not planar(named.petersen_standard())
        # K3,3 with every edge subdivided and a pendant path at each
        # vertex: nonplanar only once the reduction has run.
        edges = []
        n = 6
        for a, b in named.k33().edges:
            edges += [(a, n), (n, b)]
            n += 1
        for v in range(6):
            edges += [(v, n), (n, n + 1)]
            n += 2
        assert not planar(Multigraph(n, edges))
        # A nonplanar component beside a planar one, with a loop and mates:
        # below Mader's bound, so the kernel runs per component.
        k4 = list(named.k4().edges) + [(0, 0), (2, 3), (2, 3)]
        k33 = [(a + 4, b + 4) for a, b in named.k33().edges]
        assert not planar(Multigraph(10, k4 + k33))
        assert planar(Multigraph(10, k4 + k33[1:]))

    def test_matches_is_planar_on_corpus(self, connected_graphs_le8):
        # The oracle's verdicts for n <= 7 are checked in the exhaustive
        # test above, and criterion 6 checks is_planar against them for
        # n = 8, so this closes the loop on every corpus graph.
        planar_count = 0
        for n in range(1, 9):
            for g in connected_graphs_le8[n]:
                expect = is_planar(g) is not None
                assert planar(g) == expect, g.edges
                planar_count += expect
        assert planar_count == 6749

    def test_random_multigraphs_vs_oracle(self):
        # Loops, parallel edges and up to three components.
        rng = random.Random(1213)
        verdicts = {True: 0, False: 0}
        for _ in range(400):
            g = _random_multigraph(rng, max_n=9, density=8)
            expect = oracles.brute_is_planar(g)
            assert planar(g) == expect, g.edges
            assert (is_planar(g) is not None) == expect, g.edges
            verdicts[expect] += 1
        assert min(verdicts.values()) > 100, verdicts


def _random_multigraph(rng: random.Random, max_n=10, density=3) -> Multigraph:
    """Up to three random pieces side by side, with loops and parallel
    edges, on at most max_n vertices in all; a piece on k vertices has at
    most density * k edges."""
    edges = []
    n = 0
    for _piece in range(rng.randint(1, 3)):
        k = rng.randint(1, max_n - n) if n < max_n else 0
        for _e in range(rng.randint(0, density * k)):
            edges.append((n + rng.randrange(k), n + rng.randrange(k)))
        n += k
    return Multigraph(max(n, 1), edges)


def _family_quotients() -> list[Multigraph]:
    insts = [petersen()]
    insts += [blanusa_snark(n, j) for n in (1, 2, 3) for j in (1, 2)]
    insts += [flower_snark(k) for k in (3, 5, 7, 9)]
    insts += [goldberg_snark(k) for k in (5, 7)]
    return [contract(i.graph, i.designated_ppm).graph for i in insts]


class TestEmbeddingPin:
    # SHA-256 of the is_planar rotations, vertex by vertex, of every input
    # below. The star drawings are seeded by these rotations, so any change
    # to the planarity kernel must keep them byte for byte.
    DIGEST = "eee12bb43f22f4bb7989cae7169fc3418a6ec781f7469956fb3ff8070e8e1f8c"

    def test_rotations_pinned(self, connected_graphs_le8):
        graphs = [g for n in range(1, 9) for g in connected_graphs_le8[n]]
        graphs += _family_quotients()
        for j in (1, 2):
            g = blanusa_snark(2, j).graph
            graphs += [contract(g, m).graph for m in enumerate_ppms(g)]
        rng = random.Random(1212)
        graphs += [_random_multigraph(rng) for _ in range(500)]
        digest = hashlib.sha256()
        planar = 0
        for g in graphs:
            emb = is_planar(g)
            if emb is not None:
                planar += 1
                digest.update(repr([emb.rotation[v] for v in range(g.n)]).encode())
            digest.update(b"\n")
        assert (len(graphs), planar) == (13048, 7477)
        assert digest.hexdigest() == self.DIGEST


class TestK5Minor:
    def test_k5_itself(self):
        assert has_k5_minor(named.k5())

    def test_petersen_contains_k5_minor(self):
        g = named.petersen_standard()
        assert oracles.brute_has_k5_minor(g)
        assert has_k5_minor(g)

    def test_planar_graphs_have_none(self):
        for g in (named.k4(), named.prism(), named.cube()):
            assert not has_k5_minor(g)

    def test_exhaustive_small_graphs_vs_partition_oracle(self, connected_graphs_le8):
        # n = 8 runs once more in the acceptance module (criterion 6).
        for n in range(1, 8):
            for g in connected_graphs_le8[n]:
                assert has_k5_minor(g) == oracles.brute_has_k5_minor(g), g.edges

    def test_planar_implies_no_k5_minor_on_corpus(self, connected_graphs_le8):
        for g in connected_graphs_le8[7]:
            if is_planar(g) is not None:
                assert not has_k5_minor(g)

    def test_budget_raises_undecided(self):
        with pytest.raises(KMinorUndecidedError):
            has_k5_minor(named.petersen_standard(), node_budget=3)

    def test_dive_counts_against_the_budget(self, monkeypatch):
        # A perfect-matching quotient of B26^1 (13 vertices) that the dive
        # settles at its ninth node, by Mader's bound, with no left-right
        # test: one node less raises instead of answering.
        g = blanusa_snark(3, 1).graph
        m = list(enumerate_ppms(g, perfect_matchings_only=True))[28]
        q = contract(g, m).graph
        monkeypatch.setattr(minors, "_lr_planarity", _no_kernel)
        with pytest.raises(KMinorUndecidedError):
            has_k5_minor(q, node_budget=8)
        assert has_k5_minor(q, node_budget=9)

    def test_dive_edge_is_the_first_by_overlap(self):
        # At every dive node of the PPM quotients of Petersen, B18^1 and
        # B18^2, the one-pass edge is the head of the full sorted list, so
        # the dive contracts the same edges as it would by sorting.
        nodes = 0
        for inst in (petersen(), blanusa_snark(2, 1), blanusa_snark(2, 2)):
            g = inst.graph
            for m in enumerate_ppms(g):
                node = minors._skeleton(quotient(g, m)[0])
                while minors._settle(node) is None:
                    edge = minors._least_overlap(node)
                    assert edge == minors._edges_by_overlap(node)[0], node
                    node = minors._contract(node, *edge)
                    nodes += 1
        assert nodes == 1121  # over 448 quotients

    def test_parallel_edges_ignored(self):
        g = Multigraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        doubled = Multigraph(5, list(g.edges) + list(g.edges))
        assert has_k5_minor(doubled)

    def test_blanusa_18_quotients_vs_partition_oracle(self):
        # Every PPM quotient of the two order-18 snarks: 5-9 vertices, most
        # with parallel edges.
        checked = 0
        for j in (1, 2):
            g = blanusa_snark(2, j).graph
            for m in enumerate_ppms(g):
                q = contract(g, m).graph
                assert has_k5_minor(q) == oracles.brute_has_k5_minor(q), q.edges
                checked += 1
        assert checked == 422

    def test_nonplanar_k5_free_13_vertices(self):
        # V8 and K3,3 sharing vertex 7: nonplanar, and each block is
        # K5-minor-free, so the whole graph is too.
        v8 = named.moebius_ladder(4)
        k33 = [(a + 7, b + 7) for a, b in named.k33().edges]
        g = Multigraph(13, list(v8.edges) + k33)
        assert is_planar(g) is None
        assert not has_k5_minor(g)
