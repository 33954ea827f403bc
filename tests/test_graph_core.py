"""Core graph type, graph6 IO, edge-list IO, canonical forms, isomorphism."""

from __future__ import annotations

import random

import pytest

import named
import oracles
from snarkppm import canonical
from snarkppm.multigraph import girth
from snarkppm import (
    CubicGraph,
    Graph6Error,
    GraphError,
    Multigraph,
    are_isomorphic,
    blanusa_snark,
    canonical_form,
    flower_graph,
    flower_snark,
    goldberg_snark,
    parse_edge_list,
    parse_graph6,
    star_construction,
    write_edge_list,
    write_graph6,
)


class TestMultigraph:
    def test_degrees_count_loops_twice(self):
        g = Multigraph(2, [(0, 0), (0, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_edge_indices_are_stable_under_removal(self):
        g = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
        h = g.without_edges([1])
        assert h.edges == ((0, 1), (0, 2))

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(GraphError):
            Multigraph(2, [(0, 2)])

    def test_vertex_cap(self):
        with pytest.raises(GraphError):
            Multigraph(129, [])

    def test_cubic_wrapper_enforces_regularity(self):
        with pytest.raises(GraphError):
            CubicGraph(Multigraph(2, [(0, 1)]))
        theta = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
        assert not CubicGraph(theta).simple
        with pytest.raises(GraphError):
            CubicGraph(theta, require_simple=True)

    def test_is_connected_agrees_with_a_fresh_flood(self, connected_graphs_le8):
        # The answer is kept per graph: derived copies answer for
        # themselves, and asking twice gives the same answer.
        rng = random.Random(2037)
        graphs = [g for n in range(1, 9) for g in connected_graphs_le8[n]]
        graphs += [Multigraph(0, []), Multigraph(3, [(0, 0), (1, 2)])]
        for _ in range(100):
            a = _configuration_cubic(rng, rng.randrange(2, 12, 2))
            b = _configuration_cubic(rng, rng.randrange(2, 12, 2))
            shifted = [(x + a.n, y + a.n) for x, y in b.edges]
            graphs.append(Multigraph(a.n + b.n, list(a.edges) + shifted))
        graphs += [g.without_edges(rng.sample(range(g.m), g.m // 2)) for g in graphs if g.m]
        graphs += [_relabel(g, rng) for g in graphs]
        verdicts = {True: 0, False: 0}
        for g in graphs:
            expect = len(g.connected_components()) <= 1
            assert g.is_connected() == expect, g.edges
            assert g.is_connected() == expect
            verdicts[expect] += 1
        assert min(verdicts.values()) > 1000, verdicts
        g = named.petersen_standard()
        assert g.is_connected()
        assert not g.without_edges([e for e in range(g.m) if 0 in g.edges[e]]).is_connected()
        assert g.relabeled(list(range(g.n))[::-1]).is_connected()

    def test_edge_list_round_trip(self):
        g = Multigraph(4, [(0, 1), (1, 1), (2, 3), (2, 3)])
        h = parse_edge_list(write_edge_list(g))
        assert h.n == g.n and h.edges == g.edges

    def test_edge_list_header_checked(self):
        with pytest.raises(GraphError):
            parse_edge_list("2 3\n0 1\n")

    @pytest.mark.parametrize("text, line", [("2 1\n0 x\n", "0 x"), ("a 1\n0 1\n", "a 1")])
    def test_edge_list_non_integer_line_named(self, text, line):
        with pytest.raises(GraphError, match=repr(line)):
            parse_edge_list(text)

    def test_girth_is_the_shortest_brute_force_cycle(self, cubic_graphs_le8):
        rng = random.Random(2029)
        graphs = list(cubic_graphs_le8)
        graphs += [make() for make in named.EQUIVALENCE_CORPUS.values()]
        graphs += [named.k5(), flower_snark(5).graph.graph, blanusa_snark(2, 1).graph.graph]
        graphs += [_configuration_cubic(rng, n) for n in (2, 4, 6, 8, 10) for _ in range(20)]
        graphs.append(Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert any(a == b for g in graphs for a, b in g.edges)
        assert any(not g.is_simple() and g.is_connected() for g in graphs)
        for g in graphs:
            cycles = oracles.brute_all_cycles(g)
            assert girth(g) == min((len(c) for c in cycles), default=g.n + 1), g.edges
        # Past brute force, against networkx: family members up to the
        # vertex cap, and larger random cubic multigraphs with every edge
        # subdivided twice, which makes a loop a triangle and two parallel
        # edges a hexagon and triples every cycle length.
        nx = pytest.importorskip("networkx")
        family = [flower_snark(k).graph.graph for k in range(5, 32, 2)]
        family += [goldberg_snark(k).graph.graph for k in range(5, 16, 2)]
        family += [blanusa_snark(n, j).graph.graph for n in (1, 2, 3, 8, 15) for j in (1, 2)]
        family += [flower_graph(k) for k in (6, 8, 30)]
        for g in family:
            assert girth(g) == nx.girth(nx.Graph(g.edges)), g
        seen = set()
        for n in (12, 20, 40, 64, 128):
            for _ in range(10):
                g = _configuration_cubic(rng, n)
                h = nx.Graph()
                for i, (a, b) in enumerate(g.edges):
                    nx.add_path(h, [a, (i, 1), (i, 2), b])
                seen.add(girth(g))
                assert 3 * girth(g) == nx.girth(h), g.edges
        assert {1, 2} < seen


class TestGraph6:
    def test_d_brace_decodes_like_independent_decoder(self):
        g = parse_graph6("D?{")
        n, edges = oracles.decode_graph6("D?{")
        assert g.n == n == 5
        assert {tuple(sorted(e)) for e in g.edges} == edges

    def test_random_small_graphs_match_independent_decoder(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(1, 12)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            line = write_graph6(Multigraph(n, edges))
            dn, dedges = oracles.decode_graph6(line)
            assert dn == n
            assert dedges == set(edges)

    def test_one_vertex_graph(self):
        g = parse_graph6("@")
        assert (g.n, g.m) == (1, 0)
        assert write_graph6(g) == "@"

    def test_round_trip_is_identity_on_canonical_lines(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 20)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            line = write_graph6(Multigraph(n, edges))
            assert write_graph6(parse_graph6(line)) == line

    def test_petersen_round_trip_isomorphic(self):
        g = named.petersen_standard()
        line = write_graph6(g)
        # Standard format: one count byte plus ceil(45/6) = 8 data bytes.
        assert len(line) == 9
        assert are_isomorphic(parse_graph6(line), g)

    def test_k4_degree_sequence(self):
        line = write_graph6(named.k4())
        assert sorted(parse_graph6(line).degrees()) == [3, 3, 3, 3]

    def test_edge_order_is_row_major(self):
        g = parse_graph6(write_graph6(named.k4()))
        assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_header_is_accepted(self):
        assert parse_graph6(">>graph6<<D?{").n == 5

    def test_rejects_multigraphs(self):
        with pytest.raises(GraphError):
            write_graph6(Multigraph(2, [(0, 1), (0, 1)]))
        with pytest.raises(GraphError):
            write_graph6(Multigraph(1, [(0, 0)]))

    def test_parse_errors_name_byte_offsets(self):
        with pytest.raises(Graph6Error, match="byte offset"):
            parse_graph6("D?")  # truncated bit vector
        with pytest.raises(Graph6Error, match="byte offset"):
            parse_graph6("D?{" + chr(20))
        with pytest.raises(Graph6Error, match="cap"):
            parse_graph6("~?A@")  # a 129-vertex header, with no data bytes
        with pytest.raises(Graph6Error, match=r"non-ASCII .*byte offset 2\)"):
            parse_graph6("D?\u00e9")
        with pytest.raises(Graph6Error, match=r"non-ASCII .*byte offset 0\)"):
            parse_graph6("\u00e9")

    def test_three_byte_vertex_count(self):
        g = Multigraph(80, [(0, 79)])
        line = write_graph6(g)
        assert line.startswith("~")
        back = parse_graph6(line)
        assert back.n == 80 and back.edges == ((0, 79),)


def _relabel(g: Multigraph, rng: random.Random) -> Multigraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabeled(perm)


def _configuration_cubic(rng: random.Random, n: int) -> Multigraph:
    """A random pairing of three stubs per vertex: loops and parallel edges
    included."""
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    return Multigraph(n, zip(stubs[::2], stubs[1::2]))


def _symmetric_graphs() -> dict[str, Multigraph]:
    graphs = {
        "petersen": named.petersen_standard(),
        "b18_1": blanusa_snark(2, 1).graph.graph,
        "b18_2": blanusa_snark(2, 2).graph.graph,
        "j5": flower_snark(5).graph.graph,
        "j7": flower_snark(7).graph.graph,
        "g5": goldberg_snark(5).graph.graph,
        "desargues": named.generalized_petersen(10, 3),
        "moebius_kantor": named.generalized_petersen(8, 3),
        "tietze": named.tietze(),
    }
    for k in (3, 5, 12, 30):
        graphs[f"prism{2 * k}"] = named.generalized_petersen(k, 1)
        graphs[f"moebius{2 * k}"] = named.moebius_ladder(k)
    return graphs


class TestCanonical:
    def test_equal_forms_iff_isomorphic_small(self, connected_graphs_le8):
        # The corpus holds one graph per isomorphism class, so the 12113
        # forms must all differ; each must survive a relabeling.
        rng = random.Random(3)
        forms = set()
        for n in range(1, 9):
            for g in connected_graphs_le8[n]:
                form = canonical_form(g)
                assert canonical_form(_relabel(g, rng)) == form, g.edges
                forms.add(form)
        assert len(forms) == 12113

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for name, g in _symmetric_graphs().items():
            base = canonical_form(g)
            for _ in range(100):
                assert canonical_form(_relabel(g, rng)) == base, name

    def test_relabeling_invariance_on_the_g5_star(self):
        inst = goldberg_snark(5)
        g = star_construction(inst.graph, inst.designated_ppm).graph.graph
        assert g.n == 120
        rng = random.Random(5)
        base = canonical_form(g)
        for _ in range(3):
            assert canonical_form(_relabel(g, rng)) == base

    def test_random_cubic_multigraphs(self):
        rng = random.Random(2028)
        by_n: dict[int, list[Multigraph]] = {}
        for _ in range(200):
            n = rng.randrange(2, 32, 2)
            g = _configuration_cubic(rng, n)
            assert canonical_form(_relabel(g, rng)) == canonical_form(g), g.edges
            by_n.setdefault(n, []).append(g)
        assert any(a == b for gs in by_n.values() for g in gs for a, b in g.edges)
        nx = pytest.importorskip("networkx")

        def to_nx(g: Multigraph):
            h = nx.MultiGraph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            return h

        verdicts = set()
        for gs in by_n.values():
            for a, b in zip(gs, gs[1:]):
                iso = nx.is_isomorphic(to_nx(a), to_nx(b))
                assert are_isomorphic(a, b) == iso, (a.edges, b.edges)
                verdicts.add(iso)
        assert verdicts == {True, False}

    def test_pruned_search_finds_the_greatest_leaf(self, connected_graphs_le8):
        # Against the whole unpruned tree: the canonical form must be the
        # relabeled edge list of the leaf with the greatest certificate
        # (traces, then edges). The small corpus graphs almost never have
        # leaves with different traces; the cubic graphs with few
        # automorphisms do.
        graphs = [g for n in range(1, 8) for g in connected_graphs_le8[n]]
        graphs += [named.frucht(), named.tietze(), named.durer(), named.petersen_standard()]
        graphs += [flower_snark(5).graph.graph, blanusa_snark(2, 1).graph.graph]
        graphs.append(Multigraph(4, [(0, 0), (0, 1), (1, 2), (1, 2), (2, 3), (3, 3)]))
        for g in graphs:
            adj = canonical._weighted_adjacency(g)
            col, cells, trace = canonical._root(g, adj)
            stack = [(col, cells, [trace])]
            best = None
            while stack:
                col, cells, traces = stack.pop()
                target = next((s for s, c in enumerate(cells) if c and len(c) > 1), None)
                if target is None:
                    leaf = (traces, canonical._relabeled_edges(g, col))
                    best = leaf if best is None else max(best, leaf)
                    continue
                for v in cells[target]:
                    child_col, child_cells = list(col), list(cells)
                    t = canonical._individualize(adj, child_col, child_cells, target, v)
                    stack.append((child_col, child_cells, traces + [t]))
            assert canonical_form(g).canonical_edge_list == best[1], g.edges

    def test_recorded_automorphisms_map_edges_onto_edges(self, cubic_graphs_le8):
        graphs = list(_symmetric_graphs().values()) + cubic_graphs_le8
        graphs.append(Multigraph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)]))
        recorded = 0
        for g in graphs:
            edges = sorted(tuple(sorted(e)) for e in g.edges)
            for aut in canonical._search(g)[1]:
                assert sorted(aut) == list(range(g.n))
                image = sorted(tuple(sorted((aut[a], aut[b]))) for a, b in g.edges)
                assert image == edges
                recorded += 1
        assert recorded >= len(graphs)

    def test_petersen_vs_flower_not_isomorphic(self):
        j5 = flower_snark(5).graph.graph
        assert not are_isomorphic(named.petersen_standard(), j5)

    def test_multigraph_multiplicity_matters(self):
        a = Multigraph(2, [(0, 1), (0, 1)])
        b = Multigraph(2, [(0, 1)])
        assert not are_isomorphic(a, b)
        assert are_isomorphic(a, Multigraph(2, [(1, 0), (0, 1)]))

    def test_loops_respected(self):
        a = Multigraph(1, [(0, 0)])
        b = Multigraph(1, [])
        assert not are_isomorphic(a, b)
