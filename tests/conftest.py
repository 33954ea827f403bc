from __future__ import annotations

import importlib.util
import os
import sys

import pytest

from snarkppm import Multigraph, parse_graph6, write_graph6
from snarkppm.canonical import canonical_form, refinement_colors

_CACHE = os.path.join(os.path.dirname(__file__), "_cache")

# Known counts of (all, connected) simple graphs on n vertices; used to
# validate the corpus generator against the literature.
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _generate_all_graphs(max_n: int) -> dict[int, list[Multigraph]]:
    """Every simple graph up to isomorphism, by vertex augmentation."""
    levels: dict[int, list[Multigraph]] = {1: [Multigraph(1, [])]}
    for n in range(2, max_n + 1):
        buckets: dict[tuple, dict[tuple, Multigraph]] = {}
        for g in levels[n - 1]:
            base = list(g.edges)
            for mask in range(1 << (n - 1)):
                extra = [
                    (i, n - 1) for i in range(n - 1) if mask >> i & 1
                ]
                h = Multigraph(n, base + extra)
                sig = (h.m, tuple(sorted(refinement_colors(h))))
                bucket = buckets.setdefault(sig, {})
                key = canonical_form(h).canonical_edge_list
                if key not in bucket:
                    bucket[key] = h
        levels[n] = [g for bucket in buckets.values() for g in bucket.values()]
    return levels


def _corpus_path(n: int) -> str:
    return os.path.join(_CACHE, f"connected_{n}.g6")


def connected_graphs(n: int) -> list[Multigraph]:
    """All connected simple graphs on exactly n vertices (cached on disk)."""
    path = _corpus_path(n)
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            graphs = [parse_graph6(line) for line in fh if line.strip()]
        # A truncated cache would shrink the correctness corpus in silence.
        assert len(graphs) == CONNECTED_COUNTS[n], f"{path} holds {len(graphs)} graphs"
        return graphs
    os.makedirs(_CACHE, exist_ok=True)
    levels = _generate_all_graphs(n)
    for k in range(1, n + 1):
        assert len(levels[k]) == ALL_COUNTS[k], f"generator broken at n={k}"
        conn = [g for g in levels[k] if g.is_connected()]
        assert len(conn) == CONNECTED_COUNTS[k], f"generator broken at n={k}"
        with open(_corpus_path(k), "w", encoding="ascii") as fh:
            for g in conn:
                fh.write(write_graph6(g) + "\n")
    with open(path, encoding="ascii") as fh:
        return [parse_graph6(line) for line in fh if line.strip()]


@pytest.fixture(scope="session")
def connected_graphs_le8() -> dict[int, list[Multigraph]]:
    return {n: connected_graphs(n) for n in range(1, 9)}


@pytest.fixture(scope="session")
def cubic_graphs_le8(connected_graphs_le8) -> list[Multigraph]:
    out = []
    for n in (4, 6, 8):
        for g in connected_graphs_le8[n]:
            if all(g.degree(v) == 3 for v in range(g.n)):
                out.append(g)
    assert [sum(1 for g in out if g.n == n) for n in (4, 6, 8)] == [1, 2, 5]
    return out


@pytest.fixture(scope="session")
def bench_relabel():
    """``relabel`` of the benchmark's workloads: vertices permuted, edges
    reordered and reoriented, the PPM carried over."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.relabel
