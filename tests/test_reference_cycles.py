"""One op of each benchmark kind leaves no garbage for the cyclic GC.

A self-recursive closure is a reference cycle (function -> cell ->
function); left behind, it and everything it holds wait for the cyclic
collector, so a run's memory grows with the number of ops between
collections.
"""

from __future__ import annotations

import gc

import pytest

from snarkppm import (
    are_isomorphic,
    blanusa_snark,
    cdc_from_ccd,
    contract,
    extend_cdc,
    find_ccd,
    flower_snark,
    is_snark,
    petersen,
    star_construction,
    suppress_degree_two,
    through_path_subgraph,
    verify_cycle_set,
    write_graph6,
)
from snarkppm.census import analyze, run_census


def _census_b18():
    report = run_census(write_graph6(blanusa_snark(2, 2).graph.graph), mode="both")
    assert report.complete and report.rows


def _analyze_j7():
    inst = flower_snark(7)
    assert "CDC verified" in analyze(inst.graph, inst.designated_ppm)


def _star_petersen():
    inst = petersen()
    g, m = inst.graph, inst.designated_ppm
    star = star_construction(g, m)
    assert is_snark(star.graph)
    assert are_isomorphic(suppress_degree_two(through_path_subgraph(star)), g.graph)
    cdc = cdc_from_ccd(g, m, find_ccd(contract(g, m)))
    for record in star.records:
        cdc = extend_cdc(cdc, record)
    assert verify_cycle_set(star.graph.graph, cdc) is None


@pytest.mark.parametrize(
    "op", [_census_b18, _analyze_j7, _star_petersen], ids=["census", "analyze", "star"]
)
def test_op_leaves_no_cyclic_garbage(op):
    gc.collect()
    gc.disable()
    try:
        op()
        assert gc.collect() == 0
    finally:
        gc.enable()
