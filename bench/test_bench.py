"""Tests of the benchmark's own code: relabeling, tracer, smoke runs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from snarkppm import census, ppm  # noqa: E402
from snarkppm.canonical import are_isomorphic  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.mark.parametrize("name", sorted(workloads.SOURCES))
def test_relabel_keeps_graph_and_ppm(name):
    g, m = workloads.SOURCES[name]()
    rng = random.Random(name)
    for _ in range(3):
        h, hm = workloads.relabel(g, m, rng)
        assert h.graph.edges != g.graph.edges
        assert are_isomorphic(h.graph, g.graph)
        assert ppm.validate_ppm(h, hm) is None
        assert hm.claw_count() == m.claw_count()
        assert ppm.classify_ppm(h, hm) == ppm.classify_ppm(g, m)


def test_relabel_is_seeded():
    g, m = workloads.SOURCES["j7"]()
    a = workloads.relabel(g, m, random.Random(7))
    b = workloads.relabel(g, m, random.Random(7))
    assert a[0].graph.edges == b[0].graph.edges and a[1] == b[1]


def _snapshot():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "snarkppm" or name.startswith("snarkppm.")
        for attr, value in vars(mod).items()
    }


def test_tracer_wraps_every_import_site_and_restores():
    before = _snapshot()
    t = tracing.Tracer()
    with t:
        sites = set(t.sites())
        for site in [
            ("snarkppm.ppm", "has_k5_minor"),
            ("snarkppm.minors", "has_k5_minor"),
            ("snarkppm", "has_k5_minor"),
            ("snarkppm.census", "is_snark"),
            ("snarkppm.constructions", "is_snark"),
            ("snarkppm.coloring", "find_3_edge_coloring"),
            ("snarkppm.census", "find_3_edge_coloring"),
        ]:
            assert site in sites
        line = workloads.census_input(workloads.SOURCES["petersen"](), random.Random(1))
        span = t.begin_op(0)
        report = census.run_census(line, mode="both")
        t.end_op(span)
    assert workloads.census_check("petersen", line, report) is None
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {s[tracing.NAME] for s in t.spans}
    assert {"op", "census.census_graph", "coloring.is_snark", "minors.has_k5_minor",
            "ppm.enumerate_ppms", "ppm.classify_ppm"} <= names
    assert all(s[tracing.OP_ID] == 0 for s in t.spans)
    assert t.yielded["ppm.enumerate_ppms"] > 0
    selfs = t.self_times()
    total = t.spans[span][tracing.END] - t.spans[span][tracing.START]
    assert sum(selfs.values()) == pytest.approx(total)


def test_calls_outside_an_op_are_not_recorded():
    with tracing.Tracer() as t:
        census.run_census(
            workloads.census_input(workloads.SOURCES["petersen"](), random.Random(2))
        )
    assert not t.spans and not t.calls


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    assert t.self_times() == {"op": 6.0, "a": 3.0, "b": 1.0}
    assert t.self_times(lambda start, end: 2 * (end - start))["op"] == 12.0


def test_gauge_scales_and_leaves_out_calibration():
    gauge = run.SpeedGauge()
    ref = run.REF_SECONDS
    # Samples at 0, 1 and 3: the loop runs at reference speed, then half speed.
    gauge.starts = [0.0, 1.0, 3.0]
    gauge.ends = [ref, 1.0 + ref, 3.0 + 2 * ref]
    assert gauge.scaled(0.5, 0.9) == pytest.approx(0.4)
    # [0.5, 2] spans the second sample: 0.5 s at full speed, then 1 - ref s
    # between a full-speed and a half-speed sample, scaled by 2/3.
    assert gauge.scaled(0.5, 2.0) == pytest.approx(0.5 + (1.0 - ref) * 2 / 3)
    assert gauge.scaled(0.5, 2.0) == pytest.approx(gauge.scaled(0.5, 0.9) + gauge.scaled(0.9, 2.0))


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_has_no_failures(capsys, workload):
    result = _run(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS[workload].mix)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    result = _run(capsys, "census_snarks", 1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["minors.has_k5_minor.self_s"]["value"] > 0


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "census_snarks", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
