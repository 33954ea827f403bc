"""Census pipeline, analyzer, and the command-line surface."""

from __future__ import annotations

import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest

import named
from snarkppm import (
    CubicGraph, Multigraph, blanusa_snark, census, classify_ppm, enumerate_ppms,
    flower_snark, parse_graph6, parse_ppm, petersen, ppm, validate_ppm, write_graph6,
)
from snarkppm.census import analyze, run_census, write_details
from snarkppm.cli import main
from snarkppm.minors import KMinorUndecidedError


@pytest.fixture(scope="module")
def petersen_g6() -> str:
    return write_graph6(petersen().graph.graph)


class TestCensus:
    def test_order_10_row_matches_known_counts(self, petersen_g6):
        report = run_census(petersen_g6 + "\n", mode="both")
        assert len(report.rows) == 1
        row = report.rows[0]
        assert (row.n, row.s) == (10, 1)
        assert row.no_planarizing_pm == 1
        assert row.no_planarizing_ppm == 0
        assert row.no_k5_free_pm == 1
        assert row.no_k5_free_ppm == 0
        assert report.min_girth == 5
        assert report.complete

    def test_rerun_is_byte_identical(self, petersen_g6):
        a = run_census(petersen_g6 + "\n", mode="both").to_tsv()
        b = run_census(petersen_g6 + "\n", mode="both").to_tsv()
        assert a == b

    def test_non_snarks_listed_not_fatal(self, petersen_g6):
        text = write_graph6(named.cube()) + "\n" + petersen_g6 + "\n"
        report = run_census(text, mode="both")
        assert report.non_snarks == [1]
        assert report.rows[0].s == 1

    def test_empty_file(self):
        report = run_census("", mode="both")
        assert report.rows == []
        assert report.complete

    def test_short_circuit_equals_exhaustive(self, petersen_g6):
        # Re-verify the counted class by independent exhaustive classification.
        from snarkppm import PLANARIZING

        g = CubicGraph(parse_graph6(petersen_g6), require_simple=True)
        best = None
        order = {None: -1, "neither": 0, "k5_minor_free_only": 1, "planarizing": 2}
        for m in enumerate_ppms(g):
            cls = classify_ppm(g, m)
            if order[cls] > order[best]:
                best = cls
        report = run_census(petersen_g6 + "\n", mode="both")
        assert (report.rows[0].no_planarizing_ppm == 0) == (best == PLANARIZING)

    def test_details_written(self, petersen_g6, tmp_path):
        report = run_census(petersen_g6 + "\n", mode="both")
        write_details(report, str(tmp_path))
        files = sorted(os.listdir(tmp_path))
        assert "order10.tsv" in files
        assert any(f.endswith(".ppm") for f in files)

    def test_workers_agree_with_serial(self, petersen_g6):
        text = petersen_g6 + "\n" + write_graph6(named.cube()) + "\n"
        serial = run_census(text, mode="both").to_tsv()
        parallel = run_census(text, mode="both", workers=2).to_tsv()
        assert serial == parallel

    def test_timeout_marks_undecided(self, petersen_g6, monkeypatch):
        monkeypatch.setenv("SNARKPPM_TIMEOUT_MS", "0")
        report = run_census(petersen_g6 + "\n", mode="both")
        assert not report.complete
        assert report.rows == []
        monkeypatch.delenv("SNARKPPM_TIMEOUT_MS")

    def test_timeout_counts_the_snark_test(self, petersen_g6, monkeypatch):
        # The clock starts before the line is parsed: a snark test slower
        # than the whole budget leaves the graph undecided.
        snark_test = census.is_snark

        def slow(g):
            time.sleep(0.3)
            return snark_test(g)

        monkeypatch.setattr(census, "is_snark", slow)
        monkeypatch.setenv("SNARKPPM_TIMEOUT_MS", "200")
        report = run_census(petersen_g6 + "\n", mode="both")
        assert not report.complete
        assert report.verdicts[0].is_snark
        assert report.verdicts[0].undecided

    def test_undecided_k5_search_marks_undecided(
        self, petersen_g6, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(ppm, "has_k5_minor", _raise_undecided)
        text = write_graph6(named.cube()) + "\n" + petersen_g6 + "\n"
        report = run_census(text, mode="both")
        assert not report.complete
        assert report.rows == []
        assert report.non_snarks == [1]
        assert report.verdicts[1].undecided
        src = tmp_path / "list.g6"
        src.write_text(text)
        assert main(["census", "--input", str(src), "--mode", "both"]) == 2

    def test_order_18_row_from_blanusa_snarks(self):
        # The two Blanusa snarks are the only snarks on 18 vertices.
        lines = [write_graph6(blanusa_snark(2, j).graph.graph) for j in (1, 2)]
        report = run_census("\n".join(lines) + "\n", mode="both")
        assert report.complete
        assert report.to_tsv().splitlines()[1] == "18\t2\t1\t0\t1\t0"
        for line, verdict in zip(lines, report.verdicts):
            g = CubicGraph(parse_graph6(line), require_simple=True)
            assert validate_ppm(g, verdict.witness) is None
            assert classify_ppm(g, verdict.witness) == verdict.best_ppm_class

    @pytest.mark.parametrize("mode", ["PM", "", "all"])
    def test_unknown_mode_refused_before_any_work(self, petersen_g6, monkeypatch, mode):
        monkeypatch.setattr(census, "census_graph", _not_called)
        with pytest.raises(census.CensusConfigError, match="mode must be one of"):
            run_census(petersen_g6 + "\n", mode=mode)

    def test_ppm_pass_skips_perfect_matchings(self, monkeypatch):
        # In mode "both" the PM pass has classified every PM before the PPM
        # pass runs, so the PPM pass classifies only PPMs with a claw.
        pm_pass = [None]
        calls = []
        enumerate_ppms, classify_ppm = census.enumerate_ppms, census.classify_ppm

        def enumerated(g, perfect_matchings_only=False):
            pm_pass[0] = perfect_matchings_only
            return enumerate_ppms(g, perfect_matchings_only=perfect_matchings_only)

        def classified(g, m):
            calls.append((pm_pass[0], m.is_perfect_matching()))
            return classify_ppm(g, m)

        monkeypatch.setattr(census, "enumerate_ppms", enumerated)
        monkeypatch.setattr(census, "classify_ppm", classified)
        for inst in (petersen(), blanusa_snark(2, 2), flower_snark(5)):
            report = run_census(write_graph6(inst.graph.graph) + "\n", mode="both")
            assert report.verdicts[0].best_ppm_class == ppm.PLANARIZING
        assert (False, True) not in calls
        assert (True, True) in calls and (False, False) in calls

    @pytest.mark.parametrize("mode", census.MODES)
    def test_census_builds_no_quotient(self, monkeypatch, mode):
        # The census classifies from quotient skeletons alone.
        monkeypatch.setattr(ppm, "quotient", _not_called)
        rows = {"pm": "18\t2\t1\t0\t1\t0", "ppm": "18\t2\t0\t0\t0\t0",
                "both": "18\t2\t1\t0\t1\t0"}
        lines = [write_graph6(blanusa_snark(2, j).graph.graph) for j in (1, 2)]
        report = run_census("\n".join(lines) + "\n", mode=mode)
        assert report.complete
        assert report.to_tsv().splitlines()[1] == rows[mode]

    def test_k5_minor_free_only_best_asks_only_planarity(self, monkeypatch):
        # Once the best class is k5_minor_free_only, only planarizing can
        # beat it, so each later PPM takes one planarity verdict and no K5
        # search. The answer and its witness equal a full scan's, on simple
        # connected cubic graphs from the configuration model.
        rng = random.Random(1)
        graphs = []
        while len(graphs) < 300:
            n = rng.choice((12, 14, 16))
            stubs = [v for v in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            mg = Multigraph(n, zip(stubs[::2], stubs[1::2]))
            if mg.is_simple() and mg.is_connected():
                graphs.append(CubicGraph(mg))
        rank = {None: -1, ppm.NEITHER: 0, ppm.K5_MINOR_FREE_ONLY: 1, ppm.PLANARIZING: 2}
        skeleton_only = [0]
        planar_skeleton = census.planar_skeleton

        def counted(adj):
            skeleton_only[0] += 1
            return planar_skeleton(adj)

        monkeypatch.setattr(census, "planar_skeleton", counted)
        for g in graphs:
            for pm_only in (True, False):
                best = witness = None
                for m in enumerate_ppms(g, perfect_matchings_only=pm_only):
                    cls = classify_ppm(g, m)
                    if rank[cls] > rank[best]:
                        best, witness = cls, m
                assert census._best_class(g, pm_only, None) == (best, witness)
        assert skeleton_only[0] >= 10


def _raise_undecided(*args, **kwargs):
    raise KMinorUndecidedError("forced by the test")


def _not_called(*args, **kwargs):
    raise AssertionError("must not be called")


class TestAnalyze:
    def test_petersen_with_designated_ppm(self):
        inst = petersen()
        text = analyze(inst.graph, inst.designated_ppm)
        assert "snark: yes" in text
        assert "planarizing" in text
        assert "CCD found" in text
        assert "CDC verified (5 cycles)" in text

    def test_petersen_with_pm(self):
        inst = petersen()
        pm = next(enumerate_ppms(inst.graph, perfect_matchings_only=True))
        text = analyze(inst.graph, pm)
        assert "classification: neither" in text

    def test_graph_only(self):
        text = analyze(CubicGraph(named.cube()))
        assert "snark: no" in text

    def test_connectivity_line(self):
        from snarkppm import cyclic_cuts_up_to, goldberg_snark

        g5 = goldberg_snark(5).graph
        assert len(list(cyclic_cuts_up_to(g5.graph, 5))) == 16
        for g, level in [
            (CubicGraph(named.prism()), 3),
            (CubicGraph(named.cube()), 4),
            (petersen().graph, 5),
            (g5, 5),
            (flower_snark(7).graph, 6),
        ]:
            line = f"cyclically {level}-edge-connected (checked up to 6)"
            assert line in analyze(g).splitlines()


class TestCli:
    def test_gen_petersen_stdout(self, capsys):
        assert main(["gen", "--family", "petersen"]) == 0
        out = capsys.readouterr().out
        assert "CLAW 0 1 4 5" in out

    def test_gen_writes_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "j5")
        assert main(["gen", "--family", "flower", "--k", "5", "--out", prefix]) == 0
        assert os.path.exists(prefix + ".g6")
        assert os.path.exists(prefix + ".ppm")

    def test_analyze_subcommand(self, tmp_path, capsys):
        prefix = str(tmp_path / "pet")
        main(["gen", "--family", "petersen", "--out", prefix])
        capsys.readouterr()
        assert main(["analyze", "--graph", prefix + ".g6", "--ppm", prefix + ".ppm"]) == 0
        out = capsys.readouterr().out
        assert "planarizing" in out

    def test_analyze_invalid_ppm_is_reported(self, tmp_path, capsys):
        # A PPM that parses but is no PPM is a finding of the report, not
        # an input error.
        prefix = str(tmp_path / "pet")
        main(["gen", "--family", "petersen", "--out", prefix])
        capsys.readouterr()
        bad = tmp_path / "bad.ppm"
        bad.write_text("K2 0 1\nK2 0 4\n")
        assert main(["analyze", "--graph", prefix + ".g6", "--ppm", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "pseudo-matching INVALID: vertex 0 in two components\n" in out

    def test_census_details_subcommand(self, tmp_path, capsys, petersen_g6):
        b18 = write_graph6(blanusa_snark(2, 1).graph.graph)
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n" + b18 + "\n")
        details = tmp_path / "details"
        code = main(
            ["census", "--input", str(src), "--mode", "both", "--details", str(details)]
        )
        assert code == 0
        capsys.readouterr()
        lines = {10: petersen_g6, 18: b18}
        for n, line in lines.items():
            tsv = (details / f"order{n}.tsv").read_text()
            assert tsv == f"{line}\t{ppm.PLANARIZING}\n"
        ppm_files = sorted(p.name for p in details.glob("order*_graph*.ppm"))
        assert len(ppm_files) == 2, ppm_files
        for name in ppm_files:
            line = lines[int(name[len("order"):name.index("_")])]
            g = CubicGraph(parse_graph6(line), require_simple=True)
            m = parse_ppm(g.graph, (details / name).read_text())
            assert validate_ppm(g, m) is None
            assert classify_ppm(g, m) == ppm.PLANARIZING

    def test_census_subcommand(self, tmp_path, capsys, petersen_g6):
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n")
        out = tmp_path / "report.tsv"
        code = main(
            ["census", "--input", str(src), "--mode", "both", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].split("\t") == [
            "n", "s", "no_planarizing_pm", "no_planarizing_ppm",
            "no_k5_free_pm", "no_k5_free_ppm",
        ]
        assert text.splitlines()[1].split("\t") == ["10", "1", "1", "0", "1", "0"]

    def test_construct_subcommand(self, tmp_path, capsys):
        prefix = str(tmp_path / "pet")
        main(["gen", "--family", "petersen", "--out", prefix])
        capsys.readouterr()
        star = tmp_path / "star.g6"
        ppm = tmp_path / "star.ppm"
        cdc = tmp_path / "star.cyc"
        code = main(
            [
                "construct", "--input", prefix + ".g6", "--ppm", prefix + ".ppm",
                "--emit-star", str(star), "--emit-ppm", str(ppm),
                "--emit-cdc", str(cdc),
            ]
        )
        assert code == 0
        g = parse_graph6(star.read_text().strip())
        assert g.n > 10 and (g.n - 10) % 8 == 0
        assert ppm.read_text().count("CLAW") >= 1
        assert len(cdc.read_text().splitlines()) >= 4

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("not graph6 at all\xff\n")
        assert main(["analyze", "--graph", str(bad)]) == 1

    @pytest.mark.parametrize(
        "command, flag", [("analyze", "--graph"), ("construct", "--input")]
    )
    @pytest.mark.parametrize("line", ["K2 x 1", "K2 200 0", "CLAW 999 1 2 3"])
    def test_bad_ppm_exit_code(self, tmp_path, capsys, command, flag, line):
        prefix = str(tmp_path / "pet")
        main(["gen", "--family", "petersen", "--out", prefix])
        capsys.readouterr()
        bad = tmp_path / "bad.ppm"
        bad.write_text(line + "\n")
        assert main([command, flag, prefix + ".g6", "--ppm", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ppm line 1: ")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "bad, reason",
        [("abc", "expected 94 data bytes"), ("Ch", "vertex 0 has degree 1")],
    )
    def test_census_names_bad_line(
        self, tmp_path, capsys, petersen_g6, workers, bad, reason
    ):
        # Line numbers count blank lines, as in the non-snark note.
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n\n" + bad + "\n")
        code = main(["census", "--input", str(src), "--workers", str(workers)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: line 3: {reason}")

    def test_incomplete_census_exit_code(self, tmp_path, capsys, petersen_g6, monkeypatch):
        monkeypatch.setenv("SNARKPPM_TIMEOUT_MS", "0")
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n")
        assert main(["census", "--input", str(src), "--mode", "both"]) == 2

    @pytest.mark.parametrize(
        "command, flag", [("analyze", "--graph"), ("construct", "--input")]
    )
    def test_undecided_k5_search_exit_code(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        prefix = str(tmp_path / "pet")
        main(["gen", "--family", "petersen", "--out", prefix])
        capsys.readouterr()
        monkeypatch.setattr(ppm, "has_k5_minor", _raise_undecided)
        assert main([command, flag, prefix + ".g6", "--ppm", prefix + ".ppm"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("undecided: forced by the test")
        assert "Traceback" not in err

    @pytest.mark.parametrize("count, listed", [(2, "[1, 2])"), (10, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])"),
                                               (11, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]...)")])
    def test_census_notes_non_snarks(self, tmp_path, capsys, count, listed):
        # "..." only when the list shown leaves some failed lines out.
        src = tmp_path / "list.g6"
        src.write_text((write_graph6(named.k4()) + "\n") * count)
        assert main(["census", "--input", str(src)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"note: {count} input graphs fail the snark test (lines {listed}"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, petersen_g6, workers):
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n")
        assert main(["census", "--input", str(src), "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: workers must be at least 1, got {workers}")

    def test_at_most_one_worker_per_graph(self, petersen_g6, monkeypatch):
        # A fake pool records the size asked for and runs the jobs here.
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, jobs):
                return [fn(*job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        one = petersen_g6 + "\n"
        two = write_graph6(named.cube()) + "\n" + one
        assert run_census(one, workers=64).to_tsv() == run_census(one).to_tsv()
        assert sizes == []
        assert run_census(two, workers=64).to_tsv() == run_census(two).to_tsv()
        assert sizes == [2]

    @pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
    def test_bad_timeout_exit_code(
        self, tmp_path, capsys, petersen_g6, monkeypatch, value
    ):
        monkeypatch.setenv("SNARKPPM_TIMEOUT_MS", value)
        src = tmp_path / "list.g6"
        src.write_text(petersen_g6 + "\n")
        assert main(["census", "--input", str(src), "--mode", "both"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SNARKPPM_TIMEOUT_MS")
        assert "Traceback" not in err

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "snarkppm.cli", "gen", "--family", "petersen"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "CLAW" in proc.stdout
