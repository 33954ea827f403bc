"""Command-line interface: gen, analyze, census, construct."""

from __future__ import annotations

import argparse
import sys

from .census import MODES, CensusConfigError, analyze, run_census, write_details
from .cycles import CycleSet, find_ccd, cdc_from_ccd
from .constructions import star_construction
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .minors import KMinorUndecidedError
from .multigraph import CubicGraph, GraphError
from .ppm import contract, parse_ppm, write_ppm
from . import families


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="snarkppm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family member plus its PPM")
    p_gen.add_argument(
        "--family",
        required=True,
        choices=["petersen", "blanusa", "flower", "goldberg"],
    )
    p_gen.add_argument("--n", type=int, default=1, help="blanusa block count")
    p_gen.add_argument("--k", type=int, default=5, help="flower/goldberg size")
    p_gen.add_argument("--j", type=int, default=1, help="blanusa variant (1 or 2)")
    p_gen.add_argument("--out", help="prefix for .g6 and .ppm files")

    p_an = sub.add_parser("analyze", help="classify a graph and optional PPM")
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--ppm")

    p_cs = sub.add_parser("census", help="Table-style census over a graph6 list")
    p_cs.add_argument("--input", required=True)
    p_cs.add_argument("--mode", choices=MODES, default="both")
    p_cs.add_argument("--workers", type=int, default=1)
    p_cs.add_argument("--out", help="write the TSV report here (default stdout)")
    p_cs.add_argument("--details", help="directory for per-order detail files")

    p_ct = sub.add_parser("construct", help="run the crossing-replacement build")
    p_ct.add_argument("--input", required=True)
    p_ct.add_argument("--ppm", required=True)
    p_ct.add_argument("--emit-star")
    p_ct.add_argument("--emit-ppm")
    p_ct.add_argument("--emit-cdc")

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _gen(args)
        if args.command == "analyze":
            return _analyze(args)
        if args.command == "census":
            return _census(args)
        if args.command == "construct":
            return _construct(args)
    except (
        GraphError, Graph6Error, CensusConfigError, OSError, UnicodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KMinorUndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    return 0


def _instance(args) -> families.FamilyInstance:
    if args.family == "petersen":
        return families.petersen()
    if args.family == "blanusa":
        return families.blanusa_snark(args.n, args.j)
    if args.family == "flower":
        return families.flower_snark(args.k)
    return families.goldberg_snark(args.k)


def _gen(args) -> int:
    inst = _instance(args)
    g6 = write_graph6(inst.graph.graph)
    ppm_text = write_ppm(inst.graph.graph, inst.designated_ppm)
    if args.out:
        with open(args.out + ".g6", "w", encoding="ascii") as fh:
            fh.write(g6 + "\n")
        with open(args.out + ".ppm", "w", encoding="ascii") as fh:
            fh.write(ppm_text)
        print(f"wrote {args.out}.g6 and {args.out}.ppm ({inst.family_tag})")
    else:
        print(g6)
        print(ppm_text, end="")
    return 0


def _read_graph(path: str) -> CubicGraph:
    with open(path, encoding="ascii") as fh:
        line = fh.readline()
    return CubicGraph(parse_graph6(line), require_simple=True)


def _analyze(args) -> int:
    g = _read_graph(args.graph)
    m = None
    if args.ppm:
        with open(args.ppm, encoding="ascii") as fh:
            m = parse_ppm(g.graph, fh.read())
    print(analyze(g, m), end="")
    return 0


def _census(args) -> int:
    with open(args.input, encoding="ascii") as fh:
        text = fh.read()
    report = run_census(text, mode=args.mode, workers=args.workers)
    tsv = report.to_tsv()
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(tsv)
    else:
        print(tsv, end="")
    if report.non_snarks:
        more = "..." if len(report.non_snarks) > 10 else ""
        print(
            f"note: {len(report.non_snarks)} input graphs fail the snark test"
            f" (lines {report.non_snarks[:10]}{more})",
            file=sys.stderr,
        )
    if report.min_girth is not None:
        print(f"dataset minimum girth: {report.min_girth}", file=sys.stderr)
    if args.details:
        write_details(report, args.details)
    return 0 if report.complete else 2


def _construct(args) -> int:
    g = _read_graph(args.input)
    with open(args.ppm, encoding="ascii") as fh:
        m = parse_ppm(g.graph, fh.read())
    star = star_construction(g, m)
    print(
        f"star: {star.graph.n} vertices"
        f" ({len(star.records)} crossings replaced)"
    )
    if args.emit_star:
        with open(args.emit_star, "w", encoding="ascii") as fh:
            fh.write(write_graph6(star.graph.graph) + "\n")
    if args.emit_ppm:
        with open(args.emit_ppm, "w", encoding="ascii") as fh:
            fh.write(write_ppm(star.graph.graph, star.ppm))
    if args.emit_cdc:
        ccd = find_ccd(contract(star.graph, star.ppm))
        if ccd is None:
            print("error: no compatible cycle decomposition", file=sys.stderr)
            return 1
        cdc = cdc_from_ccd(star.graph, star.ppm, ccd)
        with open(args.emit_cdc, "w", encoding="ascii") as fh:
            fh.write(write_cycles(cdc))
    return 0


def write_cycles(s: CycleSet) -> str:
    """One cycle per line, as a vertex sequence."""
    return "\n".join(" ".join(str(v) for v in c.vertices) for c in s.cycles) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())
