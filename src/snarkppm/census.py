"""Batch census over graph6 snark lists and the single-graph analyzer."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .coloring import check_snark_input, find_3_edge_coloring, is_snark
from .connectivity import cyclic_cuts_up_to
from .cycles import cdc_from_ccd, find_ccd, is_dominating, is_stable
from .graph6 import parse_graph6
from .minors import KMinorUndecidedError, planar_skeleton
from .multigraph import CubicGraph, GraphError, girth
from .ppm import (
    K5_MINOR_FREE_ONLY,
    NEITHER,
    PLANARIZING,
    PseudoMatching,
    classify_ppm,
    complement_cycles,
    contract,
    enumerate_ppms,
    quotient_skeleton,
    validate_ppm,
    write_ppm,
)

_CLASS_RANK = {NEITHER: 0, K5_MINOR_FREE_ONLY: 1, PLANARIZING: 2}
MODES = ("pm", "ppm", "both")

TIMEOUT_ENV = "SNARKPPM_TIMEOUT_MS"


class CensusTimeout(Exception):
    pass


class CensusConfigError(ValueError):
    """A census setting is malformed: the budget read from the environment,
    the worker count, or the mode."""


@dataclass
class CensusRow:
    n: int
    s: int = 0
    no_planarizing_pm: int = 0
    no_planarizing_ppm: int = 0
    no_k5_free_pm: int = 0
    no_k5_free_ppm: int = 0

    def check_invariants(self) -> None:
        ok = (
            self.no_planarizing_ppm <= self.no_planarizing_pm <= self.s
            and self.no_k5_free_ppm <= self.no_k5_free_pm <= self.s
            and self.no_k5_free_pm <= self.no_planarizing_pm
            and self.no_k5_free_ppm <= self.no_planarizing_ppm
        )
        if not ok:
            raise GraphError(f"census row violates its invariants: {self}")


@dataclass
class GraphVerdict:
    index: int
    graph6: str
    n: int
    is_snark: bool
    girth: int
    best_pm_class: str | None = None
    best_ppm_class: str | None = None
    witness: PseudoMatching | None = None
    undecided: bool = False


@dataclass
class CensusReport:
    rows: list[CensusRow]
    verdicts: list[GraphVerdict]
    non_snarks: list[int]  # indices of graphs that fail the snark test
    min_girth: int | None
    complete: bool

    def to_tsv(self) -> str:
        cols = [
            "n",
            "s",
            "no_planarizing_pm",
            "no_planarizing_ppm",
            "no_k5_free_pm",
            "no_k5_free_ppm",
        ]
        lines = ["\t".join(cols)]
        for row in self.rows:
            lines.append(
                "\t".join(
                    str(getattr(row, c)) for c in cols
                )
            )
        return "\n".join(lines) + "\n"


def _best_class(
    g: CubicGraph,
    perfect_matchings_only: bool,
    deadline: float | None,
    start: tuple[str | None, PseudoMatching | None] = (None, None),
) -> tuple[str | None, PseudoMatching | None]:
    """Best class over the PPM stream, raised from ``start``, and the first
    PPM that reached it; stops at planarizing.

    A ``start`` with a class is the PM pass's result, so the perfect
    matchings are passed over: that pass has classified them all into
    ``start``, and only a class strictly above the best so far replaces it,
    so none of them would. A snark has a perfect matching (Petersen's
    theorem), so its PM pass always ends with a class.
    """
    best, witness = start
    # n = 2 * (K2 count) + 4 * (claw count): a PPM with n/2 components has
    # no claw.
    pm_size = g.n // 2 if best is not None else -1
    for m in enumerate_ppms(g, perfect_matchings_only=perfect_matchings_only):
        if len(m.components) == pm_size:
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise CensusTimeout
        if best == K5_MINOR_FREE_ONLY:
            # Only a planarizing PPM can do better: skip the K5-minor test.
            if not planar_skeleton(quotient_skeleton(g, m)):
                continue
            cls = PLANARIZING
        else:
            cls = classify_ppm(g, m)
        if best is None or _CLASS_RANK[cls] > _CLASS_RANK[best]:
            best, witness = cls, m
        if best == PLANARIZING:
            break
    return best, witness


def _timeout_ms() -> int | None:
    """The per-graph budget from ``SNARKPPM_TIMEOUT_MS``, or None if unset.

    Raises CensusConfigError unless the value is a non-negative integer.
    """
    raw = os.environ.get(TIMEOUT_ENV)
    if not raw:
        return None
    if not raw.isdecimal():
        raise CensusConfigError(
            f"{TIMEOUT_ENV} must be a non-negative integer (milliseconds),"
            f" got {raw!r}"
        )
    return int(raw)


def census_graph(
    index: int, line: str, mode: str, timeout: int | None = None
) -> GraphVerdict:
    """Verdict for one graph6 line; ``timeout`` is its budget in ms, from
    before the line is parsed, so the snark test counts against it."""
    deadline = time.monotonic() + timeout / 1000.0 if timeout is not None else None
    g6 = line.strip()
    try:
        mg = parse_graph6(g6)
        g = CubicGraph(mg, require_simple=True)
        snark = is_snark(g)
    except GraphError as exc:
        raise type(exc)(f"line {index}: {exc}") from None
    verdict = GraphVerdict(index, g6, mg.n, snark, girth(mg))
    if not verdict.is_snark:
        return verdict

    best: tuple[str | None, PseudoMatching | None] = (None, None)
    try:
        if mode in ("pm", "both"):
            best = _best_class(g, True, deadline)
            verdict.best_pm_class = best[0]
        if mode in ("ppm", "both"):
            if best[0] != PLANARIZING:
                best = _best_class(g, False, deadline, best)
            verdict.best_ppm_class = best[0]
    except (CensusTimeout, KMinorUndecidedError):
        verdict.undecided = True
        return verdict
    verdict.witness = best[1]
    return verdict


def run_census(text: str, mode: str = "both", workers: int = 1) -> CensusReport:
    """Census of the graph6 lines of text, on at most ``workers`` processes
    and never more than one per graph; raises CensusConfigError, before any
    work, if mode is not one of ``MODES`` or workers is below 1."""
    if mode not in MODES:
        raise CensusConfigError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    if workers < 1:
        raise CensusConfigError(f"workers must be at least 1, got {workers}")
    timeout = _timeout_ms()
    jobs = [
        (i, ln, mode, timeout)
        for i, ln in enumerate(text.splitlines(), start=1)
        if ln.strip()
    ]
    workers = min(workers, len(jobs))
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            verdicts = pool.starmap(census_graph, jobs)
    else:
        verdicts = [census_graph(*job) for job in jobs]

    rows: dict[int, CensusRow] = {}
    non_snarks = []
    complete = True
    for v in verdicts:
        if not v.is_snark:
            non_snarks.append(v.index)
            continue
        if v.undecided:
            complete = False
            continue
        row = rows.setdefault(v.n, CensusRow(v.n))
        row.s += 1
        if mode in ("pm", "both"):
            if v.best_pm_class != PLANARIZING:
                row.no_planarizing_pm += 1
            if v.best_pm_class == NEITHER or v.best_pm_class is None:
                row.no_k5_free_pm += 1
        if mode in ("ppm", "both"):
            if v.best_ppm_class != PLANARIZING:
                row.no_planarizing_ppm += 1
            if v.best_ppm_class == NEITHER or v.best_ppm_class is None:
                row.no_k5_free_ppm += 1
    ordered = [rows[n] for n in sorted(rows)]
    if mode == "both":
        for row in ordered:
            row.check_invariants()
    min_girth = min((v.girth for v in verdicts), default=None)
    return CensusReport(ordered, verdicts, non_snarks, min_girth, complete)


def write_details(report: CensusReport, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    by_order: dict[int, list[GraphVerdict]] = {}
    for v in report.verdicts:
        if v.is_snark and not v.undecided:
            by_order.setdefault(v.n, []).append(v)
    for n, verdicts in sorted(by_order.items()):
        lines = []
        for v in verdicts:
            cls = v.best_ppm_class or v.best_pm_class or "unknown"
            lines.append(f"{v.graph6}\t{cls}")
            if v.witness is not None:
                path = os.path.join(directory, f"order{n}_graph{v.index}.ppm")
                with open(path, "w", encoding="ascii") as fh:
                    fh.write(write_ppm(parse_graph6(v.graph6), v.witness))
        with open(
            os.path.join(directory, f"order{n}.tsv"), "w", encoding="ascii"
        ) as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Single-graph analyzer
# ---------------------------------------------------------------------------


def analyze(g: CubicGraph, m: PseudoMatching | None = None) -> str:
    """Human-readable report: snark status, cyclic connectivity, and, with a
    pseudo-matching, its classification and the CCD/CDC pipeline results."""
    out = [f"vertices: {g.n}, edges: {g.m}"]
    check_snark_input(g)
    # Cuts come out in nondecreasing size, so the first one sets the level.
    cut = next(cyclic_cuts_up_to(g.graph, 5), None)
    level = 6 if cut is None else len(cut)
    colored = find_3_edge_coloring(g)
    out.append(f"snark: {'yes' if level >= 4 and colored is None else 'no'}")
    out.append(f"cyclically {level}-edge-connected (checked up to 6)")
    out.append(f"3-edge-colorable: {'yes' if colored else 'no'}")
    if m is None:
        return "\n".join(out) + "\n"

    bad = validate_ppm(g, m)
    if bad is not None:
        out.append(f"pseudo-matching INVALID: {bad.message}")
        return "\n".join(out) + "\n"
    out.append(
        f"pseudo-matching: {len(m.components)} components,"
        f" {m.claw_count()} claws"
    )
    out.append(f"classification: {classify_ppm(g, m)}")
    cycles = complement_cycles(g, m)
    out.append(
        "complement cycles: "
        + ", ".join(f"length {len(c)}" for c in cycles)
    )
    for cyc in cycles:
        if is_dominating(g, set(cyc.vertices)):
            out.append(
                f"  cycle of length {len(cyc)} is dominating;"
                f" stable: {'yes' if is_stable(g, cyc) else 'no'}"
            )
    cg = contract(g, m)
    out.append(
        f"quotient: {cg.graph.n} vertices, {cg.graph.m} edges,"
        f" degrees {sorted(set(cg.graph.degrees()))}"
    )
    ccd = find_ccd(cg)
    if ccd is None:
        out.append("CCD: none")
    else:
        out.append(f"CCD found ({len(ccd.cycles)} cycles)")
        # cdc_from_ccd verifies the cover and raises if it is not one.
        cdc = cdc_from_ccd(g, m, ccd)
        out.append(f"CDC verified ({len(cdc.cycles)} cycles)")
    return "\n".join(out) + "\n"
