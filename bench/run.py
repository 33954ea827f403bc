"""The snarkppm benchmark: one closed-loop client, one process, workers=1.

    python3 bench/run.py --workload census_snarks --seed 1 --seconds 40 --trace 0

Each run builds its inputs from ``--seed`` (seeded relabelings of family
members, see ``workloads.py``), then runs whole rounds of the workload's mix
for about ``--seconds`` seconds: a round is started only while the mean
round so far still fits. Every op's answer is checked; an exception or a
wrong answer counts as failed and the run goes on. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Times are reported at reference speed. On a shared 2-vCPU VM the host's
speed was seen to drift by up to half over tens of seconds, so a fixed
pure-Python calibration loop (``reference_loop``) is timed every 0.25 s of
wall time, inside ops as well as between them, and each stretch of op time
is scaled by ``REF_SECONDS`` over the loop time measured around it. The
loop is benchmark code, so no program change moves it; the calibration
time itself is left out of every op. Raw wall-clock figures are printed on
stderr next to the scaled ones.

``--trace 1`` installs the outside-in tracer (``tracer.py``) and reports
the per-layer metrics instead; spans are written to
``.bench_out/spans_<workload>_<seed>.jsonl`` under the checkout root.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

from tracer import OP, TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 5
SETUP_INPUTS = 640  # inputs built in each set-up repeat, in whole rounds
REF_EVERY = 0.25  # wall seconds between calibration samples
REF_SECONDS = 0.015  # calibration loop time that defines reference speed


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the library's: bitmask graph
    search, list and dict traffic. About 15 ms at reference speed."""
    rng = random.Random(5)
    n = 60
    adj = [0] * n
    for _ in range(150):
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    total = 0
    for _ in range(11):
        for s in range(n):
            seen = 1 << s
            stack = [s]
            while stack:
                rest = adj[stack.pop()] & ~seen
                while rest:
                    low = rest & -rest
                    seen |= low
                    stack.append(low.bit_length() - 1)
                    rest ^= low
            total += bin(seen).count("1")
        d = {i: (i * 7919) % 101 for i in range(500)}
        total += sum(sorted(d.values())[:10])
    return total


class SpeedGauge:
    """Calibration samples taken every REF_EVERY seconds of wall time.

    A SIGALRM handler runs ``reference_loop`` between two bytecodes of
    whatever is executing, so long ops are sampled inside as well as at
    their ends. ``scaled`` leaves the handler's own time out of an interval
    and converts the rest to reference speed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedGauge":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _loop(self, k: int) -> float:
        return self.ends[k] - self.starts[k]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of [t0, t1] outside calibration samples:
        each stretch between two samples is scaled by REF_SECONDS over the
        mean loop time of those two samples."""
        k = bisect.bisect_right(self.ends, t0) - 1
        last = bisect.bisect_left(self.starts, t1)
        total = 0.0
        at = t0
        while k < last:
            nxt = min(self.starts[k + 1], t1)
            total += (nxt - at) * 2 * REF_SECONDS / (self._loop(k) + self._loop(k + 1))
            k += 1
            at = self.ends[k]
        return total

    def speed(self) -> float:
        """Median host speed over the run, 1.0 being reference speed."""
        return statistics.median(REF_SECONDS / self._loop(k) for k in range(len(self.starts)))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_inputs(workload, sources: dict, seed: int, index: int) -> list:
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    return [(name, workload.make_input(sources[name], rng)) for name in workload.mix]


def build_inputs(workload, seed: int, rounds: int) -> tuple[dict, list]:
    from workloads import SOURCES

    sources = {name: SOURCES[name]() for name in dict.fromkeys(workload.mix)}
    return sources, [round_inputs(workload, sources, seed, r) for r in range(rounds)]


def set_up(workload, seed: int, gauge: SpeedGauge) -> tuple[dict, list, list[tuple[float, float]]]:
    """Build the sources and the first rounds, SETUP_REPEATS times, each
    between two calibration samples; return the last build and the
    (start, end) of every repeat."""
    rounds_wanted = -(-SETUP_INPUTS // len(workload.mix))
    intervals = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        t0 = time.perf_counter()
        sources, rounds = build_inputs(workload, seed, rounds_wanted)
        intervals.append((t0, time.perf_counter()))
    gauge.sample()
    return sources, rounds, intervals


def run_loop(workload, seed: int, seconds: float, sources, rounds, tracer=None):
    """Closed loop over whole rounds. Returns per-op records
    ``(source, start, end, error)`` with error None for a checked answer."""
    records = []
    round_times: list[float] = []
    loop_start = time.perf_counter()
    while not round_times or (
        time.perf_counter() - loop_start + statistics.mean(round_times) <= seconds
    ):
        index = len(round_times)
        inputs = rounds[index] if index < len(rounds) else round_inputs(
            workload, sources, seed, index
        )
        round_start = time.perf_counter()
        for name, inp in inputs:
            span = tracer.begin_op(len(records)) if tracer else None
            t0 = time.perf_counter()
            error = None
            try:
                result = workload.op(inp)
            except Exception as exc:  # every failure is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(span)
            if error is None:
                try:
                    error = workload.check(name, inp, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            records.append((name, t0, t1, error))
        round_times.append(time.perf_counter() - round_start)
    return records


def end_to_end(records, gauge, setup) -> tuple[dict, dict]:
    raw = [t1 - t0 for _, t0, t1, _ in records]
    scaled = [gauge.scaled(t0, t1) for _, t0, t1, _ in records]
    metrics = {
        "setup_s": (statistics.median(gauge.scaled(t0, t1) for t0, t1 in setup), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_s.p50": (statistics.median(scaled), "s"),
        "op_s.p90": (percentile(scaled, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_metrics = {
        "ops_per_s": len(raw) / sum(raw),
        "op_s.p50": statistics.median(raw),
        "op_s.p90": percentile(raw, 90),
    }
    return metrics, raw_metrics


def layer_metrics(tracer, gauge, ops: int, ops_per_s: float) -> dict:
    self_s = tracer.self_times(gauge.scaled)
    metrics = {}
    for short, func in TARGETS:
        name = f"{short}.{func}"
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "1/op")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
    classify = tracer.calls["ppm.classify_ppm"]
    colorings = tracer.calls["coloring.find_3_edge_coloring"]
    stars = tracer.calls["constructions.star_construction"]
    metrics["ppm.enumerate_ppms.yielded"] = (tracer.yielded["ppm.enumerate_ppms"] / ops, "1/op")
    metrics["ppm.classify_ppm.per_graph"] = (classify / ops, "1/op")
    metrics["minors.has_k5_minor.failed"] = (tracer.failed["minors.has_k5_minor"], "count")
    metrics["minors.has_k5_minor.per_classify"] = (
        tracer.calls["minors.has_k5_minor"] / classify if classify else 0.0, "ratio"
    )
    metrics["coloring.find_3_edge_coloring.found_ratio"] = (
        tracer.found["coloring.find_3_edge_coloring"] / colorings if colorings else 0.0, "ratio"
    )
    metrics["drawing.draw_m_avoiding.per_star"] = (
        tracer.calls["drawing.draw_m_avoiding"] / stars if stars else 0.0, "ratio"
    )
    metrics["op.self_s"] = (self_s.get(OP, 0.0) / ops, "s/op")
    metrics["traced.ops_per_s"] = (ops_per_s, "1/s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "snarkppm", "__init__.py")):
        print(f"bench: no snarkppm sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    with SpeedGauge() as gauge:
        sources, rounds, setup = set_up(workload, args.seed, gauge)
        with tracer or contextlib.nullcontext():
            records = run_loop(workload, args.seed, args.seconds, sources, rounds, tracer)

    failures = [(name, error) for name, _, _, error in records if error is not None]
    for name, error in failures[:10]:
        print(f"bench: FAILED {name}: {error}", file=sys.stderr)
    metrics, raw = end_to_end(records, gauge, setup)
    print(
        f"bench: {workload.name} seed={args.seed} trace={args.trace} ops={len(records)} "
        f"failed={len(failures)} host speed={gauge.speed():.3f} "
        + " ".join(f"{k}={v[0]:.4g}" for k, v in metrics.items())
        + " raw: " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()),
        file=sys.stderr,
    )
    if tracer:
        metrics = layer_metrics(tracer, gauge, len(records), metrics["ops_per_s"][0])
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans_{workload.name}_{args.seed}.jsonl"))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
