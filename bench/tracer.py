"""Outside-in layer tracing for the benchmark.

The tracer replaces a library function by a wrapper at every name the
callers look it up by: each ``snarkppm`` module whose namespace binds the
original object gets the wrapper under the same attribute name, so
intra-package calls (``census`` calling ``is_snark``, ``coloring`` calling
``find_3_edge_coloring`` from ``is_snark``) are seen too. Nothing under
``src/`` is changed; ``uninstall`` puts every original back.

A span is recorded only while an op is open, so the benchmark's own answer
checks, which call the same functions, do not count toward the layers.
Spans stay in memory as ``[name, start, end, parent, op]`` lists and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run; the per-layer metrics
# in BENCHMARK.json are named ``<module>.<function>.<stat>`` after them.
TARGETS = (
    ("census", "census_graph"),
    ("census", "analyze"),
    ("graph6", "parse_graph6"),
    ("ppm", "enumerate_ppms"),
    ("ppm", "classify_ppm"),
    ("ppm", "contract"),
    ("minors", "is_planar"),
    ("minors", "has_k5_minor"),
    ("coloring", "is_snark"),
    ("coloring", "find_3_edge_coloring"),
    ("connectivity", "cyclic_edge_connectivity_at_least"),
    ("cycles", "find_ccd"),
    ("cycles", "cdc_from_ccd"),
    ("cycles", "verify_cycle_set"),
    ("drawing", "draw_m_avoiding"),
    ("constructions", "star_construction"),
    ("constructions", "extend_cdc"),
    ("canonical", "are_isomorphic"),
)

PACKAGE = "snarkppm"
OP = "op"

NAME, START, END, PARENT, OP_ID = range(5)


class Tracer:
    """Wraps the TARGETS, records spans per op, and restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.found: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for short, func in TARGETS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{short}"), func)
            wrapper = self._wrap(f"{short}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def sites(self) -> list[tuple[str, str]]:
        """(module, attribute) of every name currently wrapped."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self._open(OP)

    def end_op(self, index: int) -> None:
        self._close(index)
        self._op = None

    def _wrap(self, name: str, original):
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                if tracer._op is None:
                    yield from original(*args, **kwargs)
                    return
                tracer.calls[name] += 1
                it = original(*args, **kwargs)
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(index)
                        return
                    except BaseException:
                        tracer._close(index)
                        tracer.failed[name] += 1
                        raise
                    tracer._close(index)
                    tracer.yielded[name] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return original(*args, **kwargs)
            tracer.calls[name] += 1
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                tracer._close(index)
            if result is not None:
                tracer.found[name] += 1
            return result

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self, measure=lambda start, end: end - start) -> dict[str, float]:
        """Per span name: the sum over its spans of ``measure`` of the span
        minus ``measure`` of the parts its child spans cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(i)
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            start, end = span[START], span[END]
            own = measure(start, end)
            cursor = start
            for c in sorted(children[i], key=lambda j: self.spans[j][START]):
                lo = max(self.spans[c][START], cursor)
                hi = min(self.spans[c][END], end)
                if hi > lo:
                    own -= measure(lo, hi)
                    cursor = hi
            out[span[NAME]] += own
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP_ID],
                        }
                    )
                    + "\n"
                )
