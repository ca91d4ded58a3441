"""Spans around the benchmark's calls into dicycles, and the per-layer
metrics derived from them.

The benchmark calls every public dicycles function through ``call``; the
program itself is not instrumented.  A :class:`Tracer` records one span
per call (name, start, end, parent, job id) in memory; :class:`NullTracer`
has the same interface and records nothing, for the untraced runs that
give the end-to-end metrics.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

PASS = "bench.pass"
JOB = "bench.job"
CHECK = "bench.check"

# Public functions whose per-layer metrics BENCHMARK.json lists, with the
# work count behind each rate metric.
LAYERS = (
    "counting.count_paths",
    "counting.count_cycle_copies",
    "counting.check_neighbor_condition",
    "counting.clear",
    "counting.count_closed_walks",
    "counting.has_closed_walk",
    "counting.has_cycle_subgraph",
    "spectral.spectrum",
    "pattern_walks.density_monomials",
    "density.optimize_weights",
    "density.threshold_density",
    "search.exhaustive_extremal",
    "search.local_search_extremal",
    "numtheory.representable",
    "constructions.generate",
    "graphs.read_graph",
    "cli.main",
)
RATES = {
    "counting.count_paths": "paths_per_s",
    "counting.count_cycle_copies": "copies_per_s",
    "density.threshold_density": "cells_per_s",
    "search.exhaustive_extremal": "states_per_s",
    "search.local_search_extremal": "moves_per_s",
    "constructions.generate": "arcs_per_s",
}
MODULES = ("counting", "spectral", "pattern_walks", "density", "search",
           "numtheory", "constructions", "graphs", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: Optional[str]
    ok: bool
    work: Optional[float] = None


class NullTracer:
    """Calls straight through; used for every untraced pass."""

    job: Optional[str] = None

    def call(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    """Keeps every span in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job: Optional[str] = None

    def _open(self, name: str, job) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, job, False))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, ok: bool, work=None) -> None:
        span = self.spans[idx]
        span.end = perf_counter()
        span.ok = ok
        span.work = work
        self._stack.pop()

    def call(self, name, fn, *args, work=None, **kwargs):
        """Run ``fn`` inside a span; ``work`` (a number, or a function of
        the result) is the work count behind the layer's rate metric."""
        idx = self._open(name, self.job)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, False)
            raise
        self._close(idx, True, work(result) if callable(work) else work)
        return result

    @contextmanager
    def span(self, name):
        idx = self._open(name, self.job)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job, s.ok, s.work] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "ok", "work"],
                       "spans": rows}, fh)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    Self time is a span's duration minus that of its direct children (the
    calls run one at a time, so children never overlap).  ``busy_s`` and
    ``calls`` are medians over passes; ``share`` is busy time over the
    median traced pass; rates divide total work by total span time.
    """
    child_time = [0.0] * len(spans)
    pass_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s.name == PASS:
            pass_of[i] = i
        elif s.parent >= 0:
            pass_of[i] = pass_of[s.parent]
            child_time[s.parent] += s.end - s.start
    passes = [i for i, s in enumerate(spans) if s.name == PASS]
    if not passes:
        raise ValueError("no traced pass")
    wall = statistics.median(spans[i].end - spans[i].start for i in passes)

    per_pass: dict[str, dict[int, list[float]]] = {}  # name -> pass -> [calls, busy, failed]
    work: dict[str, list[float]] = {}  # name -> [units, seconds]
    for i, s in enumerate(spans):
        if s.name == PASS:
            continue
        row = per_pass.setdefault(s.name, {}).setdefault(pass_of[i], [0, 0.0, 0])
        row[0] += 1
        row[1] += (s.end - s.start) - child_time[i]
        row[2] += 0 if s.ok else 1
        if s.work is not None:
            acc = work.setdefault(s.name, [0.0, 0.0])
            acc[0] += s.work
            acc[1] += s.end - s.start

    def median_over_passes(name: str, col: int) -> float:
        rows = per_pass.get(name, {})
        return statistics.median(rows[p][col] if p in rows else 0 for p in passes)

    metrics: dict[str, float] = {}
    for name in LAYERS:
        busy = median_over_passes(name, 1)
        metrics[f"{name}.calls"] = median_over_passes(name, 0)
        metrics[f"{name}.busy_s"] = busy
        metrics[f"{name}.share"] = busy / wall
        metrics[f"{name}.failed"] = median_over_passes(name, 2)
        if name in RATES:
            units, seconds = work.get(name, (0.0, 0.0))
            metrics[f"{name}.{RATES[name]}"] = units / seconds if seconds else 0.0
    for module in MODULES:
        busy = statistics.median(
            sum(rows[p][1] for name, rows in per_pass.items()
                if name.startswith(module + ".") and p in rows)
            for p in passes)
        metrics[f"{module}.share"] = busy / wall
    metrics[f"{CHECK}.busy_s"] = median_over_passes(CHECK, 1)
    metrics[f"{CHECK}.share"] = metrics[f"{CHECK}.busy_s"] / wall
    return metrics
