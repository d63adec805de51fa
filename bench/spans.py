"""In-memory spans recorded around calls into the sumdisc modules.

A span is (id, parent id, name, start ns, end ns); spans of one process
share the tracer's run id.  Nothing here changes the library: ``install``
replaces module attributes with timing wrappers in the process that traces,
so it must only be called in a fresh worker process.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


def spans_path(workload: str) -> Path:
    """The span file of a workload: the traced repetitions of its latest
    traced run, appended by the workers and cleared by run.py."""
    return OUT_DIR / f"{workload}.spans.jsonl"

# (module attribute the caller looks up, span name).  The attribute is the
# name under which the *calling* module refers to the function, so calls
# made inside the library are timed as well as calls from the benchmark.
PATCHES = (
    ("certifier", "certify", "certifier.certify"),
    ("certifier", "select_delta1", "certifier.select_delta1"),
    ("certifier", "sweep_alphas", "certifier.sweep_alphas"),
    ("certifier", "dirichlet_approx", "numtheory.dirichlet_approx"),
    ("certifier", "indicator_fourier", "fourier.indicator_fourier"),
    ("certifier", "edge_cardinality", "hypergraph.edge_cardinality"),
    ("family", "build_family", "family.build_family"),
    ("family", "totatives", "numtheory.totatives"),
    ("solver", "edge_cardinality", "hypergraph.edge_cardinality"),
    ("solver", "translate_values", "hypergraph.translate_values"),
    ("solver", "canonical_edge_masks", "hypergraph.canonical_edge_masks"),
    ("solver", "random_coloring_upper", "solver.random_coloring_upper"),
    ("solver", "local_search_upper", "solver.local_search_upper"),
    ("solver", "exact_discrepancy", "solver.exact_discrepancy"),
)


class Tracer:
    """Collects spans in memory; ``write`` dumps them as JSON lines."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self._ids = itertools.count()
        self._stack: list[int | None] = [None]

    def _enter(self) -> tuple[int, int]:
        sid = next(self._ids)
        self._stack.append(sid)
        return sid, perf_counter_ns()

    def _exit(self, sid: int, name: str, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, self._stack[-1], name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, start = self._enter()
        try:
            yield
        finally:
            self._exit(sid, name, start)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(sid, name, start)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every function in PATCHES and ``TwoNormEngine.evaluate``."""
        for mod, attr, name in PATCHES:
            setattr(modules[mod], attr, self.wrap(getattr(modules[mod], attr), name))
        engine = modules["solver"].TwoNormEngine
        engine.evaluate = self.wrap(engine.evaluate, "solver.evaluate")

    def write(self, path) -> None:
        """Append the spans, ordered by id, as JSON lines."""
        with open(path, "a") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end},
                                    separators=(",", ":")) + "\n")


class SpanStats:
    """Per-name totals and self times derived from the spans.

    A span's self time is its duration minus its children's durations;
    children of one span never overlap because the work is single-threaded.
    """

    def __init__(self, spans):
        self.spans = spans
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        for sid, _, name, start, end in spans:
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[sid]

    def within(self, name: str, outer: str) -> list[int]:
        """Durations of the ``name`` spans that lie inside a span named
        ``outer`` or ``outer.<chunk>``, at any depth."""
        merged: list[list[int]] = []  # disjoint windows, by start
        for ws, we in sorted((s, e) for _, _, n, s, e in self.spans
                             if n == outer or n.startswith(outer + ".")):
            if merged and ws <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], we)
            else:
                merged.append([ws, we])
        starts = [ws for ws, _ in merged]
        out = []
        for _, _, n, s, e in self.spans:
            i = bisect_right(starts, s) - 1
            if n == name and i >= 0 and e <= merged[i][1]:
                out.append(e - s)
        return out

    def total_s(self, name: str) -> float:
        return self.total_ns[name] / 1e9

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls = self.calls[name]
        ns = (self.self_ns if self_time else self.total_ns)[name]
        return ns / calls / 1e3 if calls else 0.0


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])
