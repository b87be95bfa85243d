"""Spans around sysquad's layer entry points, recorded from the benchmark.

The traced run wraps each layer's public function where the benchmark
reaches it: the names ``sysquad.cli`` resolves at call time, and the
direct calls of the ``sweep`` workload. Nothing inside ``src/`` is
instrumented, so a layer's span covers exactly one call of its entry
point. Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import sysquad.cli


def _stat(key):
    return lambda result, args: result.stats[key]


# (name sysquad.cli resolves, span name, {count metric: f(result, args)}).
# Count metrics are per pass and must repeat exactly for a fixed seed.
LAYERS = (
    ("triangulated_disk", "generators.triangulated_disk",
     {"generators.vertices": lambda r, a: len(r.complex.graph.vertices)}),
    ("format_complex", "fileformat.format",
     {"fileformat.bytes_written": lambda r, a: len(r.encode("utf-8"))}),
    ("read_complex", "fileformat.parse",
     {"fileformat.bytes_read": lambda r, a: os.path.getsize(a[0])}),
    ("verify_systolic", "systolic.verify_systolic", {"systolic.links": _stat("links")}),
    ("check_spheres_triangle_free", "systolic.level_checks", {}),
    ("check_ball_neighbours", "systolic.level_checks", {}),
    ("check_triangle_condition", "systolic.level_checks", {}),
    ("squaring", "squaring.squaring",
     {"squaring.squares": lambda r, a: len(r.squared.complex.squares)}),
    ("check_quasi_isometry", "squaring.quasi_isometry",
     {"squaring.quasi_isometry_pairs": _stat("pairs")}),
    ("all_pairs", "metrics.all_pairs",
     {"metrics.all_pairs_calls": lambda r, a: 1,
      # computed, not measured: one float64 per ordered vertex pair
      "metrics.dist_bytes": lambda r, a: r.shape[0] * r.shape[0] * 8}),
    ("check_replacement_rule_A", "quadric.rule_a", {}),
    ("check_replacement_rule_B", "quadric.rule_b", {}),
    ("check_quadrangle_condition", "quadric.quadrangle", {}),
    ("check_ball_isometry", "quadric.ball_isometry",
     {"quadric.ball_isometry_triples": _stat("triples")}),
    ("check_interval_isometry", "quadric.interval_isometry",
     {"quadric.interval_isometry_intervals": _stat("intervals")}),
    ("check_flat_intervals", "quadric.flat_intervals", {}),
    ("property_a_report", "propa.property_a_report",
     {"propa.edges_checked": lambda r, a: r.check.stats["edges"]}),
)

PASS_SPAN = "cli"  # the pass span's self time is reported as cli.self_s

TIME_METRICS = tuple(sorted({span for _, span, _ in LAYERS})) + (PASS_SPAN,)
COUNT_METRICS = tuple(sorted({k for _, _, counts in LAYERS for k in counts}))
RAW = SimpleNamespace(**{name: getattr(sysquad.cli, name) for name, _, _ in LAYERS})


def time_metric(span_name: str) -> str:
    return f"{span_name}.self_s" if span_name == PASS_SPAN else f"{span_name}_s"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records spans for one run; one pass span at a time is the root."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pass: Span | None = None

    def _stack(self) -> list[Span]:
        # threads of a --jobs pool start with the pass span as their parent
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pass
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(), 0.0, parent.id, self._pass.id)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def pass_span(self):
        """Root span of one pass; layer spans opened meanwhile nest under it."""
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, PASS_SPAN, time.perf_counter(), 0.0, None, span_id)
        self._pass = span
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._pass = None
            with self._lock:
                self.spans.append(span)

    def wrap(self, fn, span_name: str, counters: dict):
        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            for key, count in counters.items():
                span.counts[key] = count(result, args)
            return result
        return traced

    def functions(self) -> SimpleNamespace:
        """The layer entry points, each wrapped in a span."""
        return SimpleNamespace(**{
            name: self.wrap(getattr(RAW, name), span, counters)
            for name, span, counters in LAYERS
        })

    @contextmanager
    def patched_cli(self, wrapped: SimpleNamespace):
        """Point the names sysquad.cli resolves at ``wrapped`` entry points."""
        for name, _, _ in LAYERS:
            setattr(sysquad.cli, name, getattr(wrapped, name))
        try:
            yield
        finally:
            for name, _, _ in LAYERS:
                setattr(sysquad.cli, name, getattr(RAW, name))

    def pass_metrics(self, pass_id: int) -> dict[str, float | int]:
        """Self time per layer and summed counts for one pass span's tree."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float | int] = {time_metric(n): 0.0 for n in TIME_METRICS}
        out.update({k: 0 for k in COUNT_METRICS})
        for s in spans:
            covered = _covered(s, children.get(s.id, ()))
            out[time_metric(s.name)] += (s.end - s.start) - covered
            for key, value in s.counts.items():
                out[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, sort_keys=True) + "\n")


def _covered(span: Span, kids) -> float:
    """Length of the part of ``span`` that the union of ``kids`` covers."""
    total = 0.0
    end = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, end), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total
