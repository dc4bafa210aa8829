"""In-memory span tracing of sprintlint's layers, applied from outside the package.

`instrument` swaps chosen module-level functions, wherever a sprintlint
module holds a reference to them, for wrappers that record a span per call.
Detectors are traced through a registry built from `default_registry()`
whose every `RegisteredMetric.detector` is wrapped. Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace

from oracle import DETECTOR_FAILED


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float


class Tracer:
    """Records nested spans and per-run counts; `run` tags everything recorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.run = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, self.run, start, end))

    def count(self, name: str, amount: int) -> None:
        self.counts[(self.run, name)] += amount

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - covered[span.id] for span in spans}


# --- counters: work done, read off each layer's return value -----------------


def _count_parsed(tracer: Tracer, args, result) -> None:
    records, issues = result
    tracer.count("ingest.records", len(records))
    tracer.count("ingest.parse_issues", len(issues))


def _count_snapshot(tracer: Tracer, args, result) -> None:
    tracer.count("ingest.snapshot_bytes", os.path.getsize(args[0]))


def _count_cells(tracer: Tracer, args, results) -> None:
    failed = sum(1 for r in results if (r.diagnostic or "").startswith(DETECTOR_FAILED))
    tracer.count("engine.cells", len(results))
    tracer.count("engine.cells_not_applicable", sum(1 for r in results if r.score is None) - failed)
    tracer.count("engine.detector_failures", failed)


def _count_violations(tracer: Tracer, args, result) -> None:
    tracer.count("catalog.violations", len(result.violations))
    tracer.count("catalog.artifacts", sum(len(v.artifacts) for v in result.violations))


def _count_json(tracer: Tracer, args, rendered: str) -> None:
    tracer.count("report.json_bytes", len(rendered.encode("utf-8")))


READERS = ("read_commits", "read_issues", "read_pulls", "read_sprints", "read_stats")
EXPORT_WRITERS = ("write_commits", "write_issues", "write_sprints", "write_pulls", "write_stats")

# module -> {public function: counter or None}
LAYERS: dict[str, dict[str, Callable | None]] = {
    "ingest": {
        **{name: _count_parsed for name in READERS},
        **{name: None for name in EXPORT_WRITERS},
        "load_snapshot": None,
        "write_snapshot": _count_snapshot,
    },
    "model": {"build_history": None, "window": None},
    "catalog": {"unfinished_stories": None},
    "engine": {"run_all": _count_cells},
    "scoring": {"aggregate_all": None, "trend": None, "trend_csv": None},
    "report": {"build_report": None, "render_json": _count_json, "render_markdown": None},
    "fixtures": {"generate": None, "self_lint": None, "inject": None},
}


def _traced_registry_factory(tracer: Tracer, default_registry: Callable) -> Callable:
    from sprintlint.engine import MetricRegistry

    @functools.wraps(default_registry)
    def traced_default_registry():
        registry = MetricRegistry()
        for metric in default_registry():
            detector = tracer.wrap(f"catalog.{metric.descriptor.name}", metric.detector, _count_violations)
            registry.register(replace(metric, detector=detector))
        return registry

    return traced_default_registry


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every function in LAYERS and every detector until the block exits."""
    import sprintlint.cli  # noqa: F401  (loads every sprintlint module)

    swaps: dict[int, tuple[Callable, Callable]] = {}
    for module_name, functions in LAYERS.items():
        module = sys.modules[f"sprintlint.{module_name}"]
        for name, counter in functions.items():
            original = getattr(module, name)
            swaps[id(original)] = (original, tracer.wrap(f"{module_name}.{name}", original, counter))
    catalog = sys.modules["sprintlint.catalog"]
    swaps[id(catalog.default_registry)] = (
        catalog.default_registry,
        _traced_registry_factory(tracer, catalog.default_registry),
    )

    patched = []
    modules = [m for n, m in sys.modules.items() if n == "sprintlint" or n.startswith("sprintlint.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            swap = swaps.get(id(value))
            if swap is not None and swap[0] is value:
                setattr(module, attr, swap[1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


# --- per-layer metrics --------------------------------------------------------

DETECTORS = (
    "collective-ownership", "test-later", "huge-stories", "multi-backlog-stories",
    "duplicate-stories", "last-minute-commits", "commit-activity", "daily-story-load",
    "fast-pull-requests",
)

# metric -> (step it is read from, how, span or count names)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {
    **{f"ingest.{name}_s": ("ingest", "time", (f"ingest.{name}",)) for name in READERS},
    "model.build_history_s": ("ingest", "time", ("model.build_history",)),
    "ingest.write_snapshot_s": ("ingest", "time", ("ingest.write_snapshot",)),
    "ingest.snapshot_bytes": ("ingest", "count", ("ingest.snapshot_bytes",)),
    "ingest.records": ("ingest", "count", ("ingest.records",)),
    "ingest.parse_issues": ("ingest", "count", ("ingest.parse_issues",)),
    "ingest.load_snapshot_s": ("lint", "time", ("ingest.load_snapshot",)),
    "model.window_s": ("lint", "time", ("model.window",)),
    "model.window_calls": ("lint", "calls", ("model.window",)),
    **{f"catalog.{name}_s": ("lint", "time", (f"catalog.{name}",)) for name in DETECTORS},
    "catalog.unfinished_stories_s": ("lint", "time", ("catalog.unfinished_stories",)),
    "catalog.violations": ("lint", "count", ("catalog.violations",)),
    "catalog.artifacts": ("lint", "count", ("catalog.artifacts",)),
    "engine.run_all_s": ("lint", "time", ("engine.run_all",)),
    "engine.cells": ("lint", "count", ("engine.cells",)),
    "engine.cells_not_applicable": ("lint", "count", ("engine.cells_not_applicable",)),
    "engine.detector_failures": ("lint", "count", ("engine.detector_failures",)),
    "report.build_report_s": ("lint", "time", ("report.build_report",)),
    "report.build_report_self_s": ("lint", "self", ("report.build_report",)),
    "report.render_json_s": ("lint", "time", ("report.render_json",)),
    "report.json_bytes": ("lint", "count", ("report.json_bytes",)),
    "report.render_markdown_s": ("lint_markdown", "time", ("report.render_markdown",)),
    "scoring.aggregate_all_s": ("score", "time", ("scoring.aggregate_all",)),
    "scoring.trend_s": ("score", "time", ("scoring.trend",)),
    "scoring.trend_csv_s": ("score", "time", ("scoring.trend_csv",)),
    "fixtures.generate_s": ("generate", "time", ("fixtures.generate",)),
    "fixtures.self_lint_s": ("generate", "time", ("fixtures.self_lint",)),
    "fixtures.inject_s": ("generate", "time", ("fixtures.inject",)),
    "ingest.write_exports_s": ("generate", "time", tuple(f"ingest.{n}" for n in EXPORT_WRITERS)),
}


def per_layer_values(tracer: Tracer) -> dict[str, float]:
    """Each PER_LAYER metric, as the median over the runs of its step.

    Runs are named ``<step>#<iteration>``; a metric sums its spans (or counts)
    within one run.
    """
    self_time = self_times(tracer.spans)
    per_run: dict[tuple[str, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        cell = per_run[(span.run, span.name)]
        cell["time"] += span.end - span.start
        cell["self"] += self_time[span.id]
        cell["calls"] += 1
    for (run, name), amount in tracer.counts.items():
        per_run[(run, name)]["count"] += amount

    runs_of: dict[str, set[str]] = defaultdict(set)
    for run, _ in per_run:
        runs_of[run.partition("#")[0]].add(run)
    values = {}
    for metric, (step, how, names) in PER_LAYER.items():
        samples = [
            sum(per_run[(run, name)][how] for name in names if (run, name) in per_run)
            for run in sorted(runs_of[step])
        ]
        values[metric] = statistics.median(samples) if samples else 0.0
    return values
