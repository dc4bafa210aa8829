"""The north star's linear cost, guarded: each export, read-path and snapshot layer costs 8x at 8x the records.

Each layer is timed in CPU seconds (`time.process_time`) on
`FixtureSpec(teams=2)` at 10 and at 80 sprints (1,200 and 9,600 commits),
the minimum of a few runs per size, the two sizes taking turns so that a
busy spell of the machine slows both. A layer whose cost is proportional to
its records reads about 8; one that rescans a team's history once per
sprint reads up to 64. The bound, 16, is twice linear.
"""

from __future__ import annotations

import math
import time

import pytest

from sprintlint import ingest
from sprintlint.catalog import default_registry
from sprintlint.config import MetricConfig
from sprintlint.fixtures import FixtureSpec, generate
from sprintlint.ingest import EXPORTS, IngestManifest, load_history, load_snapshot, write_snapshot
from sprintlint.model import window
from sprintlint.report import build_report, render_json
from sprintlint.scoring import aggregate_all, trend
from conftest import collector_paused

SPRINTS = (10, 80)
RUNS = 3
BOUND = 16.0
# layer -> the calls one timing makes, so that a timing at 10 sprints lasts a few milliseconds
REPEATS = {"load_history": 1, "write exports": 1, "load_snapshot": 1, "write_snapshot": 1,
           "window of every sprint": 20, "render_json(build_report)": 1, "aggregate_all and trend": 5}


def _load(path):
    """`load_snapshot` with the cyclic collector paused, as a CLI command runs it."""
    with collector_paused():
        return load_snapshot(path)


def _read_exports(manifest):
    """`load_history` with the cyclic collector paused, as `ingest` runs it."""
    with collector_paused():
        return load_history(manifest)


def _write_exports(history, folder):
    """The five export writers, as `generate` calls them, into `folder`."""
    for (kind, name), rows in zip(EXPORTS.items(), history.records()):
        getattr(ingest, f"write_{kind}")(folder / name, rows)


def _layers(path, manifest) -> dict:
    """Each layer of the read path -> a call that runs it on the snapshot at `path` or the exports of `manifest`."""
    history = _load(path)
    rewritten = path.with_name(f"rewritten-{path.stem}")
    rewritten.mkdir()
    registry, config = default_registry(), MetricConfig()
    results = [r for cell in build_report(history, registry, config).cells for r in cell.results]
    return {
        "load_history": lambda: _read_exports(manifest),
        "write exports": lambda: _write_exports(history, rewritten),
        "load_snapshot": lambda: _load(path),
        "write_snapshot": lambda: write_snapshot(path.with_name(f"rewritten-{path.name}"), history),
        "window of every sprint": lambda: [window(history, sprint.team, sprint.id) for sprint in history.sprints],
        "render_json(build_report)": lambda: render_json(build_report(history, registry, config), history),
        "aggregate_all and trend": lambda: trend(history, results, aggregate_all(results, registry, config)),
    }


def _cpu_seconds(call, repeat: int) -> float:
    start = time.process_time()
    for _ in range(repeat):
        call()
    return time.process_time() - start


@pytest.fixture(scope="module")
def ratios(tmp_path_factory) -> dict:
    """Each layer -> its CPU time at 80 sprints over its CPU time at 10."""
    folder = tmp_path_factory.mktemp("linear-cost")
    sizes = []
    for sprints in SPRINTS:
        history = generate(FixtureSpec(teams=2, sprints=sprints))[0]
        path = folder / f"project-{sprints}.json"
        write_snapshot(path, history)
        exports = folder / f"exports-{sprints}"
        exports.mkdir()
        _write_exports(history, exports)
        sizes.append(_layers(path, IngestManifest({kind: exports / name for kind, name in EXPORTS.items()})))
    best = [dict.fromkeys(REPEATS, math.inf) for _ in sizes]
    for _ in range(RUNS):
        for layer, repeat in REPEATS.items():
            for calls, seconds in zip(sizes, best):
                seconds[layer] = min(seconds[layer], _cpu_seconds(calls[layer], repeat))
    small, large = best
    return {layer: large[layer] / small[layer] for layer in REPEATS}


@pytest.mark.parametrize("layer", list(REPEATS))
def test_layer_cost_grows_linearly_with_the_records(ratios, layer):
    assert ratios[layer] < BOUND
