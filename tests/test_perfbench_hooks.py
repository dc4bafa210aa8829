"""The names the benchmark's tracer (`perfbench/tracing.py`) wraps still exist.

`perfbench/tests` notices a renamed layer too, but it takes tens of seconds;
this reads the tracer's tables and checks them against the package, and
runs one small traced `lint` to see that the tracer still times every check.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import sprintlint.cli  # noqa: F401  (loads every module, as the tracer does)
from sprintlint import MetricConfig, cli, default_registry
from sprintlint.catalog import CHECKS
from sprintlint.fixtures import FixtureSpec
from sprintlint.ingest import EXPORTS
from conftest import DAY, T0, change, make_commit, make_pull, make_slice, make_sprint, make_story

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_layer_function_exists(tracing):
    missing = [
        f"sprintlint.{module}.{name}"
        for module, functions in tracing.LAYERS.items()
        for name in functions
        if not callable(getattr(sys.modules.get(f"sprintlint.{module}"), name, None))
    ]
    assert missing == []


def test_every_registered_check_has_what_the_tracer_reads(tracing):
    for metric in default_registry():
        # the tracer times each detector under its check's name
        assert f"catalog.{metric.descriptor.name}_s" in tracing.PER_LAYER
        # and re-registers each check with its detector wrapped
        assert callable(metric.detector)
        assert replace(metric, detector=print).detector is print


def test_every_detector_returns_what_the_tracer_counts(tracing):
    sprint = make_sprint()
    slice_ = make_slice(
        sprint,
        commits=[make_commit("c1", T0 + DAY, files=[change("a.py")])],
        stories=[make_story(1)],
        pulls=[make_pull(1, T0 + DAY, closed=T0 + DAY + 60.0)],
        developers={"ann@example.org", "bob@example.org"},
    )
    for name, check in CHECKS.items():
        finding = check.detector(slice_, MetricConfig().for_metric(name))
        # `_count_violations` reads the violations and each one's artifacts
        assert all(v.artifacts for v in finding.violations), name


def test_a_traced_lint_times_every_check_once_per_cell(tracing, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(FixtureSpec(teams=1, sprints=2).to_dict()), encoding="utf-8")
    assert cli.main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
    sources = [arg for kind, name in EXPORTS.items() for arg in (f"--{kind}", str(tmp_path / name))]
    assert cli.main(["ingest", *sources, "--out", str(tmp_path / "snap.json")]) == 0

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        lint = ["lint", "--project", str(tmp_path / "snap.json"), "--out", str(tmp_path / "r.json")]
        assert cli.main(lint) == 0
    results = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["results"]
    cells = {(r["team"], r["sprint"]) for r in results}
    spans = Counter(span.name for span in tracer.spans)
    assert len(cells) == 2
    # the snapshot load builds the one history, timed through the `model.build_history` alias
    assert spans["model.build_history"] == 1
    timed = {name: spans[f"catalog.{name}"] for name in CHECKS}
    assert timed == dict.fromkeys(CHECKS, len(cells))
    assert tracer.counts[(tracer.run, "engine.cells")] == len(results)
    # the layers under `report.build_report`: one `run_all`, and one `unfinished_stories` per sprint
    [report] = [span.id for span in tracer.spans if span.name == "report.build_report"]
    parents = {name: [span.parent for span in tracer.spans if span.name == name]
               for name in ("engine.run_all", "catalog.unfinished_stories")}
    assert parents == {"engine.run_all": [report], "catalog.unfinished_stories": [report] * len(cells)}


def test_a_traced_generate_and_ingest_time_every_export_kind_once(tracing, tmp_path):
    assert set(tracing.READERS) == {f"read_{kind}" for kind in EXPORTS}
    assert set(tracing.EXPORT_WRITERS) == {f"write_{kind}" for kind in EXPORTS}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(FixtureSpec(teams=1, sprints=2).to_dict()), encoding="utf-8")
    sources = [arg for kind, name in EXPORTS.items() for arg in (f"--{kind}", str(tmp_path / name))]

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.main(["generate", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        assert cli.main(["ingest", *sources, "--out", str(tmp_path / "snap.json")]) == 0
    spans = Counter(span.name for span in tracer.spans)
    for layer in ("write", "read"):
        timed = {kind: spans[f"ingest.{layer}_{kind}"] for kind in EXPORTS}
        assert timed == dict.fromkeys(EXPORTS, 1), layer
    # `generate` assembles one history and `ingest` builds one, each through `ProjectHistory`
    assert spans["model.build_history"] == 2
    snapshot = json.loads((tmp_path / "snap.json").read_text(encoding="utf-8"))
    # each collection is an object of equal-length columns
    records = sum(len(next(iter(snapshot[kind].values()))) for kind in EXPORTS)
    assert records > 0
    assert tracer.counts[(tracer.run, "ingest.records")] == records
