"""Tests of the benchmark itself, on the tiny variant of each workload shape.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from pipeline import ChildExecutor, Pipeline, load_workload, workload_names  # noqa: E402
from tracing import Span, Tracer, instrument, self_times  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = workload_names()


def _run_bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_the_defined_workloads():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, load_workload(name).why) for name in WORKLOADS
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run_bench("--workload", workload, "--tiny", "--seed", "7", "--seconds", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]
    assert printed["error_rate"] == "ratio"


def _tamper_report(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["results"][0]["score"] = 12.5
    path.write_text(json.dumps(report), encoding="utf-8")


def _tamper_ledger(path: Path) -> None:
    ledger = json.loads(path.read_text(encoding="utf-8"))
    entry = next(iter(ledger["ledger"]["entries"].values()))
    entry["artifacts"] = entry["artifacts"][1:] + ["planted-elsewhere"]
    path.write_text(json.dumps(ledger), encoding="utf-8")


def _tamper_trend(path: Path) -> None:
    path.write_text(path.read_text(encoding="utf-8").replace(",100.0\n", ",99.0\n", 1), encoding="utf-8")


def _tamper_narrowed(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    report["results"].pop()
    path.write_text(json.dumps(report), encoding="utf-8")


TAMPERS = {
    "lint": ("report.json", _tamper_report),
    "generate": ("exports/ledger.json", _tamper_ledger),
    "score": ("trend.csv", _tamper_trend),
    "lint_sprint": ("report-sprint.json", _tamper_narrowed),
}


def _pipeline_once(work: Path, tamper_step: str | None = None) -> Pipeline:
    executor = ChildExecutor(REPO, work)

    def execute(step, args):
        result = executor(step, args)
        if step == tamper_step:
            relative, tamper = TAMPERS[step]
            tamper(work / relative)
        return result

    pipe = Pipeline(load_workload("violation-dense", tiny=True), 42, work, execute)
    pipe.generate()
    pipe.iteration()
    return pipe


@pytest.fixture(scope="module")
def clean_pipeline(tmp_path_factory):
    return _pipeline_once(tmp_path_factory.mktemp("clean"))


def test_untampered_outputs_pass_the_oracle(clean_pipeline):
    assert clean_pipeline.tally.notes == []
    assert clean_pipeline.tally.error_rate == 0.0
    assert clean_pipeline.tally.attempted > len(TAMPERS)


@pytest.mark.parametrize("step", sorted(TAMPERS))
def test_tampered_output_fails_the_oracle_and_raises_error_rate(tmp_path, clean_pipeline, step):
    pipe = _pipeline_once(tmp_path, tamper_step=step)
    assert pipe.tally.failed >= 1
    assert pipe.tally.error_rate > clean_pipeline.tally.error_rate
    assert any(note.startswith(f"{step if step != 'generate' else 'lint'}:") for note in pipe.tally.notes)


def test_repeated_outputs_must_be_byte_identical(tmp_path):
    executor = ChildExecutor(REPO, tmp_path)
    runs = []

    def execute(step, args):
        result = executor(step, args)
        if step == "lint":
            runs.append(step)
            if len(runs) == 2:
                report = tmp_path / "report.json"
                report.write_text(report.read_text(encoding="utf-8") + " ", encoding="utf-8")
        return result

    pipe = Pipeline(load_workload("many-sprints", tiny=True), 3, tmp_path, execute)
    pipe.generate()
    pipe.iteration()
    assert pipe.tally.failed == 0
    pipe.iteration()
    assert pipe.tally.notes == ["lint: lint output is not byte-identical to the first run's"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(1, 0, "child", "r", 1.0, 3.0),
        Span(2, 1, "grandchild", "r", 1.5, 2.0),
        Span(3, 0, "child", "r", 4.0, 5.0),
        Span(0, None, "parent", "r", 0.0, 10.0),
    ]
    assert self_times(spans) == {0: 7.0, 1: 1.5, 2: 0.5, 3: 1.0}


def test_instrument_traces_nested_layers_and_restores_them():
    sys.path.insert(0, str(REPO / "src"))
    from sprintlint import engine, fixtures, model
    from sprintlint.fixtures import FixtureSpec

    original_window = engine.window
    tracer = Tracer()
    with instrument(tracer):
        assert engine.window is not original_window and model.window is engine.window
        fixtures.generate(FixtureSpec(teams=1, sprints=2))
    assert engine.window is original_window and model.window is original_window
    by_id = {span.id: span for span in tracer.spans}
    windows = [s for s in tracer.spans if s.name == "model.window"]
    assert len(windows) == 2
    assert all(by_id[s.parent].name == "engine.run_all" for s in windows)
    detectors = [s for s in tracer.spans if s.name == "catalog.collective-ownership"]
    assert len(detectors) == 2 and tracer.counts[("", "engine.cells")] == 18


def test_fails_without_a_result_in_a_checkout_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
