"""End-to-end command-line flows: generate -> ingest -> lint -> score."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sprintlint import FixtureSpec, MetricConfig, build_history, cli, generate
from sprintlint.cli import main
from sprintlint.ingest import EXPORTS, load_snapshot, write_snapshot
from sprintlint.serialize import END_TS, FIRST_TS
from conftest import collector_paused, make_commit
from test_golden import EXPECTED_CONFIG_DIGEST

DEFAULT_SPEC = {
    "seed": 13,
    "teams": 1,
    "developers_per_team": 4,
    "sprints": 3,
    "sprint_length_days": 2.0,
    "stories_per_sprint": 2,
    "commits_per_dev_per_sprint": 10,
    "pulls_per_sprint": 2,
}


def _write_spec(tmp_path, **overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec = {**DEFAULT_SPEC, **overrides}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _generate(tmp_path, inject=None, seed=None):
    spec_path = _write_spec(tmp_path)
    out_dir = tmp_path / "fixture"
    argv = ["generate", "--spec", str(spec_path), "--out-dir", str(out_dir)]
    if inject is not None:
        inject_path = tmp_path / "inject.json"
        inject_path.write_text(json.dumps(inject), encoding="utf-8")
        argv += ["--inject", str(inject_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out_dir


def _ingest(tmp_path, fixture_dir, snapshot_name="snap.json"):
    snapshot = tmp_path / snapshot_name
    assert main([
        "ingest",
        "--commits", str(fixture_dir / "commits.ndjson"),
        "--issues", str(fixture_dir / "issues.json"),
        "--sprints", str(fixture_dir / "sprints.json"),
        "--pulls", str(fixture_dir / "pulls.json"),
        "--stats", str(fixture_dir / "stats.csv"),
        "--out", str(snapshot),
    ]) == 0
    return snapshot


def test_generate_writes_expected_files(tmp_path):
    out_dir = _generate(tmp_path)
    for name in ("commits.ndjson", "issues.json", "sprints.json", "pulls.json",
                 "stats.csv", "ledger.json"):
        assert (out_dir / name).exists()
    ledger = json.loads((out_dir / "ledger.json").read_text())
    assert ledger["certificate"]["violation_free"] is True


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path / "a")
    b = _generate(tmp_path / "b")
    for name in ("commits.ndjson", "issues.json", "sprints.json", "pulls.json",
                 "stats.csv", "ledger.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_ingest_summary_counts_match_files(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    printed = capsys.readouterr().out
    commit_lines = (out_dir / "commits.ndjson").read_text().strip().splitlines()
    assert f"commits:   {len(commit_lines)}" in printed
    assert snapshot.exists()


def test_ingest_reruns_byte_identical(tmp_path):
    out_dir = _generate(tmp_path)
    first = _ingest(tmp_path, out_dir, "snap1.json")
    second = _ingest(tmp_path, out_dir, "snap2.json")
    assert first.read_bytes() == second.read_bytes()


def test_ingest_without_sources_exits_2(tmp_path):
    assert main(["ingest", "--out", str(tmp_path / "snap.json")]) == 2


def test_ingest_bad_line_exits_2(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    commits = out_dir / "commits.ndjson"
    lines = commits.read_text().splitlines()
    lines[2] = "{broken"
    commits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["ingest", "--commits", str(commits), "--out", str(tmp_path / "snap.json")])
    assert code == 2
    assert ":3:" in capsys.readouterr().err  # file:line diagnostic


def test_lint_clean_fixture_passes_fail_below(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    capsys.readouterr()
    code = main(["lint", "--project", str(snapshot), "--fail-below", "90",
                 "--out", str(tmp_path / "report.json")])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(s["overall"] == 100.0 for s in report["scores"])
    assert report["config_digest"]


def test_lint_injected_fixture_fails_policy_gate(tmp_path):
    out_dir = _generate(tmp_path, inject={"silent_fast_pulls": 1})
    snapshot = _ingest(tmp_path, out_dir)
    code = main(["lint", "--project", str(snapshot), "--fail-below", "100",
                 "--out", str(tmp_path / "report.json")])
    assert code == 1



def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_weights_whose_sum_overflows_still_score_and_gate(tmp_path):
    snapshot = _ingest(tmp_path, _generate(tmp_path, inject={"silent_fast_pulls": 1}))
    config_path = tmp_path / "config.json"
    weights = {"informational": 0, "very_low": 1e308, "low": 1e308, "normal": 1e308, "high": 1e308}
    config_path.write_text(json.dumps({"severity_weights": weights}), encoding="utf-8")
    code = main(["lint", "--project", str(snapshot), "--config", str(config_path), "--fail-below", "100",
                 "--out", str(tmp_path / "report.json")])
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"), parse_constant=_no_constant)
    overalls = [s["overall"] for s in report["scores"]]
    assert overalls and all(0.0 <= o <= 100.0 for o in overalls)

@pytest.mark.parametrize("bound", ["nan", "inf", "-inf"])
def test_lint_rejects_a_fail_below_that_is_not_finite(tmp_path, capsys, bound):
    # NaN and -inf could never trip the gate, and inf always would
    snapshot = _ingest(tmp_path, _generate(tmp_path, inject={"silent_fast_pulls": 1}))
    capsys.readouterr()
    # `=` keeps argparse from reading "-inf" as an option
    code = main(["lint", "--project", str(snapshot), f"--fail-below={bound}",
                 "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert _one_error_line(capsys) == f"error: --fail-below must be a finite number, got {float(bound)}\n"
    assert not (tmp_path / "report.json").exists()


def test_lint_reports_are_byte_identical(tmp_path):
    out_dir = _generate(tmp_path, inject={"duplicate_stories": 1})
    snapshot = _ingest(tmp_path, out_dir)
    for name in ("r1.json", "r2.json"):
        assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_lint_unknown_sprint_title_exits_2(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--sprint", "Sprint 99",
                 "--out", str(tmp_path / "r.json")]) == 2


def test_lint_sprint_filter_narrows_results(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--sprint", "Sprint 2",
                 "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert {r["sprint_title"] for r in report["results"]} == {"Sprint 2"}
    assert len(report["results"]) == 9


def test_lint_markdown_lists_violations_and_pitfalls(tmp_path):
    out_dir = _generate(tmp_path, inject={"silent_fast_pulls": 1})
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--format", "markdown",
                 "--out", str(tmp_path / "report.md")]) == 0
    text = (tmp_path / "report.md").read_text()
    assert "fast-pull-requests" in text
    assert "pitfalls:" in text
    assert "PR#" in text


def test_lint_respects_config_and_env_var(tmp_path, monkeypatch):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"metrics": {"duplicate-stories": {"enabled": False}}}), encoding="utf-8"
    )
    assert main(["lint", "--project", str(snapshot), "--config", str(config_path),
                 "--out", str(tmp_path / "r1.json")]) == 0
    explicit = json.loads((tmp_path / "r1.json").read_text())
    assert all(r["metric"] != "duplicate-stories" for r in explicit["results"])

    monkeypatch.setenv("SPRINTLINT_CONFIG", str(config_path))
    assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r2.json")]) == 0
    via_env = json.loads((tmp_path / "r2.json").read_text())
    assert via_env["config_digest"] == explicit["config_digest"]


def test_an_empty_config_variable_counts_as_unset(tmp_path, monkeypatch):
    snapshot = _ingest(tmp_path, _generate(tmp_path))
    monkeypatch.setenv("SPRINTLINT_CONFIG", "")
    assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["config_digest"] == MetricConfig().digest()
    assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "t.csv")]) == 0


def test_config_digest_tracks_effective_changes(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "rd.json")]) == 0
    default_digest = json.loads((tmp_path / "rd.json").read_text())["config_digest"]

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"metrics": {"huge-stories": {"weight": 30}}}), encoding="utf-8"
    )
    assert main(["lint", "--project", str(snapshot), "--config", str(config_path),
                 "--out", str(tmp_path / "rc.json")]) == 0
    changed_digest = json.loads((tmp_path / "rc.json").read_text())["config_digest"]
    assert changed_digest != default_digest


def test_score_trend_cardinality_and_gaps(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "trend.csv")]) == 0
    lines = (tmp_path / "trend.csv").read_text().splitlines()
    assert lines[0] == "team,metric,sprint_title,due_on,score"
    # 1 team x (9 metrics + overall) x 3 sprints
    assert len(lines) - 1 == 10 * 3


def test_score_is_deterministic(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "t1.csv")]) == 0
    assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "t2.csv")]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_generate_seed_flag_overrides_spec(tmp_path):
    a = _generate(tmp_path / "a", seed=111)
    b = _generate(tmp_path / "b", seed=112)
    assert (a / "commits.ndjson").read_bytes() != (b / "commits.ndjson").read_bytes()


def test_generate_infeasible_spec_exits_2(tmp_path):
    spec_path = _write_spec(tmp_path, developers_per_team=1)
    assert main(["generate", "--spec", str(spec_path), "--out-dir", str(tmp_path / "f")]) == 2


def test_generate_malformed_injection_exits_2(tmp_path, capsys):
    inject_path = tmp_path / "inject.json"
    inject_path.write_text(json.dumps({"hot_files": 3}), encoding="utf-8")
    argv = ["generate", "--inject", str(inject_path), "--out-dir", str(tmp_path / "f")]
    assert main(argv) == 2
    assert "hot_files" in capsys.readouterr().err


# numbers that do not fit the timeline, a string or a float; a large finite
# multiplier is left out, as it would allocate
TOO_LARGE = {
    "infinite-sprint": ("spec", {"sprint_length_days": 1e308}),
    "sprint-too-long-for-a-float": ("spec", {"sprint_length_days": 10**400}),
    "sprints-past-year-9999": ("spec", {"sprint_length_days": 1e300, "sprints": 2}),
    "too-many-sprints": ("spec", {"sprints": 10**20}),
    "too-many-teams": ("spec", {"teams": 10**20}),
    "too-many-developers": ("spec", {"developers_per_team": 10**20}),
    "too-many-commits": ("spec", {"commits_per_dev_per_sprint": 10**20}),
    "too-many-pulls": ("spec", {"pulls_per_sprint": 10**20}),
    "infinite-story": ("inject", {"huge_stories": {"count": 1, "length_multiplier": 1e308}}),
    "story-too-long-to-build": ("inject", {"huge_stories": {"count": 1, "length_multiplier": 1e15}}),
    "too-many-empty-huge-stories": ("inject", {"huge_stories": {"count": 10**400, "length_multiplier": 0}}),
    "too-many-last-minute-commits": ("inject", {"last_minute_commits": 10**20}),
    "too-many-fast-pulls": ("inject", {"silent_fast_pulls": 10**20}),
    "too-many-hot-file-edits": ("inject", {"hot_files": {"count": 1, "edits": 10**20, "authors": 1}}),
    "too-many-neverending-sprints": ("inject", {"neverending_stories": {"count": 1, "sprints_each": 10**20}}),
}


@pytest.mark.parametrize("kind, document", TOO_LARGE.values(), ids=list(TOO_LARGE))
def test_generate_with_a_number_too_large_exits_2(tmp_path, capsys, kind, document):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["generate", f"--{kind}", str(path), "--out-dir", str(tmp_path / "f")]) == 2
    _one_error_line(capsys)


# documents that pass the shape checks but ask for something no fixture can
# hold; each is refused when it is read, before a record is built
INFEASIBLE = {
    "hot-files-with-5-authors": ("inject", {"hot_files": {"count": 1, "edits": 12, "authors": 5}}),
    "61-tdd-regressions": ("inject", {"tdd_regressions": 61}),
    "21-duplicate-stories": ("inject", {"duplicate_stories": 21}),
    "21-neverending-stories": ("inject", {"neverending_stories": {"count": 21, "sprints_each": 2}}),
    "2-huge-stories": ("inject", {"huge_stories": {"count": 2, "length_multiplier": 12.0}}),
    "4-idle-developers": ("inject", {"idle_developers": 4}),
    "1-developer-per-team": ("spec", {"developers_per_team": 1}),
}


@pytest.mark.parametrize("kind, document", INFEASIBLE.values(), ids=list(INFEASIBLE))
def test_generate_refuses_an_infeasible_document_before_building(tmp_path, capsys, monkeypatch, kind, document):
    def build(spec):
        raise AssertionError(f"generate ran for {spec}")

    monkeypatch.setattr(cli, "generate", build)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(["generate", f"--{kind}", str(path), "--out-dir", str(tmp_path / "f")]) == 2
    _one_error_line(capsys)
    assert not (tmp_path / "f").exists()


def test_ingest_malformed_manifest_maps_exit_2(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    for bad in ({"team_map": [1]}, {"alias_map": {"ann": 7}}):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"commits": str(out_dir / "commits.ndjson"), **bad}), encoding="utf-8"
        )
        code = main(["ingest", "--manifest", str(manifest), "--out", str(tmp_path / "snap.json")])
        assert code == 2
        assert next(iter(bad)) in capsys.readouterr().err


def test_injected_ledger_refound_by_lint(tmp_path):
    out_dir = _generate(tmp_path, inject={"last_minute_commits": 2})
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    ledger = json.loads((out_dir / "ledger.json").read_text())
    entry = ledger["ledger"]["entries"]["last-minute-commits"]
    target = next(
        r for r in report["results"]
        if r["metric"] == "last-minute-commits"
        and r["team"] == entry["team"] and r["sprint"] == entry["sprint"]
    )
    found = sorted(a for v in target["violations"] for a in v["artifacts"])
    assert found == sorted(entry["artifacts"])


def test_lint_reports_unfinished_stories_block(tmp_path, past_due_backlog):
    snapshot = tmp_path / "snap.json"
    write_snapshot(snapshot, past_due_backlog)
    assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    (block,) = report["unfinished_stories"]
    assert block["sprint_title"] == "Sprint 12"
    assert block["amount"] == 2
    assert block["story_numbers"] == [129, 135]
    assert block["total"] == 10
    assert block["percent"] == 0.2


def test_lint_now_flag_controls_past_due(tmp_path):
    out_dir = _generate(tmp_path)
    snapshot = _ingest(tmp_path, out_dir)
    assert main(["lint", "--project", str(snapshot), "--now", "2015-01-01T00:00:00Z",
                 "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["unfinished_stories"] == []  # nothing is past due that early
    assert report["now"] == "2015-01-01T00:00:00Z"


OUT_OF_RANGE_INSTANTS = ("0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00")


def test_ingest_out_of_range_instant_exits_2_with_position(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    commits = out_dir / "commits.ndjson"
    lines = commits.read_text(encoding="utf-8").splitlines()
    for instant in OUT_OF_RANGE_INSTANTS:
        record = json.loads(lines[1])
        record["authored_at"] = instant
        commits.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n",
                           encoding="utf-8")
        capsys.readouterr()
        code = main(["ingest", "--commits", str(commits), "--out", str(tmp_path / "snap.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {commits}:2: authored_at is out of range (years 1 to 9999 in UTC): "
            f"{instant!r} (field authored_at)\n"
        )


def test_lint_snapshot_with_out_of_range_instant_exits_2(tmp_path, capsys):
    snapshot = _ingest(tmp_path, _generate(tmp_path))
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    # the instants of OUT_OF_RANGE_INSTANTS, as the snapshot's epoch seconds
    for instant in (FIRST_TS - 3600, END_TS + 3599):
        doc["commits"]["authored_at"][0] = instant
        snapshot.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]) == 2
        assert ("holds a malformed snapshot: commits.authored_at[0]: out of range"
                in capsys.readouterr().err)


def test_ingest_oversized_stats_field_exits_2(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    stats = out_dir / "stats.csv"
    text = stats.read_text(encoding="utf-8")
    stats.write_text(text + f'"{"c" * 200_000}",50,5\n', encoding="utf-8")
    code = main(["ingest", "--commits", str(out_dir / "commits.ndjson"), "--stats", str(stats),
                 "--out", str(tmp_path / "snap.json")])
    assert code == 2
    line = text.count("\n") + 1
    assert f"error: {stats}:{line}: field larger than field limit" in capsys.readouterr().err


class _Node:
    pass


def test_collector_is_paused_for_the_load_and_restored_after(tmp_path, monkeypatch):
    frozen = gc.get_freeze_count()
    seen = {"generate": [], "load_history": [], "load_snapshot": [], "write_text": []}

    def look(name, call):
        def looked(*args, **kwargs):
            seen[name].append(gc.isenabled())
            return call(*args, **kwargs)
        return looked

    for name in seen:
        monkeypatch.setattr(cli, name, look(name, getattr(cli, name)))
    snapshot = _ingest(tmp_path, _generate(tmp_path))
    assert seen["generate"] == [False]
    assert seen["load_history"] == [False]
    assert gc.isenabled()

    # a cycle the caller holds during a command and drops after it is still collected
    node = _Node()
    node.self = node
    alive = weakref.ref(node)
    lint = ["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]
    assert main(lint) == 0
    assert seen["load_snapshot"] == [False]
    assert seen["write_text"] == [False, False]  # the ledger, then the report
    assert gc.isenabled()
    del node
    gc.collect()
    assert alive() is None

    broken = tmp_path / "broken.json"
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    doc["commits"]["id"][0] = ""  # fails the commit's own check
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["lint", "--project", str(broken), "--out", str(tmp_path / "r.json")]) == 2
    assert seen["load_snapshot"] == [False, False]
    assert gc.isenabled()

    assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "t.csv")]) == 0
    assert seen["load_snapshot"] == [False, False, False]
    assert gc.isenabled()

    def unexpected(*args, **kwargs):
        raise RuntimeError("not a SprintLintError")

    monkeypatch.setattr(cli, "build_report", unexpected)
    with pytest.raises(RuntimeError):
        main(lint)
    assert gc.isenabled()

    # a caller that paused the collector itself finds it still paused
    with collector_paused():
        assert main(["score", "--project", str(snapshot), "--out", str(tmp_path / "t.csv")]) == 0
        assert not gc.isenabled()
    assert gc.get_freeze_count() == frozen


def test_lint_leaves_as_many_cycles_on_a_larger_snapshot(tmp_path):
    # the pause is sound only while a command's garbage cycles do not grow with its input
    counts = []
    for sprints in (2, 20):
        snapshot = tmp_path / f"snap-{sprints}.json"
        write_snapshot(snapshot, generate(FixtureSpec(teams=2, sprints=sprints))[0])
        gc.collect()
        assert main(["lint", "--project", str(snapshot), "--out", str(tmp_path / "r.json")]) == 0
        counts.append(gc.collect())
    assert counts[0] == counts[1]


# run in a child, so that no module the test process already loaded is counted
CHILD_INGEST_SCORE_LINT = """
import json, sys
from sprintlint.cli import main
fixture, out = sys.argv[1], sys.argv[2]
exports = [f"--{kind}={fixture}/{name}" for kind, name in json.loads(sys.argv[3]).items()]
assert main(["ingest", *exports, f"--out={out}/snap.json"]) == 0
assert main(["score", f"--project={out}/snap.json", f"--out={out}/trend.csv"]) == 0
print("hashlib" in sys.modules, "_hashlib" in sys.modules)
assert main(["lint", f"--project={out}/snap.json", f"--out={out}/report.json"]) == 0
"""


def test_ingest_and_score_never_load_openssl_and_lint_still_digests(tmp_path):
    fixture = _generate(tmp_path)
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD_INGEST_SCORE_LINT, str(fixture), str(tmp_path), json.dumps(EXPORTS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False False"
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["config_digest"] == EXPECTED_CONFIG_DIGEST


# --- inputs that end in exit 2 and one `error:` line, never a traceback ------

INPUT_KINDS = (*EXPORTS, "snapshot", "config", "manifest", "spec", "inject")


def _argv_reading(tmp_path, kind, content: bytes):
    """Write `content` as the input of `kind`; return the command that reads it and its path."""
    out_dir = _generate(tmp_path)
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(content)
    if kind in EXPORTS:
        files = {k: out_dir / name for k, name in EXPORTS.items()}
        files[kind] = bad
        sources = [arg for k, path in files.items() for arg in (f"--{k}", str(path))]
        return ["ingest", *sources, "--out", str(tmp_path / "snap.json")], bad
    if kind == "snapshot":
        return ["lint", "--project", str(bad)], bad
    if kind == "config":
        return ["lint", "--project", str(_ingest(tmp_path, out_dir)), "--config", str(bad)], bad
    if kind == "manifest":
        return ["ingest", "--manifest", str(bad), "--out", str(tmp_path / "snap.json")], bad
    return ["generate", f"--{kind}", str(bad), "--out-dir", str(tmp_path / "gen")], bad


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


NON_FINITE_CONFIGS = {
    "infinite-weight": '{"metrics": {"huge-stories": {"weight": Infinity}}}',
    "nan-severity-weight": '{"severity_weights": {"high": NaN}}',
}


@pytest.mark.parametrize("document", NON_FINITE_CONFIGS.values(), ids=list(NON_FINITE_CONFIGS))
def test_config_holding_a_non_finite_number_exits_2(tmp_path, capsys, document):
    argv, _ = _argv_reading(tmp_path, "config", document.encode("utf-8"))
    capsys.readouterr()
    assert main(argv) == 2
    assert "must be a finite number, got " in _one_error_line(capsys)


def test_manifest_with_an_unknown_key_exits_2(tmp_path, capsys):
    doc = {"commits": "fixture/commits.ndjson", "pull": "fixture/pulls.json"}
    argv, bad = _argv_reading(tmp_path, "manifest", json.dumps(doc).encode("utf-8"))
    capsys.readouterr()
    assert main(argv) == 2
    assert _one_error_line(capsys) == f"error: {bad}: unknown manifest key 'pull'\n"


def test_manifest_naming_every_key_ingests_like_the_flags(tmp_path):
    out_dir = _generate(tmp_path)
    manifest = out_dir / "manifest.json"
    identity = {"team_map": {"nobody": "none"}, "alias_map": {"nobody": "none"}}
    manifest.write_text(json.dumps({**EXPORTS, **identity}), encoding="utf-8")
    snapshot = tmp_path / "from-manifest.json"
    assert main(["ingest", "--manifest", str(manifest), "--out", str(snapshot)]) == 0
    assert snapshot.read_bytes() == _ingest(tmp_path, out_dir).read_bytes()


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, kind):
    argv, bad = _argv_reading(tmp_path, kind, b'{"id": "\xff"}\n')
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in _one_error_line(capsys)


UNDECODABLE_JSON = {
    "nested-too-deeply": b"[" * 200_000,
    "integer-over-the-digit-limit": b"[" + b"1" * 5000 + b"]",
}


# a commits line is decoded on its own; see the positioned test below
@pytest.mark.parametrize("kind", [k for k in INPUT_KINDS if k not in ("commits", "stats")])
@pytest.mark.parametrize("content", UNDECODABLE_JSON.values(), ids=list(UNDECODABLE_JSON))
def test_json_input_the_decoder_cannot_build_exits_2(tmp_path, capsys, kind, content):
    argv, bad = _argv_reading(tmp_path, kind, content)
    capsys.readouterr()
    assert main(argv) == 2
    assert str(bad) in _one_error_line(capsys)


def test_commits_line_nested_too_deeply_is_a_positioned_error(tmp_path, capsys):
    commits = _generate(tmp_path) / "commits.ndjson"
    lines = commits.read_text(encoding="utf-8").splitlines()
    lines[1] = "[" * 200_000
    commits.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["ingest", "--commits", str(commits), "--out", str(tmp_path / "snap.json")]) == 2
    err = _one_error_line(capsys)
    assert err.startswith(f"error: {commits}:2: invalid JSON: maximum recursion depth exceeded")


SHALLOW_SUFFIX_RECORDS = {
    "stats": (
        "commit_id,coverage_percent,complexity\nx (shallow history?),150,1\n",
        "2: coverage_percent out of [0,100] for commit x (shallow history?)",
    ),
    "commits": (
        json.dumps({
            "id": "c1", "author": "ann", "authored_at": "2015-01-05T10:00:00Z", "parents": [],
            "message": "", "files": [{"path": "a (shallow history?)", "added": -1, "deleted": 0}],
            "team": "alpha",
        }) + "\n",
        "1: lines_added < 0 for a (shallow history?)",
    ),
}


@pytest.mark.parametrize("kind", SHALLOW_SUFFIX_RECORDS)
def test_ingest_rejects_a_record_whose_message_ends_like_a_shallow_flag(tmp_path, capsys, kind):
    text, message = SHALLOW_SUFFIX_RECORDS[kind]
    bad = tmp_path / f"bad-{kind}"
    bad.write_text(text, encoding="utf-8")
    commits = bad if kind == "commits" else _generate(tmp_path) / "commits.ndjson"
    argv = ["ingest", "--commits", str(commits), "--out", str(tmp_path / "snap.json")]
    if kind == "stats":
        argv += ["--stats", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}:{message}\n"


def test_ingest_counts_shallow_parent_flags_and_exits_0(tmp_path, capsys):
    commits = tmp_path / "commits.ndjson"
    commits.write_text(json.dumps({
        "id": "c1", "author": "ann", "authored_at": "2015-01-05T10:00:00Z", "parents": ["c0"],
        "message": "", "files": [], "team": "alpha",
    }) + "\n", encoding="utf-8")
    assert main(["ingest", "--commits", str(commits), "--out", str(tmp_path / "snap.json")]) == 0
    assert "flags:     1" in capsys.readouterr().out


def test_lint_needs_now_when_the_history_ends_at_the_last_writable_second(tmp_path, capsys):
    snapshot = tmp_path / "snap.json"
    write_snapshot(snapshot, build_history(commits=[make_commit("c1", END_TS - 1)]))
    capsys.readouterr()
    assert main(["lint", "--project", str(snapshot)]) == 2
    assert "--now" in _one_error_line(capsys)
    assert main(["lint", "--project", str(snapshot), "--now", "9999-12-31T23:59:59Z",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["now"] == "9999-12-31T23:59:59Z"


@pytest.fixture(scope="module")
def small_exports(tmp_path_factory):
    """The five export files of a one-team, one-sprint fixture, as bytes."""
    work = tmp_path_factory.mktemp("exports")
    spec = _write_spec(work, developers_per_team=3, sprints=1, stories_per_sprint=1,
                       commits_per_dev_per_sprint=1, pulls_per_sprint=1)
    assert main(["generate", "--spec", str(spec), "--out-dir", str(work)]) == 0
    return {kind: (work / name).read_bytes() for kind, name in EXPORTS.items()}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(EXPORTS)), data=st.data())
def test_any_bytes_in_any_export_file_end_in_exit_0_or_2(tmp_path_factory, small_exports, kind, data):
    original = small_exports[kind]
    start = data.draw(st.integers(0, len(original)), label="start")
    end = data.draw(st.integers(start, len(original)), label="end")
    spliced = original[:start] + data.draw(st.binary(max_size=64), label="bytes") + original[end:]
    work = tmp_path_factory.mktemp("fuzz")
    sources = []
    for k, name in EXPORTS.items():
        (work / name).write_bytes(spliced if k == kind else small_exports[k])
        sources += [f"--{k}", str(work / name)]
    assert main(["ingest", *sources, "--out", str(work / "snap.json")]) in (0, 2)


def test_positioned_commits_error_is_not_hidden_by_stats_for_its_commits(tmp_path, capsys):
    out_dir = _generate(tmp_path)
    commits = out_dir / "commits.ndjson"
    commits.write_text("[[[\n", encoding="utf-8")
    capsys.readouterr()
    argv = ["ingest", "--commits", str(commits), "--stats", str(out_dir / "stats.csv"),
            "--out", str(tmp_path / "snap.json")]
    assert main(argv) == 2
    assert _one_error_line(capsys).startswith(f"error: {commits}:1: invalid JSON")


LONE_SURROGATE = "\ud800"


def _with_lone_surrogate(kind, tmp_path):
    """An otherwise valid document of `kind` with one lone surrogate escape in it."""
    out_dir = _generate(tmp_path / "source")
    if kind == "commits":
        lines = (out_dir / EXPORTS[kind]).read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["message"] = LONE_SURROGATE
        return "\n".join([json.dumps(first), *lines[1:]]) + "\n"
    if kind in EXPORTS:
        doc = json.loads((out_dir / EXPORTS[kind]).read_text(encoding="utf-8"))
        doc[0]["team"] = LONE_SURROGATE
    elif kind == "snapshot":
        doc = json.loads(_ingest(tmp_path, out_dir).read_text(encoding="utf-8"))
        doc["commits"]["message"][0] = LONE_SURROGATE
    elif kind == "config":
        doc = {"metrics": {"duplicate-stories": {"duplicate_label": LONE_SURROGATE}}}
    elif kind == "manifest":
        doc = {"commits": str(out_dir / EXPORTS["commits"]), "team_map": {"alpha": LONE_SURROGATE}}
    else:  # a spec and an injection hold no strings, so the escape goes in a key
        doc = {LONE_SURROGATE: 1}
    return json.dumps(doc)  # ensure_ascii writes the surrogate as the escape \ud800


@pytest.mark.parametrize("kind", [k for k in INPUT_KINDS if k != "stats"])
def test_lone_surrogate_escape_in_json_input_exits_2(tmp_path, capsys, kind):
    text = _with_lone_surrogate(kind, tmp_path)
    assert "\\ud800" in text
    # (the escape as written, as the error names it): JSON allows either case of hex digit
    for written, named in (("\\ud800", "\\ud800"), ("\\uDC00", "\\udc00")):
        work = tmp_path / named[2:]
        work.mkdir()
        argv, bad = _argv_reading(work, kind, text.replace("\\ud800", written).encode("ascii"))
        capsys.readouterr()
        assert main(argv) == 2
        where = f"{bad}:1: " if kind == "commits" else f"{bad} is not valid JSON: "
        assert f"{where}lone surrogate {named} is not valid Unicode text" in _one_error_line(capsys)
        if argv[0] == "ingest":
            assert not (work / "snap.json").exists()  # not even an empty one
