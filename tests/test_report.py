"""Report assembly: `--sprint` narrowing, markdown line breaks, canonical JSON and what rendering it holds,
and the cost of the per-sprint layers."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import pytest

from sprintlint import (
    MetricConfig,
    MetricResult,
    ReportCell,
    RunReport,
    Sprint,
    TeamSprintScore,
    UnfinishedStories,
    UserStory,
    Violation,
    build_history,
    build_report,
    default_registry,
    render_json,
    render_markdown,
    run_all,
    window,
)
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject, injection_from_dict, spec_from_dict
from sprintlint.report import VIOLATION_BATCH, history_horizon
from sprintlint.scoring import Contribution, SkippedMetric, aggregate
from sprintlint.serialize import canonical_json, parse_iso_utc
from conftest import DAY, T0, TEAM, collector_paused, make_commit, make_pull, make_story
from test_golden import ALL_DIRECTIVES

REGISTRY = default_registry()
CONFIG = MetricConfig()
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"


def _violation_dense_tiny():
    """The history of the violation-dense benchmark workload's miniature, at its default seed."""
    document = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    tiny = document["workloads"]["violation-dense"]["tiny"]
    spec = spec_from_dict(tiny["spec"])._replace(seed=document["default_seed"])
    return inject(generate(spec)[0], injection_from_dict(tiny["injection"]), spec.seed)[0]


def _cell_report(results):
    """A report of the one team-sprint all of `results` belong to, scored as `build_report` scores it."""
    cell = ReportCell(results[0].team, results[0].sprint, results, aggregate(results, REGISTRY, CONFIG), None)
    return RunReport(CONFIG, T0 + 2 * DAY, (cell,))


def _one_cell_report(violations: int):
    """A one-sprint history and a report whose one result holds `violations` last-minute commits."""
    history = build_history(sprints=[Sprint("s1", "Sprint 1", T0, T0 + DAY, TEAM)])
    found = [
        Violation([f"c{n}"], f"commit c{n} landed {n % 120} min before the deadline",
                  {"minutes_before_due": float(n % 120)})
        for n in range(violations)
    ]
    results = (MetricResult("last-minute-commits", TEAM, "s1", found, 0.0),)
    return history, _cell_report(results)


def _built(make_history):
    history = make_history()
    return history, build_report(history, REGISTRY, CONFIG)


REPORTS = {
    "twenty-sprints": lambda: _built(lambda: generate(FixtureSpec(teams=2, sprints=20))[0]),
    "violation-dense-tiny": lambda: _built(_violation_dense_tiny),
    "one-cell-of-5000-violations": lambda: _one_cell_report(5000),
}


@pytest.mark.parametrize("make", REPORTS.values(), ids=list(REPORTS))
def test_render_json_holds_no_whole_copy_of_the_report(make):
    history, report = make()
    with collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rendered = render_json(report, history)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert any(cell.results for cell in report.cells)
    # the whole report document, then its text and a copy with the newline, peaked near 10 times the text;
    # one encoder call over the row of 5,000 violations, over 7 times
    assert peak < 4 * len(rendered)


def _reports():
    clean = generate(FixtureSpec(teams=2, sprints=3))[0]
    injected = inject(clean, ALL_DIRECTIVES, 5)[0]
    title = injected.sprints[1].title
    yield "clean", clean, build_report(clean, REGISTRY, CONFIG)
    yield "injected", injected, build_report(injected, REGISTRY, CONFIG)
    yield "narrowed", injected, build_report(injected, REGISTRY, CONFIG, sprint_title=title)
    # more violations in one result than one batch holds, and a last batch that is not full
    yield "batched", *_one_cell_report(2 * VIOLATION_BATCH + 1)
    empty = build_history()
    yield "no-results", empty, build_report(empty, REGISTRY, CONFIG)


def test_render_json_writes_canonical_json():
    for name, history, report in _reports():
        rendered = render_json(report, history)
        assert canonical_json(json.loads(rendered)) + "\n" == rendered, name
        assert any(cell.results for cell in report.cells) == (name != "no-results"), name
    assert '"results":[],"scores":[],"tool"' in rendered and '"unfinished_stories":[],' in rendered


def test_each_json_row_holds_its_value_objects_fields():
    # a field added to a value class shows here by name, not only as a golden byte mismatch
    expected = {
        "results": {*MetricResult._fields, "sprint_title"} - {"error_type"},
        "violations": set(Violation._fields),
        "scores": {*TeamSprintScore._fields, "sprint_title"},
        "contributions": set(Contribution._fields),
        "skipped": set(SkippedMetric._fields),
        "unfinished_stories": set(UnfinishedStories._fields),
    }
    seen = dict.fromkeys(expected, 0)

    def check(kind, rows):
        for row in rows:
            assert set(row) == expected[kind], kind
            seen[kind] += 1

    # the generated reports skip no metric, so one more report holds a skipped result
    one_sprint = build_history(sprints=[Sprint("s1", "Sprint 1", T0, T0 + DAY, TEAM)])
    results = (
        MetricResult("huge-stories", TEAM, "s1", [Violation(["#1"], "story #1 is huge")], 75.0),
        MetricResult("duplicate-stories", TEAM, "s1", (), None, diagnostic="no stories"),
    )
    skipping = _cell_report(results)
    for _, history, report in [*_reports(), ("skipping", one_sprint, skipping)]:
        document = json.loads(render_json(report, history))
        check("results", document["results"])
        check("scores", document["scores"])
        check("unfinished_stories", document["unfinished_stories"])
        for row in document["results"]:
            check("violations", row["violations"])
        for row in document["scores"]:
            check("contributions", row["contributions"])
            check("skipped", row["skipped"])
    assert all(seen.values()), seen


def _one_stamp_history(kind):
    """A history whose one last event is of stamp `kind`."""
    last = T0 + 30 * DAY
    sprint = Sprint("s1", "Sprint 1", T0, last if kind == "due_on" else T0 + DAY, TEAM)
    story = make_story(
        1,
        state="open" if kind == "story created" else "closed",
        created=last if kind == "story created" else T0 - DAY,
        closed=last if kind == "story closed" else None,
    )
    commit = make_commit("c1", last if kind == "commit" else T0 + 1.0)
    pull = make_pull(
        1,
        opened=last if kind == "pull opened" else T0 + 1.0,
        closed=last if kind == "pull closed" else None,
    )
    return build_history(commits=[commit], stories=[story], sprints=[sprint], pulls=[pull])


def test_history_horizon_of_an_empty_history_is_one_second_past_the_epoch():
    assert history_horizon(build_history()) == 1.0


def test_history_horizon_of_a_history_that_ends_before_1970_is_one_second_past_its_last_event():
    due = parse_iso_utc("1960-01-15T00:00:00Z")
    sprint = Sprint("s1", "Sprint 1", parse_iso_utc("1960-01-01T00:00:00Z"), due, TEAM)
    history = build_history(commits=[make_commit("c1", parse_iso_utc("1960-01-05T00:00:00Z"))], sprints=[sprint])
    # every stamp is negative, so a 0.0 floor under them would give 1970-01-01T00:00:01Z
    assert history_horizon(history) == due + 1.0
    assert build_report(history, REGISTRY, CONFIG).now == due + 1.0


@pytest.mark.parametrize(
    "kind", ["due_on", "commit", "story created", "story closed", "pull opened", "pull closed"]
)
def test_history_horizon_is_one_second_past_the_last_stamp_of_any_kind(kind):
    assert history_horizon(_one_stamp_history(kind)) == T0 + 30 * DAY + 1.0


def test_sprint_narrowed_report_equals_full_report_rows():
    clean, _ = generate(FixtureSpec(teams=2, sprints=4))
    history, _ = inject(
        clean,
        InjectionSpec(neverending_stories=(2, 3), last_minute_commits=3, silent_fast_pulls=2),
        seed=7,
    )
    full = json.loads(render_json(build_report(history, REGISTRY, CONFIG), history))
    for title in sorted({s.title for s in history.sprints}):
        narrowed = json.loads(
            render_json(build_report(history, REGISTRY, CONFIG, sprint_title=title), history)
        )
        for key in ("results", "scores", "unfinished_stories"):
            expected = [row for row in full[key] if row["sprint_title"] == title]
            assert expected and narrowed[key] == expected, (title, key)


def test_markdown_writes_line_breaks_in_export_text_as_escapes():
    history = build_history(sprints=[Sprint("s1", "Sprint 1\n## Team mallory", T0, T0 + DAY, TEAM)])
    violation = Violation(["#1\n## Team eve", "#2\r"], "story #1\nis huge")
    result = MetricResult("huge-stories", TEAM, "s1", [violation], 75.0)
    markdown = render_markdown(_cell_report((result,)), history, REGISTRY)
    lines = markdown.split("\n")
    assert [line for line in lines if line.startswith("## ")] == [f"## Team {TEAM}"]
    assert "### Sprint 1\\n## Team mallory (s1)" in lines
    assert "- huge-stories: story #1\\nis huge [#1\\n## Team eve, #2\\r]" in lines
    assert "\r" not in markdown


def test_overlapping_sprints_and_records_in_no_window_or_in_two_are_flagged_in_both_reports():
    # s1 and s2 overlap from day 5 to 10; a commit at day 7 falls in both, at days 17 and 40 in none
    sprints = [Sprint(f"s{n}", f"Sprint {n}", T0 + start * DAY, T0 + (start + 10) * DAY, TEAM)
               for n, start in ((1, 0), (2, 5), (3, 20))]
    commits = [make_commit(f"c{day}", T0 + day * DAY + 1) for day in (0, 7, 17, 40)]
    pulls = [make_pull(1, T0 + 7 * DAY + 1), make_pull(2, T0 + 25 * DAY)]
    history = build_history(commits=commits, sprints=sprints, pulls=pulls)
    flags = [
        ("overlapping-sprints", f"sprints s1 and s2 of team {TEAM} overlap"),
        ("no-sprint-window", f"team {TEAM} has 2 of 4 commits in no sprint window"),
        ("many-sprint-windows", f"team {TEAM} has 1 of 4 commits in more than one sprint window"),
        ("many-sprint-windows", f"team {TEAM} has 1 of 2 pull requests in more than one sprint window"),
    ]
    assert [(d.kind, d.text) for d in history.diagnostics] == flags
    # the records are flagged, not rejected: `window` still counts the day-7 commit in both sprints
    assert [c.id for c in window(history, TEAM, "s1").commits] == ["c0", "c7"]
    assert [c.id for c in window(history, TEAM, "s2").commits] == ["c7"]
    report = build_report(history, REGISTRY, CONFIG)
    assert json.loads(render_json(report, history))["diagnostics"] == [text for _, text in flags]
    markdown = render_markdown(report, history, REGISTRY)
    listed = "".join(f"- {text}\n" for _, text in flags)
    assert f"## Diagnostics\n\n{listed}\n" in markdown


def test_run_all_evaluates_only_the_requested_sprints():
    history, _ = generate(FixtureSpec(teams=2, sprints=3))
    wanted = {history.sprints_of(team)[1].id for team in history.teams}
    results = run_all(REGISTRY, history, CONFIG, sprint_ids=wanted)
    assert {r.sprint for r in results} == wanted
    assert results == [r for r in run_all(REGISTRY, history, CONFIG) if r.sprint in wanted]


def test_per_sprint_layers_do_not_rescan_history(monkeypatch):
    history, _ = generate(FixtureSpec(teams=2, sprints=60))
    reads = 0
    memberships = UserStory.sprint_memberships

    def counted(story):
        nonlocal reads
        reads += 1
        return memberships.fget(story)

    monkeypatch.setattr(UserStory, "sprint_memberships", property(counted))
    run_all(REGISTRY, history, CONFIG)
    build_report(history, REGISTRY, CONFIG)
    total_memberships = sum(len(s.milestones) for s in history.stories)
    # linear in the stories and their memberships; a rescan per sprint reads
    # every story of the team once for each of its 60 sprints
    assert reads <= 3 * (len(history.stories) + total_memberships)
