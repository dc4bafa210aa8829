"""Core model: record invariants, history assembly, and the sprint window."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import math
import pickle
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sprintlint
from sprintlint import (
    BuildStats,
    Commit,
    Diagnostic,
    FileChange,
    FileEditProfile,
    Finding,
    FixtureCertificate,
    HistoryError,
    InfeasibleFixtureError,
    IngestManifest,
    InjectionRecord,
    MetricConfig,
    MetricDescriptor,
    MetricResult,
    ProjectHistory,
    RecordError,
    PullRequest,
    ReportCell,
    RunReport,
    Severity,
    Sprint,
    SprintMembership,
    SprintSlice,
    StoryState,
    TeamSprintScore,
    TrendSeries,
    UnfinishedStories,
    UnknownSprintError,
    UserStory,
    Violation,
    build_history,
    detect_multi_backlog,
    unfinished_stories,
    window,
)
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject
from sprintlint.ingest import ParseIssue, _Column
from sprintlint.model import _Record
from sprintlint.scoring import Contribution, SkippedMetric, TrendPoint
from conftest import DAY, T0, TEAM, change, make_commit, make_pull, make_sprint, make_story
from test_golden import ALL_DIRECTIVES


def test_empty_history():
    history = build_history()
    assert history.teams == ()
    assert history.commits == ()
    assert history.developers == {}


def test_single_commit_derives_team_and_developer():
    commit = make_commit("c1", T0, author="Ann@Example.ORG", team="A")
    history = build_history(commits=[commit])
    assert history.teams == ("A",)
    assert history.developers["A"] == frozenset({"ann@example.org"})


def test_constructor_rejects_duplicate_keys():
    commit, sprint = make_commit("c1", T0), make_sprint()
    with pytest.raises(HistoryError, match="^duplicate commit id 'c1'$"):
        ProjectHistory(commits=(commit, commit))
    with pytest.raises(HistoryError, match="^duplicate sprint id 's1'$"):
        ProjectHistory(sprints=(sprint, sprint))


def test_constructor_reports_a_duplicate_before_a_dangling_reference():
    stories = (make_story(1, sprints=("ghost",)), make_story(2), make_story(2))
    with pytest.raises(HistoryError, match="^duplicate story #2 for team"):
        ProjectHistory(stories=stories, sprints=(make_sprint(),))


def test_constructor_derives_teams_and_developers():
    commit = make_commit("c1", T0, author="Ann@Example.ORG", team="A")
    history = ProjectHistory(commits=(commit,))
    assert history.teams == ("A",)
    assert history.developers == {"A": frozenset({"ann@example.org"})}


def test_history_is_immutable_unhashable_and_equal_by_its_records():
    sprint = make_sprint()
    commits = [make_commit(f"c{i}", T0 + i) for i in range(8)]
    history = build_history(commits=commits, sprints=[sprint])
    for name in ("commits", "teams", "_time_indexes", "extra"):
        with pytest.raises(AttributeError):
            setattr(history, name, None)
    with pytest.raises(AttributeError):
        del history.commits
    with pytest.raises(TypeError, match="unhashable"):
        hash(history)
    random.Random(5).shuffle(commits)
    assert ProjectHistory(commits=commits, sprints=[sprint]) == history
    assert history != build_history(commits=commits[1:], sprints=[sprint])
    assert history != history.records() and not history == history.records()
    assert repr(history).startswith("ProjectHistory(commits=(Commit(id='c0', ")
    for twin in (copy.copy(history), pickle.loads(pickle.dumps(history))):
        assert twin == history and window(twin, TEAM, "s1") == window(history, TEAM, "s1")


def test_records_rebuild_the_same_history():
    spec = FixtureSpec(teams=2, sprints=2)
    history, _ = inject(generate(spec)[0], ALL_DIRECTIVES, spec.seed)
    assert ProjectHistory(*history.records()) == history == build_history(*history.records())


def test_listing_style_fixture_counts_ten_stories(past_due_backlog):
    slice_ = window(past_due_backlog, TEAM, "s12")
    assert len(slice_.stories) == 10


def test_duplicate_commit_id_rejected():
    commits = [make_commit("c1", T0), make_commit("c1", T0 + 1)]
    with pytest.raises(HistoryError, match="c1"):
        build_history(commits=commits)


def test_duplicate_story_number_per_team_rejected():
    sprint = make_sprint()
    stories = [make_story(7), make_story(7)]
    with pytest.raises(HistoryError, match="#7"):
        build_history(stories=stories, sprints=[sprint])


def test_same_story_number_on_two_teams_allowed():
    sprints = [make_sprint("s1", team="a"), make_sprint("s2", team="b")]
    stories = [make_story(7, sprints=("s1",), team="a"), make_story(7, sprints=("s2",), team="b")]
    history = build_history(stories=stories, sprints=sprints)
    assert len(history.stories) == 2


def test_story_referencing_unknown_sprint_rejected():
    with pytest.raises(HistoryError, match="unknown sprint"):
        build_history(stories=[make_story(1, sprints=("ghost",))])


def test_stats_referencing_unknown_commit_rejected():
    stats = [BuildStats(commit_id="nope", coverage_percent=10.0, complexity=1.0)]
    with pytest.raises(HistoryError, match="nope"):
        build_history(build_stats=stats)


def test_unknown_parent_is_flagged_not_fatal():
    commit = make_commit("c2", T0, parents=("missing",))
    history = build_history(commits=[commit])
    assert any("missing" in d.text and "shallow" in d.text for d in history.diagnostics)


# sprint bounds and record stamps on a few whole days, so windows often meet, overlap or leave gaps
DAYS = st.integers(0, 6).map(lambda day: T0 + day * DAY)


@settings(max_examples=100, deadline=None)
@given(bounds=st.lists(st.lists(DAYS, min_size=2, max_size=2, unique=True).map(sorted), max_size=4),
       commit_days=st.lists(DAYS, max_size=6), pull_days=st.lists(DAYS, max_size=3))
def test_window_flags_count_each_record_by_the_windows_that_hold_it(bounds, commit_days, pull_days):
    sprints = [make_sprint(f"s{n}", start=start, days=(due - start) / DAY) for n, (start, due) in enumerate(bounds)]
    commits = [make_commit(f"c{n}", day) for n, day in enumerate(commit_days)]
    pulls = [make_pull(n + 1, day) for n, day in enumerate(pull_days)]
    history = build_history(commits=commits, sprints=sprints, pulls=pulls)
    expected = [("overlapping-sprints", f"sprints {a.id} and {b.id} of team {TEAM} overlap")
                for a, b in sorted(((a, b) for a in sprints for b in sprints
                                    if (a.starts_at, a.id) < (b.starts_at, b.id) and b.starts_at < a.due_on),
                                   key=lambda pair: [(s.starts_at, s.id) for s in pair])]
    if sprints:
        for what, field, records in (("commits", "commits", commits), ("pull requests", "pulls", pulls)):
            # how many of the windows `window` cuts hold each record
            cuts = [getattr(window(history, TEAM, s.id), field) for s in sprints]
            held = [sum(record in cut for cut in cuts) for record in records]
            outside, shared = held.count(0), sum(n > 1 for n in held)
            if outside:
                expected.append(("no-sprint-window",
                                 f"team {TEAM} has {outside} of {len(records)} {what} in no sprint window"))
            if shared:
                expected.append(("many-sprint-windows",
                                 f"team {TEAM} has {shared} of {len(records)} {what} in more than one sprint window"))
    assert [(d.kind, d.text) for d in history.diagnostics] == expected


def test_record_order_does_not_matter():
    sprint = make_sprint()
    commits = [make_commit(f"c{i}", T0 + i) for i in range(20)]
    stories = [make_story(i + 1) for i in range(5)]
    rng = random.Random(3)
    shuffled_commits = commits[:]
    shuffled_stories = stories[:]
    rng.shuffle(shuffled_commits)
    rng.shuffle(shuffled_stories)
    a = build_history(commits=commits, stories=stories, sprints=[sprint])
    b = build_history(commits=shuffled_commits, stories=shuffled_stories, sprints=[sprint])
    assert a == b


def test_window_empty_sprint():
    sprint = make_sprint()
    history = build_history(sprints=[sprint])
    slice_ = window(history, TEAM, "s1")
    assert slice_.commits == () and slice_.stories == () and slice_.pulls == ()


def test_window_includes_commit_exactly_at_due_on():
    sprint = make_sprint(days=14.0)
    at_due = make_commit("c-due", sprint.due_on)
    inside = make_commit("c-in", sprint.starts_at + 1.0)
    at_start = make_commit("c-start", sprint.starts_at)
    after = make_commit("c-out", sprint.due_on + 1.0)
    history = build_history(commits=[at_due, inside, at_start, after], sprints=[sprint])
    got = {c.id for c in window(history, TEAM, "s1").commits}
    assert got == {"c-due", "c-in"}


def test_window_matches_linear_scan_oracle():
    sprint = make_sprint(start=T0, days=2.0)
    rng = random.Random(11)
    commits = [
        make_commit(f"c{i}", T0 + rng.uniform(-5 * DAY, 5 * DAY)) for i in range(20)
    ]
    history = build_history(commits=commits, sprints=[sprint])
    expected = sorted(
        c.id for c in commits if sprint.starts_at <= c.authored_at <= sprint.due_on
    )
    got = sorted(c.id for c in window(history, TEAM, "s1").commits)
    assert got == expected
    assert len(got) > 0  # seed chosen so some commits land inside


def test_window_unknown_sprint_raises():
    history = build_history(sprints=[make_sprint()])
    with pytest.raises(UnknownSprintError):
        window(history, TEAM, "ghost")


def test_window_wrong_team_raises():
    history = build_history(sprints=[make_sprint(team="a")])
    with pytest.raises(UnknownSprintError):
        window(history, "b", "s1")


@given(
    offsets=st.lists(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False), max_size=40)
)
def test_window_is_subset_of_history(offsets):
    sprint = make_sprint(days=10.0)
    commits = [make_commit(f"c{i}", T0 + off * DAY) for i, off in enumerate(offsets)]
    history = build_history(commits=commits, sprints=[sprint])
    slice_ = window(history, TEAM, "s1")
    assert set(slice_.commits) <= set(history.commits)
    brute = {c.id for c in commits if sprint.starts_at < c.authored_at <= sprint.due_on}
    assert {c.id for c in slice_.commits} == brute


# --- the indexed per-sprint lookups against linear scans of the whole history --

SPRINT_DAYS = 2.0
TEAMS = ("a", "b")


def scan_window(history, team, sprint_id):
    sprint = history.sprint(sprint_id)
    lo, hi = sprint.starts_at, sprint.due_on
    return (
        tuple(c for c in history.commits if c.team == team and lo < c.authored_at <= hi),
        tuple(s for s in history.stories if s.team == team and sprint_id in s.sprint_memberships),
        tuple(p for p in history.pulls if p.team == team and lo < p.opened_at <= hi),
    )


def scan_multi_backlog(history, sprint, threshold):
    """(backlog size, [(artifact, memberships up to this sprint)] over the limit)."""
    backlog = [
        s for s in history.stories if s.team == sprint.team and sprint.id in s.sprint_memberships
    ]
    flagged = []
    for story in backlog:
        count = sum(
            1 for sid in story.sprint_memberships if history.sprint(sid).due_on <= sprint.due_on
        )
        if count > threshold:
            flagged.append((f"#{story.number}", count))
    return len(backlog), flagged


def scan_unfinished(history, sprint_id, now):
    sprint = history.sprint(sprint_id)
    if sprint.due_on >= now:
        return None
    backlog = [
        s for s in history.stories if s.team == sprint.team and sprint_id in s.sprint_memberships
    ]
    open_numbers = tuple(sorted(s.number for s in backlog if s.state is StoryState.OPEN))
    return len(open_numbers), open_numbers, len(backlog)


# Half-day steps put many records on one instant, and every sprint boundary
# (back-to-back sprints share one) is a step; the offsets add near misses.
instants = st.builds(
    lambda step, offset: T0 + step * DAY / 2 + offset,
    st.integers(min_value=-2, max_value=14),
    st.sampled_from((-1.0, 0.0, 0.0, 0.0, 1.0)),
)


@st.composite
def histories(draw):
    sprints = [
        make_sprint(f"{team}{k}", team=team, start=T0 + k * SPRINT_DAYS * DAY, days=SPRINT_DAYS)
        for team in TEAMS
        for k in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    sprint_ids = [s.id for s in sprints]
    commits = [
        make_commit(f"c{i:02d}", when, team=team)
        for i, (team, when) in enumerate(
            draw(st.lists(st.tuples(st.sampled_from(TEAMS), instants), max_size=30))
        )
    ]
    pulls = [
        make_pull(i + 1, when, team=team)
        for i, (team, when) in enumerate(
            draw(st.lists(st.tuples(st.sampled_from(TEAMS), instants), max_size=15))
        )
    ]
    # a story may list sprints of the other team, which must not put it in their backlog
    stories = [
        make_story(
            i + 1,
            sprints=tuple(members),
            team=team,
            state=state,
        )
        for i, (team, members, state) in enumerate(
            draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(TEAMS),
                        st.lists(st.sampled_from(sprint_ids), unique=True, max_size=4),
                        st.sampled_from(("open", "closed")),
                    ),
                    max_size=12,
                )
            )
        )
    ]
    return build_history(commits=commits, stories=stories, sprints=sprints, pulls=pulls)


@settings(max_examples=150, deadline=None)
@given(history=histories())
def test_indexed_lookups_match_linear_scans(history):
    check_settings = MetricConfig().for_metric("multi-backlog-stories")
    threshold = check_settings["threshold_amount"]
    nows = (T0 + 3 * DAY, T0 + 100 * DAY)
    for team in history.teams:
        assert history.sprints_of(team) == tuple(
            sorted((s for s in history.sprints if s.team == team), key=lambda s: (s.due_on, s.id))
        )
        for sprint in history.sprints_of(team):
            slice_ = window(history, team, sprint.id)
            assert (slice_.commits, slice_.stories, slice_.pulls) == scan_window(history, team, sprint.id)

            result = detect_multi_backlog(slice_, check_settings)
            got = [(v.artifacts[0], v.numeric_detail["sprint_count"]) for v in result.violations]
            assert (result.inputs_echo.get("total_stories", 0), got) == scan_multi_backlog(
                history, sprint, threshold
            )

            for now in nows:
                block = unfinished_stories(history, sprint.id, now)
                got = None if block is None else (block.amount, block.story_numbers, block.total)
                assert got == scan_unfinished(history, sprint.id, now)


def test_each_record_at_a_sprint_boundary_lands_in_the_sprint_the_half_open_rule_names():
    # (starts_at, due_on]: the meeting instant is the earlier sprint's, the first start is no sprint's
    first = make_sprint("s1", start=T0, days=SPRINT_DAYS)
    second = make_sprint("s2", start=first.due_on, days=SPRINT_DAYS)
    commits = [make_commit("c-meet", first.due_on), make_commit("c-start", T0), make_commit("c-due", second.due_on)]
    pulls = [make_pull(1, first.due_on), make_pull(2, T0), make_pull(3, second.due_on)]
    history = build_history(commits=commits, sprints=[first, second], pulls=pulls)
    in_first, in_second = window(history, TEAM, "s1"), window(history, TEAM, "s2")
    assert [c.id for c in in_first.commits] == ["c-meet"] and [c.id for c in in_second.commits] == ["c-due"]
    assert [p.number for p in in_first.pulls] == [1] and [p.number for p in in_second.pulls] == [3]


def test_metric_result_rejects_out_of_range_score():
    with pytest.raises(RecordError):
        MetricResult(metric="m", team="t", sprint="s", violations=(), score=101.0)
    with pytest.raises(RecordError):
        MetricResult(metric="m", team="t", sprint="s", violations=(), score=-0.5)


def test_record_level_invariants():
    with pytest.raises(RecordError):
        BuildStats(commit_id="c", coverage_percent=101.0, complexity=0.0)
    with pytest.raises(RecordError):
        # closed story must carry closed_at
        from sprintlint import StoryState, UserStory

        UserStory(
            number=1, title="t", body="", state=StoryState.CLOSED, labels=frozenset(),
            milestones=(), assignees=frozenset(), created_at=T0, closed_at=None, team=TEAM,
        )
    with pytest.raises(RecordError):
        make_sprint(days=0.0)
    with pytest.raises(RecordError):
        make_pull(1, opened=T0, closed=T0 - 1.0)
    with pytest.raises(RecordError):
        change("src/a.py", added=-1)
    with pytest.raises(RecordError, match="severity must be a Severity, got 'bogus'"):
        MetricDescriptor("huge-stories", "bogus", "")


# (how the message names the record, field, a builder putting a value in that field)
NON_FINITE_CASES = {
    "UserStory.created_at": ("story #1", lambda t: make_story(1, sprints=(), created=t)),
    "UserStory.closed_at": ("story #1", lambda t: make_story(1, closed=t)),
    "PullRequest.opened_at": ("pull request #1", lambda t: make_pull(1, opened=t)),
    "PullRequest.closed_at": ("pull request #1", lambda t: make_pull(1, opened=T0, closed=t)),
    "Sprint.starts_at": ("sprint s1", lambda t: Sprint("s1", "S", t, T0, TEAM)),
    "Sprint.due_on": ("sprint s1", lambda t: Sprint("s1", "S", T0, t, TEAM)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_records_reject_non_finite_timestamps(case, value):
    record, build = NON_FINITE_CASES[case]
    field_name = case.partition(".")[2]
    with pytest.raises(RecordError, match=f"^{record} {field_name} must be a finite timestamp$"):
        build(value)


def test_author_is_lowercased():
    commit = make_commit("c1", T0, author="MiXeD@Case.Org")
    assert commit.author == "mixed@case.org"


def _unshared(text: str) -> str:
    """A string equal to `text` that is a new object, as a JSON decoder makes one per occurrence."""
    return "".join(list(text))


def test_records_share_equal_teams_authors_and_paths():
    first = make_commit("c1", T0, author=_unshared("Ann@x.org"), files=[change(_unshared("src/a.py"))],
                        team=_unshared("team-x"))
    second = make_commit("c2", T0, author=_unshared("ann@X.org"), files=[change(_unshared("src/a.py"))],
                         team=_unshared("team-x"))
    assert first.author is second.author and first.team is second.team
    assert first.files[0].path is second.files[0].path
    for record in (make_sprint(team=_unshared("team-x")), make_story(1, team=_unshared("team-x")),
                   make_pull(1, T0, team=_unshared("team-x"))):
        assert record.team is first.team


class _Name(str):
    """A string subclass, which `sys.intern` refuses."""


# a team, author or path that is no plain string is kept as given, as before records shared strings
@pytest.mark.parametrize("value", [_Name("team-x"), 7], ids=["str-subclass", "int"])
def test_records_keep_a_team_or_path_that_is_no_plain_string(value):
    assert make_commit("c1", T0, team=value).team is value
    assert make_sprint(team=value).team is value
    assert make_story(1, team=value).team is value
    assert make_pull(1, T0, team=value).team is value
    assert change(value).path is value
    author = make_commit("c1", T0, author=_Name("Ann@x.org")).author
    assert author == "ann@x.org" and type(author) is str


# one record of each export kind, built from arguments its constructor normalises
RECORDS = {
    FileChange: lambda: FileChange("src/a.py", 3, 1),
    Commit: lambda: Commit("c1", "Ann@Example.ORG", int(T0), ["p0"], "m", [FileChange("src/a.py", 3, 1)], TEAM),
    BuildStats: lambda: BuildStats("c1", 50.0, 2.0),
    SprintMembership: lambda: SprintMembership("s1", int(T0)),
    UserStory: lambda: UserStory(
        1, "t", "b", StoryState.CLOSED, ["bug"], [SprintMembership("s1", T0)], ["Ann"], T0, T0 + DAY, TEAM,
    ),
    Sprint: lambda: make_sprint(),
    PullRequest: lambda: make_pull(1, T0, T0 + DAY, comments=2, merged=True),
}


def _violation() -> Violation:
    return Violation(["#1"], "d", {"length": 5})


def _result() -> MetricResult:
    return MetricResult("huge-stories", TEAM, "s1", [_violation()], 75.0, {"violations": 1})


def _score() -> TeamSprintScore:
    contribution = Contribution("huge-stories", 75.0, Severity.LOW, 2.0, 1.0)
    return TeamSprintScore(TEAM, "s1", 75.0, (contribution,), (SkippedMetric("test-later", "no stats"),))


def _cell() -> ReportCell:
    return ReportCell(TEAM, "s1", (_result(),), _score(), UnfinishedStories(TEAM, "s1", "S", 0, (), 0, None))


# one result or value object of each class, built from arguments its constructor normalises where it has one
VALUES = {
    MetricDescriptor: lambda: MetricDescriptor("huge-stories", Severity.LOW, "pitfalls"),
    Violation: _violation,
    MetricResult: _result,
    FileEditProfile: lambda: FileEditProfile("src/a.py", 3, frozenset({"ann"})),
    UnfinishedStories: lambda: UnfinishedStories(TEAM, "s1", "Sprint 1", 1, (2,), 4, 0.25),
    Contribution: lambda: _score().contributions[0],
    SkippedMetric: lambda: _score().skipped[0],
    TeamSprintScore: _score,
    TrendPoint: lambda: TrendPoint("s1", "Sprint 1", T0, None),
    TrendSeries: lambda: TrendSeries(TEAM, "overall", (TrendPoint("s1", "Sprint 1", T0, 75.0),)),
    ReportCell: _cell,
    RunReport: lambda: RunReport(MetricConfig(), T0, (_cell(),)),
    MetricConfig: lambda: MetricConfig({"huge-stories": {"weight": 5}}, {s.value: 1 for s in Severity}),
    ParseIssue: lambda: ParseIssue(3, "team", "team must be a string"),
    Diagnostic: lambda: Diagnostic("shallow-parent", "commit c1 parent c0 not in export (shallow history?)"),
    IngestManifest: lambda: IngestManifest({"commits": Path("c.ndjson")}, {"a": "alpha"}, {"Ann": "ann"}),
    _Column: lambda: _Column(str, list, list),
    InjectionRecord: lambda: InjectionRecord("huge-stories", TEAM, "s1", ("#1",)),
    FixtureCertificate: lambda: FixtureCertificate(42, "mt19937", 54, True, True, "0" * 64),
    Finding: lambda: Finding((_violation(),), 75.0, {"violations": 1}),
    SprintSlice: lambda: window(build_history(commits=[make_commit("c1", T0)], sprints=[make_sprint()]), TEAM, "s1"),
    FixtureSpec: lambda: FixtureSpec(seed=7, teams=1, sprint_length_days=3),
    InjectionSpec: lambda: InjectionSpec(hot_files=(1, 12, 2), huge_stories=(1, 12.0), last_minute_commits=3),
}
CHECKED_TUPLES = RECORDS | VALUES
# a dict field makes the whole object unhashable, as it made the frozen dataclasses it replaced
HOLD_A_DICT = {Violation, MetricResult, ReportCell, RunReport, MetricConfig, IngestManifest, Finding, SprintSlice}


def field_names(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", list(CHECKED_TUPLES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    record, names = CHECKED_TUPLES[cls](), field_names(cls)
    assert names == list(cls._fields) and isinstance(record, _Record)
    values = tuple(getattr(record, name) for name in names)
    for name in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    twin = CHECKED_TUPLES[cls]()
    assert record == twin and not record != twin
    if cls in HOLD_A_DICT:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    assert record != values and values != record and not record == values and not values == record
    assert cls(**dict(zip(names, values))) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"


# the dataclasses left in the package, each for a reason a checked tuple cannot serve
DATACLASSES = {
    # the benchmark's tracer rebuilds each check with `dataclasses.replace` to wrap its detector
    "engine.RegisteredMetric",
}


def test_only_the_listed_classes_remain_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(sprintlint.__path__):
        module = importlib.import_module(f"sprintlint.{info.name}")
        found.update(
            f"{info.name}.{name}" for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value)
        )
    assert found == DATACLASSES


def test_records_of_two_kinds_never_compare_equal():
    change_, stats = FileChange("x", 1, 2), BuildStats("x", 1, 2)
    assert change_ != stats and stats != change_
    assert not change_ == stats and not stats == change_


def test_record_repr_names_each_field():
    assert repr(RECORDS[Commit]()) == (
        "Commit(id='c1', author='ann@example.org', authored_at=1420416000.0, parents=('p0',), "
        "message='m', files=(FileChange(path='src/a.py', lines_added=3, lines_deleted=1),), team='alpha')"
    )


def test_replace_and_make_run_the_constructor_checks():
    with pytest.raises(RecordError, match="^lines_added < 0 for a$"):
        FileChange("a", 1, 1)._replace(lines_added=-5)
    with pytest.raises(RecordError, match="^violation carries no artifacts$"):
        Violation(("a",), "d")._replace(artifacts=())
    with pytest.raises(RecordError, match=r"^huge-stories score 101.0 out of \[0,100\]$"):
        _result()._replace(score=101.0)
    with pytest.raises(InfeasibleFixtureError, match="^teams must be >= 0, got -1$"):
        FixtureSpec()._replace(teams=-1)
    assert _violation()._replace(artifacts=["#2"]).artifacts == ("#2",)
    commit = RECORDS[Commit]()
    assert commit._replace(author="ANN").author == "ann"
    assert commit._replace(parents=["p1"]).parents == ("p1",)
    assert Commit._make(commit) == commit
    with pytest.raises(RecordError, match="^commit id must be non-empty$"):
        Commit._make(("", *commit[1:]))


@pytest.mark.parametrize("cls", list(CHECKED_TUPLES), ids=lambda cls: cls.__name__)
def test_replace_with_no_change_rebuilds_an_equal_record(cls):
    record = CHECKED_TUPLES[cls]()
    assert record._replace() == record and type(record._replace()) is cls
