"""Immutable domain model for exported development data and metric results.

Everything here is constructed once (usually by the ingest module) and then
shared read-only by the detectors, the engine, and the scoring layer.
Timestamps are floats of UTC epoch seconds throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import HistoryError, RecordError, UnknownSprintError

SECONDS_PER_DAY = 86400.0


class StoryState(str, Enum):
    OPEN = "open"
    CLOSED = "closed"


class Severity(str, Enum):
    INFORMATIONAL = "informational"
    VERY_LOW = "very_low"
    LOW = "low"
    NORMAL = "normal"
    HIGH = "high"


@dataclass(frozen=True, slots=True)
class FileChange:
    """One file touched by a commit."""

    path: str
    lines_added: int
    lines_deleted: int

    def __post_init__(self) -> None:
        if not self.path:
            raise RecordError("file change path must be non-empty")
        if not self.lines_added >= 0:
            raise RecordError(f"lines_added < 0 for {self.path}")
        if not self.lines_deleted >= 0:
            raise RecordError(f"lines_deleted < 0 for {self.path}")


@dataclass(frozen=True, slots=True)
class Commit:
    id: str
    author: str
    authored_at: float
    parents: tuple[str, ...]
    message: str
    files: tuple[FileChange, ...]
    team: str

    def __post_init__(self) -> None:
        if not self.id:
            raise RecordError("commit id must be non-empty")
        if not self.team:
            raise RecordError(f"commit {self.id} has no team")
        if not self.author:
            raise RecordError(f"commit {self.id} has no author")
        object.__setattr__(self, "author", self.author.lower())
        authored_at = float(self.authored_at)
        if not math.isfinite(authored_at):
            raise RecordError(f"commit {self.id} authored_at must be a finite timestamp")
        object.__setattr__(self, "authored_at", authored_at)
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "files", tuple(self.files))


@dataclass(frozen=True, slots=True)
class BuildStats:
    """Per-commit coverage and complexity produced by external tooling."""

    commit_id: str
    coverage_percent: float
    complexity: float

    def __post_init__(self) -> None:
        if not self.commit_id:
            raise RecordError("build stats row has no commit id")
        if not 0.0 <= self.coverage_percent <= 100.0:
            raise RecordError(f"coverage_percent out of [0,100] for commit {self.commit_id}")
        if not self.complexity >= 0.0:
            raise RecordError(f"complexity < 0 for commit {self.commit_id}")


@dataclass(frozen=True, slots=True)
class SprintMembership:
    """One entry of a story's backlog-assignment history."""

    sprint_id: str
    assigned_at: float

    def __post_init__(self) -> None:
        if not self.sprint_id:
            raise RecordError("membership has no sprint id")
        assigned_at = float(self.assigned_at)
        if not math.isfinite(assigned_at):
            raise RecordError("membership assigned_at must be a finite timestamp")
        object.__setattr__(self, "assigned_at", assigned_at)


@dataclass(frozen=True, slots=True)
class UserStory:
    number: int
    title: str
    body: str
    state: StoryState
    labels: frozenset[str]
    milestones: tuple[SprintMembership, ...]
    assignees: frozenset[str]
    created_at: float
    closed_at: float | None
    team: str

    def __post_init__(self) -> None:
        if not self.number > 0:
            raise RecordError(f"story number must be positive, got {self.number}")
        if not self.team:
            raise RecordError(f"story #{self.number} has no team")
        if not math.isfinite(self.created_at):
            raise RecordError(f"story #{self.number} created_at must be a finite timestamp")
        if self.closed_at is not None and not math.isfinite(self.closed_at):
            raise RecordError(f"story #{self.number} closed_at must be a finite timestamp")
        object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "milestones", tuple(self.milestones))
        object.__setattr__(self, "assignees", frozenset(a.lower() for a in self.assignees))
        seen = [m.sprint_id for m in self.milestones]
        if len(seen) != len(set(seen)):
            raise RecordError(f"story #{self.number} ({self.team}) has duplicate sprint memberships")
        if self.state is StoryState.CLOSED:
            if self.closed_at is None:
                raise RecordError(f"closed story #{self.number} lacks closed_at")
        elif self.closed_at is not None:
            raise RecordError(f"open story #{self.number} carries closed_at")

    @property
    def sprint_memberships(self) -> tuple[str, ...]:
        """Sprint ids the story was assigned to, in assignment order."""
        return tuple(m.sprint_id for m in self.milestones)


@dataclass(frozen=True, slots=True)
class Sprint:
    id: str
    title: str
    starts_at: float
    due_on: float
    team: str

    def __post_init__(self) -> None:
        if not self.id:
            raise RecordError("sprint id must be non-empty")
        if not self.team:
            raise RecordError(f"sprint {self.id} has no team")
        if not math.isfinite(self.starts_at):
            raise RecordError(f"sprint {self.id} starts_at must be a finite timestamp")
        if not math.isfinite(self.due_on):
            raise RecordError(f"sprint {self.id} due_on must be a finite timestamp")
        if not self.starts_at < self.due_on:
            raise RecordError(f"sprint {self.id} must start before it is due")

    @property
    def length_days(self) -> float:
        return (self.due_on - self.starts_at) / SECONDS_PER_DAY


@dataclass(frozen=True, slots=True)
class PullRequest:
    number: int
    opened_at: float
    closed_at: float | None
    merged: bool
    comment_count: int
    team: str

    def __post_init__(self) -> None:
        if not self.number > 0:
            raise RecordError(f"pull request number must be positive, got {self.number}")
        if not self.team:
            raise RecordError(f"pull request #{self.number} has no team")
        if not math.isfinite(self.opened_at):
            raise RecordError(f"pull request #{self.number} opened_at must be a finite timestamp")
        if self.closed_at is not None and not math.isfinite(self.closed_at):
            raise RecordError(f"pull request #{self.number} closed_at must be a finite timestamp")
        if not self.comment_count >= 0:
            raise RecordError(f"pull request #{self.number} comment_count < 0")
        if self.merged and self.closed_at is None:
            raise RecordError(f"merged pull request #{self.number} lacks closed_at")
        if self.closed_at is not None and not self.closed_at >= self.opened_at:
            raise RecordError(f"pull request #{self.number} closed before it was opened")


@dataclass(frozen=True)
class MetricDescriptor:
    """The reusable definition of one conformance check, independent of any run."""

    name: str
    severity: Severity
    pitfalls: str

    def __post_init__(self) -> None:
        if not self.name:
            raise RecordError("metric descriptor needs a name")


@dataclass(frozen=True)
class Violation:
    """A pattern in the data that does not comply with the checked practice."""

    artifacts: tuple[str, ...]
    detail: str
    numeric_detail: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "artifacts", tuple(self.artifacts))
        if not self.artifacts:
            raise RecordError("violation carries no artifacts")
        object.__setattr__(self, "numeric_detail", dict(self.numeric_detail))


class Finding(NamedTuple):
    """What one detector found in one team-sprint.

    The fields are `MetricResult`'s after `sprint`, in order; the engine adds the rest.
    """

    violations: tuple[Violation, ...]
    score: float | None
    inputs_echo: Mapping[str, float] = {}
    diagnostic: str | None = None


@dataclass(frozen=True)
class MetricResult:
    """Outcome of one metric for one team-sprint.

    `score` is None when the metric was not applicable (e.g. no stories in
    the sprint); `diagnostic` then says why. Scores are kept unrounded here;
    reports round for display.
    """

    metric: str
    team: str
    sprint: str
    violations: tuple[Violation, ...]
    score: float | None
    inputs_echo: Mapping[str, float] = field(default_factory=dict)
    diagnostic: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))
        object.__setattr__(self, "inputs_echo", dict(self.inputs_echo))
        if self.score is not None and not 0.0 <= self.score <= 100.0:
            raise RecordError(f"{self.metric} score {self.score} out of [0,100]")


class _TimeIndex:
    """Records sorted by a timestamp, for cutting out closed time intervals."""

    def __init__(self, records: Sequence, stamp: Callable[[object], float]) -> None:
        self._records = records
        stamps = [stamp(record) for record in records]
        self._order = sorted(range(len(records)), key=stamps.__getitem__)
        self._stamps = [stamps[i] for i in self._order]

    def between(self, lo: float, hi: float) -> tuple:
        """Records stamped within [lo, hi], in their original order."""
        cut = self._order[bisect_left(self._stamps, lo) : bisect_right(self._stamps, hi)]
        cut.sort()
        return tuple(self._records[i] for i in cut)


@dataclass(frozen=True)
class SprintSlice:
    """Everything a detector sees of one team-sprint.

    The sprint (its `team` is the slice's team), the team's artifacts in the
    sprint window and its developers, plus the history's own build-stats and
    sprint lookups, shared rather than copied.
    """

    sprint: Sprint
    commits: tuple[Commit, ...]
    stories: tuple[UserStory, ...]
    pulls: tuple[PullRequest, ...]
    developers: frozenset[str]
    stats_by_commit: Mapping[str, BuildStats] = field(repr=False, compare=False)
    sprints_by_id: Mapping[str, Sprint] = field(repr=False, compare=False)


@dataclass(frozen=True)
class ProjectHistory:
    """Validated, immutable snapshot of every record in an export."""

    teams: tuple[str, ...]
    developers: Mapping[str, frozenset[str]]
    sprints: tuple[Sprint, ...]
    commits: tuple[Commit, ...]
    stories: tuple[UserStory, ...]
    pulls: tuple[PullRequest, ...]
    build_stats: tuple[BuildStats, ...]
    diagnostics: tuple[str, ...] = ()

    _sprint_by_id: dict[str, Sprint] = field(init=False, repr=False, compare=False)
    _stats_by_commit: dict[str, BuildStats] = field(init=False, repr=False, compare=False)
    _sprints_by_team: dict[str, tuple[Sprint, ...]] = field(init=False, repr=False, compare=False)
    _backlogs: dict[tuple[str, str], tuple[UserStory, ...]] = field(init=False, repr=False, compare=False)
    _commits_by_team: dict[str, tuple[Commit, ...]] = field(init=False, repr=False, compare=False)
    _pulls_by_team: dict[str, tuple[PullRequest, ...]] = field(init=False, repr=False, compare=False)
    # team -> (commit time index, pull time index), filled by the team's first window()
    _time_indexes: dict[str, tuple[_TimeIndex, _TimeIndex]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sprint_by_id", {s.id: s for s in self.sprints})
        object.__setattr__(self, "_stats_by_commit", {s.commit_id: s for s in self.build_stats})
        sprints_by_team: dict[str, list[Sprint]] = {}
        for sprint in self.sprints:
            sprints_by_team.setdefault(sprint.team, []).append(sprint)
        object.__setattr__(
            self,
            "_sprints_by_team",
            {t: tuple(sorted(v, key=lambda s: (s.due_on, s.id))) for t, v in sprints_by_team.items()},
        )
        backlogs: dict[tuple[str, str], list[UserStory]] = {}
        for story in self.stories:
            for membership in story.milestones:
                backlogs.setdefault((story.team, membership.sprint_id), []).append(story)
        object.__setattr__(self, "_backlogs", {k: tuple(v) for k, v in backlogs.items()})
        by_team: dict[str, list[Commit]] = {t: [] for t in self.teams}
        for commit in self.commits:
            by_team[commit.team].append(commit)
        object.__setattr__(self, "_commits_by_team", {t: tuple(v) for t, v in by_team.items()})
        p_by_team: dict[str, list[PullRequest]] = {t: [] for t in self.teams}
        for pull in self.pulls:
            p_by_team[pull.team].append(pull)
        object.__setattr__(self, "_pulls_by_team", {t: tuple(v) for t, v in p_by_team.items()})
        object.__setattr__(self, "_time_indexes", {})

    def sprint(self, sprint_id: str) -> Sprint:
        try:
            return self._sprint_by_id[sprint_id]
        except KeyError:
            raise UnknownSprintError(f"unknown sprint id {sprint_id!r}") from None

    def sprints_of(self, team: str) -> tuple[Sprint, ...]:
        """Sprints of one team, ordered by due date (ties broken by id)."""
        return self._sprints_by_team.get(team, ())

    def backlog(self, team: str, sprint_id: str) -> tuple[UserStory, ...]:
        """The team's stories that list `sprint_id` as a membership, in `stories` order."""
        return self._backlogs.get((team, sprint_id), ())

    def _team_time_indexes(self, team: str) -> tuple[_TimeIndex, _TimeIndex]:
        indexes = self._time_indexes.get(team)
        if indexes is None:
            indexes = (
                _TimeIndex(self._commits_by_team.get(team, ()), lambda c: c.authored_at),
                _TimeIndex(self._pulls_by_team.get(team, ()), lambda p: p.opened_at),
            )
            self._time_indexes[team] = indexes
        return indexes


def build_history(
    commits: Iterable[Commit] = (),
    stories: Iterable[UserStory] = (),
    sprints: Iterable[Sprint] = (),
    pulls: Iterable[PullRequest] = (),
    build_stats: Iterable[BuildStats] = (),
) -> ProjectHistory:
    """Validate raw records and assemble the immutable snapshot.

    Checks primary-key uniqueness and cross-references, derives the team set
    and per-team developer sets, and canonicalizes collection order so the
    result is independent of input record order. Unknown commit parents are
    tolerated (shallow exports) but flagged in the diagnostics.
    """
    commits = sorted(commits, key=lambda c: c.id)
    stories = sorted(stories, key=lambda s: (s.team, s.number))
    sprints = sorted(sprints, key=lambda s: s.id)
    pulls = sorted(pulls, key=lambda p: (p.team, p.number))
    build_stats = sorted(build_stats, key=lambda b: b.commit_id)

    commit_ids: set[str] = set()
    for commit in commits:
        if commit.id in commit_ids:
            raise HistoryError(f"duplicate commit id {commit.id!r}")
        commit_ids.add(commit.id)

    sprint_ids: set[str] = set()
    for sprint in sprints:
        if sprint.id in sprint_ids:
            raise HistoryError(f"duplicate sprint id {sprint.id!r}")
        sprint_ids.add(sprint.id)

    story_keys: set[tuple[str, int]] = set()
    for story in stories:
        key = (story.team, story.number)
        if key in story_keys:
            raise HistoryError(f"duplicate story #{story.number} for team {story.team!r}")
        story_keys.add(key)
        for membership in story.milestones:
            if membership.sprint_id not in sprint_ids:
                raise HistoryError(
                    f"story #{story.number} ({story.team}) references unknown sprint "
                    f"{membership.sprint_id!r}"
                )

    pull_keys: set[tuple[str, int]] = set()
    for pull in pulls:
        key = (pull.team, pull.number)
        if key in pull_keys:
            raise HistoryError(f"duplicate pull request #{pull.number} for team {pull.team!r}")
        pull_keys.add(key)

    stat_ids: set[str] = set()
    for stat in build_stats:
        if stat.commit_id in stat_ids:
            raise HistoryError(f"duplicate build stats for commit {stat.commit_id!r}")
        stat_ids.add(stat.commit_id)
        if stat.commit_id not in commit_ids:
            raise HistoryError(f"build stats reference unknown commit {stat.commit_id!r}")

    diagnostics: list[str] = []
    for commit in commits:
        for parent in commit.parents:
            if parent not in commit_ids:
                diagnostics.append(
                    f"commit {commit.id} parent {parent} not in export (shallow history?)"
                )

    teams = sorted(
        {c.team for c in commits}
        | {s.team for s in stories}
        | {s.team for s in sprints}
        | {p.team for p in pulls}
    )
    developers: dict[str, set[str]] = {t: set() for t in teams}
    for commit in commits:
        developers[commit.team].add(commit.author)
    for story in stories:
        developers[story.team].update(story.assignees)

    return ProjectHistory(
        teams=tuple(teams),
        developers={t: frozenset(d) for t, d in developers.items()},
        sprints=tuple(sprints),
        commits=tuple(commits),
        stories=tuple(stories),
        pulls=tuple(pulls),
        build_stats=tuple(build_stats),
        diagnostics=tuple(diagnostics),
    )


def window(history: ProjectHistory, team: str, sprint_id: str) -> SprintSlice:
    """Cut the history down to one team-sprint.

    Commits and pull requests are attributed by timestamp within the closed
    interval [starts_at, due_on], so a record stamped at the instant where
    two back-to-back sprints meet belongs to both; stories by backlog
    membership. Each team's commits and pulls are indexed by time on the
    team's first window, so every later window is two binary searches. All
    three tuples keep the order of the history's own collections.
    """
    sprint = history.sprint(sprint_id)
    if sprint.team != team:
        raise UnknownSprintError(f"sprint {sprint_id!r} belongs to {sprint.team!r}, not {team!r}")
    commit_index, pull_index = history._team_time_indexes(team)
    return SprintSlice(
        sprint=sprint,
        commits=commit_index.between(sprint.starts_at, sprint.due_on),
        stories=history.backlog(team, sprint_id),
        pulls=pull_index.between(sprint.starts_at, sprint.due_on),
        developers=history.developers.get(team, frozenset()),
        stats_by_commit=history._stats_by_commit,
        sprints_by_id=history._sprint_by_id,
    )
