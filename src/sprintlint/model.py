"""Immutable domain model for exported development data and metric results.

Everything here is constructed once (usually by the ingest module) and then
shared read-only by the detectors, the engine, and the scoring layer.
Timestamps are floats of UTC epoch seconds throughout.

The seven export records, `FileChange` to `PullRequest`, are checked tuples:
named tuples whose `__new__` checks and normalises the fields, as a load
builds one or more per row and a tuple is the cheapest immutable object to
build. A record equals only a record of its own class, never a plain tuple.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
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


class _Record(tuple):
    """Base of the export records: equal only to a record of its own class with equal fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class FileChange(_Record, namedtuple("FileChange", "path lines_added lines_deleted")):
    """One file touched by a commit."""

    __slots__ = ()

    def __new__(cls, path: str, lines_added: int, lines_deleted: int) -> FileChange:
        if not path:
            raise RecordError("file change path must be non-empty")
        if not lines_added >= 0:
            raise RecordError(f"lines_added < 0 for {path}")
        if not lines_deleted >= 0:
            raise RecordError(f"lines_deleted < 0 for {path}")
        return tuple.__new__(cls, (path, lines_added, lines_deleted))


class Commit(_Record, namedtuple("Commit", "id author authored_at parents message files team")):
    __slots__ = ()

    def __new__(cls, id: str, author: str, authored_at: float, parents: Iterable[str], message: str,
                files: Iterable[FileChange], team: str) -> Commit:
        if not id:
            raise RecordError("commit id must be non-empty")
        if not team:
            raise RecordError(f"commit {id} has no team")
        if not author:
            raise RecordError(f"commit {id} has no author")
        author = author.lower()
        authored_at = float(authored_at)
        if not math.isfinite(authored_at):
            raise RecordError(f"commit {id} authored_at must be a finite timestamp")
        return tuple.__new__(cls, (id, author, authored_at, tuple(parents), message, tuple(files), team))


class BuildStats(_Record, namedtuple("BuildStats", "commit_id coverage_percent complexity")):
    """Per-commit coverage and complexity produced by external tooling."""

    __slots__ = ()

    def __new__(cls, commit_id: str, coverage_percent: float, complexity: float) -> BuildStats:
        if not commit_id:
            raise RecordError("build stats row has no commit id")
        if not 0.0 <= coverage_percent <= 100.0:
            raise RecordError(f"coverage_percent out of [0,100] for commit {commit_id}")
        if not complexity >= 0.0:
            raise RecordError(f"complexity < 0 for commit {commit_id}")
        if complexity == math.inf:
            raise RecordError(f"complexity is not finite for commit {commit_id}")
        return tuple.__new__(cls, (commit_id, coverage_percent, complexity))


class SprintMembership(_Record, namedtuple("SprintMembership", "sprint_id assigned_at")):
    """One entry of a story's backlog-assignment history."""

    __slots__ = ()

    def __new__(cls, sprint_id: str, assigned_at: float) -> SprintMembership:
        if not sprint_id:
            raise RecordError("membership has no sprint id")
        assigned_at = float(assigned_at)
        if not math.isfinite(assigned_at):
            raise RecordError("membership assigned_at must be a finite timestamp")
        return tuple.__new__(cls, (sprint_id, assigned_at))


class UserStory(_Record, namedtuple(
    "UserStory", "number title body state labels milestones assignees created_at closed_at team"
)):
    __slots__ = ()

    def __new__(cls, number: int, title: str, body: str, state: StoryState, labels: Iterable[str],
                milestones: Iterable[SprintMembership], assignees: Iterable[str], created_at: float,
                closed_at: float | None, team: str) -> UserStory:
        if not number > 0:
            raise RecordError(f"story number must be positive, got {number}")
        if not team:
            raise RecordError(f"story #{number} has no team")
        if not math.isfinite(created_at):
            raise RecordError(f"story #{number} created_at must be a finite timestamp")
        if closed_at is not None and not math.isfinite(closed_at):
            raise RecordError(f"story #{number} closed_at must be a finite timestamp")
        labels = frozenset(labels)
        milestones = tuple(milestones)
        assignees = frozenset(a.lower() for a in assignees)
        seen = [m.sprint_id for m in milestones]
        if len(seen) != len(set(seen)):
            raise RecordError(f"story #{number} ({team}) has duplicate sprint memberships")
        if state is StoryState.CLOSED:
            if closed_at is None:
                raise RecordError(f"closed story #{number} lacks closed_at")
        elif closed_at is not None:
            raise RecordError(f"open story #{number} carries closed_at")
        return tuple.__new__(
            cls, (number, title, body, state, labels, milestones, assignees, created_at, closed_at, team)
        )

    @property
    def sprint_memberships(self) -> tuple[str, ...]:
        """Sprint ids the story was assigned to, in assignment order."""
        return tuple(m.sprint_id for m in self.milestones)


class Sprint(_Record, namedtuple("Sprint", "id title starts_at due_on team")):
    __slots__ = ()

    def __new__(cls, id: str, title: str, starts_at: float, due_on: float, team: str) -> Sprint:
        if not id:
            raise RecordError("sprint id must be non-empty")
        if not team:
            raise RecordError(f"sprint {id} has no team")
        if not math.isfinite(starts_at):
            raise RecordError(f"sprint {id} starts_at must be a finite timestamp")
        if not math.isfinite(due_on):
            raise RecordError(f"sprint {id} due_on must be a finite timestamp")
        if not starts_at < due_on:
            raise RecordError(f"sprint {id} must start before it is due")
        return tuple.__new__(cls, (id, title, starts_at, due_on, team))

    @property
    def length_days(self) -> float:
        return (self.due_on - self.starts_at) / SECONDS_PER_DAY


class PullRequest(_Record, namedtuple("PullRequest", "number opened_at closed_at merged comment_count team")):
    __slots__ = ()

    def __new__(cls, number: int, opened_at: float, closed_at: float | None, merged: bool,
                comment_count: int, team: str) -> PullRequest:
        if not number > 0:
            raise RecordError(f"pull request number must be positive, got {number}")
        if not team:
            raise RecordError(f"pull request #{number} has no team")
        if not math.isfinite(opened_at):
            raise RecordError(f"pull request #{number} opened_at must be a finite timestamp")
        if closed_at is not None and not math.isfinite(closed_at):
            raise RecordError(f"pull request #{number} closed_at must be a finite timestamp")
        if not comment_count >= 0:
            raise RecordError(f"pull request #{number} comment_count < 0")
        if merged and closed_at is None:
            raise RecordError(f"merged pull request #{number} lacks closed_at")
        if closed_at is not None and not closed_at >= opened_at:
            raise RecordError(f"pull request #{number} closed before it was opened")
        return tuple.__new__(cls, (number, opened_at, closed_at, merged, comment_count, team))


@dataclass(frozen=True)
class MetricDescriptor:
    """The reusable definition of one conformance check, independent of any run."""

    name: str
    severity: Severity
    pitfalls: str

    def __post_init__(self) -> None:
        if not self.name:
            raise RecordError("metric descriptor needs a name")
        if not isinstance(self.severity, Severity):
            raise RecordError(f"metric {self.name} severity must be a Severity, got {self.severity!r}")


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


# collection -> (primary key, message naming a duplicate), in the order duplicates are reported
_PRIMARY_KEYS: dict[str, tuple[Callable, str]] = {
    "commits": (attrgetter("id"), "duplicate commit id {0.id!r}"),
    "sprints": (attrgetter("id"), "duplicate sprint id {0.id!r}"),
    "stories": (attrgetter("team", "number"), "duplicate story #{0.number} for team {0.team!r}"),
    "pulls": (attrgetter("team", "number"), "duplicate pull request #{0.number} for team {0.team!r}"),
    "build_stats": (attrgetter("commit_id"), "duplicate build stats for commit {0.commit_id!r}"),
}


def _sorted_unique(records: Iterable, key: Callable, duplicate: str) -> tuple:
    """`records` sorted by their primary key; raises on the smallest key held twice."""
    ordered = sorted(records, key=key)
    keys = list(map(key, ordered))
    if len(set(keys)) != len(keys):
        # sorting put equal keys side by side
        first = next(i for i in range(1, len(keys)) if keys[i] == keys[i - 1])
        raise HistoryError(duplicate.format(ordered[first]))
    return tuple(ordered)


def _by_team(records: Iterable, teams: Iterable[str]) -> dict[str, tuple]:
    """`records` grouped by their `team`, keeping their order; every team gets a group."""
    groups: dict[str, list] = {t: [] for t in teams}
    for record in records:
        groups[record.team].append(record)
    return {t: tuple(v) for t, v in groups.items()}


@dataclass(frozen=True)
class ProjectHistory:
    """Validated, immutable snapshot of every record in an export.

    The constructor sorts each collection by its primary key, so input order
    does not matter; checks keys and cross-references; and derives `teams`,
    `developers` and `diagnostics`, which flag unknown commit parents (a
    shallow export) without rejecting them.
    """

    commits: tuple[Commit, ...] = ()
    stories: tuple[UserStory, ...] = ()
    sprints: tuple[Sprint, ...] = ()
    pulls: tuple[PullRequest, ...] = ()
    build_stats: tuple[BuildStats, ...] = ()
    teams: tuple[str, ...] = field(init=False)
    developers: Mapping[str, frozenset[str]] = field(init=False)
    diagnostics: tuple[str, ...] = field(init=False)

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
        for name, (key, duplicate) in _PRIMARY_KEYS.items():
            object.__setattr__(self, name, _sorted_unique(getattr(self, name), key, duplicate))
        commits, stories, sprints, pulls, build_stats = self.records()

        sprint_by_id = {s.id: s for s in sprints}
        backlogs: dict[tuple[str, str], list[UserStory]] = {}
        for story in stories:
            for membership in story.milestones:
                if membership.sprint_id not in sprint_by_id:
                    raise HistoryError(
                        f"story #{story.number} ({story.team}) references unknown sprint "
                        f"{membership.sprint_id!r}"
                    )
                backlogs.setdefault((story.team, membership.sprint_id), []).append(story)
        commit_ids = {c.id for c in commits}
        for stat in build_stats:
            if stat.commit_id not in commit_ids:
                raise HistoryError(f"build stats reference unknown commit {stat.commit_id!r}")
        diagnostics = tuple(
            f"commit {commit.id} parent {parent} not in export (shallow history?)"
            for commit in commits
            for parent in commit.parents
            if parent not in commit_ids
        )

        teams = tuple(sorted({r.team for records in (commits, stories, sprints, pulls) for r in records}))
        commits_by_team = _by_team(commits, teams)
        developers = {t: {c.author for c in v} for t, v in commits_by_team.items()}
        for story in stories:
            developers[story.team].update(story.assignees)
        object.__setattr__(self, "teams", teams)
        object.__setattr__(self, "diagnostics", diagnostics)
        object.__setattr__(self, "developers", {t: frozenset(d) for t, d in developers.items()})
        object.__setattr__(self, "_sprint_by_id", sprint_by_id)
        object.__setattr__(self, "_stats_by_commit", {s.commit_id: s for s in build_stats})
        by_due_date = sorted(sprints, key=lambda s: (s.due_on, s.id))
        object.__setattr__(self, "_sprints_by_team", _by_team(by_due_date, teams))
        object.__setattr__(self, "_backlogs", {k: tuple(v) for k, v in backlogs.items()})
        object.__setattr__(self, "_commits_by_team", commits_by_team)
        object.__setattr__(self, "_pulls_by_team", _by_team(pulls, teams))
        object.__setattr__(self, "_time_indexes", {})

    def records(self) -> tuple[tuple, tuple, tuple, tuple, tuple]:
        """The five collections in constructor order: ``ProjectHistory(*h.records()) == h``."""
        return self.commits, self.stories, self.sprints, self.pulls, self.build_stats

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
    """Validate raw records and assemble the immutable snapshot; see `ProjectHistory`."""
    return ProjectHistory(commits, stories, sprints, pulls, build_stats)


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
