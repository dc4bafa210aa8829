"""Immutable domain model for exported development data and metric results.

Everything here is constructed once (usually by the ingest module) and then
shared read-only by the detectors, the engine, and the scoring layer.
Timestamps are floats of UTC epoch seconds throughout.

The seven export records, `FileChange` to `PullRequest`, and the result and
value objects built from them (`Violation`, `Finding`, `MetricResult`,
`SprintSlice`, and those of the other modules) are checked tuples: named
tuples whose `__new__`, where a class has one, checks and normalises the
fields, as a load builds one or more per row, a lint one per violation, and
a tuple is the cheapest immutable object to build. A checked tuple equals
only one of its own class, never a plain tuple, and `_make` and `_replace`
run the same checks as the constructor.

`ProjectHistory` is a plain immutable class instead, as a named tuple
cannot hold its private lookups; its constructor builds every one of them.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from enum import Enum
from itertools import chain, islice
from operator import attrgetter, eq

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


def _shared(value: object) -> object:
    """The one shared copy of a string equal to `value`; a value of any other type as it is.

    Used for the fields many records repeat (teams, authors, file paths), so
    a history holds each distinct value once however many records name it.
    """
    return sys.intern(value) if type(value) is str else value


class _Record(tuple):
    """Base of the checked tuples: equal only to one of its own class with equal fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable: Iterable) -> _Record:
        # namedtuple's own `_make` (which `_replace` calls) skips `__new__` and its checks
        return cls(*iterable)


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
        return tuple.__new__(cls, (_shared(path), lines_added, lines_deleted))


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
        author = _shared(author.lower())
        authored_at = float(authored_at)
        if not math.isfinite(authored_at):
            raise RecordError(f"commit {id} authored_at must be a finite timestamp")
        return tuple.__new__(cls, (id, author, authored_at, tuple(parents), message, tuple(files), _shared(team)))


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
            cls, (number, title, body, state, labels, milestones, assignees, created_at, closed_at, _shared(team))
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
        return tuple.__new__(cls, (id, title, starts_at, due_on, _shared(team)))

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
        return tuple.__new__(cls, (number, opened_at, closed_at, merged, comment_count, _shared(team)))


class MetricDescriptor(_Record, namedtuple("MetricDescriptor", "name severity pitfalls")):
    """The reusable definition of one conformance check, independent of any run."""

    __slots__ = ()

    def __new__(cls, name: str, severity: Severity, pitfalls: str) -> MetricDescriptor:
        if not name:
            raise RecordError("metric descriptor needs a name")
        if not isinstance(severity, Severity):
            raise RecordError(f"metric {name} severity must be a Severity, got {severity!r}")
        return tuple.__new__(cls, (name, severity, pitfalls))


class Violation(_Record, namedtuple("Violation", "artifacts detail numeric_detail")):
    """A pattern in the data that does not comply with the checked practice."""

    __slots__ = ()

    def __new__(cls, artifacts: Iterable[str], detail: str,
                numeric_detail: Mapping[str, float] = {}) -> Violation:
        artifacts = tuple(artifacts)
        if not artifacts:
            raise RecordError("violation carries no artifacts")
        return tuple.__new__(cls, (artifacts, detail, dict(numeric_detail)))


class Finding(_Record, namedtuple(
    "Finding", "violations score inputs_echo diagnostic", defaults=({}, None)
)):
    """What one detector found in one team-sprint.

    The fields are `MetricResult`'s after `sprint`, in order; the engine adds
    the metric, team and sprint, and `error_type` when the detector raised.
    """

    __slots__ = ()


class MetricResult(_Record, namedtuple(
    "MetricResult", "metric team sprint violations score inputs_echo diagnostic error_type"
)):
    """Outcome of one metric for one team-sprint.

    `score` is None when the metric was not applicable (e.g. no stories in
    the sprint); `diagnostic` then says why. When the detector raised,
    `error_type` names the exception's type, else it is None. Scores are
    kept unrounded here; reports round for display.
    """

    __slots__ = ()

    def __new__(cls, metric: str, team: str, sprint: str, violations: Iterable[Violation],
                score: float | None, inputs_echo: Mapping[str, float] = {},
                diagnostic: str | None = None, error_type: str | None = None) -> MetricResult:
        violations = tuple(violations)
        inputs_echo = dict(inputs_echo)
        if score is not None and not 0.0 <= score <= 100.0:
            raise RecordError(f"{metric} score {score} out of [0,100]")
        return tuple.__new__(cls, (metric, team, sprint, violations, score, inputs_echo, diagnostic, error_type))


class Diagnostic(_Record, namedtuple("Diagnostic", "kind text")):
    """One flag a history raises without rejecting a record: its kind, to count flags by, and its text.

    Kinds: ``shallow-parent``, a commit's parent missing from the export;
    ``overlapping-sprints``, two sprints of one team whose windows overlap;
    ``no-sprint-window`` and ``many-sprint-windows``, how many of a team's
    commits, or of its pull requests, fall in none of its sprint windows, or
    in more than one. Reports write the text only.
    """

    __slots__ = ()


class _TimeIndex:
    """Records sorted by a timestamp, for cutting out half-open time intervals."""

    def __init__(self, records: Sequence, stamp: Callable[[object], float]) -> None:
        self._records = records
        stamps = list(map(stamp, records))
        # record positions in stamp order, as machine integers rather than an int object each
        self._order = array("L", sorted(range(len(records)), key=stamps.__getitem__))
        self._stamps = list(map(stamps.__getitem__, self._order))

    def between(self, lo: float, hi: float) -> tuple:
        """Records stamped within (lo, hi], in their original order."""
        cut = self._order[bisect_right(self._stamps, lo) : bisect_right(self._stamps, hi)]
        return tuple(map(self._records.__getitem__, sorted(cut)))

    def outside_and_shared(self, spans: Iterable[tuple[float, float]]) -> tuple[int, int]:
        """How many records are stamped within none of the intervals (lo, hi] of `spans`, and how many in 2 or more."""
        # one pair of bisections per span gives the positions, in stamp order, where it opens and closes; a sweep
        # over them counts the records between each cut and the next by how many spans are open there (at one
        # position an opening, -1, sorts before a closing, 1, so that count never falls below 0)
        cuts = sorted(chain.from_iterable(
            ((bisect_right(self._stamps, lo), -1), (bisect_right(self._stamps, hi), 1)) for lo, hi in spans))
        counts = [0, 0, 0]  # records within no span, one span, and two or more
        depth = position = 0
        for cut, step in cuts:
            counts[min(depth, 2)] += cut - position
            depth, position = depth - step, cut
        return counts[0] + len(self._stamps) - position, counts[2]


class SprintSlice(_Record, namedtuple(
    "SprintSlice", "sprint commits stories pulls developers stats_by_commit sprints_by_id"
)):
    """Everything a detector sees of one team-sprint.

    The sprint (its `team` is the slice's team), the team's artifacts in the
    sprint window and its developers, plus the history's own build-stats and
    sprint lookups, shared rather than copied.
    """

    __slots__ = ()


def _sorted_unique(records: Iterable, duplicate: str, *key_fields: str) -> tuple:
    """`records` sorted by their primary key; raises on the smallest key held twice."""
    key = attrgetter(*key_fields)
    ordered = sorted(records, key=key)
    keys = list(map(key, ordered))
    # sorting put equal keys side by side, so comparing neighbours finds them without a set of the keys
    if any(map(eq, keys, islice(keys, 1, None))):
        first = next(i for i in range(1, len(keys)) if keys[i] == keys[i - 1])
        raise HistoryError(duplicate.format(ordered[first]))
    return tuple(ordered)


def _window_flags(team: str, sprints: Sequence[Sprint], indexes: tuple[_TimeIndex, _TimeIndex]) -> Iterator:
    """The `Diagnostic`s of one team with `sprints`: each pair of them that overlaps, then how many of its
    commits and of its pulls (`indexes`) fall in no sprint window and in more than one.

    A team with no sprints has no window to miss, so its records are not flagged.
    """
    if not sprints:
        return
    ordered = sorted(sprints, key=attrgetter("starts_at", "id"))
    for index, first in enumerate(ordered):
        later = index + 1
        # windows (a, b] and (c, d] with a <= c overlap when c < b
        while later < len(ordered) and ordered[later].starts_at < first.due_on:
            second = ordered[later]
            yield Diagnostic("overlapping-sprints", f"sprints {first.id} and {second.id} of team {team} overlap")
            later += 1
    spans = [(sprint.starts_at, sprint.due_on) for sprint in sprints]
    for what, time_index in zip(("commits", "pull requests"), indexes):
        outside, shared = time_index.outside_and_shared(spans)
        total = len(time_index._stamps)
        if outside:
            yield Diagnostic("no-sprint-window", f"team {team} has {outside} of {total} {what} in no sprint window")
        if shared:
            yield Diagnostic("many-sprint-windows",
                             f"team {team} has {shared} of {total} {what} in more than one sprint window")


def _by_team(records: Iterable, teams: Iterable[str]) -> dict[str, tuple]:
    """`records` grouped by their `team`, keeping their order; every team gets a group."""
    groups: dict[str, list] = {t: [] for t in teams}
    for record in records:
        groups[record.team].append(record)
    return {t: tuple(v) for t, v in groups.items()}


class ProjectHistory:
    """Validated, immutable snapshot of every record in an export.

    The constructor sorts each collection by its primary key, so input order
    does not matter; checks keys and cross-references; derives `teams`,
    `developers` and `diagnostics`, which flag unknown commit parents (a
    shallow export), overlapping sprints and commits and pulls in no sprint
    window or in more than one without rejecting them, each a `Diagnostic`;
    and builds the lookups that `window` reads. Histories with equal records
    are equal.
    """

    # set in this order by `__init__`; the five record collections first, as `__repr__` names them
    __slots__ = (
        "commits", "stories", "sprints", "pulls", "build_stats", "teams", "developers", "diagnostics",
        "_sprint_by_id", "_stats_by_commit", "_sprints_by_team", "_backlogs", "_time_indexes",
    )

    def __init__(
        self,
        commits: Iterable[Commit] = (),
        stories: Iterable[UserStory] = (),
        sprints: Iterable[Sprint] = (),
        pulls: Iterable[PullRequest] = (),
        build_stats: Iterable[BuildStats] = (),
    ) -> None:
        # in the order duplicates are reported
        commits = _sorted_unique(commits, "duplicate commit id {0.id!r}", "id")
        sprints = _sorted_unique(sprints, "duplicate sprint id {0.id!r}", "id")
        stories = _sorted_unique(stories, "duplicate story #{0.number} for team {0.team!r}", "team", "number")
        pulls = _sorted_unique(pulls, "duplicate pull request #{0.number} for team {0.team!r}", "team", "number")
        build_stats = _sorted_unique(build_stats, "duplicate build stats for commit {0.commit_id!r}", "commit_id")

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
        shallow = tuple(
            Diagnostic("shallow-parent", f"commit {commit.id} parent {parent} not in export (shallow history?)")
            for commit in commits
            for parent in commit.parents
            if parent not in commit_ids
        )

        teams = tuple(sorted({r.team for records in (commits, stories, sprints, pulls) for r in records}))
        commits_by_team, pulls_by_team = _by_team(commits, teams), _by_team(pulls, teams)
        developers = {t: {c.author for c in v} for t, v in commits_by_team.items()}
        for story in stories:
            developers[story.team].update(story.assignees)
        # team -> (commit time index, pull time index)
        time_indexes = {
            t: (
                _TimeIndex(commits_by_team[t], attrgetter("authored_at")),
                _TimeIndex(pulls_by_team[t], attrgetter("opened_at")),
            )
            for t in teams
        }
        sprints_by_team = _by_team(sorted(sprints, key=lambda s: (s.due_on, s.id)), teams)
        stats_by_commit = {s.commit_id: s for s in build_stats}
        diagnostics = shallow + tuple(chain.from_iterable(
            _window_flags(t, sprints_by_team[t], time_indexes[t]) for t in teams))
        developers = {t: frozenset(d) for t, d in developers.items()}
        for name, value in zip(self.__slots__, (
            commits, stories, sprints, pulls, build_stats, teams, developers, diagnostics, sprint_by_id,
            stats_by_commit, sprints_by_team, {k: tuple(v) for k, v in backlogs.items()}, time_indexes,
        )):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r}: a history is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        # defining `__eq__` leaves `__hash__` None: a history holds dicts
        return type(other) is type(self) and self.records() == other.records()

    def __repr__(self) -> str:
        records = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self.records()))
        return f"{type(self).__name__}({records})"

    def __reduce__(self) -> tuple:
        # `copy` and `pickle` rebuild a history from its records: `__setattr__` refuses to restore slots
        return type(self), self.records()

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

    Commits and pull requests are attributed by timestamp within the
    half-open interval (starts_at, due_on]: a record stamped at the instant
    where two back-to-back sprints meet is last-minute work of the earlier
    sprint, and one stamped at a team's first starts_at falls in no window,
    like any record before it. Stories are attributed by backlog membership.
    Each team's commits and pulls are indexed by time when the history is
    built, so a window is two binary searches. All three tuples keep the
    order of the history's own collections.
    """
    sprint = history.sprint(sprint_id)
    if sprint.team != team:
        raise UnknownSprintError(f"sprint {sprint_id!r} belongs to {sprint.team!r}, not {team!r}")
    commit_index, pull_index = history._time_indexes[team]
    return SprintSlice(
        sprint=sprint,
        commits=commit_index.between(sprint.starts_at, sprint.due_on),
        stories=history.backlog(team, sprint_id),
        pulls=pull_index.between(sprint.starts_at, sprint.due_on),
        developers=history.developers.get(team, frozenset()),
        stats_by_commit=history._stats_by_commit,
        sprints_by_id=history._sprint_by_id,
    )
