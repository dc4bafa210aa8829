"""Synthetic project histories: a violation-free generator and a violation injector.

The generator builds teams whose every artifact passes every built-in check
at the default settings (the returned certificate is the tool's own lint
run proving it); fixtures are always built for those settings. The
injector adds precisely specified violations and returns a ledger of the
injected artifact ids per metric, giving detector tests an exact expected
answer.

Injected violations live in their own additional team, constructed with the
same violation-free scaffolding and then seeded with the requested bad
artifacts. Pre-existing teams are untouched and the injection team is tuned
(sprint lengths balance the staffing quota, injected stories keep the
uniform size, injected commits stay clear of the deadline window) so that
every metric other than the targeted one still scores a clean 100.

A spec or directive that cannot be built is refused when it is
constructed, and so when it is read, before any record is built:
``InjectionSpec(tdd_regressions=61)`` raises ``InfeasibleFixtureError``, as
coverage starts at 60% and each regression drops it a point.

Randomness comes from a single seeded Mersenne Twister stream (the stdlib
``random.Random``), so identical specs produce byte-identical exports on
any platform; the algorithm name is recorded in certificates and ledgers.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from collections.abc import Mapping
from itertools import chain

from . import config as cfg
from .catalog import default_registry, story_ref, story_text_length, pull_ref
from .config import MetricConfig
from .engine import run_all
from .errors import InfeasibleFixtureError
from .model import (
    BuildStats,
    Commit,
    FileChange,
    ProjectHistory,
    PullRequest,
    Sprint,
    SprintMembership,
    StoryState,
    UserStory,
    _Record,
    build_history,
)
from .serialize import END_TS

RNG_ALGORITHM = "mt19937"
EPOCH = 1420416000.0  # 2015-01-05T00:00:00Z, a Monday
MARGIN_SECONDS = 3600.0
BASE_STORY_LENGTH = 200
BASE_STORY_CHECKBOXES = 3
# a fixture is built in memory; the largest benchmark fixture plans about 30,000 records
MAX_PLANNED_RECORDS = 10**6

# the settings every fixture is built for and certified against
_CONFIG = MetricConfig()
_LAST_MINUTE_SECONDS = _CONFIG.for_metric(cfg.LAST_MINUTE)["last_minute_window_minutes"] * 60.0
# each scaffold file is edited by more authors than own a file collectively
_POOL_AUTHORS = _CONFIG.for_metric(cfg.COLLECTIVE_OWNERSHIP)["threshold_a"] + 1
# a team's coverage before its first commit; scaffold commits raise it by less than 0.1 points
_START_COVERAGE = 60.0


def _team_records(devs: int, sprints: int, stories: int, commits_per_dev: int, pulls: int) -> int:
    """Records a scaffold team plans: itself, its developers, and per sprint the sprint,
    its stories, each developer's commits with their stats, and its pulls."""
    return 1 + devs + sprints * (1 + stories + 2 * devs * commits_per_dev + pulls)


def _check_plan(what: str, records: int) -> None:
    """Raise, before anything is built, when `what` plans more records than a fixture may hold."""
    if records > MAX_PLANNED_RECORDS:
        raise InfeasibleFixtureError(
            f"{what} plans {records} records, more than the {MAX_PLANNED_RECORDS} a fixture may hold"
        )


def _sprint_seconds(index: int, starts: float, duration_seconds: float) -> float:
    """The whole seconds sprint `index` lasts; raise unless it fits the calendar and outlasts the window."""
    # no export can write an instant after year 9999, and pull requests
    # close up to a day after their sprint's deadline
    if not starts + duration_seconds < END_TS - 86400.0:
        raise InfeasibleFixtureError(
            f"sprint {index + 1} ({duration_seconds / 86400.0:g} days) would end after "
            "9999-12-31T00:00:00Z, the last deadline a fixture can have"
        )
    # whole seconds keep timestamps exact through the ISO-8601 round trip
    seconds = float(round(duration_seconds))
    if seconds <= _LAST_MINUTE_SECONDS + 2 * MARGIN_SECONDS:
        raise InfeasibleFixtureError(
            f"sprint of {seconds:.0f}s leaves no room outside the "
            f"{_LAST_MINUTE_SECONDS:.0f}s deadline window plus margins"
        )
    return seconds


def _check_sprints(sprints: int, duration_seconds: float) -> None:
    """Raise, before anything is built, unless a team's `sprints` sprints of `duration_seconds` fit."""
    if sprints:
        # every sprint is as long, so the first and the last stand for them all
        seconds = _sprint_seconds(0, EPOCH, duration_seconds)
        _sprint_seconds(sprints - 1, EPOCH + (sprints - 1) * seconds, duration_seconds)


def _check_idle_devs(idle_devs: int, stories: int) -> None:
    """Raise unless each idle developer can be assigned to a story of their own."""
    if idle_devs > stories:
        raise InfeasibleFixtureError(f"{idle_devs} idle developer(s) need a story each; a sprint has {stories}")


class FixtureSpec(_Record, namedtuple(
    "FixtureSpec",
    "seed teams developers_per_team sprints sprint_length_days stories_per_sprint "
    "commits_per_dev_per_sprint pulls_per_sprint",
)):
    """Shape of a generated history.

    The defaults are balanced so that every metric scores exactly 100: ten
    commits per developer saturate the commit-activity cap, and developers
    per team equals stories per sprint times sprint length, which puts the
    staffing quota on the parabola's peak.
    """

    __slots__ = ()

    def __new__(cls, seed: int = 42, teams: int = 2, developers_per_team: int = 6, sprints: int = 3,
                sprint_length_days: float = 2.0, stories_per_sprint: int = 3,
                commits_per_dev_per_sprint: int = 10, pulls_per_sprint: int = 4) -> FixtureSpec:
        spec = tuple.__new__(cls, (seed, teams, developers_per_team, sprints, sprint_length_days,
                                   stories_per_sprint, commits_per_dev_per_sprint, pulls_per_sprint))
        for name, value in zip(cls._fields, spec):
            if name == "sprint_length_days":
                if (isinstance(value, bool) or not isinstance(value, (int, float))
                        or not 0 < value <= sys.float_info.max):
                    raise InfeasibleFixtureError(f"sprint_length_days must be finite and > 0, got {value!r}")
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise InfeasibleFixtureError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 0:
                raise InfeasibleFixtureError(f"{name} must be >= 0, got {value}")
        _check_plan("the spec", teams * _team_records(
            developers_per_team, sprints, stories_per_sprint, commits_per_dev_per_sprint, pulls_per_sprint
        ))
        if teams and sprints:
            if developers_per_team and stories_per_sprint and not commits_per_dev_per_sprint:
                raise InfeasibleFixtureError("developers assigned to stories would never commit; the "
                                             "zero-committer guarantee needs commits_per_dev_per_sprint >= 1")
            _check_sprints(sprints, sprint_length_days * 86400.0)
            if developers_per_team and commits_per_dev_per_sprint and developers_per_team < _POOL_AUTHORS:
                raise InfeasibleFixtureError(f"hot-file guarantee needs at least {_POOL_AUTHORS} developers "
                                             f"per team (threshold_a + 1), got {developers_per_team}")
        return spec

    def to_dict(self) -> dict:
        return self._asdict()


def spec_from_dict(raw: Mapping) -> FixtureSpec:
    unknown = sorted(set(raw) - set(FixtureSpec._fields))
    if unknown:
        raise InfeasibleFixtureError(f"unknown fixture spec field(s): {', '.join(unknown)}")
    return FixtureSpec(**{k: raw[k] for k in raw})


def _planted(directive: int | tuple | None) -> int:
    """How many violations a directive plants: its count, the first member of a tuple."""
    if isinstance(directive, tuple):
        return directive[0]
    return directive or 0


class InjectionSpec(_Record, namedtuple(
    "InjectionSpec",
    "hot_files tdd_regressions huge_stories neverending_stories duplicate_stories "
    "last_minute_commits idle_developers backlog_overflow silent_fast_pulls",
)):
    """How many violations to plant, per metric.

    Tuple directives carry their extra shape parameters, in the order of
    their keys in `_DIRECTIVES`; the count comes first.
    """

    __slots__ = ()

    def __new__(cls, hot_files: tuple[int, int, int] | None = None, tdd_regressions: int = 0,
                huge_stories: tuple[int, float] | None = None,
                neverending_stories: tuple[int, int] | None = None, duplicate_stories: int = 0,
                last_minute_commits: int = 0, idle_developers: int = 0, backlog_overflow: int = 0,
                silent_fast_pulls: int = 0) -> InjectionSpec:
        injection = tuple.__new__(cls, (
            hot_files, tdd_regressions, huge_stories, neverending_stories, duplicate_stories,
            last_minute_commits, idle_developers, backlog_overflow, silent_fast_pulls,
        ))
        records = 0
        for name, value in zip(cls._fields, injection):
            if value is None:
                continue
            _, keys, _, plan, check = _DIRECTIVES[name]
            if isinstance(value, tuple) != bool(keys) or keys and len(value) != len(keys):
                shape = f"a tuple of {', '.join(keys)}" if keys else "a count"
                raise InfeasibleFixtureError(f"{name} must be {shape}, got {value!r}")
            args = value if keys else (value,)
            for i, part in enumerate(args):
                kinds = (int, float) if (name, i) == ("huge_stories", 1) else int
                if (isinstance(part, bool) or not isinstance(part, kinds)
                        or not 0 <= part <= sys.float_info.max):
                    raise InfeasibleFixtureError(
                        f"{name} must hold finite non-negative numbers, got {value!r}"
                    )
            if _planted(value):
                if check:
                    check(*args)
                records += _INJECTION_TEAM + plan(*args)
        _check_plan("the injection", records)
        return injection

    def empty(self) -> bool:
        return not any(map(_planted, self))

    def to_dict(self) -> dict:
        out: dict[str, object] = {}
        for name, directive in _DIRECTIVES.items():
            value = getattr(self, name)
            if value:
                out[name] = dict(zip(directive.keys, value)) if directive.keys else value
        return out


def injection_from_dict(raw: Mapping) -> InjectionSpec:
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _DIRECTIVES:
            raise InfeasibleFixtureError(f"unknown injection directive {key!r}")
        keys = _DIRECTIVES[key].keys
        if keys is not None:
            if not isinstance(value, Mapping) or set(value) != set(keys):
                raise InfeasibleFixtureError(
                    f"injection directive {key!r} must be an object with keys {', '.join(keys)}"
                )
            value = tuple(value[k] for k in keys)
        kwargs[key] = value
    return InjectionSpec(**kwargs)


class InjectionRecord(_Record, namedtuple("InjectionRecord", "metric team sprint_id artifacts")):
    """Where the violations for one metric were planted and what to expect back."""

    __slots__ = ()


class FixtureCertificate(_Record, namedtuple(
    "FixtureCertificate",
    "seed rng_algorithm cells_checked violation_free all_applicable_scores_100 config_digest",
)):
    """Self-lint evidence attached to a generated history."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _story_body(title: str, length: int, checkboxes: int) -> str:
    """Compose a body whose combined normalized length with `title` is exactly `length`."""
    tasks = "\n".join(f"- [ ] task {i + 1}" for i in range(checkboxes))
    base = story_text_length(title, tasks)
    pad = length - base - 1
    if pad < 1:
        raise InfeasibleFixtureError(
            f"story length {length} is too short for {checkboxes} checkboxes and title {title!r}"
        )
    words = "m" * pad
    return tasks + ("\n" if tasks else "") + words


class _TeamBuilder:
    """Accumulates one team's records with the invariants the generator promises.

    Scaffold commits rotate authors across a small file pool such that every
    pool file is edited by more authors than the ownership threshold within
    each sprint; commit times stay inside the sprint and clear of the
    deadline window; stats grow coverage monotonically; pull requests close
    slowly and always carry comments.
    """

    def __init__(self, rng: random.Random, team_id: str, n_devs: int, idle_devs: int) -> None:
        self.rng = rng
        self.team = team_id
        self.devs = [f"dev{i:02d}@{team_id}.example" for i in range(n_devs)]
        self.idle_devs = [f"idle{i:02d}@{team_id}.example" for i in range(idle_devs)]
        self.sprints: list[Sprint] = []
        self.stories: list[UserStory] = []
        self.commits: list[Commit] = []
        self.pulls: list[PullRequest] = []
        self.stats: list[BuildStats] = []
        self._head: str | None = None
        self._coverage = _START_COVERAGE
        self._complexity = 100.0

    def records(self) -> tuple[list, list, list, list, list]:
        """The team's records in `ProjectHistory.records()` order."""
        return self.commits, self.stories, self.sprints, self.pulls, self.stats

    # -- schedule -------------------------------------------------------

    def add_sprint(self, index: int, duration_seconds: float) -> Sprint:
        starts = self.sprints[-1].due_on if self.sprints else EPOCH
        duration_seconds = _sprint_seconds(index, starts, duration_seconds)
        sprint = Sprint(
            id=f"{self.team}-s{index:02d}",
            title=f"Sprint {index + 1}",
            starts_at=starts,
            due_on=starts + duration_seconds,
            team=self.team,
        )
        self.sprints.append(sprint)
        return sprint

    def _interior(self, sprint: Sprint) -> tuple[float, float]:
        lo = sprint.starts_at + MARGIN_SECONDS
        return lo, sprint.due_on - _LAST_MINUTE_SECONDS - MARGIN_SECONDS

    def payload_time(self, sprint: Sprint) -> float:
        return self.rng.uniform(*self._interior(sprint))

    # -- stories --------------------------------------------------------

    def add_story(
        self,
        memberships: list[Sprint],
        length: int = BASE_STORY_LENGTH,
        checkboxes: int = BASE_STORY_CHECKBOXES,
        labels: tuple[str, ...] = (),
        extra_assignees: tuple[str, ...] = (),
    ) -> UserStory:
        number = len(self.stories) + 1
        title = f"Story {number}"
        first, last = memberships[0], memberships[-1]
        assignees = (
            self.devs[(number - 1) % len(self.devs)],
            self.devs[number % len(self.devs)],
        ) if self.devs else ()
        story = UserStory(
            number=number,
            title=title,
            body=_story_body(title, length, checkboxes),
            state=StoryState.CLOSED,
            labels=frozenset(labels),
            milestones=tuple(
                SprintMembership(sprint_id=s.id, assigned_at=s.starts_at - MARGIN_SECONDS)
                for s in memberships
            ),
            assignees=frozenset(assignees) | frozenset(extra_assignees),
            created_at=first.starts_at - 2 * MARGIN_SECONDS,
            closed_at=last.due_on - MARGIN_SECONDS / 2,
            team=self.team,
        )
        self.stories.append(story)
        return story

    def fill_sprint_stories(self, sprint: Sprint, count: int) -> None:
        idle_pool = list(self.idle_devs)
        for _ in range(count):
            extra = (idle_pool.pop(),) if idle_pool else ()
            self.add_story([sprint], extra_assignees=extra)

    # -- commits ---------------------------------------------------------

    def add_commit(
        self,
        when: float,
        author: str,
        files: tuple[FileChange, ...],
        with_stats: tuple[float, float] | None,
        advance_chain: bool = True,
    ) -> Commit:
        commit = Commit(
            id=f"{self.team}-c{len(self.commits) + 1:06d}",
            author=author,
            authored_at=float(round(when)),
            parents=(self._head,) if self._head is not None else (),
            message=f"update {files[0].path}" if files else "update",
            files=files,
            team=self.team,
        )
        self.commits.append(commit)
        if with_stats is not None:
            coverage, complexity = with_stats
            self.stats.append(
                BuildStats(commit_id=commit.id, coverage_percent=coverage, complexity=complexity)
            )
        if advance_chain:
            self._head = commit.id
        return commit

    def _next_clean_stats(self) -> tuple[float, float]:
        self._coverage = min(95.0, self._coverage + self.rng.uniform(0.0005, 0.002))
        self._complexity += self.rng.uniform(0.01, 0.05)
        return round(self._coverage, 6), round(self._complexity, 6)

    def head_stats(self) -> tuple[float, float]:
        return self._coverage, self._complexity

    def _file_pool(self, total_commits: int) -> list[str]:
        n_devs = len(self.devs)
        size = max(1, total_commits // 18)
        while size > 1 and n_devs // math.gcd(size, n_devs) < _POOL_AUTHORS:
            size -= 1
        return [f"src/{self.team}/module_{j:02d}.py" for j in range(size)]

    def fill_sprint_commits(self, sprint: Sprint, commits_per_dev: int) -> None:
        """Scaffold commits: every developer commits, files rotate across authors."""
        n_devs = len(self.devs)
        total = n_devs * commits_per_dev
        if total == 0:
            return
        pool = self._file_pool(total)
        lo, hi = self._interior(sprint)
        stride = (hi - lo) / total
        for i in range(total):
            when = lo + i * stride + self.rng.uniform(0.0, stride * 0.5)
            path = pool[i % len(pool)]
            files = (
                FileChange(
                    path=path,
                    lines_added=self.rng.randrange(1, 30),
                    lines_deleted=self.rng.randrange(0, 10),
                ),
            )
            self.add_commit(when, self.devs[i % n_devs], files, self._next_clean_stats())

    # -- pull requests ----------------------------------------------------

    def add_pull(
        self, sprint: Sprint, open_minutes: float, comments: int, merged: bool = True
    ) -> PullRequest:
        lo, hi = self._interior(sprint)
        opened = float(round(self.rng.uniform(lo, hi)))
        pull = PullRequest(
            number=len(self.pulls) + 1,
            opened_at=opened,
            closed_at=float(round(opened + open_minutes * 60.0)),
            merged=merged,
            comment_count=comments,
            team=self.team,
        )
        self.pulls.append(pull)
        return pull

    def fill_sprint_pulls(self, sprint: Sprint, count: int) -> None:
        fast_minutes = _CONFIG.for_metric(cfg.FAST_PULLS)["fast_pr_window_minutes"]
        for _ in range(count):
            open_minutes = fast_minutes + 60.0 + self.rng.uniform(0.0, 600.0)
            self.add_pull(sprint, open_minutes, comments=1 + self.rng.randrange(0, 4))


def _scaffold_team(rng: random.Random, team_id: str, devs: int, sprints: int, duration: float, stories: int,
                   commits_per_dev: int, pulls: int, idle_devs: int = 0) -> _TeamBuilder:
    """A violation-free team of `sprints` back-to-back sprints of `duration` seconds each."""
    builder = _TeamBuilder(rng, team_id, devs, idle_devs)
    for k in range(sprints):
        sprint = builder.add_sprint(k, duration)
        builder.fill_sprint_stories(sprint, stories)
        builder.fill_sprint_commits(sprint, commits_per_dev)
        builder.fill_sprint_pulls(sprint, pulls)
    return builder


def _assemble(builders: list[_TeamBuilder], base: ProjectHistory = ProjectHistory()) -> ProjectHistory:
    # per collection: the base's records, then each builder's
    collections = zip(base.records(), *(b.records() for b in builders))
    return build_history(*(chain.from_iterable(c) for c in collections))


def self_lint(history: ProjectHistory, seed: int) -> FixtureCertificate:
    """Run the tool's own checks at the default settings over a history and certify the outcome."""
    results = run_all(default_registry(), history, _CONFIG)
    return FixtureCertificate(
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        cells_checked=len(results),
        violation_free=all(not r.violations for r in results),
        all_applicable_scores_100=all(r.score == 100.0 for r in results if r.score is not None),
        config_digest=_CONFIG.digest(),
    )


def generate(spec: FixtureSpec) -> tuple[ProjectHistory, FixtureCertificate]:
    """Build a violation-free history for `spec` plus its self-lint certificate."""
    rng = random.Random(spec.seed)
    duration = spec.sprint_length_days * 86400.0
    builders = [_scaffold_team(rng, f"team-{t + 1:02d}", spec.developers_per_team, spec.sprints, duration,
                               spec.stories_per_sprint, spec.commits_per_dev_per_sprint, spec.pulls_per_sprint)
                for t in range(spec.teams)]
    history = _assemble(builders)
    certificate = self_lint(history, spec.seed)
    if not certificate.violation_free:
        raise InfeasibleFixtureError(
            "generated history failed its own lint; the spec cannot satisfy the "
            "violation-free guarantee"
        )
    return history, certificate


# --- injection --------------------------------------------------------------

_INJECT_DEVS = 4
_INJECT_STORIES = 3
_INJECT_COMMITS_PER_DEV = 10
_INJECT_PULLS = 3
_INJECTION_TEAM = _team_records(_INJECT_DEVS, 1, _INJECT_STORIES, _INJECT_COMMITS_PER_DEV, _INJECT_PULLS)


def _injection_seconds(extra_backlog: int = 0, idle_devs: int = 0) -> float:
    """The sprint length that puts developers / backlog / days on the parabola's peak."""
    return (_INJECT_DEVS + idle_devs) * 86400.0 / (_INJECT_STORIES + extra_backlog)


def _injection_team(rng: random.Random, metric: str, n_sprints: int = 1, extra_backlog: int = 0,
                    idle_devs: int = 0) -> _TeamBuilder:
    """Scaffold a one-off team for one directive."""
    duration = _injection_seconds(extra_backlog, idle_devs)
    return _scaffold_team(rng, f"zz-{metric}", _INJECT_DEVS, n_sprints, duration, _INJECT_STORIES,
                          _INJECT_COMMITS_PER_DEV, _INJECT_PULLS, idle_devs)


# --- what each directive can plant, checked when an InjectionSpec is built

def _check_hot_files(count: int, edits: int, authors: int) -> None:
    settings = _CONFIG.for_metric(cfg.COLLECTIVE_OWNERSHIP)
    most_authors, fewest_edits = settings["threshold_a"], settings["threshold_e"]
    if authors < 1 or authors > most_authors:
        raise InfeasibleFixtureError(f"hot files need 1..{most_authors} authors to violate, got {authors}")
    if edits < fewest_edits:
        raise InfeasibleFixtureError(f"hot files need at least {fewest_edits} edits to violate, got {edits}")


def _check_tdd_regressions(count: int) -> None:
    # each regression drops coverage a point below the scaffold's
    if count > _START_COVERAGE:
        raise InfeasibleFixtureError(f"cannot drop coverage {count} times from {_START_COVERAGE:.1f}%")


def _check_huge_stories(count: int, multiplier: float) -> None:
    t = _CONFIG.for_metric(cfg.HUGE_STORIES)["threshold_length"]
    n, c = _INJECT_STORIES, count
    headroom = n + c * (1.0 - t)
    if headroom <= 0:
        raise InfeasibleFixtureError(
            f"{c} huge stories among {n} regular ones can never exceed {t}x the average "
            "(the candidates drag the average up with them)"
        )
    minimum = t * n / headroom
    if multiplier <= minimum:
        raise InfeasibleFixtureError(
            f"length multiplier must exceed {minimum:.2f} for {c} huge stories among {n} "
            f"regular ones at threshold {t}, got {multiplier}"
        )


def _check_neverending(count: int, sprints_each: int) -> None:
    threshold = _CONFIG.for_metric(cfg.MULTI_BACKLOG)["threshold_amount"]
    if sprints_each <= threshold:
        raise InfeasibleFixtureError(
            f"neverending stories need more than {threshold} sprint memberships to violate, got {sprints_each}"
        )
    _check_sprints(sprints_each, _injection_seconds(count))


# --- injectors: each plants its violations in a team of its own and returns
# the team with the planted artifact ids

def _inject_hot_files(rng, metric: str, count: int, edits: int, authors: int) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric)
    sprint = builder.sprints[-1]
    paths = []
    for i in range(count):
        path = f"hot/hotspot_{i:02d}.py"
        paths.append(path)
        change = FileChange(path=path, lines_added=1, lines_deleted=0)
        for e in range(edits):
            builder.add_commit(builder.payload_time(sprint), builder.devs[e % authors], (change,), None,
                               advance_chain=False)
    return builder, paths


def _inject_tdd_regressions(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric)
    sprint = builder.sprints[-1]
    head_coverage, head_complexity = builder.head_stats()
    ids = []
    for i in range(count):
        change = FileChange(path=f"rushed/feature_{i:02d}.py", lines_added=40, lines_deleted=0)
        stats = (head_coverage - (i + 1) * 1.0, head_complexity + (i + 1) * 5.0)
        ids.append(builder.add_commit(builder.payload_time(sprint), builder.devs[i % len(builder.devs)],
                                      (change,), stats, advance_chain=False).id)
    return builder, ids


def _inject_huge_stories(rng, metric: str, count: int, multiplier: float) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric, extra_backlog=count)
    sprint = builder.sprints[-1]
    length = round(multiplier * BASE_STORY_LENGTH)
    return builder, [story_ref(builder.add_story([sprint], length=length).number) for _ in range(count)]


def _inject_neverending(rng, metric: str, count: int, sprints_each: int) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric, n_sprints=sprints_each, extra_backlog=count)
    return builder, [story_ref(builder.add_story(list(builder.sprints)).number) for _ in range(count)]


def _inject_duplicates(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    label = _CONFIG.for_metric(metric)["duplicate_label"]
    builder = _injection_team(rng, metric, extra_backlog=count)
    sprint = builder.sprints[-1]
    return builder, [story_ref(builder.add_story([sprint], labels=(label,)).number) for _ in range(count)]


def _inject_last_minute(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric)
    sprint = builder.sprints[-1]
    ids = []
    for i in range(count):
        when = sprint.due_on - _LAST_MINUTE_SECONDS * (i + 1) / (count + 1)
        change = FileChange(path=f"rush/deadline_{i:02d}.py", lines_added=5, lines_deleted=1)
        ids.append(builder.add_commit(when, builder.devs[i % len(builder.devs)], (change,), None,
                                      advance_chain=False).id)
    return builder, ids


def _inject_idle_developers(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    builder = _injection_team(rng, metric, idle_devs=count)
    return builder, sorted(builder.idle_devs)


def _inject_backlog_overflow(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    # the sprint is balanced for the scaffold stories alone, so the extra
    # ones push the staffing quota off the peak
    builder = _injection_team(rng, metric)
    sprint = builder.sprints[-1]
    for _ in range(count):
        builder.add_story([sprint])
    # the quota metric emits no violation artifacts; only its score moves
    return builder, []


def _inject_fast_pulls(rng, metric: str, count: int) -> tuple[_TeamBuilder, list]:
    fast_minutes = _CONFIG.for_metric(metric)["fast_pr_window_minutes"]
    builder = _injection_team(rng, metric)
    sprint = builder.sprints[-1]
    return builder, [
        pull_ref(builder.add_pull(sprint, open_minutes=fast_minutes / 2.0, comments=0).number)
        for _ in range(count)
    ]


# One row per directive, in InjectionSpec field order: the metric it
# violates; the keys of its JSON object, or None for a plain count; its
# injector; the records its arguments plan besides a one-sprint scaffold
# team (`int` where it plants one per count); and the check, if any, that
# refuses arguments it cannot plant. `inject` plants the directives in this
# order and every injector draws from one shared random stream, so
# reordering the rows changes every injected fixture.
_Directive = namedtuple("_Directive", "metric keys plant plan check", defaults=(None,))
_DIRECTIVES: dict[str, _Directive] = {
    "hot_files": _Directive(cfg.COLLECTIVE_OWNERSHIP, ("count", "edits", "authors"), _inject_hot_files,
                            lambda count, edits, _: count * edits, _check_hot_files),
    "tdd_regressions": _Directive(cfg.TEST_LATER, None, _inject_tdd_regressions, lambda count: 2 * count,
                                  _check_tdd_regressions),
    # a story counts once per base story length, which bounds its text
    "huge_stories": _Directive(cfg.HUGE_STORIES, ("count", "length_multiplier"), _inject_huge_stories,
                               lambda count, m: count * math.ceil(m), _check_huge_stories),
    # a scaffold team per sprint, and a membership per story and sprint
    "neverending_stories": _Directive(cfg.MULTI_BACKLOG, ("count", "sprints_each"), _inject_neverending,
                                      lambda count, each: each * (_INJECTION_TEAM + count), _check_neverending),
    "duplicate_stories": _Directive(cfg.DUPLICATE_STORIES, None, _inject_duplicates, int,
                                    lambda count: _check_sprints(1, _injection_seconds(count))),
    "last_minute_commits": _Directive(cfg.LAST_MINUTE, None, _inject_last_minute, int),
    "idle_developers": _Directive(cfg.COMMIT_ACTIVITY, None, _inject_idle_developers, int,
                                  lambda count: _check_idle_devs(count, _INJECT_STORIES)),
    "backlog_overflow": _Directive(cfg.DAILY_STORY_LOAD, None, _inject_backlog_overflow, int),
    "silent_fast_pulls": _Directive(cfg.FAST_PULLS, None, _inject_fast_pulls, int),
}


def inject(
    history: ProjectHistory, injection: InjectionSpec, seed: int
) -> tuple[ProjectHistory, dict[str, InjectionRecord]]:
    """Plant the requested violations and return the exact expected artifact ids.

    Each directive adds one self-contained team; the input history's teams
    are carried over untouched. An empty injection returns the history as is.
    """
    if injection.empty():
        return history, {}
    rng = random.Random(seed)
    builders: list[_TeamBuilder] = []
    ledger: dict[str, InjectionRecord] = {}
    for name, directive in _DIRECTIVES.items():
        value = getattr(injection, name)
        if _planted(value):
            args = value if directive.keys else (value,)
            builder, artifacts = directive.plant(rng, directive.metric, *args)
            builders.append(builder)
            ledger[directive.metric] = InjectionRecord(
                directive.metric, builder.team, builder.sprints[-1].id, tuple(artifacts)
            )
    return _assemble(builders, history), ledger


def ledger_to_dict(ledger: Mapping[str, InjectionRecord], seed: int) -> dict:
    return {
        "rng_algorithm": RNG_ALGORITHM,
        "seed": seed,
        "entries": {
            metric: {
                "team": record.team,
                "sprint": record.sprint_id,
                "artifacts": list(record.artifacts),
            }
            for metric, record in sorted(ledger.items())
        },
    }
