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

Randomness comes from a single seeded Mersenne Twister stream (the stdlib
``random.Random``), so identical specs produce byte-identical exports on
any platform; the algorithm name is recorded in certificates and ledgers.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields
from itertools import chain

from . import config as cfg
from .catalog import default_registry, story_ref, pull_ref
from .config import MetricConfig
from .engine import run_all
from .errors import InfeasibleFixtureError
from .ingest import story_text_length
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

# the settings every fixture is built for and certified against
_CONFIG = MetricConfig()
_LAST_MINUTE_SECONDS = _CONFIG.for_metric(cfg.LAST_MINUTE)["last_minute_window_minutes"] * 60.0


@dataclass(frozen=True)
class FixtureSpec:
    """Shape of a generated history.

    The defaults are balanced so that every metric scores exactly 100: ten
    commits per developer saturate the commit-activity cap, and developers
    per team equals stories per sprint times sprint length, which puts the
    staffing quota on the parabola's peak.
    """

    seed: int = 42
    teams: int = 2
    developers_per_team: int = 6
    sprints: int = 3
    sprint_length_days: float = 2.0
    stories_per_sprint: int = 3
    commits_per_dev_per_sprint: int = 10
    pulls_per_sprint: int = 4

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "sprint_length_days":
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
                    raise InfeasibleFixtureError(f"sprint_length_days must be > 0, got {value!r}")
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise InfeasibleFixtureError(f"{f.name} must be an integer, got {value!r}")
            if f.name != "seed" and value < 0:
                raise InfeasibleFixtureError(f"{f.name} must be >= 0, got {value}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def spec_from_dict(raw: Mapping) -> FixtureSpec:
    known = {f.name for f in fields(FixtureSpec)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise InfeasibleFixtureError(f"unknown fixture spec field(s): {', '.join(unknown)}")
    return FixtureSpec(**{k: raw[k] for k in raw})


def _planted(directive: int | tuple | None) -> int:
    """How many violations a directive plants: its count, the first member of a tuple."""
    if isinstance(directive, tuple):
        return directive[0]
    return directive or 0


@dataclass(frozen=True)
class InjectionSpec:
    """How many violations to plant, per metric.

    Tuple directives carry their extra shape parameters, in the order of
    their keys in `_DIRECTIVES`; the count comes first.
    """

    hot_files: tuple[int, int, int] | None = None
    tdd_regressions: int = 0
    huge_stories: tuple[int, float] | None = None
    neverending_stories: tuple[int, int] | None = None
    duplicate_stories: int = 0
    last_minute_commits: int = 0
    idle_developers: int = 0
    backlog_overflow: int = 0
    silent_fast_pulls: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            for i, part in enumerate(value if isinstance(value, tuple) else (value,)):
                kinds = (int, float) if (f.name, i) == ("huge_stories", 1) else int
                if isinstance(part, bool) or not isinstance(part, kinds) or not 0 <= part < math.inf:
                    raise InfeasibleFixtureError(
                        f"{f.name} must hold finite non-negative numbers, got {value!r}"
                    )

    def empty(self) -> bool:
        return not any(_planted(getattr(self, f.name)) for f in fields(self))

    def to_dict(self) -> dict:
        out: dict[str, object] = {}
        for name, (keys, _) in _DIRECTIVES.items():
            value = getattr(self, name)
            if value:
                out[name] = dict(zip(keys, value)) if keys else value
        return out


def injection_from_dict(raw: Mapping) -> InjectionSpec:
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        if key not in _DIRECTIVES:
            raise InfeasibleFixtureError(f"unknown injection directive {key!r}")
        keys = _DIRECTIVES[key][0]
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
        self._story_number = 0
        self._pull_number = 0
        self._commit_counter = 0
        self._head: str | None = None
        self._coverage = 60.0
        self._complexity = 100.0

    def records(self) -> tuple[list, list, list, list, list]:
        """The team's records in `ProjectHistory.records()` order."""
        return self.commits, self.stories, self.sprints, self.pulls, self.stats

    # -- schedule -------------------------------------------------------

    def add_sprint(self, index: int, duration_seconds: float) -> Sprint:
        starts = EPOCH + sum(s.due_on - s.starts_at for s in self.sprints)
        # no export can write an instant after year 9999, and pull requests
        # close up to a day after their sprint's deadline
        if not starts + duration_seconds < END_TS - 86400.0:
            raise InfeasibleFixtureError(
                f"sprint {index + 1} ({duration_seconds / 86400.0:g} days) would end after "
                "9999-12-31T00:00:00Z, the last deadline a fixture can have"
            )
        # whole seconds keep timestamps exact through the ISO-8601 round trip
        duration_seconds = float(round(duration_seconds))
        if duration_seconds <= _LAST_MINUTE_SECONDS + 2 * MARGIN_SECONDS:
            raise InfeasibleFixtureError(
                f"sprint of {duration_seconds:.0f}s leaves no room outside the "
                f"{_LAST_MINUTE_SECONDS:.0f}s deadline window plus margins"
            )
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

    # -- stories --------------------------------------------------------

    def add_story(
        self,
        memberships: list[Sprint],
        length: int = BASE_STORY_LENGTH,
        checkboxes: int = BASE_STORY_CHECKBOXES,
        labels: tuple[str, ...] = (),
        extra_assignees: tuple[str, ...] = (),
    ) -> UserStory:
        self._story_number += 1
        number = self._story_number
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

    def fill_sprint_stories(self, sprint: Sprint, count: int) -> list[UserStory]:
        idle_pool = list(self.idle_devs)
        stories = []
        for _ in range(count):
            extra = (idle_pool.pop(),) if idle_pool else ()
            stories.append(self.add_story([sprint], extra_assignees=extra))
        if idle_pool:
            raise InfeasibleFixtureError(
                f"{len(idle_pool)} idle developer(s) left without a story to be assigned to"
            )
        return stories

    # -- commits ---------------------------------------------------------

    def _next_commit_id(self) -> str:
        self._commit_counter += 1
        return f"{self.team}-c{self._commit_counter:06d}"

    def add_commit(
        self,
        when: float,
        author: str,
        files: tuple[FileChange, ...],
        with_stats: tuple[float, float] | None,
        advance_chain: bool = True,
    ) -> Commit:
        commit = Commit(
            id=self._next_commit_id(),
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
        threshold_a = _CONFIG.for_metric(cfg.COLLECTIVE_OWNERSHIP)["threshold_a"]
        needed_authors = threshold_a + 1
        n_devs = len(self.devs)
        if n_devs < needed_authors:
            raise InfeasibleFixtureError(
                f"hot-file guarantee needs at least {needed_authors} developers per team "
                f"(threshold_a + 1), got {n_devs}"
            )
        size = max(1, total_commits // 18)
        while size > 1 and n_devs // math.gcd(size, n_devs) < needed_authors:
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
        self._pull_number += 1
        lo, hi = self._interior(sprint)
        opened = float(round(self.rng.uniform(lo, hi)))
        pull = PullRequest(
            number=self._pull_number,
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


def _build_clean_team(rng: random.Random, team_id: str, spec: FixtureSpec) -> _TeamBuilder:
    builder = _TeamBuilder(rng, team_id, spec.developers_per_team, 0)
    if spec.developers_per_team > 0 and spec.sprints > 0:
        if spec.commits_per_dev_per_sprint == 0 and spec.stories_per_sprint > 0:
            raise InfeasibleFixtureError(
                "developers assigned to stories would never commit; the zero-committer "
                "guarantee needs commits_per_dev_per_sprint >= 1"
            )
    for k in range(spec.sprints):
        sprint = builder.add_sprint(k, spec.sprint_length_days * 86400.0)
        builder.fill_sprint_stories(sprint, spec.stories_per_sprint)
        if spec.developers_per_team:
            builder.fill_sprint_commits(sprint, spec.commits_per_dev_per_sprint)
        builder.fill_sprint_pulls(sprint, spec.pulls_per_sprint)
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
    builders = [_build_clean_team(rng, f"team-{t + 1:02d}", spec) for t in range(spec.teams)]
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


def _injection_team(
    rng: random.Random,
    metric: str,
    n_sprints: int = 1,
    extra_backlog: int = 0,
    idle_devs: int = 0,
    quota_backlog: int | None = None,
) -> _TeamBuilder:
    """Scaffold a one-off team for one directive.

    Sprint length is chosen so that developers / backlog / days sits exactly
    on the parabola's peak; `quota_backlog` overrides the backlog size used
    for that balancing when the directive deliberately wants it off-peak.
    """
    builder = _TeamBuilder(rng, f"zz-{metric}", _INJECT_DEVS, idle_devs)
    backlog = _INJECT_STORIES + extra_backlog
    balanced = quota_backlog if quota_backlog is not None else backlog
    total_devs = _INJECT_DEVS + idle_devs
    duration = total_devs * 86400.0 / balanced
    for k in range(n_sprints):
        sprint = builder.add_sprint(k, duration)
        builder.fill_sprint_stories(sprint, _INJECT_STORIES)
        builder.fill_sprint_commits(sprint, _INJECT_COMMITS_PER_DEV)
        builder.fill_sprint_pulls(sprint, _INJECT_PULLS)
    return builder


def _payload_time(builder: _TeamBuilder, sprint: Sprint) -> float:
    lo, hi = builder._interior(sprint)
    return builder.rng.uniform(lo, hi)


def _inject_hot_files(rng, count: int, edits: int, authors: int) -> tuple[_TeamBuilder, InjectionRecord]:
    settings = _CONFIG.for_metric(cfg.COLLECTIVE_OWNERSHIP)
    if authors < 1 or authors > settings["threshold_a"]:
        raise InfeasibleFixtureError(
            f"hot files need 1..{settings['threshold_a']} authors to violate, got {authors}"
        )
    if edits < settings["threshold_e"]:
        raise InfeasibleFixtureError(
            f"hot files need at least {settings['threshold_e']} edits to violate, got {edits}"
        )
    if edits < authors:
        raise InfeasibleFixtureError("a file cannot have fewer edits than authors")
    builder = _injection_team(rng, cfg.COLLECTIVE_OWNERSHIP)
    sprint = builder.sprints[-1]
    paths = []
    for i in range(count):
        path = f"hot/hotspot_{i:02d}.py"
        paths.append(path)
        for e in range(edits):
            builder.add_commit(
                _payload_time(builder, sprint),
                builder.devs[e % authors],
                (FileChange(path=path, lines_added=1, lines_deleted=0),),
                with_stats=None,
                advance_chain=False,
            )
    return builder, InjectionRecord(cfg.COLLECTIVE_OWNERSHIP, builder.team, sprint.id, tuple(paths))


def _inject_tdd_regressions(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    builder = _injection_team(rng, cfg.TEST_LATER)
    sprint = builder.sprints[-1]
    head_coverage, head_complexity = builder.head_stats()
    if head_coverage - count * 1.0 < 0:
        raise InfeasibleFixtureError(f"cannot drop coverage {count} times from {head_coverage:.1f}%")
    ids = []
    for i in range(count):
        commit = builder.add_commit(
            _payload_time(builder, sprint),
            builder.devs[i % len(builder.devs)],
            (FileChange(path=f"rushed/feature_{i:02d}.py", lines_added=40, lines_deleted=0),),
            with_stats=(head_coverage - (i + 1) * 1.0, head_complexity + (i + 1) * 5.0),
            advance_chain=False,
        )
        ids.append(commit.id)
    return builder, InjectionRecord(cfg.TEST_LATER, builder.team, sprint.id, tuple(ids))


def _inject_huge_stories(rng, count: int, multiplier: float) -> tuple[_TeamBuilder, InjectionRecord]:
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
    if not multiplier * BASE_STORY_LENGTH < sys.maxsize:
        raise InfeasibleFixtureError(
            f"length multiplier {multiplier} asks for stories longer than a string can hold"
        )
    builder = _injection_team(rng, cfg.HUGE_STORIES, extra_backlog=count)
    sprint = builder.sprints[-1]
    refs = []
    for _ in range(count):
        story = builder.add_story([sprint], length=round(multiplier * BASE_STORY_LENGTH))
        refs.append(story_ref(story.number))
    return builder, InjectionRecord(cfg.HUGE_STORIES, builder.team, sprint.id, tuple(refs))


def _inject_neverending(rng, count: int, sprints_each: int) -> tuple[_TeamBuilder, InjectionRecord]:
    threshold = _CONFIG.for_metric(cfg.MULTI_BACKLOG)["threshold_amount"]
    if sprints_each <= threshold:
        raise InfeasibleFixtureError(
            f"neverending stories need more than {threshold} sprint memberships to violate, "
            f"got {sprints_each}"
        )
    builder = _injection_team(
        rng, cfg.MULTI_BACKLOG, n_sprints=sprints_each, extra_backlog=count
    )
    refs = []
    for _ in range(count):
        story = builder.add_story(list(builder.sprints))
        refs.append(story_ref(story.number))
    target = builder.sprints[-1]
    return builder, InjectionRecord(cfg.MULTI_BACKLOG, builder.team, target.id, tuple(refs))


def _inject_duplicates(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    label = _CONFIG.for_metric(cfg.DUPLICATE_STORIES)["duplicate_label"]
    builder = _injection_team(rng, cfg.DUPLICATE_STORIES, extra_backlog=count)
    sprint = builder.sprints[-1]
    refs = []
    for _ in range(count):
        story = builder.add_story([sprint], labels=(label,))
        refs.append(story_ref(story.number))
    return builder, InjectionRecord(cfg.DUPLICATE_STORIES, builder.team, sprint.id, tuple(refs))


def _inject_last_minute(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    builder = _injection_team(rng, cfg.LAST_MINUTE)
    sprint = builder.sprints[-1]
    ids = []
    for i in range(count):
        when = sprint.due_on - _LAST_MINUTE_SECONDS * (i + 1) / (count + 1)
        commit = builder.add_commit(
            when,
            builder.devs[i % len(builder.devs)],
            (FileChange(path=f"rush/deadline_{i:02d}.py", lines_added=5, lines_deleted=1),),
            with_stats=None,
            advance_chain=False,
        )
        ids.append(commit.id)
    return builder, InjectionRecord(cfg.LAST_MINUTE, builder.team, sprint.id, tuple(ids))


def _inject_idle_developers(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    if count > _INJECT_STORIES:
        raise InfeasibleFixtureError(
            f"at most {_INJECT_STORIES} idle developers can be attached to the scaffold stories"
        )
    builder = _injection_team(rng, cfg.COMMIT_ACTIVITY, idle_devs=count)
    target = builder.sprints[-1]
    return builder, InjectionRecord(
        cfg.COMMIT_ACTIVITY, builder.team, target.id, tuple(sorted(builder.idle_devs))
    )


def _inject_backlog_overflow(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    builder = _injection_team(
        rng, cfg.DAILY_STORY_LOAD, extra_backlog=count, quota_backlog=_INJECT_STORIES
    )
    sprint = builder.sprints[-1]
    for _ in range(count):
        builder.add_story([sprint])
    # the quota metric emits no violation artifacts; only its score moves
    return builder, InjectionRecord(cfg.DAILY_STORY_LOAD, builder.team, sprint.id, ())


def _inject_fast_pulls(rng, count: int) -> tuple[_TeamBuilder, InjectionRecord]:
    fast_minutes = _CONFIG.for_metric(cfg.FAST_PULLS)["fast_pr_window_minutes"]
    builder = _injection_team(rng, cfg.FAST_PULLS)
    sprint = builder.sprints[-1]
    refs = []
    for _ in range(count):
        pull = builder.add_pull(sprint, open_minutes=fast_minutes / 2.0, comments=0)
        refs.append(pull_ref(pull.number))
    return builder, InjectionRecord(cfg.FAST_PULLS, builder.team, sprint.id, tuple(refs))


# directive -> (the keys of its JSON object, or None for a plain count; its
# injector), in InjectionSpec field order. `inject` plants the directives in
# this order and every injector draws from one shared random stream, so
# reordering the rows changes every injected fixture.
_Injector = Callable[..., tuple[_TeamBuilder, InjectionRecord]]
_DIRECTIVES: dict[str, tuple[tuple[str, ...] | None, _Injector]] = {
    "hot_files": (("count", "edits", "authors"), _inject_hot_files),
    "tdd_regressions": (None, _inject_tdd_regressions),
    "huge_stories": (("count", "length_multiplier"), _inject_huge_stories),
    "neverending_stories": (("count", "sprints_each"), _inject_neverending),
    "duplicate_stories": (None, _inject_duplicates),
    "last_minute_commits": (None, _inject_last_minute),
    "idle_developers": (None, _inject_idle_developers),
    "backlog_overflow": (None, _inject_backlog_overflow),
    "silent_fast_pulls": (None, _inject_fast_pulls),
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
    for name, (keys, injector) in _DIRECTIVES.items():
        directive = getattr(injection, name)
        if _planted(directive):
            builder, record = injector(rng, *(directive if keys else (directive,)))
            builders.append(builder)
            ledger[record.metric] = record

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
