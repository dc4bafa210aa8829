"""The built-in conformance checks, one row each in `CHECKS`.

Each detector inspects one team-sprint slice with its own check's settings
(a read-only mapping of its row of `config.SETTINGS`, read as
`settings["weight"]`), emits violations that point at the offending
artifacts (commit ids, story numbers, pull request numbers, file paths,
developer ids), and scores them.
It returns a `Finding`; the engine adds the metric, team and sprint. A
detector returns a finding with no score when its inputs simply are not
present in the sprint (no stories, no closed pull requests), so absence of
data never masquerades as conformance or violation.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Mapping
from typing import Any

from . import config as cfg
from .engine import (
    MetricRegistry,
    RegisteredMetric,
    capped_linear,
    cutoff_parabola,
    ratio_linear,
    threshold_linear,
)
from .model import (
    Finding,
    MetricDescriptor,
    ProjectHistory,
    Severity,
    SprintSlice,
    Violation,
    _Record,
)


def story_ref(number: int) -> str:
    return f"#{number}"


def pull_ref(number: int) -> str:
    return f"PR#{number}"


def _not_applicable(reason: str) -> Finding:
    return Finding(violations=(), score=None, diagnostic=reason)


def detect_collective_ownership(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag files that absorbed many edits from too few people.

    A file edited at least `threshold_e` times by at most `threshold_a`
    authors is flagged: at the defaults, 10 edits by 2 authors are.
    """
    edits: dict[str, int] = {}
    authors: dict[str, set[str]] = {}
    for commit in slice_.commits:
        for change in commit.files:
            edits[change.path] = edits.get(change.path, 0) + 1
            authors.setdefault(change.path, set()).add(commit.author)
    violations = []
    for path in sorted(edits):
        count, owners = edits[path], len(authors[path])
        if count >= settings["threshold_e"] and owners <= settings["threshold_a"]:
            violations.append(
                Violation(
                    artifacts=(path,),
                    detail=f"{path} was edited {count} times by only {owners} author(s)",
                    numeric_detail={"edits": count, "authors": owners},
                )
            )
    return Finding(
        violations=tuple(violations),
        score=threshold_linear(len(violations), settings["weight"]),
        inputs_echo={
            "violations": len(violations),
            "weight": settings["weight"],
            "threshold_e": settings["threshold_e"],
            "threshold_a": settings["threshold_a"],
        },
    )


def detect_test_later(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag commits that raised complexity while coverage fell against their parent.

    A commit is flagged when its complexity is above its parent's and its
    coverage below it; an equal value is neither a rise nor a drop. Merge
    commits and commits without stats for both sides are skipped;
    comparisons only make sense along a single parent edge.
    """
    stats_by_commit = slice_.stats_by_commit
    with_stats = [c for c in slice_.commits if c.id in stats_by_commit]
    if not with_stats:
        return _not_applicable("no commit in this sprint has build stats")
    violations = []
    for commit in with_stats:
        if len(commit.parents) != 1:
            continue
        parent_stats = stats_by_commit.get(commit.parents[0])
        if parent_stats is None:
            continue
        own = stats_by_commit[commit.id]
        if own.complexity > parent_stats.complexity and own.coverage_percent < parent_stats.coverage_percent:
            violations.append(
                Violation(
                    artifacts=(commit.id,),
                    detail=(
                        f"commit {commit.id} raised complexity "
                        f"({parent_stats.complexity:g} -> {own.complexity:g}) while coverage fell "
                        f"({parent_stats.coverage_percent:g}% -> {own.coverage_percent:g}%)"
                    ),
                    numeric_detail={
                        "complexity_delta": own.complexity - parent_stats.complexity,
                        "coverage_delta": own.coverage_percent - parent_stats.coverage_percent,
                    },
                )
            )
    return Finding(
        violations=tuple(violations),
        score=ratio_linear(len(violations), len(with_stats), settings["weight"]),
        inputs_echo={
            "violations": len(violations),
            "commits_with_stats": len(with_stats),
            "weight": settings["weight"],
        },
    )


_CHECKBOX_LINE = re.compile(r"^[ \t]*[-*] \[[ xX]\]")


def count_checkboxes(body: str) -> int:
    """Count task-list items: a dash or star bullet followed by ``[ ]``, ``[x]`` or ``[X]``."""
    return sum(1 for line in body.splitlines() if _CHECKBOX_LINE.match(line))


def story_text_length(title: str, body: str) -> int:
    """Story size in characters, whitespace-normalized.

    Runs of whitespace collapse to a single space; title and body are joined
    by one space when both are non-empty. Code blocks in the body count.
    """
    head = " ".join(title.split())
    tail = " ".join(body.split())
    if head and tail:
        return len(head) + 1 + len(tail)
    return len(head) + len(tail)


def detect_huge_stories(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag stories far above the sprint's average size or task count.

    A story is flagged when its length is more than `threshold_length`
    times the average length, or its task count more than `threshold_check`
    times the average task count; exactly that many times is not huge.
    Averages include the candidate stories themselves. In a sprint with no
    checkboxes the average is 0 and no count is above 0, so no story is
    flagged for its tasks.
    """
    stories = slice_.stories
    if not stories:
        return _not_applicable("no stories in this sprint's backlog")
    lengths = {s.number: story_text_length(s.title, s.body) for s in stories}
    checkboxes = {s.number: count_checkboxes(s.body) for s in stories}
    avg_length = sum(lengths.values()) / len(stories)
    avg_checkboxes = sum(checkboxes.values()) / len(stories)
    violations = []
    for story in stories:
        too_long = lengths[story.number] > settings["threshold_length"] * avg_length
        too_many_tasks = checkboxes[story.number] > settings["threshold_check"] * avg_checkboxes
        if too_long or too_many_tasks:
            reasons = []
            if too_long:
                reasons.append(f"{lengths[story.number]} chars vs average {avg_length:.1f}")
            if too_many_tasks:
                reasons.append(f"{checkboxes[story.number]} tasks vs average {avg_checkboxes:.1f}")
            violations.append(
                Violation(
                    artifacts=(story_ref(story.number),),
                    detail=f"story #{story.number} is outsized: " + "; ".join(reasons),
                    numeric_detail={
                        "length": lengths[story.number],
                        "checkboxes": checkboxes[story.number],
                        "avg_length": avg_length,
                        "avg_checkboxes": avg_checkboxes,
                    },
                )
            )
    return Finding(
        violations=tuple(violations),
        score=threshold_linear(len(violations), settings["weight"]),
        inputs_echo={
            "violations": len(violations),
            "stories": len(stories),
            "avg_length": avg_length,
            "avg_checkboxes": avg_checkboxes,
            "threshold_length": settings["threshold_length"],
            "threshold_check": settings["threshold_check"],
            "weight": settings["weight"],
        },
    )


def detect_multi_backlog(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag stories that have been carried through too many sprint backlogs.

    A story in more than `threshold_amount` backlogs is flagged. Membership
    is counted over the story's whole assignment history up to and
    including the sprint under evaluation, so later churn never penalizes
    an earlier sprint retroactively.
    """
    backlog = slice_.stories
    if not backlog:
        return _not_applicable("no stories in this sprint's backlog")
    due_on = slice_.sprint.due_on
    sprints_by_id = slice_.sprints_by_id
    violations = []
    counts = []
    for story in backlog:
        memberships = sum(
            1 for sid in story.sprint_memberships if sprints_by_id[sid].due_on <= due_on
        )
        if memberships > settings["threshold_amount"]:
            counts.append(memberships)
            violations.append(
                Violation(
                    artifacts=(story_ref(story.number),),
                    detail=f"story #{story.number} has been in {memberships} sprint backlogs",
                    numeric_detail={"sprint_count": memberships},
                )
            )
    avg_in_sprints = sum(counts) / len(counts) if counts else 1.0
    return Finding(
        violations=tuple(violations),
        score=ratio_linear(len(violations), len(backlog), settings["weight"], avg_in_sprints),
        inputs_echo={
            "violations": len(violations),
            "total_stories": len(backlog),
            "avg_in_sprints": avg_in_sprints,
            "threshold_amount": settings["threshold_amount"],
            "weight": settings["weight"],
        },
    )


def detect_duplicates(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag stories developers tagged with the duplicate label.

    A story is flagged when one of its labels is `duplicate_label` in any
    case; a label that only contains it is not.
    """
    stories = slice_.stories
    if not stories:
        return _not_applicable("no stories in this sprint's backlog")
    label = settings["duplicate_label"].lower()
    violations = []
    for story in stories:
        if any(l.lower() == label for l in story.labels):
            violations.append(
                Violation(
                    artifacts=(story_ref(story.number),),
                    detail=f"story #{story.number} is tagged as a duplicate",
                )
            )
    return Finding(
        violations=tuple(violations),
        score=ratio_linear(len(violations), len(stories), settings["weight"]),
        inputs_echo={
            "duplicates": len(violations),
            "total_stories": len(stories),
            "weight": settings["weight"],
        },
    )


def detect_last_minute(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag commits crammed into the final stretch before the sprint deadline.

    A commit from `last_minute_window_minutes` before the deadline up to the
    deadline, both ends included, is flagged.
    """
    commits = slice_.commits
    if not commits:
        return _not_applicable("no commits in this sprint")
    due = slice_.sprint.due_on
    window_start = due - settings["last_minute_window_minutes"] * 60.0
    violations = []
    for commit in commits:
        if window_start <= commit.authored_at <= due:
            minutes_left = (due - commit.authored_at) / 60.0
            violations.append(
                Violation(
                    artifacts=(commit.id,),
                    detail=f"commit {commit.id} landed {minutes_left:.0f} min before the deadline",
                    numeric_detail={"minutes_before_due": minutes_left},
                )
            )
    return Finding(
        violations=tuple(violations),
        score=ratio_linear(len(violations), len(commits), settings["weight"]),
        inputs_echo={
            "violations": len(violations),
            "total_commits": len(commits),
            "window_minutes": settings["last_minute_window_minutes"],
            "weight": settings["weight"],
        },
    )


def detect_no_committing(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Score the team's average commits per developer; name anyone who committed nothing.

    The score comes from the average alone: `weight` points per commit a
    developer, capped at 100, so at the default weight 10 commits a
    developer score 100. The zero-committer list is an informational
    violation for the humans doing context analysis.
    """
    team_developers = slice_.developers
    if not team_developers:
        return _not_applicable("team has no known developers")
    committed = {c.author for c in slice_.commits}
    silent = sorted(team_developers - committed)
    violations = ()
    if silent:
        violations = (
            Violation(
                artifacts=tuple(silent),
                detail=f"{len(silent)} developer(s) made no commits this sprint: " + ", ".join(silent),
                numeric_detail={"zero_commit_developers": len(silent)},
            ),
        )
    per_dev = len(slice_.commits) / len(team_developers)
    return Finding(
        violations=violations,
        score=capped_linear(per_dev, settings["weight"]),
        inputs_echo={
            "commits": len(slice_.commits),
            "developers": len(team_developers),
            "commits_per_developer": per_dev,
            "weight": settings["weight"],
        },
    )


def detect_daily_story_quota(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Rate the sprint's staffing quota (developers per backlog story per day).

    The quota q feeds the cut-off parabola `weight_a * q - weight_b * q**2`,
    clamped to 0..100: at the defaults it scores 100 at q = 1 and 0 from
    q = 2, so both an overfull and a thin backlog fall away from the peak.
    This metric produces no violation artifacts; the score and echoed
    quota are the signal.
    """
    backlog_size = len(slice_.stories)
    if backlog_size == 0:
        return _not_applicable("no stories in this sprint's backlog")
    team_developer_count = len(slice_.developers)
    length_days = slice_.sprint.length_days
    quota = team_developer_count / backlog_size / length_days
    return Finding(
        violations=(),
        score=cutoff_parabola(quota, settings["weight_a"], settings["weight_b"]),
        inputs_echo={
            "developers": team_developer_count,
            "backlog_size": backlog_size,
            "sprint_length_days": length_days,
            "quota": quota,
            "weight_a": settings["weight_a"],
            "weight_b": settings["weight_b"],
        },
    )


def detect_fast_pulls(slice_: SprintSlice, settings: Mapping[str, Any]) -> Finding:
    """Flag pull requests closed quickly with nobody commenting.

    A closed pull request open for less than `fast_pr_window_minutes` with
    no comment is flagged; one open exactly that long is not fast.
    """
    closed = [p for p in slice_.pulls if p.closed_at is not None]
    if not closed:
        return _not_applicable("no closed pull requests in this sprint")
    window_seconds = settings["fast_pr_window_minutes"] * 60.0
    violations = []
    for pull in closed:
        open_seconds = pull.closed_at - pull.opened_at
        if open_seconds < window_seconds and pull.comment_count == 0:
            violations.append(
                Violation(
                    artifacts=(pull_ref(pull.number),),
                    detail=(
                        f"pull request #{pull.number} was closed after "
                        f"{open_seconds / 60.0:.0f} min without any comments"
                    ),
                    numeric_detail={"open_minutes": open_seconds / 60.0},
                )
            )
    # the rating for speedy pulls carries no weight knob, only the time window
    return Finding(
        violations=tuple(violations),
        score=ratio_linear(len(violations), len(closed), 1.0),
        inputs_echo={
            "violations": len(violations),
            "total_closed_pulls": len(closed),
            "window_minutes": settings["fast_pr_window_minutes"],
        },
    )


class UnfinishedStories(_Record, namedtuple(
    "UnfinishedStories", "team sprint sprint_title amount story_numbers total percent"
)):
    """Stories still open in a team's sprint whose deadline has passed: `amount` of the backlog's `total`."""

    __slots__ = ()


def unfinished_stories(history: ProjectHistory, sprint_id: str, now: float) -> UnfinishedStories | None:
    """Report open stories left in a past-due sprint's backlog.

    Returns None while the sprint is not yet due: a sprint due exactly at
    `now` is not past due. The percentage is the exact
    ratio of open to total backlog stories, or None for an empty backlog.
    """
    sprint = history.sprint(sprint_id)
    if sprint.due_on >= now:
        return None
    backlog = history.backlog(sprint.team, sprint_id)
    open_numbers = tuple(sorted(s.number for s in backlog if s.state.value == "open"))
    total = len(backlog)
    percent = len(open_numbers) / total if total else None
    return UnfinishedStories(
        team=sprint.team,
        sprint=sprint.id,
        sprint_title=sprint.title,
        amount=len(open_numbers),
        story_numbers=open_numbers,
        total=total,
        percent=percent,
    )


# --- the checks and the default registry -------------------------------------

# one row per check: its name, severity, pitfalls and detector
CHECKS: dict[str, RegisteredMetric] = {
    check.descriptor.name: check
    for check in (
        RegisteredMetric(
            MetricDescriptor(
                cfg.COLLECTIVE_OWNERSHIP,
                Severity.NORMAL,
                "Edit counts say nothing about who understands the code; a generated or asset "
                "file touched by one person repeatedly is a common false positive.",
            ),
            detect_collective_ownership,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.TEST_LATER,
                Severity.NORMAL,
                "Coverage deltas depend on external tooling and can dip for unrelated reasons "
                "(deleted tests, config changes); merge commits are excluded entirely.",
            ),
            detect_test_later,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.HUGE_STORIES,
                Severity.LOW,
                "Length is a proxy: a long story may simply be well documented, and a terse "
                "one may still hide too much work.",
            ),
            detect_huge_stories,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.MULTI_BACKLOG,
                Severity.HIGH,
                "Deliberately re-planned work (a story consciously moved once) looks the same "
                "as a neverending story; the assignment history needs human review.",
            ),
            detect_multi_backlog,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.DUPLICATE_STORIES,
                Severity.VERY_LOW,
                "Only tagged duplicates are counted; untagged overlaps stay invisible, so a "
                "perfect score does not mean the backlog is duplicate-free.",
            ),
            detect_duplicates,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.LAST_MINUTE,
                Severity.NORMAL,
                "Timestamps reflect when code was committed, not when it was written; a "
                "deadline push of long-finished work is indistinguishable from a crunch.",
            ),
            detect_last_minute,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.COMMIT_ACTIVITY,
                Severity.NORMAL,
                "Commit counts are not value: squashed branches, pairing, and non-code work "
                "all lower the count without meaning anyone was idle.",
            ),
            detect_no_committing,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.DAILY_STORY_LOAD,
                Severity.LOW,
                "Stories are counted, not sized; five small stories and five epics produce "
                "the same quota.",
            ),
            detect_daily_story_quota,
        ),
        RegisteredMetric(
            MetricDescriptor(
                cfg.FAST_PULLS,
                Severity.HIGH,
                "Review can happen out of band (pairing, chat) and leave no comments; "
                "trivial changes legitimately merge fast.",
            ),
            detect_fast_pulls,
        ),
    )
}


def default_registry() -> MetricRegistry:
    """All nine built-in metrics, in the order of `config.METRIC_NAMES`."""
    registry = MetricRegistry()
    for name in cfg.METRIC_NAMES:
        registry.register(CHECKS[name])
    return registry
