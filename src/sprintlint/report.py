"""Run reports: canonical JSON for machines, markdown for humans.

Reports are reproducible artifacts: keys are sorted, scores are rounded to
one decimal for display, and the reference time defaults to just after the
last event in the history, so re-running over the same snapshot and config
yields byte-identical output. The embedded config digest ties every report
to the exact thresholds that produced it.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from . import __version__
from .catalog import UnfinishedStories, unfinished_stories
from .config import MetricConfig
from .engine import MetricRegistry, run_all
from .errors import SprintLintError
from .model import ProjectHistory, _Record
from .scoring import aggregate_all
from .serialize import END_TS, array_pieces, canonical_json, format_iso_utc, object_pieces

TOOL_NAME = "sprintlint"


def history_horizon(history: ProjectHistory) -> float:
    """One second past the last event in the history; the default 'now' for reports.

    Raises when that instant is past the last one reports can write.
    """
    moments = [0.0]
    for sprint in history.sprints:
        moments.append(sprint.due_on)
    for commit in history.commits:
        moments.append(commit.authored_at)
    for story in history.stories:
        moments.append(story.created_at)
        if story.closed_at is not None:
            moments.append(story.closed_at)
    for pull in history.pulls:
        moments.append(pull.opened_at)
        if pull.closed_at is not None:
            moments.append(pull.closed_at)
    horizon = max(moments) + 1.0
    if horizon >= END_TS:
        raise SprintLintError(
            "one second past the last event is after 9999-12-31T23:59:59Z, so there is no "
            "default reference time; give one with --now"
        )
    return horizon


class RunReport(_Record, namedtuple("RunReport", "config now results scores unfinished")):
    """A lint run's results and scores; `unfinished` holds (team, `UnfinishedStories`) pairs."""

    __slots__ = ()


def build_report(
    history: ProjectHistory,
    registry: MetricRegistry,
    config: MetricConfig,
    now: float | None = None,
    sprint_title: str | None = None,
) -> RunReport:
    """Lint the whole history and assemble the report.

    `sprint_title` narrows the report to sprints with that title (across all
    teams), and only those sprints are evaluated; unknown titles are an error.
    """
    if now is None:
        now = history_horizon(history)
    if sprint_title is not None:
        matching = {s.id for s in history.sprints if s.title == sprint_title}
        if not matching:
            raise SprintLintError(f"no sprint titled {sprint_title!r} in this project")
    else:
        matching = None

    results = run_all(registry, history, config, sprint_ids=matching)
    scores = aggregate_all(results, registry, config)

    unfinished: list[tuple[str, UnfinishedStories]] = []
    for team in history.teams:
        for sprint in history.sprints_of(team):
            if matching is not None and sprint.id not in matching:
                continue
            block = unfinished_stories(history, sprint.id, now)
            if block is not None:
                unfinished.append((team, block))

    return RunReport(
        config=config,
        now=now,
        results=tuple(results),
        scores=tuple(scores),
        unfinished=tuple(unfinished),
    )


def _rounded(score: float | None) -> float | None:
    return None if score is None else round(score, 1)


def render_json(report: RunReport, history: ProjectHistory) -> str:
    """The report as canonical JSON and a final newline, built from one piece per result, score or block."""
    titles = {s.id: s.title for s in history.sprints}
    results = (
        {
            "metric": r.metric,
            "team": r.team,
            "sprint": r.sprint,
            "sprint_title": titles.get(r.sprint, r.sprint),
            "score": _rounded(r.score),
            "diagnostic": r.diagnostic,
            "inputs_echo": dict(r.inputs_echo),
            "violations": [
                {
                    "artifacts": list(v.artifacts),
                    "detail": v.detail,
                    "numeric_detail": dict(v.numeric_detail),
                }
                for v in r.violations
            ],
        }
        for r in report.results
    )
    scores = (
        {
            "team": s.team,
            "sprint": s.sprint,
            "sprint_title": titles.get(s.sprint, s.sprint),
            "overall": _rounded(s.overall),
            "contributions": [
                {
                    "metric": c.metric,
                    "score": _rounded(c.score),
                    "severity": c.severity.value,
                    "weight": c.weight,
                    "weighted_share": round(c.weighted_share, 6),
                }
                for c in s.contributions
            ],
            "skipped": [{"metric": k.metric, "reason": k.reason} for k in s.skipped],
        }
        for s in report.scores
    )
    unfinished = (
        {
            "team": team,
            "sprint": block.sprint_id,
            "sprint_title": block.sprint_title,
            "amount": block.amount,
            "story_numbers": list(block.story_numbers),
            "total": block.total,
            "percent": block.percent,
        }
        for team, block in report.unfinished
    )
    members = {
        "tool": [canonical_json(TOOL_NAME)],
        "version": [canonical_json(__version__)],
        "config_digest": [canonical_json(report.config.digest())],
        "config": [canonical_json(report.config.to_dict())],
        "now": [canonical_json(format_iso_utc(report.now))],
        "diagnostics": array_pieces(history.diagnostics),
        "results": array_pieces(results),
        "scores": array_pieces(scores),
        "unfinished_stories": array_pieces(unfinished),
    }
    return "".join(chain(object_pieces(members), "\n"))


def _fmt_score(score: float | None) -> str:
    return "n/a" if score is None else f"{score:.1f}"


def _one_line(text: str) -> str:
    """`text` with each carriage return and line feed written as a visible escape.

    Export text could otherwise end a heading or list item early and start a
    line that reads as the report's own.
    """
    return text.replace("\r", "\\r").replace("\n", "\\n")


def render_markdown(report: RunReport, history: ProjectHistory, registry: MetricRegistry) -> str:
    titles = {s.id: s.title for s in history.sprints}
    overall_by_cell = {(s.team, s.sprint): s for s in report.scores}
    results_by_cell: dict[tuple[str, str], list] = {}
    for result in report.results:
        results_by_cell.setdefault((result.team, result.sprint), []).append(result)
    unfinished_by_cell = {(team, block.sprint_id): block for team, block in report.unfinished}

    lines: list[str] = []
    lines.append("# Process conformance report")
    lines.append("")
    lines.append(f"- tool: {TOOL_NAME} {__version__}")
    lines.append(f"- config digest: `{report.config.digest()}`")
    lines.append(f"- reference time: {format_iso_utc(report.now)}")
    lines.append("")
    if history.diagnostics:
        lines.append("## Diagnostics")
        lines.append("")
        for diagnostic in history.diagnostics:
            lines.append(f"- {_one_line(diagnostic)}")
        lines.append("")

    cells = sorted(results_by_cell)
    current_team = None
    for team, sprint_id in cells:
        if team != current_team:
            lines.append(f"## Team {_one_line(team)}")
            lines.append("")
            current_team = team
        title = titles.get(sprint_id, sprint_id)
        lines.append(_one_line(f"### {title} ({sprint_id})"))
        lines.append("")
        cell_score = overall_by_cell.get((team, sprint_id))
        if cell_score is not None:
            lines.append(f"Overall score: **{_fmt_score(cell_score.overall)}**")
            lines.append("")
        lines.append("| metric | score | violations |")
        lines.append("| --- | ---: | ---: |")
        for result in results_by_cell[(team, sprint_id)]:
            lines.append(
                f"| {result.metric} | {_fmt_score(result.score)} | {len(result.violations)} |"
            )
        lines.append("")
        for result in results_by_cell[(team, sprint_id)]:
            if not result.violations and result.score is not None:
                continue
            if result.score is None:
                lines.append(_one_line(f"- {result.metric}: skipped ({result.diagnostic})"))
                continue
            for violation in result.violations:
                artifacts = ", ".join(violation.artifacts)
                lines.append(_one_line(f"- {result.metric}: {violation.detail} [{artifacts}]"))
            pitfalls = registry.get(result.metric).descriptor.pitfalls
            lines.append(f"  - pitfalls: {pitfalls}")
        block = unfinished_by_cell.get((team, sprint_id))
        if block is not None:
            numbers = ", ".join(f"#{n}" for n in block.story_numbers) or "none"
            percent = "n/a" if block.percent is None else f"{block.percent:.0%}"
            lines.append(
                f"- past due with {block.amount} of {block.total} stories still open "
                f"({percent}): {numbers}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
