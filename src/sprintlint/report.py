"""Run reports: canonical JSON for machines, markdown for humans.

Reports are reproducible artifacts: keys are sorted, scores are rounded to
one decimal for display, and the reference time defaults to just after the
last event in the history, so re-running over the same snapshot and config
yields byte-identical output. The embedded config digest ties every report
to the exact thresholds that produced it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain, groupby
from operator import attrgetter

from . import __version__
from .catalog import unfinished_stories
from .config import MetricConfig
from .engine import MetricRegistry, run_all
from .errors import SprintLintError
from .model import MetricResult, ProjectHistory, _Record
from .scoring import aggregate
from .serialize import END_TS, array_pieces, canonical_json, format_iso_utc, object_pieces

TOOL_NAME = "sprintlint"


def history_horizon(history: ProjectHistory) -> float:
    """One second past the last event in the history; the default 'now' for reports.

    Raises when that instant is past the last one reports can write.
    """
    stamps = chain(
        (sprint.due_on for sprint in history.sprints),
        (commit.authored_at for commit in history.commits),
        (story.created_at for story in history.stories),
        (story.closed_at for story in history.stories if story.closed_at is not None),
        (pull.opened_at for pull in history.pulls),
        (pull.closed_at for pull in history.pulls if pull.closed_at is not None),
    )
    horizon = max(stamps, default=0.0) + 1.0
    if horizon >= END_TS:
        raise SprintLintError(
            "one second past the last event is after 9999-12-31T23:59:59Z, so there is no "
            "default reference time; give one with --now"
        )
    return horizon


class ReportCell(_Record, namedtuple("ReportCell", "team sprint results score unfinished")):
    """One team-sprint of a lint run: its results in registration order, their score, and its past-due block.

    `score` is None when every check is disabled, and `unfinished` while the sprint is not yet due.
    """

    __slots__ = ()


class RunReport(_Record, namedtuple("RunReport", "config now cells")):
    """A lint run's `ReportCell`s, one per team-sprint evaluated, in run order: team, then sprint due date."""

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
    matching = None
    if sprint_title is not None:
        matching = {s.id for s in history.sprints if s.title == sprint_title}
        if not matching:
            raise SprintLintError(f"no sprint titled {sprint_title!r} in this project")

    evaluated = run_all(registry, history, config, sprint_ids=matching)
    # `run_all` gives each cell's results next to each other, in the order of the walk below
    results = {cell: tuple(group) for cell, group in groupby(evaluated, attrgetter("team", "sprint"))}
    cells = []
    for team in history.teams:
        for sprint in history.sprints_of(team):
            if matching is not None and sprint.id not in matching:
                continue
            found = results.get((team, sprint.id), ())
            score = aggregate(found, registry, config) if found else None
            cells.append(ReportCell(team, sprint.id, found, score, unfinished_stories(history, sprint.id, now)))
    return RunReport(config=config, now=now, cells=tuple(cells))


def _rounded(score: float | None) -> float | None:
    return None if score is None else round(score, 1)


# A result row's violations are encoded this many to a call: one call over a
# row of thousands holds every fragment the encoder makes for them at once.
VIOLATION_BATCH = 100


def _violation_dicts(batch: list) -> list:
    return [v._asdict() for v in batch]


def _result_pieces(results: Iterable[MetricResult], titles: Mapping[str, str]) -> Iterator[str]:
    """The JSON array of result rows, in pieces: each row's other fields in one, then its violations in batches."""
    yield "["
    for position, result in enumerate(results):
        row = result._asdict()
        del row["violations"], row["error_type"]
        row["sprint_title"] = titles.get(result.sprint, result.sprint)
        row["score"] = _rounded(result.score)
        # "violations" sorts after every other key, so the row is left open for it
        yield f'{"," if position else ""}{canonical_json(row)[:-1]},"violations":'
        yield from array_pieces(result.violations, VIOLATION_BATCH, _violation_dicts)
        yield "}"
    yield "]"


def render_json(report: RunReport, history: ProjectHistory) -> str:
    """The report as canonical JSON and a final newline, built from one piece per score or block.

    The cells' results, scores and past-due blocks make three arrays, in run
    order. Each row holds its value object's own fields, plus its sprint's
    title; a result row leaves out `error_type`, which its diagnostic names,
    and comes in pieces, so thousands of violations are never encoded at once.
    """
    titles = {s.id: s.title for s in history.sprints}
    scores = (
        {
            **s._asdict(),
            "sprint_title": titles.get(s.sprint, s.sprint),
            "overall": _rounded(s.overall),
            "contributions": [
                {
                    **c._asdict(),
                    "score": _rounded(c.score),
                    "weighted_share": round(c.weighted_share, 6),
                }
                for c in s.contributions
            ],
            "skipped": [k._asdict() for k in s.skipped],
        }
        for s in (cell.score for cell in report.cells)
        if s is not None
    )
    members = {
        "tool": [canonical_json(TOOL_NAME)],
        "version": [canonical_json(__version__)],
        "config_digest": [canonical_json(report.config.digest())],
        "config": [canonical_json(report.config.to_dict())],
        "now": [canonical_json(format_iso_utc(report.now))],
        "diagnostics": array_pieces(diagnostic.text for diagnostic in history.diagnostics),
        "results": _result_pieces((r for cell in report.cells for r in cell.results), titles),
        "scores": array_pieces(scores),
        "unfinished_stories": array_pieces(c.unfinished._asdict() for c in report.cells if c.unfinished is not None),
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
            lines.append(f"- {_one_line(diagnostic.text)}")
        lines.append("")

    current_team = None
    # every cell with results or a past-due block, by (team, sprint id)
    shown = [c for c in report.cells if c.results or c.unfinished is not None]
    for cell in sorted(shown, key=attrgetter("team", "sprint")):
        if cell.team != current_team:
            lines.append(f"## Team {_one_line(cell.team)}")
            lines.append("")
            current_team = cell.team
        title = titles.get(cell.sprint, cell.sprint)
        lines.append(_one_line(f"### {title} ({cell.sprint})"))
        lines.append("")
        if cell.results:  # and so a score
            lines.append(f"Overall score: **{_fmt_score(cell.score.overall)}**")
            lines.append("")
            lines.append("| metric | score | violations |")
            lines.append("| --- | ---: | ---: |")
            for result in cell.results:
                lines.append(f"| {result.metric} | {_fmt_score(result.score)} | {len(result.violations)} |")
            lines.append("")
        for result in cell.results:
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
        block = cell.unfinished
        if block is not None:
            numbers = ", ".join(f"#{n}" for n in block.story_numbers) or "none"
            percent = "n/a" if block.percent is None else f"{block.percent:.0%}"
            lines.append(
                f"- past due with {block.amount} of {block.total} stories still open "
                f"({percent}): {numbers}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
