"""Severity-weighted aggregation of metric results and per-sprint trend series."""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .config import MetricConfig
from .engine import MetricRegistry
from .errors import SprintLintError
from .model import MetricResult, ProjectHistory, Severity, _Record
from .serialize import format_iso_utc


class Contribution(_Record, namedtuple("Contribution", "metric score severity weight weighted_share")):
    __slots__ = ()


class SkippedMetric(_Record, namedtuple("SkippedMetric", "metric reason")):
    __slots__ = ()


class TeamSprintScore(_Record, namedtuple("TeamSprintScore", "team sprint overall contributions skipped")):
    """One team's overall conformance for one sprint.

    `overall` is the severity-weighted mean of all applicable metric scores;
    it is None when nothing was applicable or every applicable metric had
    weight zero.
    """

    __slots__ = ()


def effective_severity(registry: MetricRegistry, config: MetricConfig, metric: str) -> Severity:
    override = config.for_metric(metric)["severity_override"]
    if override is not None:
        return override
    return registry.get(metric).descriptor.severity


def aggregate(
    results: Sequence[MetricResult], registry: MetricRegistry, config: MetricConfig
) -> TeamSprintScore:
    """Collapse one team-sprint's metric results into a weighted overall score.

    Metrics without a score are excluded from both numerator and denominator
    and listed as skipped; order of the input results never matters.
    """
    if not results:
        raise SprintLintError("aggregate needs at least one metric result")
    cells = {(r.team, r.sprint) for r in results}
    if len(cells) != 1:
        raise SprintLintError("aggregate expects results from a single team-sprint")
    [(team, sprint)] = cells

    scored = [r for r in results if r.score is not None]
    skipped = tuple(
        SkippedMetric(metric=r.metric, reason=r.diagnostic or "not applicable")
        for r in results
        if r.score is None
    )

    severities = {r.metric: effective_severity(registry, config, r.metric) for r in scored}
    weights = {metric: config.severity_weights[severity] for metric, severity in severities.items()}
    # weights relative to the largest, so that finite weights cannot sum to infinity;
    # dividing by a power of two, as every default weight is, changes no bit of the result
    largest = max(weights.values(), default=0.0)
    relative = {metric: weight / largest for metric, weight in weights.items()} if largest > 0 else {}

    total = sum(relative.values())
    overall: float | None = None
    if total > 0:
        overall = sum(relative[r.metric] * r.score for r in scored) / total

    contributions = tuple(
        Contribution(
            metric=r.metric,
            score=r.score,
            severity=severities[r.metric],
            weight=weights[r.metric],
            weighted_share=(relative[r.metric] * r.score / total) if total > 0 else 0.0,
        )
        for r in scored
    )
    return TeamSprintScore(
        team=team, sprint=sprint, overall=overall, contributions=contributions, skipped=skipped
    )


def aggregate_all(
    results: Iterable[MetricResult], registry: MetricRegistry, config: MetricConfig
) -> list[TeamSprintScore]:
    """Group a full run's results by (team, sprint) and aggregate each group."""
    grouped: dict[tuple[str, str], list[MetricResult]] = {}
    for result in results:
        grouped.setdefault((result.team, result.sprint), []).append(result)
    return [aggregate(group, registry, config) for group in grouped.values()]


OVERALL = "overall"


class TrendPoint(_Record, namedtuple("TrendPoint", "sprint_id sprint_title due_on score")):
    __slots__ = ()


class TrendSeries(_Record, namedtuple("TrendSeries", "team metric points")):
    """Scores of one metric (or the overall) for one team, ordered by sprint due date."""

    __slots__ = ()


def trend(
    history: ProjectHistory,
    results: Iterable[MetricResult],
    scores: Iterable[TeamSprintScore] = (),
) -> list[TrendSeries]:
    """Build one series per (team, metric) plus one per (team, overall).

    Every series covers all of the team's sprints; sprints where the metric
    was not applicable (or not evaluated) appear as gaps, never interpolated.
    """
    by_cell: dict[tuple[str, str, str], float | None] = {}
    for result in results:
        by_cell[(result.team, result.metric, result.sprint)] = result.score
    for score in scores:
        by_cell[(score.team, OVERALL, score.sprint)] = score.overall
    # the results' metrics in order of first appearance, then the overall when there are scores
    metrics = dict.fromkeys(metric for _, metric, _ in by_cell)

    series: list[TrendSeries] = []
    for team in sorted({team for team, _, _ in by_cell}):
        sprints = history.sprints_of(team)
        for metric in metrics:
            if not any((team, metric, s.id) in by_cell for s in sprints):
                continue
            points = tuple(
                TrendPoint(s.id, s.title, s.due_on, by_cell.get((team, metric, s.id))) for s in sprints
            )
            series.append(TrendSeries(team=team, metric=metric, points=points))
    return series


def trend_csv(series: Iterable[TrendSeries]) -> str:
    """Render trend series as CSV: team,metric,sprint_title,due_on,score."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("team", "metric", "sprint_title", "due_on", "score"))
    writer.writerows(
        (
            one.team,
            one.metric,
            point.sprint_title,
            format_iso_utc(point.due_on),
            "" if point.score is None else f"{point.score:.1f}",
        )
        for one in series
        for point in one.points
    )
    return out.getvalue()
