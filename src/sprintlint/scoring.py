"""Severity-weighted aggregation of metric results and per-sprint trend series."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .config import MetricConfig
from .engine import MetricRegistry
from .errors import SprintLintError
from .model import MetricResult, ProjectHistory, Severity
from .serialize import format_iso_utc


@dataclass(frozen=True)
class Contribution:
    metric: str
    score: float
    severity: Severity
    weight: float
    weighted_share: float


@dataclass(frozen=True)
class SkippedMetric:
    metric: str
    reason: str


@dataclass(frozen=True)
class TeamSprintScore:
    """One team's overall conformance for one sprint.

    `overall` is the severity-weighted mean of all applicable metric scores;
    it is None when nothing was applicable or every applicable metric had
    weight zero.
    """

    team: str
    sprint: str
    overall: float | None
    contributions: tuple[Contribution, ...]
    skipped: tuple[SkippedMetric, ...]


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
    teams = {r.team for r in results}
    sprints = {r.sprint for r in results}
    if len(teams) != 1 or len(sprints) != 1:
        raise SprintLintError("aggregate expects results from a single team-sprint")
    team, sprint = results[0].team, results[0].sprint

    scored = [r for r in results if r.score is not None]
    skipped = tuple(
        SkippedMetric(metric=r.metric, reason=r.diagnostic or "not applicable")
        for r in results
        if r.score is None
    )

    severities = {r.metric: effective_severity(registry, config, r.metric) for r in scored}
    weights = {metric: config.severity_weights[severity] for metric, severity in severities.items()}

    total_weight = sum(weights.values())
    overall: float | None = None
    if scored and total_weight > 0:
        overall = sum(weights[r.metric] * r.score for r in scored) / total_weight

    contributions = tuple(
        Contribution(
            metric=r.metric,
            score=r.score,
            severity=severities[r.metric],
            weight=weights[r.metric],
            weighted_share=(weights[r.metric] * r.score / total_weight) if total_weight > 0 else 0.0,
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


@dataclass(frozen=True)
class TrendPoint:
    sprint_id: str
    sprint_title: str
    due_on: float
    score: float | None


@dataclass(frozen=True)
class TrendSeries:
    """Scores of one metric (or the overall) for one team, ordered by sprint due date."""

    team: str
    metric: str
    points: tuple[TrendPoint, ...]


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
    metric_order: list[str] = []
    teams_seen: list[str] = []
    for result in results:
        by_cell[(result.team, result.metric, result.sprint)] = result.score
        if result.metric not in metric_order:
            metric_order.append(result.metric)
        if result.team not in teams_seen:
            teams_seen.append(result.team)
    for score in scores:
        by_cell[(score.team, OVERALL, score.sprint)] = score.overall
        if score.team not in teams_seen:
            teams_seen.append(score.team)

    series: list[TrendSeries] = []
    for team in sorted(teams_seen):
        sprints = history.sprints_of(team)
        for metric in metric_order + [OVERALL]:
            if not any((team, metric, s.id) in by_cell for s in sprints):
                continue
            points = tuple(
                TrendPoint(
                    sprint_id=s.id,
                    sprint_title=s.title,
                    due_on=s.due_on,
                    score=by_cell.get((team, metric, s.id)),
                )
                for s in sprints
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
