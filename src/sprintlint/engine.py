"""Rating functions, the metric registry, and the uniform evaluation pipeline.

Two function families map violation counts into bounded scores: linearly
decreasing threshold forms (a count or ratio of violations pushes the score
down from 100) and a cut-off parabola (an operating quota scores highest in
an optimal band and falls off on both sides). All outputs are clamped into
[0, 100].
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterator, Mapping
from dataclasses import dataclass
from typing import Any

from .config import SETTINGS, MetricConfig
from .errors import SprintLintError
from .model import (
    Finding,
    MetricDescriptor,
    MetricResult,
    ProjectHistory,
    SprintSlice,
    window,
)


class ZeroTotalError(SprintLintError):
    """A ratio rating was asked to divide by a zero total.

    Nothing catches it by name: every built-in ratio check returns not
    applicable before its total can be zero, and `evaluate` turns any
    exception a detector raises into a failed cell.
    """


def threshold_linear(count: float, weight: float) -> float:
    """Score 100 minus `weight` per violation, floored at 0."""
    return max(0.0, 100.0 - count * weight)


def ratio_linear(violations: float, total: float, weight: float, extra_factor: float = 1.0) -> float:
    """Score 100 minus the violation percentage, scaled by weight and an optional factor."""
    if total <= 0:
        raise ZeroTotalError("ratio rating needs a positive total")
    return max(0.0, 100.0 - (violations / total) * 100.0 * extra_factor * weight)


def capped_linear(value: float, weight: float) -> float:
    """Score proportional to `value`, capped at 100. Zero activity scores 0."""
    return min(100.0, value * weight)


def cutoff_parabola(quota: float, weight_a: float, weight_b: float) -> float:
    """Parabolic score peaking at quota = weight_a / (2 * weight_b).

    The upper cap keeps an optimal band at 100; the lower clamp keeps far-off
    quotas from going negative.
    """
    return min(100.0, max(0.0, weight_a * quota - weight_b * quota * quota))


# a detector sees one team-sprint slice and its own check's settings, `config.for_metric(name)`
Detector = Callable[[SprintSlice, Mapping[str, Any]], Finding]


@dataclass(frozen=True)
class RegisteredMetric:
    descriptor: MetricDescriptor
    detector: Detector


class MetricRegistry:
    """Ordered, name-unique collection of metrics; iteration follows registration."""

    def __init__(self) -> None:
        self._by_name: dict[str, RegisteredMetric] = {}

    def register(self, metric: RegisteredMetric) -> None:
        name = metric.descriptor.name
        if name in self._by_name:
            raise SprintLintError(f"metric {name!r} registered twice")
        if name not in SETTINGS:
            # `evaluate` reads the check's settings from the config
            raise SprintLintError(f"metric {name!r} has no row in config.SETTINGS")
        self._by_name[name] = metric

    def get(self, name: str) -> RegisteredMetric:
        try:
            return self._by_name[name]
        except KeyError:
            raise SprintLintError(f"metric {name!r} is not registered") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def __iter__(self) -> Iterator[RegisteredMetric]:
        return iter(self._by_name.values())


def evaluate(
    check: RegisteredMetric, slice_: SprintSlice, config: MetricConfig
) -> MetricResult | None:
    """Run one check over one team-sprint; the result is labelled with the slice's sprint.

    Returns None when the check is disabled in the config. The detector
    gets only the check's own settings, as the read-only mapping
    `config.for_metric(name)`. Detector failures (including
    undefined denominators that escaped a detector) surface as a result with
    no score, a diagnostic and the exception's type name as `error_type`,
    never as an exception.
    """
    name = check.descriptor.name
    settings = config.for_metric(name)
    if not settings["enabled"]:
        return None
    sprint = slice_.sprint
    try:
        return MetricResult(name, sprint.team, sprint.id, *check.detector(slice_, settings))
    except Exception as exc:  # single-metric failures must not abort a run
        error_type = type(exc).__name__
        return MetricResult(name, sprint.team, sprint.id, (), None,
                            diagnostic=f"detector failed: {error_type}: {exc}", error_type=error_type)


def run_all(
    registry: MetricRegistry,
    history: ProjectHistory,
    config: MetricConfig,
    sprint_ids: Collection[str] | None = None,
) -> list[MetricResult]:
    """Evaluate every enabled metric for every (team, sprint).

    `sprint_ids`, when given, limits the run to those sprints; a cell's
    results never depend on which other sprints are evaluated. Output order
    is deterministic: team id, then sprint due date, then metric
    registration order.
    """
    results: list[MetricResult] = []
    for team in history.teams:
        for sprint in history.sprints_of(team):
            if sprint_ids is not None and sprint.id not in sprint_ids:
                continue
            slice_ = window(history, team, sprint.id)
            for check in registry:
                result = evaluate(check, slice_, config)
                if result is not None:
                    results.append(result)
    return results
