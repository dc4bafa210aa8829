"""Tunable parameters for every metric, with JSON round-trip and digesting.

The config document is the diffable artifact operators edit between runs;
each report embeds the resolved config and its content digest so threshold
changes leave an audit trail.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import Field, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, ParseError
from .model import Severity
from .serialize import canonical_json, read_json

COLLECTIVE_OWNERSHIP = "collective-ownership"
TEST_LATER = "test-later"
HUGE_STORIES = "huge-stories"
MULTI_BACKLOG = "multi-backlog-stories"
DUPLICATE_STORIES = "duplicate-stories"
LAST_MINUTE = "last-minute-commits"
COMMIT_ACTIVITY = "commit-activity"
DAILY_STORY_LOAD = "daily-story-load"
FAST_PULLS = "fast-pull-requests"

DEFAULT_SEVERITY_WEIGHTS: dict[Severity, float] = {
    Severity.INFORMATIONAL: 0.0,
    Severity.VERY_LOW: 1.0,
    Severity.LOW: 2.0,
    Severity.NORMAL: 4.0,
    Severity.HIGH: 8.0,
}


@dataclass(frozen=True)
class MetricSettings:
    """The switches every metric has; each subclass adds that metric's knobs."""

    enabled: bool = True
    severity_override: Severity | None = None


@dataclass(frozen=True)
class CollectiveOwnershipSettings(MetricSettings):
    weight: float = 10.0
    threshold_e: int = 10
    threshold_a: int = 2


@dataclass(frozen=True)
class TestLaterSettings(MetricSettings):
    weight: float = 2.0


@dataclass(frozen=True)
class HugeStoriesSettings(MetricSettings):
    weight: float = 25.0
    threshold_length: float = 3.0
    threshold_check: float = 3.0


@dataclass(frozen=True)
class MultiBacklogSettings(MetricSettings):
    weight: float = 1.0
    threshold_amount: int = 1


@dataclass(frozen=True)
class DuplicateStoriesSettings(MetricSettings):
    weight: float = 1.0
    duplicate_label: str = "duplicate"


@dataclass(frozen=True)
class LastMinuteSettings(MetricSettings):
    weight: float = 1.0
    last_minute_window_minutes: float = 120.0


@dataclass(frozen=True)
class CommitActivitySettings(MetricSettings):
    weight: float = 10.0


@dataclass(frozen=True)
class DailyStoryLoadSettings(MetricSettings):
    weight_a: float = 200.0
    weight_b: float = 100.0


@dataclass(frozen=True)
class FastPullsSettings(MetricSettings):
    fast_pr_window_minutes: float = 60.0


# the numeric settings that may be 0; every other one must be > 0
_NON_NEGATIVE_FIELDS = {"weight", "weight_a", "weight_b"}


# one row per check, in report order: its name and its settings class
SETTINGS: dict[str, type[MetricSettings]] = {
    COLLECTIVE_OWNERSHIP: CollectiveOwnershipSettings,
    TEST_LATER: TestLaterSettings,
    HUGE_STORIES: HugeStoriesSettings,
    MULTI_BACKLOG: MultiBacklogSettings,
    DUPLICATE_STORIES: DuplicateStoriesSettings,
    LAST_MINUTE: LastMinuteSettings,
    COMMIT_ACTIVITY: CommitActivitySettings,
    DAILY_STORY_LOAD: DailyStoryLoadSettings,
    FAST_PULLS: FastPullsSettings,
}

METRIC_NAMES = tuple(SETTINGS)


@dataclass(frozen=True)
class MetricConfig:
    """One settings record per metric plus the severity weighting table."""

    metrics: Mapping[str, MetricSettings] = field(default_factory=dict)
    severity_weights: Mapping[Severity, float] = field(
        default_factory=lambda: dict(DEFAULT_SEVERITY_WEIGHTS)
    )

    def __post_init__(self) -> None:
        weights = dict(self.severity_weights)
        for severity in Severity:
            if severity not in weights:
                raise ConfigError(f"severity_weights missing entry for {severity.value!r}")
            _check_number(f"severity weight for {severity.value!r}", weights[severity], zero_ok=True)
        unknown = [key for key in weights if key not in set(Severity)]
        if unknown:
            raise ConfigError(f"unknown severity {unknown[0]!r} in severity_weights")
        # stored as floats, so a document's `8` and `8.0` give one digest
        object.__setattr__(self, "severity_weights", {s: float(weights[s]) for s in Severity})
        # absent checks get their defaults; the mapping keeps `SETTINGS` order
        metrics = {name: kind() for name, kind in SETTINGS.items()} | dict(self.metrics)
        for name, settings in metrics.items():
            kind = SETTINGS.get(name)
            if kind is None:
                raise ConfigError(f"unknown metric {name!r}")
            if type(settings) is not kind:
                raise ConfigError(
                    f"settings for {name} must be {kind.__name__}, got {type(settings).__name__}"
                )
            for f in fields(settings):
                _check_setting(f"{name}.{f.name}", f, getattr(settings, f.name))
        object.__setattr__(self, "metrics", metrics)

    def for_metric(self, name: str) -> MetricSettings:
        try:
            return self.metrics[name]
        except KeyError:
            raise ConfigError(f"unknown metric {name!r}") from None

    def to_dict(self) -> dict:
        metrics: dict[str, dict] = {}
        for name, settings in self.metrics.items():
            metrics[name] = entry = asdict(settings)
            if settings.severity_override is not None:
                entry["severity_override"] = settings.severity_override.value
        return {
            "metrics": metrics,
            "severity_weights": {s.value: w for s, w in self.severity_weights.items()},
        }

    def digest(self) -> str:
        """Content hash of the resolved config; changes iff any effective value does."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()


def _check_number(label: str, value: object, zero_ok: bool) -> None:
    # a bool is no number here, and an int must fit in a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        raise ConfigError(f"{label} must be {'>=' if zero_ok else '>'} 0, got {value!r}")


def _check_setting(label: str, f: Field, value: object) -> None:
    """Check one setting against the kind of its default."""
    if isinstance(f.default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{label} must be a boolean")
    elif isinstance(f.default, str):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{label} must be a non-empty string")
    elif f.default is None:  # severity_override
        if value is not None and not isinstance(value, Severity):
            raise ConfigError(f"{label}: invalid severity {value!r}")
    else:
        _check_number(label, value, zero_ok=f.name in _NON_NEGATIVE_FIELDS)


def _settings_from_dict(name: str, kind: type[MetricSettings], raw: Mapping) -> MetricSettings:
    unknown = sorted(set(raw) - {f.name for f in fields(kind)})
    if unknown:
        raise ConfigError(f"unknown setting(s) for {name}: {', '.join(unknown)}")
    updates = dict(raw)
    if "severity_override" in updates:
        # a value that names no severity stays as it is, for `MetricConfig` to reject
        with suppress(ValueError):
            updates["severity_override"] = Severity(updates["severity_override"])
    return kind(**updates)


def config_from_dict(raw: Mapping) -> MetricConfig:
    """Build a config from a parsed JSON document, applying defaults for absent fields."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(raw) - {"metrics", "severity_weights"})
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {', '.join(unknown)}")

    metrics: dict[str, MetricSettings] = {}
    metrics_raw = raw.get("metrics", {})
    if not isinstance(metrics_raw, Mapping):
        raise ConfigError("'metrics' must be an object keyed by metric name")
    for name, settings_raw in metrics_raw.items():
        if name not in SETTINGS:
            raise ConfigError(f"unknown metric {name!r} in config")
        if not isinstance(settings_raw, Mapping):
            raise ConfigError(f"settings for {name} must be an object")
        metrics[name] = _settings_from_dict(name, SETTINGS[name], settings_raw)

    weights_raw = raw.get("severity_weights", {})
    if not isinstance(weights_raw, Mapping):
        raise ConfigError("'severity_weights' must be an object")
    weights = dict(DEFAULT_SEVERITY_WEIGHTS)
    for key, value in weights_raw.items():
        try:
            weights[Severity(key)] = value
        except ValueError:
            raise ConfigError(f"unknown severity {key!r} in severity_weights") from None

    return MetricConfig(metrics, weights)


def load_config(path: str | Path) -> MetricConfig:
    """Read a config JSON file; missing fields fall back to defaults."""
    try:
        raw = read_json(path)
    except ParseError as exc:
        raise ConfigError(f"config file {exc}") from None
    return config_from_dict(raw)
