"""Tunable parameters for every metric, with JSON round-trip and digesting.

The config document is the diffable artifact operators edit between runs;
each report embeds the resolved config and its content digest so threshold
changes leave an audit trail.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Any

from .errors import ConfigError, ParseError
from .model import Severity, _Record
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


# The settings every check has, then one row per check in report order: the
# check's name and the defaults of its own settings. A config names only the
# values it changes; each value must have the kind of its default.
COMMON_SETTINGS: dict[str, object] = {"enabled": True, "severity_override": None}

SETTINGS: dict[str, dict[str, object]] = {
    COLLECTIVE_OWNERSHIP: {"weight": 10.0, "threshold_e": 10, "threshold_a": 2},
    TEST_LATER: {"weight": 2.0},
    HUGE_STORIES: {"weight": 25.0, "threshold_length": 3.0, "threshold_check": 3.0},
    MULTI_BACKLOG: {"weight": 1.0, "threshold_amount": 1},
    DUPLICATE_STORIES: {"weight": 1.0, "duplicate_label": "duplicate"},
    LAST_MINUTE: {"weight": 1.0, "last_minute_window_minutes": 120.0},
    COMMIT_ACTIVITY: {"weight": 10.0},
    DAILY_STORY_LOAD: {"weight_a": 200.0, "weight_b": 100.0},
    FAST_PULLS: {"fast_pr_window_minutes": 60.0},
}

METRIC_NAMES = tuple(SETTINGS)

# the numeric settings that may be 0; every other one must be > 0
_NON_NEGATIVE_SETTINGS = {"weight", "weight_a", "weight_b"}


class MetricConfig(_Record, namedtuple("MetricConfig", "metrics severity_weights")):
    """Each check's settings plus the severity weighting table.

    `metrics` maps a check's name to the settings it changes, as a config
    document's `metrics` object does; every other value keeps its default.
    A severity may be given by name. After construction each check has a
    read-only mapping of all its settings, in `SETTINGS` order.
    """

    __slots__ = ()

    def __new__(cls, metrics: Mapping[str, Mapping[str, object]] = {},
                severity_weights: Mapping[Severity, float] = DEFAULT_SEVERITY_WEIGHTS) -> MetricConfig:
        weights: dict[Severity, float] = {}
        for key, value in severity_weights.items():
            try:
                severity = Severity(key)
            except ValueError:
                raise ConfigError(f"unknown severity {key!r} in severity_weights") from None
            _check_number(f"severity weight for {severity.value!r}", value, zero_ok=True)
            # stored as floats, so a document's `8` and `8.0` give one digest
            weights[severity] = float(value)
        for severity in Severity:
            if severity not in weights:
                raise ConfigError(f"severity_weights missing entry for {severity.value!r}")

        if not isinstance(metrics, Mapping):
            raise ConfigError("'metrics' must be an object keyed by metric name")
        for name in metrics:
            if name not in SETTINGS:
                raise ConfigError(f"unknown metric {name!r} in config")
        resolved = {}
        for name, own in SETTINGS.items():
            changed = metrics.get(name, {})
            if not isinstance(changed, Mapping):
                raise ConfigError(f"settings for {name} must be an object")
            defaults = COMMON_SETTINGS | own
            unknown = sorted(str(key) for key in changed if key not in defaults)
            if unknown:
                raise ConfigError(f"unknown setting(s) for {name}: {', '.join(unknown)}")
            settings = defaults | changed
            for key, default in defaults.items():
                settings[key] = _checked(name, key, default, settings[key])
            resolved[name] = MappingProxyType(settings)
        return tuple.__new__(cls, (resolved, {s: weights[s] for s in Severity}))

    def for_metric(self, name: str) -> Mapping[str, Any]:
        """One check's settings, as a read-only mapping."""
        try:
            return self.metrics[name]
        except KeyError:
            raise ConfigError(f"unknown metric {name!r}") from None

    def to_dict(self) -> dict:
        metrics: dict[str, dict] = {}
        for name, settings in self.metrics.items():
            metrics[name] = entry = dict(settings)
            if entry["severity_override"] is not None:
                entry["severity_override"] = entry["severity_override"].value
        return {
            "metrics": metrics,
            "severity_weights": {s.value: w for s, w in self.severity_weights.items()},
        }

    def digest(self) -> str:
        """Content hash of the resolved config; changes iff any effective value does.

        The SHA-256 is the interpreter's built-in one, which loads no OpenSSL;
        `hashlib`, which does, serves only an interpreter built without it.
        """
        try:
            from _sha2 import sha256  # Python 3.12 on
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
        return sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()


def _check_number(label: str, value: object, zero_ok: bool) -> None:
    # a bool is no number here, and an int must fit in a float
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not number or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    if value < 0 or (value == 0 and not zero_ok):
        raise ConfigError(f"{label} must be {'>=' if zero_ok else '>'} 0, got {value!r}")


def _checked(name: str, key: str, default: object, value: object) -> object:
    """Check one setting against the kind of its default; a severity name becomes a `Severity`."""
    label = f"{name}.{key}"
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{label} must be a boolean")
    elif isinstance(default, str):
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{label} must be a non-empty string")
    elif default is None:  # severity_override
        if value is not None:
            try:
                return Severity(value)
            except ValueError:
                raise ConfigError(f"{label}: invalid severity {value!r}") from None
    else:
        _check_number(label, value, zero_ok=key in _NON_NEGATIVE_SETTINGS)
    return value


def config_from_dict(raw: Mapping) -> MetricConfig:
    """Build a config from a parsed JSON document, applying defaults for absent fields."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(raw) - {"metrics", "severity_weights"})
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {', '.join(unknown)}")
    weights = raw.get("severity_weights", {})
    if not isinstance(weights, Mapping):
        raise ConfigError("'severity_weights' must be an object")
    defaults = {severity.value: weight for severity, weight in DEFAULT_SEVERITY_WEIGHTS.items()}
    return MetricConfig(raw.get("metrics", {}), defaults | dict(weights))


def load_config(path: str | Path) -> MetricConfig:
    """Read a config JSON file; missing fields fall back to defaults."""
    try:
        raw = read_json(path)
    except ParseError as exc:
        raise ConfigError(f"config file {exc}") from None
    return config_from_dict(raw)
