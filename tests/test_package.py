"""The package's public names: each is read from its own module, and all of them are listed."""

from __future__ import annotations

import importlib
import sys

import pytest

import sprintlint

# every public name `sprintlint` exposes, by defining module
PUBLIC = {
    "catalog": (
        "UnfinishedStories", "count_checkboxes", "default_registry",
        "detect_collective_ownership", "detect_daily_story_quota", "detect_duplicates",
        "detect_fast_pulls", "detect_huge_stories", "detect_last_minute", "detect_multi_backlog",
        "detect_no_committing", "detect_test_later", "story_text_length", "unfinished_stories",
    ),
    "config": ("METRIC_NAMES", "MetricConfig", "config_from_dict", "load_config"),
    "engine": (
        "MetricRegistry", "capped_linear", "cutoff_parabola", "evaluate", "ratio_linear", "run_all",
        "threshold_linear",
    ),
    "errors": (
        "ConfigError", "HistoryError", "InfeasibleFixtureError", "ParseError", "RecordError",
        "SprintLintError", "UnknownSprintError",
    ),
    "fixtures": ("FixtureCertificate", "FixtureSpec", "InjectionRecord", "InjectionSpec", "generate", "inject"),
    "ingest": ("IngestManifest", "load_history"),
    "model": (
        "BuildStats", "Commit", "Diagnostic", "FileChange", "Finding", "MetricDescriptor", "MetricResult",
        "ProjectHistory", "PullRequest", "Severity", "Sprint", "SprintMembership", "SprintSlice",
        "StoryState", "UserStory", "Violation", "build_history", "window",
    ),
    "report": ("ReportCell", "RunReport", "build_report", "render_json", "render_markdown"),
    "scoring": ("TeamSprintScore", "TrendSeries", "aggregate", "aggregate_all", "trend", "trend_csv"),
}
MODULES = (*PUBLIC, "serialize")


def test_every_public_name_is_its_defining_modules_own_object():
    listed = dir(sprintlint)
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"sprintlint.{module_name}")
        for name in names:
            value = getattr(sprintlint, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
            assert name in listed, name


def test_every_submodule_is_a_package_attribute_and_the_module_itself():
    listed = dir(sprintlint)
    for module_name in MODULES:
        assert getattr(sprintlint, module_name) is sys.modules[f"sprintlint.{module_name}"]
        assert module_name in listed


def test_a_star_import_binds_every_public_name_and_module():
    namespace: dict = {}
    exec("from sprintlint import *", namespace)
    for module_name, names in PUBLIC.items():
        assert namespace[module_name] is sys.modules[f"sprintlint.{module_name}"]
        for name in names:
            assert namespace[name] is getattr(sprintlint, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'sprintlint' has no attribute 'no_such_name'$"):
        sprintlint.no_such_name
