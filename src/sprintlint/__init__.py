"""sprintlint: lint-style conformance checks for agile development data.

The package ingests exported commits, user stories, sprints, pull requests
and per-commit build stats, runs nine configurable conformance metrics over
every team-sprint, scores each on a 0-100 scale, and aggregates the scores
by severity into per-sprint team grades. A seeded fixture generator and
violation injector provide exact oracles for testing the detectors.

Each submodule (`cli` aside) is entered in `sys.modules` and set as a
package attribute on import, but its body runs only when one of its
attributes is first read, so a command runs only the modules it uses. The
public names below are read from their modules on first use (PEP 562).
"""

import importlib.util as _importlib_util
import sys as _sys

# the one place the version is set; `cli` and `report` read it back from the package
__version__ = "0.1.0"

# each lazily loaded submodule -> the public names the package reads from it
_PUBLIC = {
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
    "serialize": (),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_PUBLIC, *_HOME]

for _name in _PUBLIC:
    _spec = _importlib_util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _importlib_util.LazyLoader(_spec.loader)
    _module = _importlib_util.module_from_spec(_spec)
    _sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # runs no code of the module: it marks it to load on first use
del _name, _spec, _module


def __getattr__(name: str) -> object:
    """The public `name`, read from its module, which runs that module's body if it has not run yet."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
