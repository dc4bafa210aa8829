"""sprintlint: lint-style conformance checks for agile development data.

The package ingests exported commits, user stories, sprints, pull requests
and per-commit build stats, runs nine configurable conformance metrics over
every team-sprint, scores each on a 0-100 scale, and aggregates the scores
by severity into per-sprint team grades. A seeded fixture generator and
violation injector provide exact oracles for testing the detectors.
"""

# defined before the submodule imports, which read it back from the package
__version__ = "0.1.0"

from .catalog import (
    FileEditProfile,
    UnfinishedStories,
    count_checkboxes,
    default_registry,
    detect_collective_ownership,
    detect_daily_story_quota,
    detect_duplicates,
    detect_fast_pulls,
    detect_huge_stories,
    detect_last_minute,
    detect_multi_backlog,
    detect_no_committing,
    detect_test_later,
    story_text_length,
    unfinished_stories,
)
from .config import METRIC_NAMES, MetricConfig, config_from_dict, load_config
from .engine import (
    MetricRegistry,
    capped_linear,
    cutoff_parabola,
    evaluate,
    ratio_linear,
    run_all,
    threshold_linear,
)
from .errors import (
    ConfigError,
    HistoryError,
    InfeasibleFixtureError,
    ParseError,
    RecordError,
    SprintLintError,
    UnknownSprintError,
)
from .fixtures import (
    FixtureCertificate,
    FixtureSpec,
    InjectionRecord,
    InjectionSpec,
    generate,
    inject,
)
from .ingest import IngestManifest, load_history
from .model import (
    BuildStats,
    Commit,
    Diagnostic,
    FileChange,
    Finding,
    MetricDescriptor,
    MetricResult,
    ProjectHistory,
    PullRequest,
    Severity,
    Sprint,
    SprintMembership,
    SprintSlice,
    StoryState,
    UserStory,
    Violation,
    build_history,
    window,
)
from .report import ReportCell, RunReport, build_report, render_json, render_markdown
from .scoring import TeamSprintScore, TrendSeries, aggregate, aggregate_all, trend, trend_csv
