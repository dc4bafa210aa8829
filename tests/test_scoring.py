"""Severity-weighted aggregation, trend series, and the CSV rendering."""

from __future__ import annotations

import csv
import random

import pytest
from hypothesis import given, strategies as st

from sprintlint import (
    MetricConfig,
    MetricResult,
    Severity,
    aggregate,
    aggregate_all,
    build_history,
    default_registry,
    trend,
    trend_csv,
)
from sprintlint.scoring import OVERALL
from conftest import DAY, T0, TEAM, make_sprint

REGISTRY = default_registry()
CONFIG = MetricConfig()


def _result(metric, score, team=TEAM, sprint="s1", diagnostic=None):
    return MetricResult(
        metric=metric, team=team, sprint=sprint, violations=(), score=score,
        diagnostic=diagnostic,
    )


def test_single_metric_passes_through():
    score = aggregate([_result("huge-stories", 80.0)], REGISTRY, CONFIG)
    assert score.overall == 80.0


def test_weighted_mean_high_eight_low_two():
    # fast-pull-requests is high severity (weight 8), huge-stories low (weight 2)
    results = [_result("fast-pull-requests", 100.0), _result("huge-stories", 50.0)]
    score = aggregate(results, REGISTRY, CONFIG)
    assert score.overall == pytest.approx(90.0, abs=1e-12)  # (800 + 100) / 10


def test_all_informational_yields_not_applicable():
    config = MetricConfig(
        {
            "fast-pull-requests": {"severity_override": Severity.INFORMATIONAL},
            "huge-stories": {"severity_override": Severity.INFORMATIONAL},
        }
    )
    results = [_result("fast-pull-requests", 100.0), _result("huge-stories", 50.0)]
    score = aggregate(results, REGISTRY, config)
    assert score.overall is None


def test_severity_override_changes_weighting():
    config = MetricConfig({"huge-stories": {"severity_override": Severity.HIGH}})
    results = [_result("fast-pull-requests", 100.0), _result("huge-stories", 50.0)]
    score = aggregate(results, REGISTRY, config)
    assert score.overall == pytest.approx(75.0)  # both at weight 8 now


def test_not_applicable_metrics_are_excluded_and_listed():
    results = [
        _result("fast-pull-requests", 60.0),
        _result("test-later", None, diagnostic="no commit in this sprint has build stats"),
    ]
    score = aggregate(results, REGISTRY, CONFIG)
    assert score.overall == 60.0
    assert [s.metric for s in score.skipped] == ["test-later"]
    assert "stats" in score.skipped[0].reason


def test_weighted_shares_reconstruct_overall():
    results = [
        _result("fast-pull-requests", 100.0),
        _result("huge-stories", 50.0),
        _result("commit-activity", 70.0),
    ]
    score = aggregate(results, REGISTRY, CONFIG)
    assert sum(c.weighted_share for c in score.contributions) == pytest.approx(
        score.overall, abs=1e-9
    )


def test_overall_between_min_and_max():
    results = [
        _result("fast-pull-requests", 30.0),
        _result("huge-stories", 90.0),
        _result("multi-backlog-stories", 55.0),
    ]
    score = aggregate(results, REGISTRY, CONFIG)
    assert 30.0 <= score.overall <= 90.0


def test_permutation_invariance():
    results = [
        _result("fast-pull-requests", 10.0),
        _result("huge-stories", 90.0),
        _result("commit-activity", 55.0),
        _result("duplicate-stories", 75.0),
    ]
    rng = random.Random(2)
    shuffled = results[:]
    rng.shuffle(shuffled)
    a = aggregate(results, REGISTRY, CONFIG)
    b = aggregate(shuffled, REGISTRY, CONFIG)
    assert a.overall == b.overall
    assert sorted(c.metric for c in a.contributions) == sorted(c.metric for c in b.contributions)


@given(factor=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scaling_severity_weights_is_neutral(factor):
    results = [
        _result("fast-pull-requests", 100.0),
        _result("huge-stories", 50.0),
        _result("commit-activity", 72.5),
    ]
    base = aggregate(results, REGISTRY, CONFIG)
    scaled_config = MetricConfig(
        severity_weights={s: w * factor for s, w in CONFIG.severity_weights.items()}
    )
    scaled = aggregate(results, REGISTRY, scaled_config)
    assert scaled.overall == pytest.approx(base.overall, abs=1e-9)


def test_aggregate_rejects_mixed_cells():
    results = [_result("huge-stories", 80.0, sprint="s1"), _result("huge-stories", 80.0, sprint="s2")]
    with pytest.raises(Exception):
        aggregate(results, REGISTRY, CONFIG)


def test_informational_contributions_have_zero_weight_but_appear():
    config = MetricConfig(
        {"commit-activity": {"severity_override": Severity.INFORMATIONAL}}
    )
    results = [_result("fast-pull-requests", 80.0), _result("commit-activity", 10.0)]
    score = aggregate(results, REGISTRY, config)
    assert score.overall == 80.0  # informational does not move the grade
    weights = {c.metric: c.weight for c in score.contributions}
    assert weights["commit-activity"] == 0.0


# --- trend ---------------------------------------------------------------------


def _three_sprint_history():
    sprints = [
        make_sprint(f"s{k}", start=T0 + (k - 1) * 14 * DAY, title=f"Sprint {k}") for k in (1, 2, 3)
    ]
    return build_history(sprints=sprints), sprints


def test_trend_single_sprint():
    history = build_history(sprints=[make_sprint()])
    series = trend(history, [_result("huge-stories", 80.0)])
    by_metric = {s.metric: s for s in series}
    assert len(by_metric["huge-stories"].points) == 1


def test_trend_orders_points_by_due_date():
    history, sprints = _three_sprint_history()
    results = [
        _result("huge-stories", 90.0, sprint="s2"),
        _result("huge-stories", 80.0, sprint="s1"),
        _result("huge-stories", 70.0, sprint="s3"),
    ]
    scores = aggregate_all(results, REGISTRY, CONFIG)
    series = trend(history, results, scores)
    huge = next(s for s in series if s.metric == "huge-stories")
    assert [p.score for p in huge.points] == [80.0, 90.0, 70.0]
    overall = next(s for s in series if s.metric == OVERALL)
    assert [p.score for p in overall.points] == [80.0, 90.0, 70.0]


def test_trend_gap_for_not_applicable_sprint():
    history, _ = _three_sprint_history()
    results = [
        _result("huge-stories", 80.0, sprint="s1"),
        _result("huge-stories", None, sprint="s2", diagnostic="no stories"),
        _result("huge-stories", 70.0, sprint="s3"),
    ]
    series = trend(history, results)
    huge = next(s for s in series if s.metric == "huge-stories")
    assert [p.score for p in huge.points] == [80.0, None, 70.0]


def test_trend_csv_format_and_gaps():
    history, _ = _three_sprint_history()
    results = [
        _result("huge-stories", 80.0, sprint="s1"),
        _result("huge-stories", None, sprint="s2", diagnostic="no stories"),
        _result("huge-stories", 70.5, sprint="s3"),
    ]
    text = trend_csv(trend(history, results))
    lines = text.splitlines()
    assert lines[0] == "team,metric,sprint_title,due_on,score"
    assert lines[1] == "alpha,huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0"
    assert lines[2].endswith(",")  # gap renders as an empty score cell
    assert lines[3].endswith(",70.5")


def test_trend_csv_quotes_a_title_with_a_comma():
    history = build_history(sprints=[make_sprint(title="Sprint 1, hotfix")])
    text = trend_csv(trend(history, [_result("huge-stories", 80.0)]))
    rows = list(csv.reader(text.splitlines()))
    assert all(len(row) == 5 for row in rows)
    assert rows[1][2] == "Sprint 1, hotfix"
