"""Rating functions, registry behavior, and the evaluation pipeline."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from sprintlint import (
    MetricConfig,
    MetricRegistry,
    SprintLintError,
    build_history,
    capped_linear,
    cutoff_parabola,
    default_registry,
    evaluate,
    ratio_linear,
    run_all,
    threshold_linear,
    window,
)
from sprintlint.engine import RegisteredMetric, ZeroTotalError
from sprintlint.fixtures import FixtureSpec, generate

counts = st.integers(min_value=0, max_value=10_000)
weights = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False)
positive = st.integers(min_value=1, max_value=10_000)


def test_threshold_linear_spot_values():
    assert threshold_linear(0, 10.0) == 100.0
    assert threshold_linear(0, 12345.0) == 100.0
    assert threshold_linear(5, 10.0) == 50.0
    assert threshold_linear(25, 10.0) == 0.0  # 100 - 250 clamps


def test_ratio_linear_spot_values():
    assert ratio_linear(0, 10, 1.0, 1.0) == 100.0
    assert ratio_linear(2, 10, 1.0, 3.0) == 40.0
    assert ratio_linear(1, 4, 1.0, 1.0) == 75.0


def test_ratio_linear_zero_total_signals():
    with pytest.raises(ZeroTotalError):
        ratio_linear(0, 0, 1.0)


def test_capped_linear_spot_values():
    assert capped_linear(0, 10.0) == 0.0
    assert capped_linear(6, 10.0) == 60.0
    assert capped_linear(50, 10.0) == 100.0


def test_cutoff_parabola_spot_values():
    assert cutoff_parabola(0.0, 200.0, 100.0) == 0.0
    assert cutoff_parabola(0.5, 200.0, 100.0) == 75.0
    assert cutoff_parabola(3.0, 200.0, 100.0) == 0.0  # 600 - 900 clamps up
    assert cutoff_parabola(1.0, 200.0, 100.0) == 100.0  # vertex at weight_a / (2 weight_b)


@given(x=counts, w=weights)
def test_threshold_linear_bounded(x, w):
    assert 0.0 <= threshold_linear(x, w) <= 100.0


@given(v=counts, t=positive, w=weights, f=st.floats(min_value=0.0, max_value=50.0))
def test_ratio_linear_bounded(v, t, w, f):
    assert 0.0 <= ratio_linear(v, t, w, f) <= 100.0


@given(x=st.floats(min_value=0.0, max_value=1e9), w=weights)
def test_capped_linear_bounded(x, w):
    assert 0.0 <= capped_linear(x, w) <= 100.0


@given(
    q=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    a=weights,
    b=weights,
)
def test_cutoff_parabola_bounded(q, a, b):
    assert 0.0 <= cutoff_parabola(q, a, b) <= 100.0


@given(x=counts, w=weights)
def test_threshold_linear_non_increasing(x, w):
    assert threshold_linear(x + 1, w) <= threshold_linear(x, w)


@given(v=counts, t=positive, w=weights, f=st.floats(min_value=0.0, max_value=50.0))
def test_ratio_linear_non_increasing_in_violations(v, t, w, f):
    assert ratio_linear(v + 1, t, w, f) <= ratio_linear(v, t, w, f)


@given(x=st.floats(min_value=0.0, max_value=1e6), d=st.floats(min_value=0.0, max_value=1e6), w=weights)
def test_capped_linear_non_decreasing(x, d, w):
    assert capped_linear(x + d, w) >= capped_linear(x, w)


def test_cutoff_parabola_peaks_at_vertex_and_falls_beyond():
    a, b = 200.0, 100.0
    vertex = a / (2 * b)
    peak = cutoff_parabola(vertex, a, b)
    samples = [vertex + 0.05 * i for i in range(1, 40)]
    assert all(cutoff_parabola(q, a, b) <= peak for q in samples)
    for lo, hi in zip(samples, samples[1:]):
        assert cutoff_parabola(hi, a, b) <= cutoff_parabola(lo, a, b)


def test_registry_rejects_duplicate_names():
    registry = default_registry()
    metric = next(iter(registry))
    with pytest.raises(SprintLintError):
        registry.register(metric)


def test_registry_rejects_a_check_with_no_settings_row():
    huge = default_registry().get("huge-stories")
    renamed = replace(huge, descriptor=replace(huge.descriptor, name="my-check"))
    with pytest.raises(SprintLintError, match="'my-check' has no row in config.SETTINGS"):
        MetricRegistry().register(renamed)


def test_registry_iteration_order_is_registration_order():
    registry = default_registry()
    assert registry.names() == (
        "collective-ownership",
        "test-later",
        "huge-stories",
        "multi-backlog-stories",
        "duplicate-stories",
        "last-minute-commits",
        "commit-activity",
        "daily-story-load",
        "fast-pull-requests",
    )


def test_evaluate_disabled_metric_is_skipped():
    history, _ = generate(FixtureSpec(teams=1, sprints=1))
    config = MetricConfig({"duplicate-stories": {"enabled": False}})
    registry = default_registry()
    sprint = history.sprints[0]
    slice_ = window(history, sprint.team, sprint.id)
    assert evaluate(registry.get("duplicate-stories"), slice_, config) is None


def test_evaluate_detector_failure_becomes_diagnostic():
    history, _ = generate(FixtureSpec(teams=1, sprints=1))
    registry = default_registry()
    broken = registry.get("duplicate-stories")

    def boom(s, c):
        raise RuntimeError("kaput")

    custom = MetricRegistry()
    custom.register(RegisteredMetric(broken.descriptor, boom))
    sprint = history.sprints[0]
    slice_ = window(history, sprint.team, sprint.id)
    result = evaluate(custom.get("duplicate-stories"), slice_, MetricConfig())
    assert result is not None
    assert result.score is None
    assert "kaput" in result.diagnostic
    assert "RuntimeError" in result.diagnostic


def test_evaluate_labels_each_result_with_its_slice():
    history, _ = generate(FixtureSpec(teams=2, sprints=2))
    check = default_registry().get("huge-stories")
    for sprint in history.sprints:
        result = evaluate(check, window(history, sprint.team, sprint.id), MetricConfig())
        expected = ("huge-stories", sprint.team, sprint.id)
        assert (result.metric, result.team, result.sprint) == expected


def test_run_all_cardinality():
    history, _ = generate(FixtureSpec(teams=2, sprints=3))
    results = run_all(default_registry(), history, MetricConfig())
    assert len(results) == 2 * 3 * 9


def test_run_all_disabled_metric_drops_results():
    history, _ = generate(FixtureSpec(teams=2, sprints=3))
    config = MetricConfig({"duplicate-stories": {"enabled": False}})
    results = run_all(default_registry(), history, config)
    assert len(results) == 2 * 3 * 8
    assert all(r.metric != "duplicate-stories" for r in results)


def test_run_all_is_order_deterministic():
    import random

    history, _ = generate(FixtureSpec(teams=2, sprints=2))
    rng = random.Random(5)
    commits = list(history.commits)
    stories = list(history.stories)
    rng.shuffle(commits)
    rng.shuffle(stories)
    shuffled = build_history(commits, stories, history.sprints, history.pulls, history.build_stats)
    config = MetricConfig()
    assert run_all(default_registry(), history, config) == run_all(
        default_registry(), shuffled, config
    )


def test_evaluate_is_pure():
    history, _ = generate(FixtureSpec(teams=1, sprints=1))
    registry = default_registry()
    config = MetricConfig()
    sprint = history.sprints[0]
    slice_ = window(history, sprint.team, sprint.id)
    first = evaluate(registry.get("huge-stories"), slice_, config)
    second = evaluate(registry.get("huge-stories"), slice_, config)
    assert first == second
