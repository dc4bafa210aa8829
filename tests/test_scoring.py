"""Severity-weighted aggregation, trend series, and the CSV rendering."""

from __future__ import annotations

import csv
import io
import random

import pytest
from hypothesis import given, strategies as st

from sprintlint import (
    FixtureSpec,
    MetricConfig,
    MetricRegistry,
    MetricResult,
    Severity,
    aggregate,
    aggregate_all,
    build_history,
    config_from_dict,
    default_registry,
    generate,
    run_all,
    trend,
    trend_csv,
)
from sprintlint.catalog import CHECKS
from sprintlint.cli import main
from sprintlint.ingest import write_snapshot
from sprintlint.scoring import OVERALL, TrendPoint, TrendSeries
from sprintlint.serialize import format_iso_utc
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



def test_weights_whose_sum_overflows_give_the_unweighted_mean():
    # each weight is finite, but two of them sum to infinity
    config = config_from_dict(
        {"severity_weights": {"informational": 0, "very_low": 1e308, "low": 1e308, "normal": 1e308, "high": 1e308}}
    )
    results = [_result("fast-pull-requests", 100.0), _result("huge-stories", 50.0)]
    score = aggregate(results, REGISTRY, config)
    assert score.overall == 75.0
    assert [(c.weight, c.weighted_share) for c in score.contributions] == [(1e308, 50.0), (1e308, 25.0)]

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


def test_trend_follows_first_appearance_of_metrics_and_sorts_teams():
    registry = MetricRegistry()
    for check in reversed(CHECKS.values()):
        registry.register(check)
    history, _ = generate(FixtureSpec(teams=2, sprints=2))
    results = run_all(registry, history, CONFIG)
    scores = aggregate_all(results, registry, CONFIG)
    # the last team's results first: the teams' order is their sort, not their appearance
    results.sort(key=lambda r: r.team, reverse=True)
    series = trend(history, results, scores)
    metrics = [*reversed(CHECKS), OVERALL]
    assert [(s.team, s.metric) for s in series] == [
        (team, metric) for team in sorted(history.teams) for metric in metrics
    ]


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


def _csv_writer_trend_csv(series):
    """`trend_csv` as it was written through `csv.writer`, whose quoting of CR and NUL depends on the Python version."""
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


# text of any character but CR and NUL, the two every Python's `csv.writer` writes alike
CSV_TEXT = st.text(st.characters(exclude_characters="\r\x00"), max_size=8)
POINTS = st.builds(
    TrendPoint,
    sprint_id=st.just("s1"),
    sprint_title=CSV_TEXT,
    due_on=st.integers(int(T0), int(T0) + 400 * DAY).map(float),
    score=st.none() | st.floats(0.0, 100.0),
)
SERIES = st.lists(st.builds(TrendSeries, team=CSV_TEXT, metric=st.sampled_from([*CHECKS, OVERALL, "a,b", 'q"']),
                            points=st.lists(POINTS, max_size=4).map(tuple)), max_size=4)


@given(series=SERIES)
def test_trend_csv_writes_what_csv_writer_wrote(series):
    assert trend_csv(series) == _csv_writer_trend_csv(series)


TREND_HEADER = "team,metric,sprint_title,due_on,score\n"


# (team, sprint title, the row trend_csv writes for them): each of CR, LF, a comma, a quote and NUL
PINNED_ROWS = [
    ("alpha", "Sprint\rtwo", 'alpha,huge-stories,"Sprint\rtwo",2015-01-19T00:00:00Z,80.0\n'),
    ("alpha", "Sprint\ntwo", 'alpha,huge-stories,"Sprint\ntwo",2015-01-19T00:00:00Z,80.0\n'),
    ("alpha", "Sprint 1, hotfix", 'alpha,huge-stories,"Sprint 1, hotfix",2015-01-19T00:00:00Z,80.0\n'),
    ("alpha", 'The "big" one', 'alpha,huge-stories,"The ""big"" one",2015-01-19T00:00:00Z,80.0\n'),
    ("alpha", "Sprint\x00one", "alpha,huge-stories,Sprint\x00one,2015-01-19T00:00:00Z,80.0\n"),
    ("al\rpha", "Sprint 1", '"al\rpha",huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0\n'),
    ("al\npha", "Sprint 1", '"al\npha",huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0\n'),
    ("al,pha", "Sprint 1", '"al,pha",huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0\n'),
    ('al"pha', "Sprint 1", '"al""pha",huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0\n'),
    ("al\x00pha", "Sprint 1", "al\x00pha,huge-stories,Sprint 1,2015-01-19T00:00:00Z,80.0\n"),
]


@pytest.mark.parametrize(("team", "title", "row"), PINNED_ROWS)
def test_trend_csv_quotes_a_field_with_a_comma_a_quote_or_a_line_break(team, title, row):
    point = TrendPoint("s1", title, T0 + 14 * DAY, 80.0)
    text = trend_csv([TrendSeries(team, "huge-stories", (point,))])
    assert text == TREND_HEADER + row
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["team", "metric", "sprint_title", "due_on", "score"],
        [team, "huge-stories", title, "2015-01-19T00:00:00Z", "80.0"],
    ]


def test_score_writes_titles_holding_cr_and_nul_as_the_same_bytes(tmp_path, capsys):
    sprints = [make_sprint(title="Sprint\rtwo"), make_sprint("s2", start=T0 + 14 * DAY, title="Sprint\x00one")]
    snapshot = tmp_path / "snap.json"
    write_snapshot(snapshot, build_history(sprints=sprints))
    out = tmp_path / "trend.csv"
    assert main(["score", "--project", str(snapshot), "--out", str(out)]) == 0
    # no commits and no stories: only collective-ownership, and so the overall, has a score
    scores = {"collective-ownership": "100.0", OVERALL: "100.0"}
    expected = TREND_HEADER + "".join(
        f'alpha,{metric},"Sprint\rtwo",2015-01-19T00:00:00Z,{scores.get(metric, "")}\n'
        f'alpha,{metric},Sprint\x00one,2015-02-02T00:00:00Z,{scores.get(metric, "")}\n'
        for metric in [*CHECKS, OVERALL]
    )
    assert out.read_bytes() == expected.encode("utf-8")
    assert len(list(csv.reader(io.StringIO(expected, newline="")))) == 21
