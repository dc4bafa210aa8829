"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time

from sprintlint import (
    MetricConfig,
    build_history,
    build_report,
    capped_linear,
    cutoff_parabola,
    default_registry,
    ratio_linear,
    render_json,
    run_all,
    threshold_linear,
    unfinished_stories,
)
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject
from sprintlint.ingest import (
    EXPORTS,
    IngestManifest,
    load_history,
    write_commits,
    write_issues,
    write_pulls,
    write_sprints,
    write_stats,
)
from sprintlint.scoring import aggregate, aggregate_all
from sprintlint.model import MetricResult
from conftest import DAY, T0, make_commit, make_pull, make_slice, make_sprint, make_story, sized_story
from sprintlint.catalog import CHECKS

REGISTRY = default_registry()
CONFIG = MetricConfig()

MAX_FORM_METRICS = (
    "collective-ownership",
    "test-later",
    "huge-stories",
    "multi-backlog-stories",
    "duplicate-stories",
    "last-minute-commits",
    "fast-pull-requests",
)


def _criterion(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_unfinished_stories_reference_row():
    started = time.perf_counter()
    sprint = make_sprint(sid="s12", title="Sprint 12", start=T0, days=14.0)
    numbers = [126, 127, 128, 129, 130, 132, 135, 137, 139, 141]
    stories = [
        make_story(
            n,
            sprints=("s12",),
            state="open" if n in (129, 135) else "closed",
            closed=None if n in (129, 135) else T0 + 10 * DAY,
        )
        for n in numbers
    ]
    history = build_history(stories=stories, sprints=[sprint])
    block = unfinished_stories(history, "s12", now=T0 + 16 * DAY)
    elapsed = time.perf_counter() - started
    ok = (
        block is not None
        and block.sprint_title == "Sprint 12"
        and block.amount == 2
        and block.story_numbers == (129, 135)
        and block.total == 10
        and block.percent == 0.2
        and elapsed < 1.0
    )
    _criterion(
        1,
        f"past-due backlog query returns amount 2, stories [129, 135], total 10, "
        f"percent 0.2 exactly in {elapsed * 1000:.0f} ms",
        ok,
    )


def _random_rating_score(metric: str, rng: random.Random, force_zero: bool) -> tuple[float, int]:
    """Drive one metric's rating path with random operands; return (score, violations)."""
    weight = rng.uniform(0.0, 300.0)
    if metric in ("collective-ownership", "huge-stories"):
        violations = 0 if force_zero else rng.randrange(0, 500)
        return threshold_linear(violations, weight), violations
    if metric in ("test-later", "duplicate-stories", "last-minute-commits", "fast-pull-requests"):
        total = rng.randrange(1, 500)
        violations = 0 if force_zero else rng.randrange(0, total + 1)
        w = 1.0 if metric == "fast-pull-requests" else weight
        return ratio_linear(violations, total, w), violations
    if metric == "multi-backlog-stories":
        total = rng.randrange(1, 500)
        violations = 0 if force_zero else rng.randrange(0, total + 1)
        avg = 1.0 if violations == 0 else rng.uniform(2.0, 12.0)
        return ratio_linear(violations, total, weight, avg), violations
    if metric == "commit-activity":
        return capped_linear(rng.uniform(0.0, 1e5), weight), 0
    if metric == "daily-story-load":
        return cutoff_parabola(rng.uniform(0.0, 50.0), weight, rng.uniform(0.0, 300.0)), 0
    raise AssertionError(metric)


def test_criterion_2_score_range_over_randomized_inputs():
    rng = random.Random(20_000)
    ok = True
    for metric in REGISTRY.names():
        for i in range(10_000):
            force_zero = i % 10 == 0
            score, violations = _random_rating_score(metric, rng, force_zero)
            if not (0.0 <= score <= 100.0):
                ok = False
            if metric in MAX_FORM_METRICS and violations == 0 and score != 100.0:
                ok = False
    ok = ok and _detectors_bounded_on_random_slices()
    _criterion(
        2,
        "10,000 randomized inputs per metric stay in [0, 100]; zero violations "
        "score exactly 100 on the max-form metrics",
        ok,
    )


def _detectors_bounded_on_random_slices(samples: int = 300) -> bool:
    rng = random.Random(31)
    for _ in range(samples):
        sprint = make_sprint(days=rng.uniform(1.0, 21.0))
        commits = []
        for i in range(rng.randrange(0, 12)):
            commits.append(
                make_commit(
                    f"c{i}",
                    rng.uniform(sprint.starts_at, sprint.due_on),
                    author=f"d{rng.randrange(3)}@a",
                )
            )
        stories = [
            sized_story(i + 1, rng.randrange(60, 400)) for i in range(rng.randrange(0, 6))
        ]
        pulls = []
        for i in range(rng.randrange(0, 5)):
            opened = rng.uniform(sprint.starts_at, sprint.due_on)
            closed = opened + rng.uniform(0.0, 4 * 3600.0) if rng.random() < 0.8 else None
            pulls.append(make_pull(i + 1, opened, closed=closed, comments=rng.randrange(0, 3)))
        devs = frozenset({f"d{k}@a" for k in range(3)})
        slice_ = make_slice(sprint, commits=commits, stories=stories, pulls=pulls, developers=devs)
        results = [
            (name, check.detector(slice_, CONFIG.for_metric(name)))
            for name, check in CHECKS.items()
            if name != "multi-backlog-stories"
        ]
        for metric, result in results:
            if result.score is not None and not (0.0 <= result.score <= 100.0):
                return False
            if (
                metric in MAX_FORM_METRICS
                and result.score is not None
                and not result.violations
                and result.score != 100.0
            ):
                return False
    return True


def test_criterion_3_monotonicity():
    rng = random.Random(777)
    ok = True
    for metric in MAX_FORM_METRICS:
        for _ in range(1_000):
            weight = rng.uniform(0.0, 200.0)
            total = rng.randrange(2, 400)
            violations = rng.randrange(0, total)
            factor = rng.uniform(1.0, 10.0)
            if metric in ("collective-ownership", "huge-stories"):
                before = threshold_linear(violations, weight)
                after = threshold_linear(violations + 1, weight)
            elif metric == "multi-backlog-stories":
                before = ratio_linear(violations, total, weight, factor)
                after = ratio_linear(violations + 1, total, weight, factor)
            else:
                w = 1.0 if metric == "fast-pull-requests" else weight
                before = ratio_linear(violations, total, w)
                after = ratio_linear(violations + 1, total, w)
            if after > before:
                ok = False
    for _ in range(1_000):
        weight = rng.uniform(0.0, 200.0)
        commits = rng.uniform(0.0, 1e4)
        more = commits + rng.uniform(0.0, 1e3)
        if capped_linear(more, weight) < capped_linear(commits, weight):
            ok = False
    _criterion(
        3,
        "1,000 random pairs per metric: one extra violation never raises a score; "
        "extra commits never lower the activity score",
        ok,
    )


ORACLE_SPEC = FixtureSpec(
    seed=0, teams=1, developers_per_team=4, sprints=1, sprint_length_days=2.0,
    stories_per_sprint=2, commits_per_dev_per_sprint=10, pulls_per_sprint=2,
)

ORACLE_DIRECTIVES = {
    "collective-ownership": InjectionSpec(hot_files=(1, 10, 1)),
    "test-later": InjectionSpec(tdd_regressions=1),
    "huge-stories": InjectionSpec(huge_stories=(1, 10.0)),
    "multi-backlog-stories": InjectionSpec(neverending_stories=(1, 2)),
    "duplicate-stories": InjectionSpec(duplicate_stories=1),
    "last-minute-commits": InjectionSpec(last_minute_commits=2),
    "commit-activity": InjectionSpec(idle_developers=1),
    "daily-story-load": InjectionSpec(backlog_overflow=2),
    "fast-pull-requests": InjectionSpec(silent_fast_pulls=1),
}


def test_criterion_4_injection_oracle_over_100_seeds():
    import dataclasses

    ok = True
    failures = []
    for seed in range(100):
        base, _ = generate(dataclasses.replace(ORACLE_SPEC, seed=seed))
        for metric, directive in ORACLE_DIRECTIVES.items():
            history, ledger = inject(base, directive, seed=seed)
            record = ledger[metric]
            results = run_all(REGISTRY, history, CONFIG)
            target = next(
                r for r in results
                if (r.metric, r.team, r.sprint) == (metric, record.team, record.sprint_id)
            )
            found = sorted(a for v in target.violations for a in v.artifacts)
            if found != sorted(record.artifacts):
                ok = False
                failures.append((seed, metric, "artifact mismatch"))
            if metric == "daily-story-load" and not (
                target.score is not None and target.score < 100.0
            ):
                ok = False
                failures.append((seed, metric, "quota score did not move"))
            for result in results:
                if result.metric != metric and result.score != 100.0:
                    ok = False
                    failures.append((seed, metric, f"{result.metric} left 100"))
    detail = f"; first failures: {failures[:3]}" if failures else ""
    _criterion(
        4,
        "9 metrics x 100 seeds: detector artifact sets equal the injection ledgers "
        f"exactly and all non-target metrics stay at 100{detail}",
        ok,
    )


def test_criterion_5_rating_function_spot_values():
    ok = (
        threshold_linear(5, 10.0) == 50.0
        and ratio_linear(2, 10, 1.0, 3.0) == 40.0
        and capped_linear(6, 10.0) == 60.0
        and cutoff_parabola(0.5, 200.0, 100.0) == 75.0
    )
    _criterion(
        5,
        "threshold(5,10)=50, ratio(2,10,1,3)=40, capped(6,10)=60, parabola(0.5,200,100)=75, "
        "all exact in double precision",
        ok,
    )


def test_criterion_6_severity_weighted_aggregation():
    results = [
        MetricResult(metric="fast-pull-requests", team="t", sprint="s", violations=(), score=100.0),
        MetricResult(metric="huge-stories", team="t", sprint="s", violations=(), score=50.0),
    ]
    score = aggregate(results, REGISTRY, CONFIG)
    ok = score.overall is not None and abs(score.overall - 90.0) <= 1e-9

    scaled_config = MetricConfig(
        severity_weights={s: w * 7.0 for s, w in CONFIG.severity_weights.items()}
    )
    base, _ = generate(FixtureSpec(seed=6, teams=1, sprints=2))
    history, _ = inject(base, InjectionSpec(duplicate_stories=1, last_minute_commits=2), seed=6)
    run = run_all(REGISTRY, history, CONFIG)
    plain = {(s.team, s.sprint): s.overall for s in aggregate_all(run, REGISTRY, CONFIG)}
    scaled = {(s.team, s.sprint): s.overall for s in aggregate_all(run, REGISTRY, scaled_config)}
    for cell, overall in plain.items():
        other = scaled[cell]
        if overall is None or other is None:
            ok = ok and overall == other
        elif abs(overall - other) > 1e-9:
            ok = False
    _criterion(
        6,
        "scores {100 @ weight 8, 50 @ weight 2} aggregate to 90 within 1e-9; scaling all "
        "severity weights by 7 moves no overall score by more than 1e-9",
        ok,
    )


def test_criterion_7_end_to_end_determinism_and_scale(tmp_path):
    spec = FixtureSpec(
        seed=42, teams=2, developers_per_team=6, sprints=6, sprint_length_days=14.0,
        stories_per_sprint=42, commits_per_dev_per_sprint=139, pulls_per_sprint=6,
    )

    def pipeline(run_dir):
        run_dir.mkdir()
        history, _ = generate(spec)
        write_commits(run_dir / "commits.ndjson", history.commits)
        write_issues(run_dir / "issues.json", history.stories)
        write_sprints(run_dir / "sprints.json", history.sprints)
        write_pulls(run_dir / "pulls.json", history.pulls)
        write_stats(run_dir / "stats.csv", history.build_stats)
        manifest = IngestManifest({kind: run_dir / name for kind, name in EXPORTS.items()})
        ingested, _ = load_history(manifest)
        report = build_report(ingested, REGISTRY, CONFIG)
        return len(ingested.commits), len(ingested.stories), render_json(report, ingested)

    started = time.perf_counter()
    commits_a, stories_a, report_a = pipeline(tmp_path / "run_a")
    first_elapsed = time.perf_counter() - started
    commits_b, stories_b, report_b = pipeline(tmp_path / "run_b")

    ok = (
        commits_a == commits_b == 2 * 6 * 6 * 139  # 10,008 commits
        and stories_a == stories_b == 2 * 6 * 42  # 504 stories
        and report_a == report_b
        and first_elapsed < 5.0
    )
    _criterion(
        7,
        f"generate(seed 42, {commits_a} commits, {stories_a} stories) -> ingest -> lint ran in "
        f"{first_elapsed:.2f} s (< 5 s) with byte-identical reports across runs",
        ok,
    )
