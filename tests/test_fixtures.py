"""Generator guarantees and the injection oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from sprintlint import (
    InfeasibleFixtureError,
    MetricConfig,
    default_registry,
    run_all,
)
from sprintlint.fixtures import (
    EPOCH,
    MAX_PLANNED_RECORDS,
    FixtureSpec,
    InjectionSpec,
    generate,
    inject,
    injection_from_dict,
    spec_from_dict,
)
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
from sprintlint.serialize import END_TS

SMALL = FixtureSpec(seed=1, teams=1, developers_per_team=4, sprints=1,
                    sprint_length_days=2.0, stories_per_sprint=2,
                    commits_per_dev_per_sprint=10, pulls_per_sprint=2)

CONFIG = MetricConfig()
REGISTRY = default_registry()


def test_same_seed_same_history():
    a, _ = generate(FixtureSpec(seed=99, teams=1))
    b, _ = generate(FixtureSpec(seed=99, teams=1))
    assert a == b


def test_different_seed_different_history():
    a, _ = generate(FixtureSpec(seed=1, teams=1))
    b, _ = generate(FixtureSpec(seed=2, teams=1))
    assert a != b


def test_serialized_fixture_is_byte_identical(tmp_path):
    for sub in ("one", "two"):
        history, _ = generate(FixtureSpec(seed=5, teams=1))
        d = tmp_path / sub
        d.mkdir()
        write_commits(d / "commits.ndjson", history.commits)
        write_issues(d / "issues.json", history.stories)
        write_sprints(d / "sprints.json", history.sprints)
        write_pulls(d / "pulls.json", history.pulls)
        write_stats(d / "stats.csv", history.build_stats)
    for name in ("commits.ndjson", "issues.json", "sprints.json", "pulls.json", "stats.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_default_spec_self_lints_perfect():
    _, certificate = generate(FixtureSpec())
    assert certificate.violation_free
    assert certificate.all_applicable_scores_100
    assert certificate.rng_algorithm == "mt19937"


def test_generated_fixture_round_trips_through_ingest(tmp_path):
    history, _ = generate(SMALL)
    history, _ = inject(history, InjectionSpec(last_minute_commits=2), seed=3)
    write_commits(tmp_path / "commits.ndjson", history.commits)
    write_issues(tmp_path / "issues.json", history.stories)
    write_sprints(tmp_path / "sprints.json", history.sprints)
    write_pulls(tmp_path / "pulls.json", history.pulls)
    write_stats(tmp_path / "stats.csv", history.build_stats)
    manifest = IngestManifest({kind: tmp_path / name for kind, name in EXPORTS.items()})
    reread, diagnostics = load_history(manifest)
    assert diagnostics == []
    assert reread == history


def test_single_developer_cannot_satisfy_hot_file_guarantee():
    with pytest.raises(InfeasibleFixtureError, match="developers"):
        generate(FixtureSpec(teams=1, developers_per_team=1))


def test_assignees_without_commits_infeasible():
    with pytest.raises(InfeasibleFixtureError, match="commit"):
        generate(FixtureSpec(teams=1, commits_per_dev_per_sprint=0))


def test_sprint_shorter_than_deadline_window_infeasible():
    with pytest.raises(InfeasibleFixtureError, match="window"):
        generate(FixtureSpec(teams=1, sprint_length_days=0.05))


def test_the_last_sprint_a_fixture_can_hold_ends_a_day_before_year_10000(tmp_path):
    last_deadline = END_TS - 86400.0
    days = (last_deadline - EPOCH) / 86400.0
    history, _ = generate(FixtureSpec(teams=1, sprints=1, sprint_length_days=days - 0.01))
    # every instant, the late-closing pull requests' too, can be written
    write_sprints(tmp_path / "sprints.json", history.sprints)
    write_pulls(tmp_path / "pulls.json", history.pulls)
    with pytest.raises(InfeasibleFixtureError, match="9999-12-31T00:00:00Z"):
        generate(FixtureSpec(teams=1, sprints=1, sprint_length_days=days))


def test_spec_validation():
    with pytest.raises(InfeasibleFixtureError):
        FixtureSpec(teams=-1)
    with pytest.raises(InfeasibleFixtureError):
        FixtureSpec(sprint_length_days=0.0)
    with pytest.raises(InfeasibleFixtureError):
        spec_from_dict({"nonsense": 3})


def test_empty_injection_returns_same_history():
    history, _ = generate(SMALL)
    after, ledger = inject(history, InjectionSpec(), seed=1)
    assert after is history
    assert ledger == {}


DIRECTIVES = {
    "collective-ownership": InjectionSpec(hot_files=(2, 12, 1)),
    "test-later": InjectionSpec(tdd_regressions=2),
    "huge-stories": InjectionSpec(huge_stories=(1, 10.0)),
    "multi-backlog-stories": InjectionSpec(neverending_stories=(2, 3)),
    "duplicate-stories": InjectionSpec(duplicate_stories=2),
    "last-minute-commits": InjectionSpec(last_minute_commits=3),
    "commit-activity": InjectionSpec(idle_developers=1),
    "daily-story-load": InjectionSpec(backlog_overflow=2),
    "fast-pull-requests": InjectionSpec(silent_fast_pulls=2),
}


@pytest.mark.parametrize("metric", sorted(DIRECTIVES))
def test_injection_oracle_round_trip(metric):
    base, _ = generate(SMALL)
    history, ledger = inject(base, DIRECTIVES[metric], seed=11)
    record = ledger[metric]
    results = run_all(REGISTRY, history, CONFIG)
    by_cell = {(r.metric, r.team, r.sprint): r for r in results}

    target = by_cell[(metric, record.team, record.sprint_id)]
    found = tuple(a for v in target.violations for a in v.artifacts)
    assert sorted(found) == sorted(record.artifacts)
    if metric == "daily-story-load":
        assert record.artifacts == ()
        assert target.score is not None and target.score < 100.0

    # cross-contamination freedom: every other metric stays at a perfect score
    for result in results:
        if result.metric == metric:
            continue
        assert result.score == 100.0, (result.metric, result.team, result.sprint, result.score)
        assert result.violations == ()


def test_neverending_membership_average_matches_spec_example():
    base, _ = generate(SMALL)
    history, ledger = inject(base, InjectionSpec(neverending_stories=(2, 3)), seed=4)
    record = ledger["multi-backlog-stories"]
    results = run_all(REGISTRY, history, CONFIG)
    target = next(
        r for r in results
        if (r.metric, r.team, r.sprint) == ("multi-backlog-stories", record.team, record.sprint_id)
    )
    assert target.inputs_echo["avg_in_sprints"] == 3.0
    assert len(target.violations) == 2


def test_injection_determinism():
    base, _ = generate(SMALL)
    a, ledger_a = inject(base, DIRECTIVES["last-minute-commits"], seed=21)
    b, ledger_b = inject(base, DIRECTIVES["last-minute-commits"], seed=21)
    assert a == b and ledger_a == ledger_b


def test_injection_feasibility_checks():
    with pytest.raises(InfeasibleFixtureError, match="authors"):
        InjectionSpec(hot_files=(1, 12, 5))  # too many authors
    with pytest.raises(InfeasibleFixtureError, match="edits"):
        InjectionSpec(hot_files=(1, 2, 1))  # too few edits
    with pytest.raises(InfeasibleFixtureError, match="multiplier"):
        InjectionSpec(huge_stories=(1, 1.5))  # cannot exceed threshold
    with pytest.raises(InfeasibleFixtureError, match="memberships"):
        InjectionSpec(neverending_stories=(1, 1))


@pytest.mark.parametrize(
    "directive",
    [
        {"silent_fast_pulls": -2},
        {"tdd_regressions": -1},
        {"hot_files": (-1, 12, 1)},
        {"huge_stories": (-1, 12.0)},
        {"neverending_stories": (2, -3)},
    ],
)
def test_injection_spec_rejects_negative_counts(directive):
    with pytest.raises(InfeasibleFixtureError, match="non-negative"):
        InjectionSpec(**directive)


@pytest.mark.parametrize(
    "directive, shape",
    [
        ({"hot_files": 5}, "a tuple of count, edits, authors"),
        ({"hot_files": (1, 12)}, "a tuple of count, edits, authors"),
        ({"neverending_stories": (1,)}, "a tuple of count, sprints_each"),
        ({"silent_fast_pulls": (1,)}, "a count"),
    ],
)
def test_injection_spec_rejects_a_directive_of_the_wrong_shape(directive, shape):
    [name] = directive
    with pytest.raises(InfeasibleFixtureError, match=f"^{name} must be {shape}, got "):
        InjectionSpec(**directive)


def test_a_plan_over_the_record_cap_is_refused_at_construction():
    scaffold = 92  # each planted directive's one-sprint team
    most = MAX_PLANNED_RECORDS - scaffold
    refused = f"^the injection plans {MAX_PLANNED_RECORDS + 1} records, more than the {MAX_PLANNED_RECORDS} "
    assert InjectionSpec(last_minute_commits=most).last_minute_commits == most
    with pytest.raises(InfeasibleFixtureError, match=refused):
        InjectionSpec(last_minute_commits=most + 1)
    # a huge story counts once per base story length, rounded up
    assert InjectionSpec(huge_stories=(1, most)).huge_stories == (1, most)
    with pytest.raises(InfeasibleFixtureError, match=refused):
        InjectionSpec(huge_stories=(1, most + 0.5))
    # 1 + 6 developers + 3 sprints x (1 sprint + 3 stories + 2 x 6 x 10 commits and stats + 4 pulls)
    assert FixtureSpec(teams=MAX_PLANNED_RECORDS // 391).teams == 2557
    with pytest.raises(InfeasibleFixtureError, match="^the spec plans 1000178 records"):
        FixtureSpec(teams=MAX_PLANNED_RECORDS // 391 + 1)


def test_injection_spec_json_round_trip():
    spec = InjectionSpec(hot_files=(1, 12, 2), duplicate_stories=3, huge_stories=(1, 12.0))
    assert injection_from_dict(spec.to_dict()) == spec
    with pytest.raises(InfeasibleFixtureError):
        injection_from_dict({"sabotage": 1})


def test_multiple_directives_in_one_injection():
    base, _ = generate(SMALL)
    combined = InjectionSpec(duplicate_stories=1, last_minute_commits=1)
    history, ledger = inject(base, combined, seed=8)
    assert set(ledger) == {"duplicate-stories", "last-minute-commits"}
    results = run_all(REGISTRY, history, CONFIG)
    for result in results:
        if result.metric in ledger:
            continue
        assert result.score == 100.0


@pytest.mark.parametrize(
    "directive",
    [
        {"hot_files": (0, 12, 1)},
        {"huge_stories": (0, 12.0)},
        {"neverending_stories": (0, 3)},
    ],
)
def test_zero_count_tuple_directive_plants_nothing(directive):
    base, _ = generate(SMALL)
    injection = InjectionSpec(**directive)
    assert injection.empty()
    assert inject(base, injection, seed=1) == (base, {})
    history, ledger = inject(base, InjectionSpec(duplicate_stories=1, **directive), seed=1)
    assert set(ledger) == {"duplicate-stories"}
    assert len(history.teams) == len(base.teams) + 1


# every spec or directive either is refused when it is built or builds: no
# refusal is left for `generate` or `inject` to find
COUNTS = st.integers(0, 30)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    teams=st.integers(0, 2),
    developers_per_team=COUNTS,
    sprints=st.integers(0, 3),
    sprint_length_days=st.floats(0.05, 30.0),
    stories_per_sprint=COUNTS,
    commits_per_dev_per_sprint=COUNTS,
    pulls_per_sprint=COUNTS,
)
def test_a_fixture_spec_that_constructs_generates(**fields):
    try:
        spec = FixtureSpec(**fields)
    except InfeasibleFixtureError:
        return
    history, certificate = generate(spec)
    assert certificate.violation_free
    assert len(history.sprints) == spec.teams * spec.sprints


@pytest.fixture(scope="module")
def small_base():
    return generate(SMALL)[0]


@settings(max_examples=100, deadline=None)
@given(
    hot_files=st.none() | st.tuples(COUNTS, COUNTS, COUNTS),
    tdd_regressions=st.integers(0, 70),
    huge_stories=st.none() | st.tuples(COUNTS, st.floats(0.0, 30.0)),
    neverending_stories=st.none() | st.tuples(COUNTS, COUNTS),
    duplicate_stories=COUNTS,
    last_minute_commits=COUNTS,
    idle_developers=COUNTS,
    backlog_overflow=COUNTS,
    silent_fast_pulls=COUNTS,
)
def test_an_injection_spec_that_constructs_injects(small_base, **directives):
    try:
        injection = InjectionSpec(**directives)
    except InfeasibleFixtureError:
        return
    history, ledger = inject(small_base, injection, seed=3)
    planted = {name for name, value in injection.to_dict().items()
               if (value["count"] if isinstance(value, dict) else value)}
    assert len(ledger) == len(planted)
    assert len(history.teams) == len(small_base.teams) + len(planted)
