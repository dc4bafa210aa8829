"""Detector oracles: hand-computed expectations for each of the nine checks."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from sprintlint import (
    BuildStats,
    build_history,
    unfinished_stories,
    window,
)
from sprintlint.catalog import (
    CHECKS,
    detect_collective_ownership,
    detect_daily_story_quota,
    detect_duplicates,
    detect_fast_pulls,
    detect_huge_stories,
    detect_last_minute,
    detect_multi_backlog,
    detect_no_committing,
    detect_test_later,
)
from sprintlint.config import METRIC_NAMES, MetricConfig
from conftest import (
    DAY,
    T0,
    TEAM,
    change,
    make_commit,
    make_pull,
    make_slice,
    make_sprint,
    make_story,
    sized_story,
)


def _settings(name: str, **changes):
    """One check's settings: its defaults with `changes` applied."""
    return MetricConfig({name: changes}).for_metric(name)


# each check's default settings
OWNERSHIP = _settings("collective-ownership")
TEST_LATER = _settings("test-later")
HUGE = _settings("huge-stories")
MULTI_BACKLOG = _settings("multi-backlog-stories")
DUPLICATES = _settings("duplicate-stories")
LAST_MINUTE = _settings("last-minute-commits")
ACTIVITY = _settings("commit-activity")
DAILY_LOAD = _settings("daily-story-load")
FAST_PULLS = _settings("fast-pull-requests")


# --- collective ownership (files dominated by few authors) -------------------


def test_ownership_no_commits_scores_100():
    result = detect_collective_ownership(make_slice(make_sprint()), OWNERSHIP)
    assert result.score == 100.0 and result.violations == ()


def test_ownership_single_author_hot_file():
    settings = _settings("collective-ownership", weight=20.0, threshold_e=10, threshold_a=2)
    commits = [
        make_commit(f"c{i}", T0 + i, author="solo@a", files=[change("src/core.py")])
        for i in range(12)
    ]
    result = detect_collective_ownership(make_slice(make_sprint(), commits=commits), settings)
    assert [v.artifacts for v in result.violations] == [("src/core.py",)]
    assert result.score == 80.0  # 100 - 1 * 20


def test_ownership_enough_authors_is_clean():
    settings = _settings("collective-ownership", weight=20.0, threshold_e=10, threshold_a=2)
    commits = [
        make_commit(f"c{i}", T0 + i, author=f"dev{i % 3}@a", files=[change("src/core.py")])
        for i in range(12)
    ]
    result = detect_collective_ownership(make_slice(make_sprint(), commits=commits), settings)
    assert result.violations == () and result.score == 100.0


def test_ownership_counts_edits_and_authors_per_path_in_path_order():
    settings = _settings("collective-ownership", threshold_e=1, threshold_a=2)
    commits = [
        make_commit("c1", T0, author="a@x", files=[change("q.py"), change("p.py")]),
        make_commit("c2", T0 + 1, author="b@x", files=[change("p.py")]),
    ]
    result = detect_collective_ownership(make_slice(make_sprint(), commits=commits), settings)
    assert [(v.artifacts, v.numeric_detail) for v in result.violations] == [
        (("p.py",), {"edits": 2, "authors": 2}),
        (("q.py",), {"edits": 1, "authors": 1}),
    ]


# --- test-later development (complexity up, coverage down) --------------------


def _stats(pairs):
    return {
        cid: BuildStats(commit_id=cid, coverage_percent=cov, complexity=cplx)
        for cid, cov, cplx in pairs
    }


def test_test_later_equal_complexity_is_not_a_violation():
    commits = [
        make_commit("p", T0),
        make_commit("c", T0 + 60, parents=("p",)),
    ]
    stats = _stats([("p", 80.0, 10.0), ("c", 70.0, 10.0)])  # coverage fell, complexity flat
    result = detect_test_later(make_slice(make_sprint(), commits=commits, stats=stats), TEST_LATER)
    assert result.violations == () and result.score == 100.0


def test_test_later_two_of_eight_regressions():
    settings = _settings("test-later", weight=2.0)
    commits = [make_commit("c0", T0)]
    for i in range(1, 8):
        commits.append(make_commit(f"c{i}", T0 + i * 60, parents=(f"c{i - 1}",)))
    pairs = [("c0", 50.0, 10.0)]
    for i in range(1, 8):
        if i in (3, 5):  # the two regressions: complexity up, coverage down
            pairs.append((f"c{i}", pairs[-1][1] - 2.0, pairs[-1][2] + 1.0))
        else:
            pairs.append((f"c{i}", pairs[-1][1] + 1.0, pairs[-1][2] + 1.0))
    result = detect_test_later(make_slice(make_sprint(), commits=commits, stats=_stats(pairs)), settings)
    assert sorted(v.artifacts[0] for v in result.violations) == ["c3", "c5"]
    assert result.score == 50.0  # 100 - 2/8 * 100 * 2


def test_test_later_merge_commit_skipped():
    commits = [
        make_commit("a", T0),
        make_commit("b", T0 + 60),
        make_commit("m", T0 + 120, parents=("a", "b")),
    ]
    stats = _stats([("a", 90.0, 10.0), ("b", 80.0, 12.0), ("m", 10.0, 99.0)])
    result = detect_test_later(make_slice(make_sprint(), commits=commits, stats=stats), TEST_LATER)
    assert result.violations == ()


def test_test_later_skips_a_commit_whose_parent_has_no_stats_but_counts_it():
    commits = [
        make_commit("p", T0),
        make_commit("c", T0 + 60, parents=("p",)),
        make_commit("d", T0 + 120, parents=("c",)),
    ]
    # `p` has no stats row, so `c` is compared with nothing however low its coverage
    stats = _stats([("c", 10.0, 99.0), ("d", 5.0, 100.0)])
    settings = _settings("test-later", weight=1.0)
    result = detect_test_later(make_slice(make_sprint(), commits=commits, stats=stats), settings)
    assert [v.artifacts for v in result.violations] == [("d",)]
    assert result.inputs_echo == {"violations": 1, "commits_with_stats": 2, "weight": 1.0}
    assert result.score == 50.0  # 100 - 1/2 * 100 * 1


def test_test_later_without_stats_is_not_applicable():
    commits = [make_commit("c1", T0)]
    result = detect_test_later(make_slice(make_sprint(), commits=commits), TEST_LATER)
    assert result.score is None and "stats" in result.diagnostic


# --- huge stories -------------------------------------------------------------


def test_huge_stories_uniform_sizes_are_clean():
    stories = [sized_story(i + 1, 150) for i in range(5)]
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), HUGE)
    assert result.violations == () and result.score == 100.0


def test_huge_stories_self_inclusion_effect():
    # lengths {100,100,100,700}: avg 250, threshold 3 -> only 700 > 750 is false
    stories = [sized_story(1, 100), sized_story(2, 100), sized_story(3, 100), sized_story(4, 700)]
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), HUGE)
    assert result.violations == () and result.score == 100.0
    assert result.inputs_echo["avg_length"] == 250.0


def test_huge_stories_outlier_flagged():
    # lengths {100,100,100,1300}: avg 400, 1300 > 1200 -> one violation at weight 25
    settings = _settings("huge-stories", weight=25.0, threshold_length=3.0)
    stories = [sized_story(1, 100), sized_story(2, 100), sized_story(3, 100), sized_story(4, 1300)]
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), settings)
    assert [v.artifacts for v in result.violations] == [("#4",)]
    assert result.score == 75.0


def test_huge_stories_checkbox_branch():
    # equal lengths; one story has 8 checkboxes vs avg 2.0 -> 8 > 3*2
    stories = [
        sized_story(1, 400, checkboxes=0),
        sized_story(2, 400, checkboxes=0),
        sized_story(3, 400, checkboxes=0),
        sized_story(4, 400, checkboxes=8),
    ]
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), HUGE)
    assert [v.artifacts for v in result.violations] == [("#4",)]


def test_huge_stories_no_checkboxes_disables_branch():
    stories = [sized_story(1, 300), sized_story(2, 300)]
    # an average of 0 times any positive threshold is 0, and no story's count of 0 is above it
    for settings in (HUGE, _settings("huge-stories", threshold_check=0.001)):
        result = detect_huge_stories(make_slice(make_sprint(), stories=stories), settings)
        assert result.inputs_echo["avg_checkboxes"] == 0.0
        assert result.violations == ()


def test_huge_stories_empty_backlog_not_applicable():
    result = detect_huge_stories(make_slice(make_sprint()), HUGE)
    assert result.score is None


@pytest.mark.parametrize("threshold", [1.01, 1.5, 2.0, 3.0, 10.0])
def test_huge_stories_equal_sizes_never_violate_for_any_threshold_above_one(threshold):
    settings = _settings("huge-stories", threshold_length=threshold, threshold_check=threshold)
    stories = [sized_story(i + 1, 250, checkboxes=2) for i in range(6)]
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), settings)
    assert result.violations == () and result.score == 100.0


# --- one story, multiple backlogs ----------------------------------------------


def _membership_history(counts):
    """Build sprints s1..s3 and stories whose membership count is given per story."""
    sprints = [
        make_sprint(f"s{k}", start=T0 + (k - 1) * 14 * DAY, title=f"Sprint {k}") for k in (1, 2, 3)
    ]
    stories = []
    for number, count in enumerate(counts, start=1):
        memberships = tuple(f"s{k}" for k in range(4 - count, 4))  # ends at s3
        stories.append(make_story(number, sprints=memberships))
    history = build_history(stories=stories, sprints=sprints)
    return history, sprints[-1]


def test_multi_backlog_fresh_stories_score_100():
    history, sprint = _membership_history([1] * 10)
    result = detect_multi_backlog(window(history, TEAM, sprint.id), MULTI_BACKLOG)
    assert result.violations == () and result.score == 100.0


def test_multi_backlog_two_of_ten_in_three_sprints():
    history, sprint = _membership_history([3, 3] + [1] * 8)
    result = detect_multi_backlog(window(history, TEAM, sprint.id), MULTI_BACKLOG)
    assert sorted(v.artifacts[0] for v in result.violations) == ["#1", "#2"]
    assert result.inputs_echo["avg_in_sprints"] == 3.0
    assert result.score == 40.0  # 100 - 2/10 * 100 * 3 * 1


def test_multi_backlog_one_of_ten_in_two_sprints():
    history, sprint = _membership_history([2] + [1] * 9)
    result = detect_multi_backlog(window(history, TEAM, sprint.id), MULTI_BACKLOG)
    assert result.score == 80.0  # 100 - 1/10 * 100 * 2


def test_multi_backlog_counts_only_up_to_evaluated_sprint():
    # story lives in s1..s3; judged at s1 it has a single membership so far
    sprints = [
        make_sprint(f"s{k}", start=T0 + (k - 1) * 14 * DAY, title=f"Sprint {k}") for k in (1, 2, 3)
    ]
    story = make_story(1, sprints=("s1", "s2", "s3"))
    history = build_history(stories=[story], sprints=sprints)
    early = detect_multi_backlog(window(history, TEAM, sprints[0].id), MULTI_BACKLOG)
    assert early.violations == () and early.score == 100.0
    late = detect_multi_backlog(window(history, TEAM, sprints[2].id), MULTI_BACKLOG)
    assert len(late.violations) == 1
    assert late.violations[0].numeric_detail["sprint_count"] == 3


def test_multi_backlog_threshold_is_configurable():
    history, sprint = _membership_history([2] + [1] * 9)
    settings = _settings("multi-backlog-stories", threshold_amount=2)
    result = detect_multi_backlog(window(history, TEAM, sprint.id), settings)
    assert result.violations == () and result.score == 100.0


# --- duplicates ----------------------------------------------------------------


def test_duplicates_none_scores_100():
    stories = [make_story(i + 1) for i in range(5)]
    result = detect_duplicates(make_slice(make_sprint(), stories=stories), DUPLICATES)
    assert result.score == 100.0


def test_duplicates_one_of_twenty():
    stories = [make_story(i + 1) for i in range(19)]
    stories.append(make_story(20, labels=("duplicate",)))
    result = detect_duplicates(make_slice(make_sprint(), stories=stories), DUPLICATES)
    assert [v.artifacts for v in result.violations] == [("#20",)]
    assert result.score == 95.0  # 100 - 1/20 * 100


def test_duplicates_label_match_is_case_insensitive():
    stories = [make_story(1, labels=("Duplicate",)), make_story(2)]
    result = detect_duplicates(make_slice(make_sprint(), stories=stories), DUPLICATES)
    assert len(result.violations) == 1


# --- last-minute commits ---------------------------------------------------------


def test_last_minute_boundary_commit_counts():
    sprint = make_sprint(days=14.0)
    boundary = sprint.due_on - 120 * 60.0  # exactly window start
    commits = [make_commit("edge", boundary), make_commit("early", sprint.starts_at)]
    result = detect_last_minute(make_slice(sprint, commits=commits), LAST_MINUTE)
    assert [v.artifacts for v in result.violations] == [("edge",)]
    assert result.score == 50.0  # 1 of 2


def test_last_minute_three_of_twenty():
    sprint = make_sprint(days=14.0)
    commits = [make_commit(f"ok{i}", sprint.starts_at + i * 3600.0) for i in range(17)]
    commits += [make_commit(f"late{i}", sprint.due_on - 60.0 * (i + 1)) for i in range(3)]
    result = detect_last_minute(make_slice(sprint, commits=commits), LAST_MINUTE)
    assert len(result.violations) == 3
    assert result.score == 85.0  # 100 - 3/20 * 100


def test_last_minute_commit_after_due_is_outside_window():
    sprint = make_sprint(days=14.0)
    history = build_history(
        commits=[make_commit("after", sprint.due_on + 1.0), make_commit("in", sprint.starts_at + 1.0)],
        sprints=[sprint],
    )
    slice_ = window(history, TEAM, "s1")
    assert {c.id for c in slice_.commits} == {"in"}
    result = detect_last_minute(slice_, LAST_MINUTE)
    assert result.violations == ()


def test_last_minute_no_commits_not_applicable():
    result = detect_last_minute(make_slice(make_sprint()), LAST_MINUTE)
    assert result.score is None


# --- commit activity ----------------------------------------------------------


def test_no_committing_zero_commits_scores_zero():
    devs = frozenset({f"d{i}@a" for i in range(5)})
    result = detect_no_committing(make_slice(make_sprint(), developers=devs), ACTIVITY)
    assert result.score == 0.0
    assert result.violations[0].artifacts == tuple(sorted(devs))


def test_no_committing_thirty_commits_five_devs():
    devs = frozenset({f"d{i}@a" for i in range(5)})
    commits = [make_commit(f"c{i}", T0 + i, author=f"d{i % 5}@a") for i in range(30)]
    result = detect_no_committing(make_slice(make_sprint(), commits=commits, developers=devs), ACTIVITY)
    assert result.score == 60.0  # 30/5 * 10
    assert result.violations == ()


def test_no_committing_caps_at_100():
    devs = frozenset({f"d{i}@a" for i in range(5)})
    commits = [make_commit(f"c{i}", T0 + i, author=f"d{i % 5}@a") for i in range(80)]
    result = detect_no_committing(make_slice(make_sprint(), commits=commits, developers=devs), ACTIVITY)
    assert result.score == 100.0  # 80/5 * 10 = 160, capped


def test_no_committing_names_silent_developers():
    devs = frozenset({"busy@a", "idle@a"})
    commits = [make_commit("c1", T0, author="busy@a")]
    result = detect_no_committing(make_slice(make_sprint(), commits=commits, developers=devs), ACTIVITY)
    assert result.violations[0].artifacts == ("idle@a",)


def test_no_committing_without_developers_not_applicable():
    result = detect_no_committing(make_slice(make_sprint()), ACTIVITY)
    assert result.score is None


# --- daily story quota -----------------------------------------------------------


def _devs(count):
    return {f"d{i}@a" for i in range(count)}


def test_daily_quota_echoes_operands():
    sprint = make_sprint(days=14.0)
    stories = [make_story(i + 1) for i in range(16)]
    result = detect_daily_story_quota(make_slice(sprint, stories=stories, developers=_devs(8)), DAILY_LOAD)
    assert result.inputs_echo["quota"] == 8 / 16 / 14.0
    assert result.inputs_echo["quota"] == pytest.approx(0.0357142857, rel=1e-9)
    assert result.violations == ()


def test_daily_quota_at_vertex_is_perfect():
    sprint = make_sprint(days=2.0)
    stories = [make_story(i + 1) for i in range(3)]  # 6 devs / 3 stories / 2 days = 1
    result = detect_daily_story_quota(make_slice(sprint, stories=stories, developers=_devs(6)), DAILY_LOAD)
    assert result.score == 100.0


def test_daily_quota_half_scores_75():
    sprint = make_sprint(days=1.0)
    stories = [make_story(i + 1) for i in range(4)]  # 2 devs / 4 stories / 1 day = 0.5
    result = detect_daily_story_quota(make_slice(sprint, stories=stories, developers=_devs(2)), DAILY_LOAD)
    assert result.score == 75.0


def test_daily_quota_empty_backlog_not_applicable():
    result = detect_daily_story_quota(make_slice(make_sprint(), developers=_devs(5)), DAILY_LOAD)
    assert result.score is None


# --- fast pull requests -----------------------------------------------------------


def test_fast_pulls_all_commented_scores_100():
    pulls = [make_pull(i + 1, T0 + i, closed=T0 + i + 60.0, comments=2) for i in range(4)]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert result.score == 100.0


def test_fast_pulls_one_of_four():
    pulls = [
        make_pull(1, T0, closed=T0 + 2 * 3600.0, comments=1),
        make_pull(2, T0, closed=T0 + 3 * 3600.0, comments=0),  # slow, silent: fine
        make_pull(3, T0, closed=T0 + 10 * 60.0, comments=3),  # fast but discussed: fine
        make_pull(4, T0, closed=T0 + 10 * 60.0, comments=0),  # fast and silent
    ]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert [v.artifacts for v in result.violations] == [("PR#4",)]
    assert result.score == 75.0


def test_fast_pulls_fast_with_comment_is_fine():
    pulls = [make_pull(1, T0, closed=T0 + 60.0, comments=1)]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert result.violations == () and result.score == 100.0


def test_fast_pulls_open_prs_do_not_count():
    pulls = [make_pull(1, T0), make_pull(2, T0, closed=T0 + 60.0, comments=0)]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert result.inputs_echo["total_closed_pulls"] == 1
    assert result.score == 0.0  # the only closed one is a violation


def test_fast_pulls_no_closed_not_applicable():
    pulls = [make_pull(1, T0)]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert result.score is None


# --- unfinished stories query ------------------------------------------------------


def test_unfinished_stories_matches_reference_row(past_due_backlog):
    now = T0 + 16 * DAY
    block = unfinished_stories(past_due_backlog, "s12", now)
    assert block is not None
    assert block.sprint_title == "Sprint 12"
    assert block.amount == 2
    assert block.story_numbers == (129, 135)
    assert block.total == 10
    assert block.percent == 0.2


def test_unfinished_stories_before_due_is_empty(past_due_backlog):
    assert unfinished_stories(past_due_backlog, "s12", T0 + DAY) is None


def test_unfinished_stories_all_closed():
    sprint = make_sprint()
    stories = [make_story(i + 1, closed=T0 + DAY) for i in range(3)]
    history = build_history(stories=stories, sprints=[sprint])
    block = unfinished_stories(history, "s1", sprint.due_on + DAY)
    assert block.amount == 0 and block.percent == 0.0 and block.story_numbers == ()


def test_unfinished_stories_empty_backlog_percent_not_applicable():
    sprint = make_sprint()
    history = build_history(sprints=[sprint])
    block = unfinished_stories(history, "s1", sprint.due_on + DAY)
    assert block.total == 0 and block.percent is None


# --- each check's line: a value at it and one unit either side -----------------------
#
# Each table pins the rule its detector's docstring and README state at the line a
# default setting draws; windows are in minutes.


# edits and authors of one file, and whether it is flagged at the defaults threshold_e 10 and threshold_a 2
OWNERSHIP_LINE = [(9, 2, False), (10, 2, True), (11, 2, True), (10, 1, True), (10, 3, False)]


@pytest.mark.parametrize("edits, authors, flagged", OWNERSHIP_LINE)
def test_ownership_line(edits, authors, flagged):
    commits = [make_commit(f"c{i}", T0 + i, author=f"d{i % authors}@a", files=[change("p.py")]) for i in range(edits)]
    result = detect_collective_ownership(make_slice(make_sprint(), commits=commits), OWNERSHIP)
    assert [v.artifacts for v in result.violations] == ([("p.py",)] if flagged else [])


# coverage and complexity of a commit whose parent has coverage 50 and complexity 10, and whether it is flagged
TEST_LATER_LINE = [(49.0, 11.0, True), (50.0, 11.0, False), (51.0, 11.0, False), (49.0, 10.0, False),
                   (49.0, 9.0, False)]


@pytest.mark.parametrize("coverage, complexity, flagged", TEST_LATER_LINE)
def test_test_later_line(coverage, complexity, flagged):
    commits = [make_commit("p", T0), make_commit("c", T0 + 60, parents=("p",))]
    stats = _stats([("p", 50.0, 10.0), ("c", coverage, complexity)])
    result = detect_test_later(make_slice(make_sprint(), commits=commits, stats=stats), TEST_LATER)
    assert [v.artifacts for v in result.violations] == ([("c",)] if flagged else [])


# (the other four stories' length and tasks, the fifth story's length and tasks) -> whether the fifth is flagged;
# at the default thresholds of 3, a fifth story of length 600 among four of 100 is exactly 3 times the average
HUGE_LINE = [
    ((100, 0), (599, 0), False), ((100, 0), (600, 0), False), ((100, 0), (601, 0), True),
    ((400, 1), (400, 5), False), ((400, 1), (400, 6), False), ((400, 1), (400, 7), True),
    # with no task anywhere no count is above 3 times an average of 0; one task is above 3 times an average of 0.2
    ((400, 0), (400, 0), False), ((400, 0), (400, 1), True),
]


@pytest.mark.parametrize("others, fifth, flagged", HUGE_LINE)
def test_huge_stories_line(others, fifth, flagged):
    stories = [sized_story(number, others[0], checkboxes=others[1]) for number in range(1, 5)]
    stories.append(sized_story(5, fifth[0], checkboxes=fifth[1]))
    result = detect_huge_stories(make_slice(make_sprint(), stories=stories), HUGE)
    assert [v.artifacts for v in result.violations] == ([("#5",)] if flagged else [])


@pytest.mark.parametrize("backlogs, flagged", [(1, False), (2, False), (3, True)])
def test_multi_backlog_line(backlogs, flagged):
    history, sprint = _membership_history([backlogs])
    settings = _settings("multi-backlog-stories", threshold_amount=2)
    result = detect_multi_backlog(window(history, TEAM, sprint.id), settings)
    assert [v.artifacts for v in result.violations] == ([("#1",)] if flagged else [])


@pytest.mark.parametrize("label, flagged", [("duplicate", True), ("DUPLICATE", True), ("duplicates", False),
                                            ("not a duplicate", False)])
def test_duplicates_line(label, flagged):
    stories = [make_story(1, labels=(label,))]
    result = detect_duplicates(make_slice(make_sprint(), stories=stories), DUPLICATES)
    assert [v.artifacts for v in result.violations] == ([("#1",)] if flagged else [])


# minutes before the deadline a commit lands -> whether it is flagged, with the default window of 120 minutes
LAST_MINUTE_LINE = [(121, False), (120, True), (119, True), (1, True), (0, True), (-1, False)]


@pytest.mark.parametrize("minutes, flagged", LAST_MINUTE_LINE)
def test_last_minute_line(minutes, flagged):
    sprint = make_sprint(days=14.0)
    commits = [make_commit("c", sprint.due_on - minutes * 60.0)]
    result = detect_last_minute(make_slice(sprint, commits=commits), LAST_MINUTE)
    assert [v.detail for v in result.violations] == (
        [f"commit c landed {minutes} min before the deadline"] if flagged else [])


# commits by the one developer -> the score at the default weight of 10 a commit, capped at 100
@pytest.mark.parametrize("commits, score", [(0, 0.0), (1, 10.0), (9, 90.0), (10, 100.0), (11, 100.0)])
def test_commit_activity_line(commits, score):
    slice_ = make_slice(make_sprint(), commits=[make_commit(f"c{i}", T0 + i, author="d@a") for i in range(commits)],
                        developers={"d@a"})
    result = detect_no_committing(slice_, ACTIVITY)
    assert result.score == score
    assert [v.artifacts for v in result.violations] == ([] if commits else [("d@a",)])


# developers for a backlog of 4 stories in a 1-day sprint -> the score, 200 q - 100 q² for the quota q, clamped
@pytest.mark.parametrize("developers, score", [(3, 93.75), (4, 100.0), (5, 93.75), (7, 43.75), (8, 0.0), (9, 0.0)])
def test_daily_story_load_line(developers, score):
    stories = [make_story(i + 1) for i in range(4)]
    slice_ = make_slice(make_sprint(days=1.0), stories=stories, developers=_devs(developers))
    assert detect_daily_story_quota(slice_, DAILY_LOAD).score == score


# minutes a pull is open and its comments, and whether it is flagged with the default window of 60 minutes
FAST_PULLS_LINE = [(59, 0, True), (60, 0, False), (61, 0, False), (59, 1, False)]


@pytest.mark.parametrize("minutes, comments, flagged", FAST_PULLS_LINE)
def test_fast_pulls_line(minutes, comments, flagged):
    pulls = [make_pull(1, T0, closed=T0 + minutes * 60.0, comments=comments)]
    result = detect_fast_pulls(make_slice(make_sprint(), pulls=pulls), FAST_PULLS)
    assert [v.detail for v in result.violations] == (
        [f"pull request #1 was closed after {minutes} min without any comments"] if flagged else [])


# seconds from the deadline to now -> whether the sprint is past due, so that its open stories are listed
@pytest.mark.parametrize("seconds, past_due", [(-1.0, False), (0.0, False), (1.0, True)])
def test_unfinished_stories_line(seconds, past_due):
    sprint = make_sprint()
    history = build_history(stories=[make_story(1, state="open")], sprints=[sprint])
    block = unfinished_stories(history, "s1", sprint.due_on + seconds)
    assert (block and block.story_numbers) == ((1,) if past_due else None)


# --- cross-cutting: violations reference only slice artifacts ------------------------


def test_violation_artifacts_are_subset_of_slice():
    sprint = make_sprint(days=14.0)
    commits = [
        make_commit(f"c{i}", T0 + i * 600.0, author="solo@a", files=[change("src/hot.py")])
        for i in range(12)
    ]
    commits.append(make_commit("late", sprint.due_on - 60.0))
    stories = [sized_story(1, 100), sized_story(2, 1300), sized_story(3, 100), sized_story(4, 100)]
    pulls = [make_pull(1, T0 + DAY, closed=T0 + DAY + 60.0, comments=0)]
    slice_ = make_slice(sprint, commits=commits, stories=stories, pulls=pulls)
    known = (
        {c.id for c in commits}
        | {f"#{s.number}" for s in stories}
        | {f"PR#{p.number}" for p in pulls}
        | {ch.path for c in commits for ch in c.files}
    )
    for result in (
        detect_collective_ownership(slice_, OWNERSHIP),
        detect_huge_stories(slice_, HUGE),
        detect_last_minute(slice_, LAST_MINUTE),
        detect_fast_pulls(slice_, FAST_PULLS),
    ):
        for violation in result.violations:
            assert set(violation.artifacts) <= known


def test_readme_check_table_lists_each_check_and_its_default_severity_in_report_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The checks\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|.*\| ([^|]+) \|$", section, flags=re.MULTILINE)
    assert rows == [(name, CHECKS[name].descriptor.severity.value.replace("_", " ")) for name in METRIC_NAMES]
