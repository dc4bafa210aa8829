"""Report assembly: `--sprint` narrowing and the cost of the per-sprint layers."""

from __future__ import annotations

import json

from sprintlint import MetricConfig, UserStory, build_report, default_registry, render_json, run_all
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject

REGISTRY = default_registry()
CONFIG = MetricConfig()


def test_sprint_narrowed_report_equals_full_report_rows():
    clean, _ = generate(FixtureSpec(teams=2, sprints=4))
    history, _ = inject(
        clean,
        InjectionSpec(neverending_stories=(2, 3), last_minute_commits=3, silent_fast_pulls=2),
        seed=7,
    )
    full = json.loads(render_json(build_report(history, REGISTRY, CONFIG), history))
    for title in sorted({s.title for s in history.sprints}):
        narrowed = json.loads(
            render_json(build_report(history, REGISTRY, CONFIG, sprint_title=title), history)
        )
        for key in ("results", "scores", "unfinished_stories"):
            expected = [row for row in full[key] if row["sprint_title"] == title]
            assert expected and narrowed[key] == expected, (title, key)


def test_run_all_evaluates_only_the_requested_sprints():
    history, _ = generate(FixtureSpec(teams=2, sprints=3))
    wanted = {history.sprints_of(team)[1].id for team in history.teams}
    results = run_all(REGISTRY, history, CONFIG, sprint_ids=wanted)
    assert {r.sprint for r in results} == wanted
    assert results == [r for r in run_all(REGISTRY, history, CONFIG) if r.sprint in wanted]


def test_per_sprint_layers_do_not_rescan_history(monkeypatch):
    history, _ = generate(FixtureSpec(teams=2, sprints=60))
    reads = 0
    memberships = UserStory.sprint_memberships

    def counted(story):
        nonlocal reads
        reads += 1
        return memberships.fget(story)

    monkeypatch.setattr(UserStory, "sprint_memberships", property(counted))
    run_all(REGISTRY, history, CONFIG)
    build_report(history, REGISTRY, CONFIG)
    total_memberships = sum(len(s.milestones) for s in history.stories)
    # linear in the stories and their memberships; a rescan per sprint reads
    # every story of the team once for each of its 60 sprints
    assert reads <= 3 * (len(history.stories) + total_memberships)
