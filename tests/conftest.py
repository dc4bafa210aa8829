"""Shared record builders for detector and pipeline tests."""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from sprintlint import (
    Commit,
    FileChange,
    ProjectHistory,
    PullRequest,
    Sprint,
    SprintMembership,
    SprintSlice,
    StoryState,
    UserStory,
    build_history,
)

@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, as the CLI does for each command, and restore it after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


T0 = 1_420_416_000.0  # 2015-01-05T00:00:00Z
DAY = 86400.0
TEAM = "alpha"


def make_sprint(sid="s1", team=TEAM, start=T0, days=14.0, title="Sprint 1") -> Sprint:
    return Sprint(id=sid, title=title, starts_at=start, due_on=start + days * DAY, team=team)


def make_commit(cid, when, author="ann@example.org", files=(), parents=(), team=TEAM,
                message="change") -> Commit:
    return Commit(
        id=cid, author=author, authored_at=when, parents=tuple(parents),
        message=message, files=tuple(files), team=team,
    )


def change(path, added=1, deleted=0) -> FileChange:
    return FileChange(path=path, lines_added=added, lines_deleted=deleted)


def make_story(number, sprints=("s1",), team=TEAM, state="closed", title=None, body="",
               labels=(), assignees=(), created=T0 - DAY, closed=None) -> UserStory:
    state_enum = StoryState(state)
    if closed is None and state_enum is StoryState.CLOSED:
        closed = T0 + DAY
    return UserStory(
        number=number,
        title=title if title is not None else f"Story {number}",
        body=body,
        state=state_enum,
        labels=frozenset(labels),
        milestones=tuple(
            SprintMembership(sprint_id=s, assigned_at=created) for s in sprints
        ),
        assignees=frozenset(assignees),
        created_at=created,
        closed_at=closed if state_enum is StoryState.CLOSED else None,
        team=team,
    )


def sized_story(number, length, sprints=("s1",), checkboxes=0, **kw) -> UserStory:
    """Story whose whitespace-normalized title+body length is exactly `length`."""
    title = "T"
    tasks = "\n".join(f"- [ ] t{i}" for i in range(checkboxes))
    used = len(title) + 1 + len(" ".join(tasks.split())) if tasks else len(title)
    pad = length - used - 1
    assert pad >= 1, "length too small for the requested checkboxes"
    body = (tasks + "\n" if tasks else "") + "x" * pad
    return make_story(number, sprints=sprints, title=title, body=body, **kw)


def make_pull(number, opened, closed=None, comments=0, merged=False, team=TEAM) -> PullRequest:
    return PullRequest(
        number=number, opened_at=opened, closed_at=closed, merged=merged,
        comment_count=comments, team=team,
    )


def make_slice(sprint, commits=(), stories=(), pulls=(), developers=(), stats=None) -> SprintSlice:
    return SprintSlice(
        sprint=sprint,
        commits=tuple(commits), stories=tuple(stories), pulls=tuple(pulls),
        developers=frozenset(developers), stats_by_commit=dict(stats or {}),
        sprints_by_id={sprint.id: sprint},
    )


@pytest.fixture
def past_due_backlog() -> ProjectHistory:
    """Ten stories in a past-due 'Sprint 12'; #129 and #135 still open."""
    sprint = make_sprint(sid="s12", title="Sprint 12", start=T0, days=14.0)
    numbers = [127, 128, 129, 130, 131, 133, 135, 136, 140, 142]
    open_numbers = {129, 135}
    stories = [
        make_story(
            n,
            sprints=("s12",),
            state="open" if n in open_numbers else "closed",
            closed=None if n in open_numbers else T0 + 10 * DAY,
        )
        for n in numbers
    ]
    commit = make_commit("c-after-due", T0 + 15 * DAY)
    return build_history(commits=[commit], stories=stories, sprints=[sprint])
