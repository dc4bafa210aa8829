"""Every field check, pinned with its message, in export files and in snapshots.

Each case breaks one field of an otherwise valid record: a missing field, a
wrong JSON type, an empty string where a non-empty one is required, or a
value out of range. The export readers must report it as one positioned
`ParseIssue`; a snapshot carrying it must make `lint` exit 2 with
``<path> holds a malformed snapshot: <message>``. The messages are part of
the tool's interface and must not change when the loaders do. Last, any
JSON value at any position of a snapshot must end `lint` with an exit
code, never a traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sprintlint.cli import main
from sprintlint.ingest import ParseIssue, read_commits, read_issues, read_pulls, read_sprints, read_stats

COMMIT = {
    "id": "c1",
    "author": "ann@example.org",
    "authored_at": "2015-01-12T14:03:00Z",
    "parents": [],
    "message": "first",
    "files": [{"path": "src/a.py", "added": 3, "deleted": 1}],
    "team": "alpha",
}
STORY = {
    "number": 1,
    "title": "Story 1",
    "body": "",
    "state": "closed",
    "labels": [],
    "milestone_history": [{"sprint_id": "s1", "assigned_at": "2015-01-05T00:00:00Z"}],
    "assignees": ["ann@example.org"],
    "created_at": "2015-01-04T00:00:00Z",
    "closed_at": "2015-01-18T00:00:00Z",
    "team": "alpha",
}
SPRINT = {
    "id": "s1",
    "title": "Sprint 1",
    "starts_at": "2015-01-05T00:00:00Z",
    "due_on": "2015-01-19T00:00:00Z",
    "team": "alpha",
}
PULL = {
    "number": 1,
    "opened_at": "2015-01-06T00:00:00Z",
    "closed_at": "2015-01-07T00:00:00Z",
    "merged": True,
    "comments": 2,
    "team": "alpha",
}
STAT = {"commit_id": "c1", "coverage_percent": 50.0, "complexity": 5.0}

# record kind -> (base record, snapshot key, export reader)
KINDS = {
    "commit": (COMMIT, "commits", read_commits),
    "story": (STORY, "issues", read_issues),
    "sprint": (SPRINT, "sprints", read_sprints),
    "pull": (PULL, "pulls", read_pulls),
}

MISSING = object()


def _required_str(kind, *path):
    key = path[-1]
    return [
        (kind, path, MISSING, key, f"missing field {key!r}"),
        (kind, path, 7, key, f"{key!r} must be a non-empty string"),
        (kind, path, None, key, f"{key!r} must be a non-empty string"),
        (kind, path, "", key, f"{key!r} must be a non-empty string"),
    ]


def _optional_str(kind, key):
    # may be empty, but must be present and a string
    return [
        (kind, (key,), MISSING, key, f"missing field {key!r}"),
        (kind, (key,), 7, key, f"{key!r} must be a non-empty string"),
        (kind, (key,), ["x"], key, f"{key!r} must be a non-empty string"),
    ]


def _integer(kind, *path):
    key = path[-1]
    return [
        (kind, path, MISSING, key, f"missing field {key!r}"),
        (kind, path, "1", key, f"{key!r} must be an integer"),
        (kind, path, True, key, f"{key!r} must be an integer"),
        (kind, path, 1.5, key, f"{key!r} must be an integer"),
        (kind, path, None, key, f"{key!r} must be an integer"),
    ]


def _timestamp(kind, *path, optional=False):
    key = path[-1]
    cases = [
        (kind, path, 7, key, f"{key} must be an ISO-8601 string, got 7"),
        (kind, path, "", key, f"{key} must be an ISO-8601 string, got ''"),
        (kind, path, "yesterday", key,
         f"{key} is not valid ISO-8601: 'yesterday' (Invalid isoformat string: 'yesterday')"),
        (kind, path, "2015-01-12T14:03:00", key,
         f"{key} lacks a timezone offset: '2015-01-12T14:03:00'"),
    ]
    if not optional:
        cases += [
            (kind, path, MISSING, key, f"missing field {key!r}"),
            (kind, path, None, key, f"{key} must be an ISO-8601 string, got None"),
        ]
    return cases


def _string_list(kind, key):
    return [
        (kind, (key,), MISSING, key, f"missing field {key!r}"),
        (kind, (key,), "abc", key, f"{key!r} must be an array of strings"),
        (kind, (key,), [1], key, f"{key!r} must be an array of strings"),
        (kind, (key,), {"a": "b"}, key, f"{key!r} must be an array of strings"),
    ]


def _object_list(kind, key):
    return [
        (kind, (key,), MISSING, key, f"missing field {key!r}"),
        (kind, (key,), {}, key, f"{key!r} must be an array"),
        (kind, (key,), "abc", key, f"{key!r} must be an array"),
        (kind, (key,), [5], key, f"{key}[0] must be an object"),
    ]


CASES = [
    # commits
    *_required_str("commit", "id"),
    *_required_str("commit", "author"),
    *_timestamp("commit", "authored_at"),
    *_string_list("commit", "parents"),
    *_optional_str("commit", "message"),
    *_object_list("commit", "files"),
    *_required_str("commit", "files", 0, "path"),
    *_integer("commit", "files", 0, "added"),
    ("commit", ("files", 0, "added"), -1, None, "lines_added < 0 for src/a.py"),
    *_integer("commit", "files", 0, "deleted"),
    ("commit", ("files", 0, "deleted"), -1, None, "lines_deleted < 0 for src/a.py"),
    *_required_str("commit", "team"),
    # stories
    *_integer("story", "number"),
    ("story", ("number",), 0, None, "story number must be positive, got 0"),
    ("story", ("number",), -3, None, "story number must be positive, got -3"),
    *_optional_str("story", "title"),
    *_optional_str("story", "body"),
    *_required_str("story", "state"),
    ("story", ("state",), "pending", "state", "state must be 'open' or 'closed', got 'pending'"),
    ("story", ("state",), "open", None, "open story #1 carries closed_at"),
    *_string_list("story", "labels"),
    *_object_list("story", "milestone_history"),
    *_required_str("story", "milestone_history", 0, "sprint_id"),
    *_timestamp("story", "milestone_history", 0, "assigned_at"),
    ("story", ("milestone_history",),
     [{"sprint_id": "s1", "assigned_at": "2015-01-05T00:00:00Z"}] * 2,
     None, "story #1 (alpha) has duplicate sprint memberships"),
    *_string_list("story", "assignees"),
    *_timestamp("story", "created_at"),
    *_timestamp("story", "closed_at", optional=True),
    ("story", ("closed_at",), MISSING, None, "closed story #1 lacks closed_at"),
    ("story", ("closed_at",), None, None, "closed story #1 lacks closed_at"),
    *_required_str("story", "team"),
    # sprints
    *_required_str("sprint", "id"),
    *_optional_str("sprint", "title"),
    *_timestamp("sprint", "starts_at"),
    *_timestamp("sprint", "due_on"),
    ("sprint", ("due_on",), "2015-01-05T00:00:00Z", None, "sprint s1 must start before it is due"),
    ("sprint", ("due_on",), "2015-01-04T00:00:00Z", None, "sprint s1 must start before it is due"),
    *_required_str("sprint", "team"),
    # pull requests
    *_integer("pull", "number"),
    ("pull", ("number",), 0, None, "pull request number must be positive, got 0"),
    ("pull", ("number",), -2, None, "pull request number must be positive, got -2"),
    *_timestamp("pull", "opened_at"),
    *_timestamp("pull", "closed_at", optional=True),
    ("pull", ("closed_at",), "2015-01-05T00:00:00Z", None,
     "pull request #1 closed before it was opened"),
    ("pull", ("closed_at",), MISSING, None, "merged pull request #1 lacks closed_at"),
    ("pull", ("closed_at",), None, None, "merged pull request #1 lacks closed_at"),
    ("pull", ("merged",), MISSING, "merged", "missing field 'merged'"),
    ("pull", ("merged",), "yes", "merged", "'merged' must be a boolean"),
    ("pull", ("merged",), 1, "merged", "'merged' must be a boolean"),
    ("pull", ("merged",), None, "merged", "'merged' must be a boolean"),
    *_integer("pull", "comments"),
    ("pull", ("comments",), -1, None, "pull request #1 comment_count < 0"),
    *_required_str("pull", "team"),
]


def _case_id(case) -> str:
    kind, path, value, _, _ = case
    shown = "MISSING" if value is MISSING else json.dumps(value)
    return f"{kind}.{'.'.join(map(str, path))}={shown}"


def _broken(record: dict, path: tuple, value) -> dict:
    broken = copy.deepcopy(record)
    target = broken
    for step in path[:-1]:
        target = target[step]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return broken


def _snapshot(**replace) -> dict:
    doc = {"commits": [COMMIT], "issues": [STORY], "sprints": [SPRINT], "pulls": [PULL], "stats": [STAT]}
    doc.update({key: [record] for key, record in replace.items()})
    return copy.deepcopy(doc)


def _lint_snapshot(tmp_path, capsys, doc: dict) -> tuple[int, str]:
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["lint", "--project", str(path), "--out", str(tmp_path / "report.json")])
    return code, capsys.readouterr().err


def test_base_records_are_valid(tmp_path, capsys):
    for kind, (record, _, reader) in KINDS.items():
        path = tmp_path / f"{kind}.json"
        text = json.dumps(record) if kind == "commit" else json.dumps([record])
        path.write_text(text, encoding="utf-8")
        records, issues = reader(path)
        assert issues == [] and len(records) == 1
    assert _lint_snapshot(tmp_path, capsys, _snapshot()) == (0, "")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_export_reader_rejects(tmp_path, case):
    kind, path, value, field_name, message = case
    base, _, reader = KINDS[kind]
    record = _broken(base, path, value)
    export = tmp_path / "export"
    if kind == "commit":
        export.write_text(json.dumps(COMMIT | {"id": "c0"}) + "\n" + json.dumps(record) + "\n",
                          encoding="utf-8")
        location = 2
    else:
        export.write_text(json.dumps([record]), encoding="utf-8")
        location = 0
    records, issues = reader(export)
    assert issues == [ParseIssue(location, field_name, message)]
    assert len(records) == (1 if kind == "commit" else 0)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_snapshot_rejects(tmp_path, capsys, case):
    kind, path, value, _, message = case
    base, key, _ = KINDS[kind]
    code, err = _lint_snapshot(tmp_path, capsys, _snapshot(**{key: _broken(base, path, value)}))
    assert code == 2
    assert err == f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {message}\n"


STATS_CASES = [
    ("c1,101,5", "coverage_percent out of [0,100] for commit c1"),
    ("c1,-1,5", "coverage_percent out of [0,100] for commit c1"),
    ("c1,nan,5", "coverage_percent out of [0,100] for commit c1"),
    ("c1,50,-1", "complexity < 0 for commit c1"),
    ("c1,50,nan", "complexity < 0 for commit c1"),
    ("c1,abc,5", "non-numeric stats for commit 'c1'"),
    ("c1,50,", "non-numeric stats for commit 'c1'"),
    (",50,5", "build stats row has no commit id"),
    ("c1,50", "expected 3 columns, got 2"),
    ("c1,50,5,7", "expected 3 columns, got 4"),
    ("c1,50,inf", "complexity is not finite for commit c1"),
]


@pytest.mark.parametrize(("row", "message"), STATS_CASES)
def test_stats_reader_rejects(tmp_path, row, message):
    path = tmp_path / "stats.csv"
    path.write_text(f"commit_id,coverage_percent,complexity\nc0,50,5\n{row}\n", encoding="utf-8")
    records, issues = read_stats(path)
    assert issues == [ParseIssue(3, None, message)]
    assert [r.commit_id for r in records] == ["c0"]


SNAPSHOT_STATS_CASES = [
    *[(("commit_id",), value, message) for _, _, value, _, message in _required_str("stat", "commit_id")],
    (("coverage_percent",), MISSING, "missing field 'coverage_percent'"),
    (("coverage_percent",), "abc", "could not convert string to float: 'abc'"),
    (("coverage_percent",), None, "float() argument must be a string or a real number, not 'NoneType'"),
    (("coverage_percent",), [50], "float() argument must be a string or a real number, not 'list'"),
    (("coverage_percent",), 101, "coverage_percent out of [0,100] for commit c1"),
    (("coverage_percent",), -0.5, "coverage_percent out of [0,100] for commit c1"),
    (("complexity",), MISSING, "missing field 'complexity'"),
    (("complexity",), "abc", "could not convert string to float: 'abc'"),
    (("complexity",), {}, "float() argument must be a string or a real number, not 'dict'"),
    (("complexity",), -1, "complexity < 0 for commit c1"),
    (("complexity",), float("inf"), "complexity is not finite for commit c1"),  # JSON `Infinity`
]


@pytest.mark.parametrize(("path", "value", "message"), SNAPSHOT_STATS_CASES)
def test_snapshot_stats_rejects(tmp_path, capsys, path, value, message):
    code, err = _lint_snapshot(tmp_path, capsys, _snapshot(stats=_broken(STAT, path, value)))
    assert code == 2
    assert err == f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {message}\n"


def _paths(value, prefix=()):
    """Every position in a JSON document: each object key and each array index."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


SNAPSHOT_PATHS = list(_paths(_snapshot()))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(SNAPSHOT_PATHS), value=JSON_VALUES)
@example(path=("stats", 0, "coverage_percent"), value=10**400)  # too large for a float
def test_any_value_in_any_snapshot_field_ends_in_an_exit_code(tmp_path_factory, path, value):
    work = tmp_path_factory.mktemp("fuzz")
    snapshot = work / "snap.json"
    snapshot.write_text(json.dumps(_broken(_snapshot(), path, value)), encoding="utf-8")
    code = main(["lint", "--project", str(snapshot), "--out", str(work / "report.json")])
    assert code in (0, 1, 2)
