"""Every field check, pinned with its message, in export files and in snapshots.

Each export case breaks one field of an otherwise valid record: a missing
field, a wrong JSON type, an empty string where a non-empty one is
required, or a value out of range. The export readers must report it as one
positioned `ParseIssue`, and the same broken record written into a format-3
snapshot must make `lint` exit 2 with one line that names its collection
and its column or record.

Each snapshot case breaks the format-3 snapshot of the same records
(equal-length columns of epoch seconds, each name an index into the
``"strings"`` table) and must make `lint` exit 2 with
``<path> holds a malformed snapshot: <message>``: a cell of the wrong type
or out of range is named by its column and index, a record check that
fails by its collection and index, and a document of the wrong shape is
rejected as a whole. A case is written with its names inline and
`_encoded` moves every value in a name position into the table, so a bad
name meets the same check as in format 2; a cell that is no index into the
table is named the same way. A document of an unknown format, or with no
`format` key, exits 2 before any collection is read. The messages are part of the
tool's interface: they change only on purpose, and each change is listed
in `CHANGES.md`. Last, any JSON value at any position of a snapshot must
end `lint` with an exit code, never a traceback.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sprintlint.cli import main
from sprintlint.errors import ParseError
from sprintlint.ingest import (
    EXPORTS,
    IngestManifest,
    ParseIssue,
    load_history,
    load_snapshot,
    read_commits,
    read_issues,
    read_pulls,
    read_sprints,
    read_stats,
    write_snapshot,
)
from sprintlint.serialize import END_TS, FIRST_TS, parse_iso_utc

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

# record kind -> (base record, export kind, export reader)
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
        (kind, (key,), 7, key, f"{key!r} must be a string"),
        (kind, (key,), ["x"], key, f"{key!r} must be a string"),
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
        # quoted as given: the "Z" that the parse reads as "+00:00" is not echoed rewritten
        (kind, path, "99999-01-01T00:00:00Z", key,
         f"{key} is not valid ISO-8601: '99999-01-01T00:00:00Z' (Invalid isoformat string: '99999-01-01T00:00:00Z')"),
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
    ("story", ("state",), MISSING, "state", "missing field 'state'"),
    *[("story", ("state",), value, "state", "'state' must be 'open' or 'closed'")
      for value in (7, None, "", "pending")],
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


def _lint_document(tmp_path, capsys, doc: object) -> tuple[int, str]:
    """`lint`'s exit code and standard error for a snapshot holding the JSON of `doc`."""
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["lint", "--project", str(path), "--out", str(tmp_path / "report.json")])
    return code, capsys.readouterr().err


def _lint_snapshot(tmp_path, capsys, doc: dict) -> tuple[int, str]:
    """`_lint_document` of `doc`, a snapshot with its names inline, once they are moved into its string table."""
    return _lint_document(tmp_path, capsys, _encoded(doc))


def _written(tmp_path, history) -> dict:
    """The document `write_snapshot` writes for `history`."""
    path = tmp_path / "written.json"
    write_snapshot(path, history)
    return json.loads(path.read_text(encoding="utf-8"))


def test_base_records_are_valid(tmp_path, capsys):
    for kind, (record, _, reader) in KINDS.items():
        path = tmp_path / f"{kind}.json"
        text = json.dumps(record) if kind == "commit" else json.dumps([record])
        path.write_text(text, encoding="utf-8")
        records, issues = reader(path)
        assert issues == [] and len(records) == 1
    assert _lint_snapshot(tmp_path, capsys, COLUMNS) == (0, "")


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


# export kind of a JSON array file -> what its reader calls its entries
ENTRY_NAMES = {"issues": "stories", "sprints": "sprints", "pulls": "pull requests"}


@pytest.mark.parametrize("key", list(ENTRY_NAMES))
def test_array_export_entry_must_be_an_object(tmp_path, key):
    readers = {export_kind: reader for _, export_kind, reader in KINDS.values()}
    export = tmp_path / "export.json"
    export.write_text("[5]", encoding="utf-8")
    assert readers[key](export) == ([], [ParseIssue(0, None, f"{ENTRY_NAMES[key]} entry is not an object")])


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)


# --- snapshots: equal-length columns, timestamps as epoch seconds ------------


def _epoch(text: str) -> float:
    return parse_iso_utc(text)


# the base snapshot with its names inline: `_encoded` moves them into the string table
COLUMNS = {
    "format": 3,
    "commits": {
        "id": ["c1"], "author": ["ann@example.org"], "authored_at": [_epoch("2015-01-12T14:03:00Z")],
        "parents": [[]], "message": ["first"], "files": [[["src/a.py", 3, 1]]], "team": ["alpha"],
    },
    "issues": {
        "number": [1], "title": ["Story 1"], "body": [""], "state": ["closed"], "labels": [[]],
        "milestone_history": [[["s1", _epoch("2015-01-05T00:00:00Z")]]],
        "assignees": [["ann@example.org"]], "created_at": [_epoch("2015-01-04T00:00:00Z")],
        "closed_at": [_epoch("2015-01-18T00:00:00Z")], "team": ["alpha"],
    },
    "sprints": {
        "id": ["s1"], "title": ["Sprint 1"], "starts_at": [_epoch("2015-01-05T00:00:00Z")],
        "due_on": [_epoch("2015-01-19T00:00:00Z")], "team": ["alpha"],
    },
    "pulls": {
        "number": [1], "opened_at": [_epoch("2015-01-06T00:00:00Z")],
        "closed_at": [_epoch("2015-01-07T00:00:00Z")], "merged": [True], "comments": [2], "team": ["alpha"],
    },
    "stats": {"commit_id": ["c1"], "coverage_percent": [50.0], "complexity": [5.0]},
}

# each column holding names -> where its cells hold them: the cell itself, each item of an array,
# or the first field of each [path, added, deleted] or [sprint_id, assigned_at] entry
NAME_COLUMNS = {
    "commits.id": "cell", "commits.author": "cell", "commits.parents": "items", "commits.files": "entries",
    "commits.team": "cell", "issues.labels": "items", "issues.milestone_history": "entries",
    "issues.assignees": "items", "issues.team": "cell", "sprints.id": "cell", "sprints.team": "cell",
    "pulls.team": "cell", "stats.commit_id": "cell",
}


def _encoded(doc: dict) -> dict:
    """`doc`, a snapshot with its names inline, with each value in a name position moved into "strings".

    A name position is where a name column's shape puts one: a whole cell,
    each item of an array cell or the first field of an entry array; a cell
    or entry of another shape is left as it is. Each distinct value gets one
    index, in the order the values come in the file: collections, then
    their columns, by name, as `write_snapshot` writes them.
    """
    doc = copy.deepcopy(doc)
    strings: list = []
    indexes: dict[str, int] = {}

    def index(value) -> int:
        key = json.dumps(value)  # so 1, 1.0 and true get one index each
        if key not in indexes:
            indexes[key] = len(strings)
            strings.append(value)
        return indexes[key]

    for kind in sorted(doc):
        columns = doc[kind]
        for name in sorted(columns) if isinstance(columns, dict) else ():
            where, cells = NAME_COLUMNS.get(f"{kind}.{name}"), columns[name]
            if where is None or not isinstance(cells, list):
                continue
            for position, cell in enumerate(cells):
                if where == "cell":
                    cells[position] = index(cell)
                for item_position, item in enumerate(cell) if isinstance(cell, list) else ():
                    if where == "items":
                        cell[item_position] = index(item)
                    elif where == "entries" and isinstance(item, list) and item:
                        item[0] = index(item[0])
    doc["strings"] = strings
    return doc


ENCODED = _encoded(COLUMNS)

TRIPLE = "[path, added, deleted] triple of a non-empty string and two integers"
PAIR = "[sprint_id, assigned_at] pair of a non-empty string and epoch seconds in years 1 to 9999 (UTC)"
OUT_OF_RANGE = "out of range (years 1 to 9999 in UTC)"


def _wrong_epoch(column: str) -> list:
    return [
        (column, "2015-01-12T14:03:00Z",
         "must be a number of epoch seconds, got '2015-01-12T14:03:00Z'"),
        (column, True, "must be a number of epoch seconds, got True"),
        (column, float("nan"), f"{OUT_OF_RANGE}: nan"),  # JSON `NaN`
        (column, float("inf"), f"{OUT_OF_RANGE}: inf"),  # JSON `Infinity`
        (column, FIRST_TS - 1, f"{OUT_OF_RANGE}: {FIRST_TS - 1!r}"),
        (column, END_TS, f"{OUT_OF_RANGE}: {END_TS!r}"),
        (column, 10**400, f"{OUT_OF_RANGE}: {10**400!r}"),
    ]


# (collection.column, value of its first cell, message after ``<collection>.<column>[0]``)
COLUMN_CASES = [
    # ids, empty ones included
    ("commits.id", 7, ": must be a non-empty string, got 7"),
    ("commits.id", "", ": must be a non-empty string, got ''"),
    ("commits.author", "", ": must be a non-empty string, got ''"),
    ("commits.team", "", ": must be a non-empty string, got ''"),
    ("sprints.id", "", ": must be a non-empty string, got ''"),
    ("stats.commit_id", 1.5, ": must be a non-empty string, got 1.5"),
    ("stats.commit_id", "", ": must be a non-empty string, got ''"),
    # strings
    ("commits.message", None, ": must be a string, got None"),
    ("issues.title", ["x"], ": must be a string, got ['x']"),
    # integers
    ("issues.number", "1", ": must be an integer, got '1'"),
    ("issues.number", True, ": must be an integer, got True"),
    ("pulls.comments", 1.5, ": must be an integer, got 1.5"),
    # booleans
    ("pulls.merged", 1, ": must be a boolean, got 1"),
    ("pulls.merged", None, ": must be a boolean, got None"),
    # epochs
    *[(column, value, f": {message}") for column in ("commits.authored_at", "issues.created_at",
                                                      "sprints.starts_at", "sprints.due_on",
                                                      "pulls.opened_at")
      for column, value, message in _wrong_epoch(column)],
    ("commits.authored_at", None, ": must be a number of epoch seconds, got None"),
    # optional epochs
    *[(column, value, f": {message}") for column in ("issues.closed_at", "pulls.closed_at")
      for column, value, message in _wrong_epoch(column)],
    # numbers
    ("stats.coverage_percent", "50", ": must be a number, got '50'"),
    ("stats.coverage_percent", True, ": must be a number, got True"),
    ("stats.complexity", None, ": must be a number, got None"),
    # string lists
    ("commits.parents", "abc", ": must be an array of strings, got 'abc'"),
    ("commits.parents", [1], ": must be an array of strings, got [1]"),
    ("issues.labels", [None], ": must be an array of strings, got [None]"),
    ("issues.assignees", {"a": "b"}, ": must be an array of strings, got {'a': 'b'}"),
    # story states
    ("issues.state", "pending", ": must be 'open' or 'closed', got 'pending'"),
    ("issues.state", ["open"], ": must be 'open' or 'closed', got ['open']"),
    # file triples
    ("commits.files", "abc", ": must be an array of [path, added, deleted] triples, got 'abc'"),
    ("commits.files", [["src/a.py", 3]], f"[0]: must be a {TRIPLE}, got ['src/a.py', 3]"),
    ("commits.files", [["src/a.py", 3, 1, 0]], f"[0]: must be a {TRIPLE}, got ['src/a.py', 3, 1, 0]"),
    ("commits.files", [["src/a.py", 3, 1], ["src/b.py", 3, True]],
     f"[1]: must be a {TRIPLE}, got ['src/b.py', 3, True]"),
    ("commits.files", [[5, 3, 1]], f"[0]: must be a {TRIPLE}, got [5, 3, 1]"),
    ("commits.files", [["", 3, 1]], f"[0]: must be a {TRIPLE}, got ['', 3, 1]"),
    ("commits.files", [["src/a.py", "3", 1]], f"[0]: must be a {TRIPLE}, got ['src/a.py', '3', 1]"),
    ("commits.files", [{"path": "src/a.py", "added": 3, "deleted": 1}],
     f"[0]: must be a {TRIPLE}, got {{'path': 'src/a.py', 'added': 3, 'deleted': 1}}"),
    # membership pairs
    ("issues.milestone_history", "s1", ": must be an array of [sprint_id, assigned_at] pairs, got 's1'"),
    ("issues.milestone_history", [["s1"]], f"[0]: must be a {PAIR}, got ['s1']"),
    ("issues.milestone_history", [[1, 1.0]], f"[0]: must be a {PAIR}, got [1, 1.0]"),
    ("issues.milestone_history", [["", 0.0]], f"[0]: must be a {PAIR}, got ['', 0.0]"),
    ("issues.milestone_history", [["s1", "2015-01-05T00:00:00Z"]],
     f"[0]: must be a {PAIR}, got ['s1', '2015-01-05T00:00:00Z']"),
    ("issues.milestone_history", [["s1", float("nan")]], f"[0]: must be a {PAIR}, got ['s1', nan]"),
    ("issues.milestone_history", [["s1", True]], f"[0]: must be a {PAIR}, got ['s1', True]"),
    ("issues.milestone_history", [["s1", END_TS]], f"[0]: must be a {PAIR}, got ['s1', {END_TS!r}]"),
]

# (collection.column, value of its first cell, the record constructor's message)
CONSTRUCTOR_CASES = [
    ("commits.files", [["src/a.py", -1, 1]], "lines_added < 0 for src/a.py"),
    ("issues.number", 0, "story number must be positive, got 0"),
    ("issues.state", "open", "open story #1 carries closed_at"),
    ("issues.closed_at", None, "closed story #1 lacks closed_at"),
    ("issues.milestone_history", [["s1", 0.0], ["s1", 1.0]], "story #1 (alpha) has duplicate sprint memberships"),
    ("sprints.due_on", _epoch("2015-01-05T00:00:00Z"), "sprint s1 must start before it is due"),
    ("pulls.number", -2, "pull request number must be positive, got -2"),
    ("pulls.closed_at", None, "merged pull request #1 lacks closed_at"),
    ("pulls.comments", -1, "pull request #1 comment_count < 0"),
    ("stats.coverage_percent", 101, "coverage_percent out of [0,100] for commit c1"),
    ("stats.coverage_percent", float("nan"), "coverage_percent out of [0,100] for commit c1"),
    # integers beyond float range read as infinite, as in a stats CSV
    ("stats.coverage_percent", 10**400, "coverage_percent out of [0,100] for commit c1"),
    ("stats.complexity", 10**400, "complexity is not finite for commit c1"),
    ("stats.complexity", float("inf"), "complexity is not finite for commit c1"),  # JSON `Infinity`
]


EPOCH_FIELDS = {"authored_at", "created_at", "closed_at", "starts_at", "due_on", "opened_at", "assigned_at"}
# fields holding arrays of objects in an export and arrays of arrays in a snapshot
ENTRY_FIELDS = {"files", "milestone_history"}


def _cell(name: str, value):
    """An export field's value as a snapshot cell; a break in the export stays a break in the cell.

    Timestamps that parse become epoch seconds; one that does not stays
    text (JSON text for a non-string, since a number is an epoch), and a
    null stays null. Objects in an array become arrays of their values, as
    in the [path, added, deleted] triples and [sprint_id, assigned_at] pairs.
    """
    if name in EPOCH_FIELDS and value is not None:
        try:
            return parse_iso_utc(value)
        except ParseError:
            return value if isinstance(value, str) else json.dumps(value)
    if isinstance(value, list):
        return [[_cell(key, part) for key, part in entry.items()] if isinstance(entry, dict) else entry
                for entry in value]
    return value


def _snapshot_with(key: str, record: dict) -> dict:
    """The base snapshot with collection `key` holding `record`, an export record, as its one row."""
    doc = copy.deepcopy(COLUMNS)
    doc[key] = {name: [_cell(name, value)] for name, value in record.items()}
    return doc


def _columns_with(column: str, value) -> dict:
    doc = copy.deepcopy(COLUMNS)
    kind, name = column.split(".")
    doc[kind][name][0] = value
    return doc


def _cell_id(case) -> str:
    column, value, _ = case
    return f"{column}={value!r}"[:80]


def test_columnar_base_loads_like_the_record_base(tmp_path, capsys):
    (tmp_path / "columns.json").write_text(json.dumps(ENCODED), encoding="utf-8")
    exports = {kind: tmp_path / name for kind, name in EXPORTS.items()}
    exports["commits"].write_text(json.dumps(COMMIT) + "\n", encoding="utf-8")
    for record, kind, _ in KINDS.values():
        if kind != "commits":
            exports[kind].write_text(json.dumps([record]), encoding="utf-8")
    exports["stats"].write_text(f"commit_id,coverage_percent,complexity\nc1,{STAT['coverage_percent']},"
                                f"{STAT['complexity']}\n", encoding="utf-8")
    history = load_snapshot(tmp_path / "columns.json")
    assert load_history(IngestManifest(paths=exports)) == (history, [])
    assert all(_snapshot_with(key, record) == COLUMNS for record, key, _ in KINDS.values())
    assert _written(tmp_path, history) == ENCODED
    assert ENCODED["strings"] == ["ann@example.org", "src/a.py", "c1", "alpha", "s1"]
    assert _lint_snapshot(tmp_path, capsys, COLUMNS) == (0, "")


@pytest.mark.parametrize("case", COLUMN_CASES, ids=_cell_id)
def test_columnar_snapshot_rejects_a_cell(tmp_path, capsys, case):
    column, value, message = case
    code, err = _lint_snapshot(tmp_path, capsys, _columns_with(column, value))
    assert code == 2
    assert err == f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {column}[0]{message}\n"


# (collection.column, its first cell in the encoded base, message after ``<collection>.<column>[0]``)
INDEX_CASES = [
    ("commits.id", -1, ": must be an index into strings, got -1"),
    ("commits.id", len(ENCODED["strings"]), f": must be an index into strings, got {len(ENCODED['strings'])}"),
    ("commits.author", True, ": must be an index into strings, got True"),
    ("commits.team", 3.0, ": must be an index into strings, got 3.0"),
    ("sprints.team", None, ": must be an index into strings, got None"),
    ("stats.commit_id", "c1", ": must be an index into strings, got 'c1'"),
    ("commits.parents", [2, -1], "[1]: must be an index into strings, got -1"),
    ("commits.parents", [2, len(ENCODED["strings"])], f"[1]: must be an index into strings, got {len(ENCODED['strings'])}"),
    ("issues.labels", ["x"], "[0]: must be an index into strings, got 'x'"),
    ("issues.assignees", [[0]], "[0]: must be an index into strings, got [0]"),
    ("commits.files", [[1, 3, 1], [99, 1, 1]], "[1][0]: must be an index into strings, got 99"),
    ("issues.milestone_history", [["s1", 0.0]], "[0][0]: must be an index into strings, got 's1'"),
]


@pytest.mark.parametrize("case", INDEX_CASES, ids=_cell_id)
def test_columnar_snapshot_rejects_a_name_that_is_no_index(tmp_path, capsys, case):
    column, value, message = case
    doc = copy.deepcopy(ENCODED)
    kind, name = column.split(".")
    doc[kind][name][0] = value
    code, err = _lint_document(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {column}[0]{message}\n")


def test_a_now_flag_that_is_no_timestamp_is_quoted_as_given(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(ENCODED), encoding="utf-8")
    capsys.readouterr()
    now = "99999-01-01T00:00:00Z"
    assert main(["lint", "--project", str(path), "--now", now, "--out", str(tmp_path / "report.json")]) == 2
    assert capsys.readouterr().err == f"error: --now is not valid ISO-8601: {now!r} (Invalid isoformat string: {now!r})\n"


@pytest.mark.parametrize("case", CONSTRUCTOR_CASES, ids=_cell_id)
def test_columnar_snapshot_reports_a_record_check_by_index(tmp_path, capsys, case):
    column, value, message = case
    code, err = _lint_snapshot(tmp_path, capsys, _columns_with(column, value))
    assert code == 2
    kind = column.split(".")[0]
    assert err == f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {kind}[0]: {message}\n"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_snapshot_rejects(tmp_path, capsys, case):
    kind, path, value, field_name, message = case
    base, key, _ = KINDS[kind]
    code, err = _lint_snapshot(tmp_path, capsys, _snapshot_with(key, _broken(base, path, value)))
    prefix = f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: "
    assert code == 2 and err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    reason = err[len(prefix):-1]
    if value is MISSING and len(path) == 1:
        assert reason == f"missing column {key}.{path[0]}"
    elif field_name is None:  # a record check: the snapshot runs the export readers' own
        assert reason == f"{key}[0]: {message}"
    elif path == (field_name,) and field_name not in EPOCH_FIELDS | ENTRY_FIELDS:
        # one check per column kind: the export's phrase, in the snapshot's frame
        expected = message.removeprefix(f"{field_name!r} must be ")
        assert expected != message and reason.startswith(f"{key}.{field_name}[0]: must be {expected}, got ")
    else:
        assert reason.startswith((f"{key}.{path[0]}[0]: ", f"{key}.{path[0]}[0][", f"{key}[0]: "))


def test_columnar_snapshot_names_the_first_bad_cell_and_record(tmp_path, capsys):
    doc = copy.deepcopy(COLUMNS)
    commits = doc["commits"]
    for name, cells in commits.items():
        cells.append(cells[0])
    commits["id"] = ["c0", "c1"]
    commits["files"][1] = [["src/a.py", -1, 1]]  # a record check, which the column accepts
    code, err = _lint_snapshot(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: "
                              "commits[1]: lines_added < 0 for src/a.py\n")
    commits["authored_at"][1] = "yesterday"
    code, err = _lint_snapshot(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: "
                              "commits.authored_at[1]: must be a number of epoch seconds, got 'yesterday'\n")


def _commit_columns(count: int) -> dict:
    """The base snapshot with `count` copies of its commit, ids ``c0`` to ``c<count - 1>``."""
    doc = copy.deepcopy(COLUMNS)
    commits = doc["commits"]
    for name, cells in commits.items():
        commits[name] = [copy.deepcopy(cells[0]) for _ in range(count)]
    commits["id"] = [f"c{index}" for index in range(count)]
    return doc


def test_columnar_snapshot_names_a_failing_last_record(tmp_path, capsys):
    doc = _commit_columns(4)
    doc["commits"]["files"][3] = [["src/a.py", 1, 1], ["src/b.py", 1, -2]]
    code, err = _lint_snapshot(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: "
                              "commits[3]: lines_deleted < 0 for src/b.py\n")


def test_columnar_snapshot_names_a_malformed_entry_by_cell_and_entry(tmp_path, capsys):
    doc = _commit_columns(3)
    doc["commits"]["files"][1] = [["src/a.py", 1, 1], ["src/b.py", "2", 1], ["src/c.py", 1, 1]]
    code, err = _lint_snapshot(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: "
                              "commits.files[1][1]: must be a [path, added, deleted] triple of a non-empty "
                              "string and two integers, got ['src/b.py', '2', 1]\n")


def test_columnar_snapshot_reads_integer_epochs_as_floats(tmp_path):
    doc = copy.deepcopy(COLUMNS)
    for kind, name in (("commits", "authored_at"), ("sprints", "starts_at"), ("pulls", "closed_at"),
                       ("stats", "complexity")):
        doc[kind][name][0] = int(doc[kind][name][0])
    doc["issues"]["milestone_history"][0][0][1] = int(doc["issues"]["milestone_history"][0][0][1])
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_encoded(doc)), encoding="utf-8")
    history = load_snapshot(path)
    assert _written(tmp_path, history) == ENCODED
    assert type(history.sprints[0].starts_at) is float and type(history.pulls[0].closed_at) is float
    pulls = doc["pulls"]  # and an optional epoch column holding a null and an integer
    for cells in pulls.values():
        cells.insert(0, cells[0])
    pulls["number"], pulls["merged"], pulls["closed_at"][0] = [1, 2], [False, True], None
    path.write_text(json.dumps(_encoded(doc)), encoding="utf-8")
    closed = tuple(pull.closed_at for pull in load_snapshot(path).pulls)
    assert closed == (None, COLUMNS["pulls"]["closed_at"][0]) and type(closed[1]) is float


def _without(kind: str, name: str | None = None):
    def edit(doc):
        del (doc[kind] if name else doc)[name or kind]
    return edit


def _setting(kind: str, name: str | None, value):
    def edit(doc):
        (doc[kind] if name else doc)[name or kind] = value
    return edit


# edit of the encoded base document -> the message after ``<path> holds a malformed snapshot: ``
DOCUMENT_CASES = {
    "missing-collection": (_without("pulls"), "missing collection 'pulls'"),
    "missing-strings": (_without("strings"), "missing key 'strings'"),
    "strings-as-object": (_setting("strings", None, {"0": "c1"}), "'strings' must be an array"),
    "strings-as-null": (_setting("strings", None, None), "'strings' must be an array"),
    "missing-column": (_without("commits", "files"), "missing column commits.files"),
    "unknown-key": (_setting("diagnostics", None, []), "unknown key 'diagnostics'"),
    "unknown-column": (_setting("commits", "extra", ["x"]), "unknown column commits.extra"),
    "unequal-lengths": (_setting("commits", "team", ["alpha", "beta"]), "commits.team has 2 entries, commits.id has 1"),
    "collection-as-array": (_setting("pulls", None, []), "'pulls' must be an object of columns"),
    "column-as-string": (_setting("stats", "commit_id", "c1"), "stats.commit_id must be an array"),
}


@pytest.mark.parametrize("edit, message", DOCUMENT_CASES.values(), ids=list(DOCUMENT_CASES))
def test_columnar_snapshot_rejects_a_document_shape(tmp_path, capsys, edit, message):
    doc = copy.deepcopy(ENCODED)
    edit(doc)
    code, err = _lint_document(tmp_path, capsys, doc)
    assert (code, err) == (2, f"error: {tmp_path / 'snap.json'} holds a malformed snapshot: {message}\n")


@pytest.mark.parametrize("version", [4, 1, "2", "3", 3.0, 2.0, True, None])
def test_snapshot_of_an_unknown_format_exits_2(tmp_path, capsys, version):
    for doc in (ENCODED | {"format": version}, {"format": version, "commits": []}):
        code, err = _lint_document(tmp_path, capsys, doc)
        assert (code, err) == (2, f"error: {tmp_path / 'snap.json'}: unsupported snapshot format {version!r}\n")


def test_snapshot_of_format_2_names_its_fix(tmp_path, capsys):
    inline = {"format": 2, **{kind: COLUMNS[kind] for kind in EXPORTS}}  # as format 2 was written
    for doc in (inline, ENCODED | {"format": 2}):
        code, err = _lint_document(tmp_path, capsys, doc)
        assert (code, err) == (2, f"error: {tmp_path / 'snap.json'}: unsupported snapshot format 2; "
                                  "re-run `sprintlint ingest` to write format 3\n")


# documents without a "format" key, as earlier versions wrote them or as a hand edit leaves them
UNVERSIONED = {
    "empty": {},
    "misspelt-collection": {"comits": []},
    "empty-collection": {"commits": []},
    "records": {"commits": [COMMIT], "issues": [STORY], "sprints": [SPRINT], "pulls": [PULL], "stats": [STAT]},
}


@pytest.mark.parametrize("doc", UNVERSIONED.values(), ids=list(UNVERSIONED))
def test_snapshot_without_a_format_key_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "snap.json"
    expected = (f'error: {path}: snapshot has no "format" key; '
                "re-run `sprintlint ingest` to write format 3\n")
    assert _lint_document(tmp_path, capsys, doc) == (2, expected)
    assert main(["score", "--project", str(path), "--out", str(tmp_path / "trend.csv")]) == 2
    assert capsys.readouterr().err == expected


COLUMN_PATHS = list(_paths(ENCODED))


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(COLUMN_PATHS), value=JSON_VALUES)
@example(path=("stats", "coverage_percent", 0), value=10**400)  # too large for a float
def test_any_value_in_any_columnar_snapshot_field_ends_in_an_exit_code(tmp_path_factory, path, value):
    work = tmp_path_factory.mktemp("fuzz")
    snapshot = work / "snap.json"
    snapshot.write_text(json.dumps(_broken(ENCODED, path, value)), encoding="utf-8")
    code = main(["lint", "--project", str(snapshot), "--out", str(work / "report.json")])
    assert code in (0, 1, 2)
