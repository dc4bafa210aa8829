"""Readers and writers for the canonical export formats.

Formats:
  commits  -- newline-delimited JSON, one commit object per line
  issues   -- JSON array of user stories
  sprints  -- JSON array of sprint definitions
  pulls    -- JSON array of pull requests
  stats    -- CSV with header ``commit_id,coverage_percent,complexity``

Readers collect malformed records as positioned issues instead of aborting,
so one bad line does not hide the rest of a file. Unknown extra fields in
an export file are ignored for forward compatibility. Writers emit the same
schemas back out; write-then-read of any valid record set is the identity.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
import re
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from itertools import chain, starmap
from operator import attrgetter, itemgetter
from pathlib import Path

from .errors import ParseError, RecordError
from .model import (
    BuildStats,
    Commit,
    FileChange,
    ProjectHistory,
    PullRequest,
    Sprint,
    SprintMembership,
    StoryState,
    UserStory,
    build_history,
)
from .serialize import (
    END_TS,
    FIRST_TS,
    canonical_json,
    check_unicode,
    format_iso_utc,
    parse_iso_utc,
    read_json,
    read_text,
    write_text,
)

_CHECKBOX_LINE = re.compile(r"^[ \t]*[-*] \[[ xX]\]")


def count_checkboxes(body: str) -> int:
    """Count task-list items: a dash or star bullet followed by ``[ ]``, ``[x]`` or ``[X]``."""
    return sum(1 for line in body.splitlines() if _CHECKBOX_LINE.match(line))


def story_text_length(title: str, body: str) -> int:
    """Story size in characters, whitespace-normalized.

    Runs of whitespace collapse to a single space; title and body are joined
    by one space when both are non-empty. Code blocks in the body count.
    """
    head = " ".join(title.split())
    tail = " ".join(body.split())
    if head and tail:
        return len(head) + 1 + len(tail)
    return len(head) + len(tail)


@dataclass(frozen=True)
class ParseIssue:
    """One malformed record, positioned within its source file."""

    location: int
    field: str | None
    message: str

    def render(self, path: str | Path) -> str:
        suffix = f" (field {self.field})" if self.field else ""
        return f"{path}:{self.location}: {self.message}{suffix}"


# export kind -> the file name `generate` writes it under, in `build_history` argument order
EXPORTS = {
    "commits": "commits.ndjson",
    "issues": "issues.json",
    "sprints": "sprints.json",
    "pulls": "pulls.json",
    "stats": "stats.csv",
}


@dataclass(frozen=True)
class IngestManifest:
    """Which export files to read (export kind -> path) and how to normalize identities."""

    paths: Mapping[str, Path] = field(default_factory=dict)
    team_map: Mapping[str, str] = field(default_factory=dict)
    alias_map: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = [kind for kind in self.paths if kind not in EXPORTS]
        if unknown:
            raise ParseError(f"unknown export kind {unknown[0]!r} in manifest")
        for key in ("team_map", "alias_map"):
            value = getattr(self, key)
            if not isinstance(value, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in value.items()
            ):
                raise ParseError(f"{key} must be an object mapping names to strings")
        if "commits" not in self.paths and "issues" not in self.paths:
            raise ParseError("manifest needs at least a commits or an issues file")
        if len(set(self.paths.values())) != len(self.paths):
            raise ParseError("manifest paths must be distinct")


class _FieldError(Exception):
    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(message)
        self.field_name = field_name


def _need(obj: Mapping, key: str):
    try:
        return obj[key]
    except KeyError:
        raise _FieldError(key, f"missing field {key!r}") from None


def _as_str(obj: Mapping, key: str, allow_empty: bool = False) -> str:
    value = _need(obj, key)
    if not isinstance(value, str) or (not allow_empty and not value):
        raise _FieldError(key, f"{key!r} must be a non-empty string")
    return value


def _as_int(obj: Mapping, key: str) -> int:
    value = _need(obj, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _FieldError(key, f"{key!r} must be an integer")
    return value


def _as_bool(obj: Mapping, key: str) -> bool:
    value = _need(obj, key)
    if not isinstance(value, bool):
        raise _FieldError(key, f"{key!r} must be a boolean")
    return value


def _as_ts(obj: Mapping, key: str) -> float:
    value = _need(obj, key)
    try:
        return parse_iso_utc(value, key)
    except ParseError as exc:
        raise _FieldError(key, str(exc)) from None


def _as_opt_ts(obj: Mapping, key: str) -> float | None:
    value = obj.get(key)
    if value is None:
        return None
    try:
        return parse_iso_utc(value, key)
    except ParseError as exc:
        raise _FieldError(key, str(exc)) from None


def _int_as_float(value: int) -> float:
    try:
        return float(value)
    except OverflowError:  # read as infinite, as a stats CSV reads such a number
        return math.inf if value > 0 else -math.inf


def _as_str_list(obj: Mapping, key: str) -> list[str]:
    value = _need(obj, key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _FieldError(key, f"{key!r} must be an array of strings")
    return value


def _commit_from_dict(raw: Mapping, team_map: Mapping[str, str], alias_map: Mapping[str, str]) -> Commit:
    files = []
    raw_files = _need(raw, "files")
    if not isinstance(raw_files, list):
        raise _FieldError("files", "'files' must be an array")
    for i, entry in enumerate(raw_files):
        # json.loads builds every object as a dict; a Mapping test costs ten times more
        if not isinstance(entry, dict):
            raise _FieldError("files", f"files[{i}] must be an object")
        # FileChange, Commit and BuildStats, built per row, take positional arguments:
        # a keyword call costs 0.3-0.9 us more, as much as the positional call itself
        files.append(FileChange(_as_str(entry, "path"), _as_int(entry, "added"), _as_int(entry, "deleted")))
    author = _as_str(raw, "author")
    author = alias_map.get(author, author)
    team = _as_str(raw, "team")
    return Commit(
        _as_str(raw, "id"),
        author,
        _as_ts(raw, "authored_at"),
        _as_str_list(raw, "parents"),
        _as_str(raw, "message", allow_empty=True),
        files,
        team_map.get(team, team),
    )


def _story_from_dict(raw: Mapping, team_map: Mapping[str, str], alias_map: Mapping[str, str]) -> UserStory:
    state_raw = _as_str(raw, "state")
    try:
        state = StoryState(state_raw)
    except ValueError:
        raise _FieldError("state", f"state must be 'open' or 'closed', got {state_raw!r}") from None
    memberships = []
    raw_history = _need(raw, "milestone_history")
    if not isinstance(raw_history, list):
        raise _FieldError("milestone_history", "'milestone_history' must be an array")
    for i, entry in enumerate(raw_history):
        if not isinstance(entry, dict):
            raise _FieldError("milestone_history", f"milestone_history[{i}] must be an object")
        memberships.append(
            SprintMembership(
                sprint_id=_as_str(entry, "sprint_id"),
                assigned_at=_as_ts(entry, "assigned_at"),
            )
        )
    team = _as_str(raw, "team")
    assignees = [alias_map.get(a, a) for a in _as_str_list(raw, "assignees")]
    return UserStory(
        number=_as_int(raw, "number"),
        title=_as_str(raw, "title", allow_empty=True),
        body=_as_str(raw, "body", allow_empty=True),
        state=state,
        labels=_as_str_list(raw, "labels"),
        milestones=memberships,
        assignees=assignees,
        created_at=_as_ts(raw, "created_at"),
        closed_at=_as_opt_ts(raw, "closed_at"),
        team=team_map.get(team, team),
    )


def _sprint_from_dict(raw: Mapping, team_map: Mapping[str, str]) -> Sprint:
    team = _as_str(raw, "team")
    return Sprint(
        id=_as_str(raw, "id"),
        title=_as_str(raw, "title", allow_empty=True),
        starts_at=_as_ts(raw, "starts_at"),
        due_on=_as_ts(raw, "due_on"),
        team=team_map.get(team, team),
    )


def _pull_from_dict(raw: Mapping, team_map: Mapping[str, str]) -> PullRequest:
    team = _as_str(raw, "team")
    return PullRequest(
        number=_as_int(raw, "number"),
        opened_at=_as_ts(raw, "opened_at"),
        closed_at=_as_opt_ts(raw, "closed_at"),
        merged=_as_bool(raw, "merged"),
        comment_count=_as_int(raw, "comments"),
        team=team_map.get(team, team),
    )


def read_commits(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list[Commit], list[ParseIssue]]:
    """Read newline-delimited commit records, collecting bad lines with their numbers."""
    team_map = team_map or {}
    alias_map = alias_map or {}
    records: list[Commit] = []
    issues: list[ParseIssue] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            check_unicode(line, raw)
            if not isinstance(raw, dict):
                raise _FieldError("", "line is not a JSON object")
            records.append(_commit_from_dict(raw, team_map, alias_map))
        except json.JSONDecodeError as exc:
            issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc.msg}"))
        except RecursionError as exc:
            issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc}"))
        except (_FieldError, ValueError) as exc:
            field_name = exc.field_name if isinstance(exc, _FieldError) else None
            issues.append(ParseIssue(lineno, field_name or None, str(exc)))
    return records, issues


def _read_array_file(path: str | Path, what: str, parser: Callable) -> tuple[list, list[ParseIssue]]:
    """Parse each entry of a JSON array file, collecting bad ones by their index."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ParseError(f"{path} must contain a JSON array of {what}")
    records = []
    issues: list[ParseIssue] = []
    for index, raw in enumerate(rows):
        try:
            if not isinstance(raw, dict):
                raise _FieldError("", f"{what} entry is not an object")
            records.append(parser(raw))
        except (_FieldError, ValueError) as exc:
            field_name = exc.field_name if isinstance(exc, _FieldError) else None
            issues.append(ParseIssue(index, field_name or None, str(exc)))
    return records, issues


def read_issues(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list[UserStory], list[ParseIssue]]:
    tm, am = team_map or {}, alias_map or {}
    return _read_array_file(path, "stories", lambda raw: _story_from_dict(raw, tm, am))


def read_sprints(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[Sprint], list[ParseIssue]]:
    tm = team_map or {}
    return _read_array_file(path, "sprints", lambda raw: _sprint_from_dict(raw, tm))


def read_pulls(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[PullRequest], list[ParseIssue]]:
    tm = team_map or {}
    return _read_array_file(path, "pull requests", lambda raw: _pull_from_dict(raw, tm))


STATS_HEADER = ("commit_id", "coverage_percent", "complexity")


def read_stats(path: str | Path) -> tuple[list[BuildStats], list[ParseIssue]]:
    """Read the per-commit stats table; rows with out-of-range coverage are rejected."""
    # the reader sees the raw text, so a quoted field may span lines
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    records: list[BuildStats] = []
    issues: list[ParseIssue] = []
    try:
        if tuple(next(reader, ())) != STATS_HEADER:
            raise ParseError(f"{path} must start with header {','.join(STATS_HEADER)!r}")
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != 3:
                issues.append(ParseIssue(lineno, None, f"expected 3 columns, got {len(row)}"))
                continue
            commit_id = row[0]
            try:
                coverage = float(row[1])
                complexity = float(row[2])
            except ValueError:
                issues.append(ParseIssue(lineno, None, f"non-numeric stats for commit {commit_id!r}"))
                continue
            try:
                records.append(BuildStats(commit_id, coverage, complexity))
            except ValueError as exc:
                issues.append(ParseIssue(lineno, None, str(exc)))
    except csv.Error as exc:
        # e.g. a field over csv.field_size_limit(); the field may be quoted across
        # lines, so no row after it can be trusted
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return records, issues


def load_history(manifest: IngestManifest) -> tuple[ProjectHistory | None, list[str]]:
    """Read every file named by the manifest and build the validated history.

    Returns the history plus the rendered parse issues, each with its file
    position; shallow-parent flags from assembly stay in the history's
    `diagnostics`. When any record failed to parse, the history is None: its
    cross-references are not checked, since they may name a rejected record.
    Raises on unreadable files or cross-reference failures.
    """
    maps = {"team_map": manifest.team_map, "alias_map": manifest.alias_map}
    records: list[list] = []
    diagnostics: list[str] = []
    for kind in EXPORTS:
        path = manifest.paths.get(kind)
        if path is None:
            records.append([])
            continue
        # looked up by name on each call, so a tracer that swaps the module's readers sees it
        reader = globals()[f"read_{kind}"]
        accepted = inspect.signature(reader).parameters
        found, issues = reader(path, **{k: v for k, v in maps.items() if k in accepted})
        records.append(found)
        diagnostics.extend(i.render(path) for i in issues)

    if diagnostics:
        return None, diagnostics
    return build_history(*records), diagnostics


# --- writers ---------------------------------------------------------------


def commit_to_dict(commit: Commit) -> dict:
    return {
        "id": commit.id,
        "author": commit.author,
        "authored_at": format_iso_utc(commit.authored_at),
        "parents": list(commit.parents),
        "message": commit.message,
        "files": [
            {"path": f.path, "added": f.lines_added, "deleted": f.lines_deleted}
            for f in commit.files
        ],
        "team": commit.team,
    }


def story_to_dict(story: UserStory) -> dict:
    return {
        "number": story.number,
        "title": story.title,
        "body": story.body,
        "state": story.state.value,
        "labels": sorted(story.labels),
        "milestone_history": [
            {"sprint_id": m.sprint_id, "assigned_at": format_iso_utc(m.assigned_at)}
            for m in story.milestones
        ],
        "assignees": sorted(story.assignees),
        "created_at": format_iso_utc(story.created_at),
        "closed_at": None if story.closed_at is None else format_iso_utc(story.closed_at),
        "team": story.team,
    }


def sprint_to_dict(sprint: Sprint) -> dict:
    return {
        "id": sprint.id,
        "title": sprint.title,
        "starts_at": format_iso_utc(sprint.starts_at),
        "due_on": format_iso_utc(sprint.due_on),
        "team": sprint.team,
    }


def pull_to_dict(pull: PullRequest) -> dict:
    return {
        "number": pull.number,
        "opened_at": format_iso_utc(pull.opened_at),
        "closed_at": None if pull.closed_at is None else format_iso_utc(pull.closed_at),
        "merged": pull.merged,
        "comments": pull.comment_count,
        "team": pull.team,
    }


def write_commits(path: str | Path, commits: Iterable[Commit]) -> None:
    lines = [canonical_json(commit_to_dict(c)) for c in commits]
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_issues(path: str | Path, stories: Iterable[UserStory]) -> None:
    write_text(path, canonical_json([story_to_dict(s) for s in stories]) + "\n")


def write_sprints(path: str | Path, sprints: Iterable[Sprint]) -> None:
    write_text(path, canonical_json([sprint_to_dict(s) for s in sprints]) + "\n")


def write_pulls(path: str | Path, pulls: Iterable[PullRequest]) -> None:
    write_text(path, canonical_json([pull_to_dict(p) for p in pulls]) + "\n")


def write_stats(path: str | Path, stats: Iterable[BuildStats]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(STATS_HEADER)
    writer.writerows((s.commit_id, repr(s.coverage_percent), repr(s.complexity)) for s in stats)
    write_text(path, out.getvalue())


# --- snapshot (the validated single-file form the CLI passes between steps) -
#
# `write_snapshot` writes format 2: ``{"format": 2, "commits": {...}, ...}``,
# each collection an object of equal-length columns named like the export
# fields, every timestamp a JSON number of epoch seconds (written as the
# float's repr, so it reads back exactly), each commit's files a list of
# ``[path, added, deleted]`` triples and each story's milestone history a
# list of ``[sprint_id, assigned_at]`` pairs.

SNAPSHOT_FORMAT = 2


class _Malformed(Exception):
    """A format-2 snapshot fails a check; `where` positions a failing cell in its column, as ``[17]``."""

    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(message)
        self.where = where


def _all_of(cls: type, values: Iterable) -> bool:
    return set(map(type, values)) <= {cls}


def _reject_first(values: list, check: Callable[[object], None]) -> None:
    """Raise for the first of `values` that `check` rejects, prefixed with its index."""
    for index, value in enumerate(values):
        try:
            check(value)
        except _Malformed as exc:
            raise _Malformed(str(exc), f"[{index}]{exc.where}") from None


def _typed_column(cls: type, expected: str) -> Callable[[list], list]:
    def check(value: object) -> None:
        if type(value) is not cls:  # a type test, so a bool is no integer
            raise _Malformed(f"must be {expected}, got {value!r}")

    def load(values: list) -> list:
        if not _all_of(cls, values):
            _reject_first(values, check)
        return values

    return load


def _within_range(stamps: list) -> bool:
    """Whether every float of `stamps` lies in [FIRST_TS, END_TS)."""
    # a finite sum means no stamp is NaN or infinite, so min and max are exact
    return not stamps or (math.isfinite(sum(stamps)) and FIRST_TS <= min(stamps) and max(stamps) < END_TS)


def _is_number(value: object) -> bool:
    return type(value) is float or type(value) is int  # a type test, so a bool is no number


def _is_epoch(value: object) -> bool:
    return _is_number(value) and FIRST_TS <= value < END_TS


def _check_epoch(value: object) -> None:
    if not _is_number(value):
        raise _Malformed(f"must be a number of epoch seconds, got {value!r}")
    if not FIRST_TS <= value < END_TS:
        raise _Malformed(f"out of range (years 1 to 9999 in UTC): {value!r}")


def _load_epochs(values: list) -> list:
    if _all_of(float, values) and _within_range(values):
        return values
    _reject_first(values, _check_epoch)
    return list(map(float, values))


def _check_optional_epoch(value: object) -> None:
    if value is not None:
        _check_epoch(value)


def _load_optional_epochs(values: list) -> list:
    present = [v for v in values if v is not None]
    if _all_of(float, present) and _within_range(present):
        return values
    _reject_first(values, _check_optional_epoch)
    return [None if v is None else float(v) for v in values]


def _check_number(value: object) -> None:
    if not _is_number(value):
        raise _Malformed(f"must be a number, got {value!r}")


def _load_numbers(values: list) -> list:
    if _all_of(float, values):
        return values
    _reject_first(values, _check_number)
    return [v if type(v) is float else _int_as_float(v) for v in values]


def _check_str_list(value: object) -> None:
    if type(value) is not list or not _all_of(str, value):
        raise _Malformed(f"must be an array of strings, got {value!r}")


def _load_str_lists(values: list) -> list:
    if not (_all_of(list, values) and _all_of(str, chain.from_iterable(values))):
        _reject_first(values, _check_str_list)
    return values


_STATES = {state.value: state for state in StoryState}


def _check_state(value: object) -> None:
    if type(value) is not str or value not in _STATES:
        raise _Malformed(f"must be 'open' or 'closed', got {value!r}")


def _load_states(values: list) -> list:
    if not (_all_of(str, values) and set(values) <= _STATES.keys()):
        _reject_first(values, _check_state)
    return list(map(_STATES.__getitem__, values))


def _nested_column(entry_name: str, entry_types: str, entries_ok: Callable[[list], bool],
                   build: Callable) -> Callable[[list], Iterable]:
    """A column whose cells are arrays of fixed-length entries, each the arguments of `build`.

    `entries_ok` checks a list of entries. The records are built lazily, as
    the records holding them are, so a constructor failure is reported at
    its record's index.
    """

    def check(cell: object) -> None:
        if type(cell) is not list:
            raise _Malformed(f"must be an array of {entry_name}s, got {cell!r}")
        for index, entry in enumerate(cell):
            if not entries_ok([entry]):
                raise _Malformed(f"must be a {entry_name} of {entry_types}, got {entry!r}", f"[{index}]")

    def load(values: list) -> Iterable:
        if not (_all_of(list, values) and entries_ok(list(chain.from_iterable(values)))):
            _reject_first(values, check)
        return (tuple(starmap(build, cell)) for cell in values)

    return load


def _triples_ok(entries: list) -> bool:
    return (_all_of(list, entries) and set(map(len, entries)) <= {3}
            and _all_of(str, map(itemgetter(0), entries))
            and _all_of(int, map(itemgetter(1), entries))
            and _all_of(int, map(itemgetter(2), entries)))


def _pairs_ok(entries: list) -> bool:
    return (_all_of(list, entries) and set(map(len, entries)) <= {2}
            and _all_of(str, map(itemgetter(0), entries))
            and all(map(_is_epoch, map(itemgetter(1), entries))))


@dataclass(frozen=True)
class _Column:
    """How one kind of snapshot column is checked on load and written."""

    # the column's cells -> the record constructor's arguments; raises _Malformed
    load: Callable[[list], Iterable]
    # the records' attribute values -> the column's cells
    dump: Callable[[Iterable], list] = list


_STR = _Column(_typed_column(str, "a string"))
_INT = _Column(_typed_column(int, "an integer"))
_BOOL = _Column(_typed_column(bool, "a boolean"))
_NUMBER = _Column(_load_numbers)
_EPOCH = _Column(_load_epochs)
_OPTIONAL_EPOCH = _Column(_load_optional_epochs)
_STATE = _Column(_load_states, lambda states: [s.value for s in states])
_STR_LIST = _Column(_load_str_lists, lambda lists: list(map(list, lists)))
_STR_SET = _Column(_load_str_lists, lambda sets: list(map(sorted, sets)))
_FILES = _Column(
    _nested_column("[path, added, deleted] triple", "a string and two integers", _triples_ok,
                   FileChange),
    lambda files: [[[f.path, f.lines_added, f.lines_deleted] for f in cell] for cell in files],
)
_MEMBERSHIPS = _Column(
    _nested_column("[sprint_id, assigned_at] pair", "a string and epoch seconds in years 1 to 9999 (UTC)",
                   _pairs_ok, SprintMembership),
    lambda histories: [[[m.sprint_id, m.assigned_at] for m in cell] for cell in histories],
)

# export kind -> (record class, format-2 columns in the order of the class's fields);
# the column names are the export field names
_SNAPSHOT_COLUMNS: dict[str, tuple[type, dict[str, _Column]]] = {
    "commits": (Commit, {"id": _STR, "author": _STR, "authored_at": _EPOCH, "parents": _STR_LIST,
                         "message": _STR, "files": _FILES, "team": _STR}),
    "issues": (UserStory, {"number": _INT, "title": _STR, "body": _STR, "state": _STATE,
                           "labels": _STR_SET, "milestone_history": _MEMBERSHIPS, "assignees": _STR_SET,
                           "created_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH, "team": _STR}),
    "sprints": (Sprint, {"id": _STR, "title": _STR, "starts_at": _EPOCH, "due_on": _EPOCH, "team": _STR}),
    "pulls": (PullRequest, {"number": _INT, "opened_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH,
                            "merged": _BOOL, "comments": _INT, "team": _STR}),
    "stats": (BuildStats, {"commit_id": _STR, "coverage_percent": _NUMBER, "complexity": _NUMBER}),
}

def snapshot_to_dict(history: ProjectHistory) -> dict:
    """The format-2 snapshot document of `history`."""
    doc: dict = {"format": SNAPSHOT_FORMAT}
    for kind, records in zip(EXPORTS, history.records()):
        record_class, columns = _SNAPSHOT_COLUMNS[kind]
        doc[kind] = {
            name: column.dump(map(attrgetter(attribute), records))
            for (name, column), attribute in zip(columns.items(), record_class._fields, strict=True)
        }
    return doc


def write_snapshot(path: str | Path, history: ProjectHistory) -> None:
    write_text(path, canonical_json(snapshot_to_dict(history)) + "\n")


def _records_from_columns(kind: str, table: object) -> list:
    """Check one format-2 collection column by column, then build its records."""
    record_class, columns = _SNAPSHOT_COLUMNS[kind]
    if not isinstance(table, dict):
        raise _Malformed(f"{kind!r} must be an object of columns")
    unknown = [name for name in table if name not in columns]
    if unknown:
        raise _Malformed(f"unknown column {kind}.{unknown[0]}")
    arguments = []
    length = None
    for name, column in columns.items():
        if name not in table:
            raise _Malformed(f"missing column {kind}.{name}")
        values = table[name]
        if not isinstance(values, list):
            raise _Malformed(f"{kind}.{name} must be an array")
        if length is None:
            length, first = len(values), name
        elif len(values) != length:
            raise _Malformed(f"{kind}.{name} has {len(values)} entries, {kind}.{first} has {length}")
        try:
            arguments.append(column.load(values))
        except _Malformed as exc:
            raise _Malformed(f"{kind}.{name}{exc.where}: {exc}") from None
    records: list = []
    try:
        for record in map(record_class, *arguments):
            records.append(record)
    except RecordError as exc:
        raise _Malformed(f"{kind}[{len(records)}]: {exc}") from None
    return records


def _records_of_format_two(raw: Mapping) -> list[list]:
    unknown = [key for key in raw if key != "format" and key not in EXPORTS]
    if unknown:
        raise _Malformed(f"unknown key {unknown[0]!r}")
    missing = [kind for kind in EXPORTS if kind not in raw]
    if missing:
        raise _Malformed(f"missing collection {missing[0]!r}")
    return [_records_from_columns(kind, raw[kind]) for kind in EXPORTS]


def load_snapshot(path: str | Path) -> ProjectHistory:
    """Read and re-validate a format-2 snapshot; every record constructor runs."""
    raw = read_json(path)
    if not isinstance(raw, Mapping):
        raise ParseError(f"{path} must contain a snapshot object")
    if "format" not in raw:
        raise ParseError(
            f'{path}: snapshot has no "format" key; '
            f"re-run `sprintlint ingest` to write format {SNAPSHOT_FORMAT}"
        )
    version = raw["format"]
    if type(version) is not int or version != SNAPSHOT_FORMAT:
        raise ParseError(f"{path}: unsupported snapshot format {version!r}")
    try:
        records = _records_of_format_two(raw)
    except _Malformed as exc:
        raise ParseError(f"{path} holds a malformed snapshot: {exc}") from None
    return build_history(*records)
