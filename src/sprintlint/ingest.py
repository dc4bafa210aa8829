"""Readers and writers for the canonical export formats and the snapshot.

Formats:
  commits  -- newline-delimited JSON, one commit object per line
  issues   -- JSON array of user stories
  sprints  -- JSON array of sprint definitions
  pulls    -- JSON array of pull requests
  stats    -- CSV with header ``commit_id,coverage_percent,complexity``

`write_snapshot` writes the validated history as one file, format 2:
``{"format": 2, "commits": {...}, ...}``, each collection an object of
equal-length columns named like the export fields, every timestamp a JSON
number of epoch seconds (the float's repr, so it reads back exactly), each
commit's files a list of ``[path, added, deleted]`` triples and each story's
milestone history a list of ``[sprint_id, assigned_at]`` pairs. It encodes
and writes one column at a time, so no second whole copy of the history is
held.

`_SCHEMA` defines both forms: one row per export kind, naming each field and
its column kind. Every kind comes from one of three factories: `_kind` for
values of one exact type, `_floats` for numbers and epoch timestamps, and
`_entries` for arrays of nested records. Each declares a field's check once,
and that check runs both where an export is read (``'<field>' must be
<expected>``) and where a snapshot is loaded (``must be <expected>, got
<cell>``), a snapshot column in bulk first. Only timestamps are read in two
ways, as an export holds ISO-8601 text and a snapshot numbers.

Readers collect malformed records as positioned issues instead of aborting,
so one bad line does not hide the rest of a file. Unknown extra fields in
an export file are ignored for forward compatibility. Writers emit the same
schemas back out; write-then-read of any valid record set is the identity.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import chain, repeat, starmap
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
    _Record,
    build_history,
)
from .serialize import (
    END_TS,
    FIRST_TS,
    array_pieces,
    canonical_json,
    check_unicode,
    format_iso_utc,
    object_pieces,
    parse_iso_utc,
    read_json,
    read_text,
    write_text,
)

class ParseIssue(_Record, namedtuple("ParseIssue", "location field message")):
    """One malformed record, positioned within its source file; `field` may be None."""

    __slots__ = ()

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


class IngestManifest(_Record, namedtuple("IngestManifest", "paths team_map alias_map")):
    """Which export files to read (export kind -> path) and how to normalize identities."""

    __slots__ = ()

    def __new__(cls, paths: Mapping[str, Path] = {}, team_map: Mapping[str, str] = {},
                alias_map: Mapping[str, str] = {}) -> IngestManifest:
        unknown = [kind for kind in paths if kind not in EXPORTS]
        if unknown:
            raise ParseError(f"unknown export kind {unknown[0]!r} in manifest")
        for key, value in (("team_map", team_map), ("alias_map", alias_map)):
            if not isinstance(value, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in value.items()
            ):
                raise ParseError(f"{key} must be an object mapping names to strings")
        if "commits" not in paths and "issues" not in paths:
            raise ParseError("manifest needs at least a commits or an issues file")
        if len(set(paths.values())) != len(paths):
            raise ParseError("manifest paths must be distinct")
        return tuple.__new__(cls, (paths, team_map, alias_map))


# --- column kinds ------------------------------------------------------------


class _FieldError(Exception):
    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(message)
        self.field_name = field_name


class _Malformed(Exception):
    """A format-2 snapshot fails a check; `where` positions a failing cell in its column, as ``[17]``."""

    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(message)
        self.where = where


_ABSENT = object()
_STATES = {state.value: state for state in StoryState}


def _rejected(value: object, key: str, message: str) -> _FieldError:
    """The error for field `key` holding `value`, which failed a check saying `message`."""
    return _FieldError(key, f"missing field {key!r}" if value is _ABSENT else message)


def _all_of(cls: type, values: Iterable) -> bool:
    return set(map(type, values)) <= {cls}


def _reject_first(values: list, check: Callable[[object], None]) -> None:
    """Raise for the first of `values` that `check` rejects, prefixed with its index."""
    for index, value in enumerate(values):
        try:
            check(value)
        except _Malformed as exc:
            raise _Malformed(str(exc), f"[{index}]{exc.where}") from None


class _Column(_Record, namedtuple("_Column", "read write load dump", defaults=(list,))):
    """One kind of export field: how it is read and written in an export, and loaded and dumped in a snapshot.

    read: export value, field name, maps -> the record constructor's argument; raises _FieldError
    write: the record's value -> the export value; None writes the value as it is
    load: the column's cells -> the record constructor's arguments; raises _Malformed
    dump: the records' values -> the column's cells; `list` by default
    """

    __slots__ = ()


def _kind(cls: type, expected: str, ok: Callable | None = None, items: type | None = None,
          convert: Callable | None = None, rename: str | None = None, write: Callable | None = None) -> _Column:
    """The column kind of values of exact type `cls` (so a bool is no integer), which must be `expected`.

    ok: a builtin true of each valid value, so a snapshot column is checked in C
    items: the exact type of each item of a valid value, for a kind of arrays
    convert: a builtin taking a valid value to the record constructor's argument
    rename: the manifest map a value read from an export (each item, for arrays) is looked up in;
        a snapshot holds the values it gave
    write: as `_Column.write`; a snapshot cell is written the same way
    """

    def valid(values: list) -> bool:
        return (_all_of(cls, values) and (ok is None or all(map(ok, values)))
                and (items is None or _all_of(items, chain.from_iterable(values))))

    def read(value: object, key: str, maps: Mapping) -> object:
        if (type(value) is not cls or ok is not None and not ok(value)
                or items is not None and not _all_of(items, value)):
            raise _rejected(value, key, f"{key!r} must be {expected}")
        if rename is not None:
            names = maps[rename]
            return names.get(value, value) if items is None else list(map(names.get, value, value))
        return value if convert is None else convert(value)

    def check(value: object) -> None:
        if not valid([value]):
            raise _Malformed(f"must be {expected}, got {value!r}")

    def load(values: list) -> list:
        if not valid(values):
            _reject_first(values, check)
        return values if convert is None else list(map(convert, values))

    return _Column(read, write, load, list if write is None else lambda values: list(map(write, values)))


def _floats(epoch: bool, optional: bool = False) -> _Column:
    """The column kind of numbers, which a snapshot holds as JSON numbers and a record as floats.

    epoch: the numbers are epoch seconds in years 1 to 9999 (UTC), which an
        export holds as ISO-8601 text; other numbers are only in the stats
        CSV, which has its own reader
    optional: a value may be null, and an export may leave it out
    """
    expected = "a number of epoch seconds" if epoch else "a number"

    def read(value: object, key: str, maps: Mapping) -> float | None:
        if optional and (value is None or value is _ABSENT):
            return None
        try:
            return parse_iso_utc(value, key)
        except ParseError as exc:
            raise _rejected(value, key, str(exc)) from None

    def write(stamp: float | None) -> str | None:
        # format_iso_utc is looked up on each call, so a caller that swaps the module's copy sees it
        return None if stamp is None else format_iso_utc(stamp)

    def check(value: object) -> None:
        if value is None and optional:
            return
        if type(value) is not float and type(value) is not int:  # a type test, so a bool is no number
            raise _Malformed(f"must be {expected}, got {value!r}")
        if epoch and not FIRST_TS <= value < END_TS:
            raise _Malformed(f"out of range (years 1 to 9999 in UTC): {value!r}")

    def as_float(value: float | int | None) -> float | None:
        if type(value) is not int:
            return value
        try:
            return float(value)
        except OverflowError:  # read as infinite, as a stats CSV reads such a number
            return math.inf if value > 0 else -math.inf

    def load(values: list) -> list:
        present = [v for v in values if v is not None] if optional else values
        # for epochs, a finite sum means no stamp is NaN or infinite, so min and max are exact
        if _all_of(float, present) and (not epoch or not present or math.isfinite(sum(present))
                                        and FIRST_TS <= min(present) and max(present) < END_TS):
            return values
        _reject_first(values, check)
        return list(map(as_float, values))

    return _Column(read, write, load) if epoch else _Column(None, None, load)


def _reads(fields: Mapping[str, _Column]) -> tuple:
    return tuple((name, column.read) for name, column in fields.items())


def _writes(fields: Mapping[str, _Column]) -> tuple:
    return tuple((name, column.write) for name, column in fields.items())


def _record_from_dict(record_class: type, reads: tuple, raw: Mapping, maps: Mapping):
    """The record that the export object `raw` holds, its fields read by `reads`."""
    return record_class._make([read(raw.get(name, _ABSENT), name, maps) for name, read in reads])


def _record_to_dict(writes: tuple, record: tuple) -> dict:
    """The export object of `record`, a tuple of its fields in the order of `writes`."""
    return {name: value if write is None else write(value) for (name, write), value in zip(writes, record)}


def _entries(record_class: type, fields: dict[str, _Column], entry_types: str) -> _Column:
    """A column whose cells are arrays of `record_class` records, each an object of `fields` in an export.

    In a snapshot each entry is the array of its fields' values, each
    checked by its field's column; `entry_types` names what they must be.
    The entries are built lazily, as the records holding them are, so a
    constructor failure is reported at its record's index.
    """
    reads, writes = _reads(fields), _writes(fields)
    columns = tuple(fields.values())
    entry_name = f"[{', '.join(fields)}] {({2: 'pair', 3: 'triple'})[len(fields)]}"

    def read(value: object, key: str, maps: Mapping) -> list:
        if type(value) is not list:
            raise _rejected(value, key, f"{key!r} must be an array")
        entries = []
        for index, entry in enumerate(value):
            if type(entry) is not dict:
                raise _FieldError(key, f"{key}[{index}] must be an object")
            entries.append(_record_from_dict(record_class, reads, entry, maps))
        return entries

    def valid(entries: list) -> bool:
        if not (_all_of(list, entries) and set(map(len, entries)) <= {len(columns)}):
            return False
        try:
            for index, column in enumerate(columns):
                column.load(list(map(itemgetter(index), entries)))
        except _Malformed:
            return False
        return True

    def check(cell: object) -> None:
        if type(cell) is not list:
            raise _Malformed(f"must be an array of {entry_name}s, got {cell!r}")
        for index, entry in enumerate(cell):
            if not valid([entry]):
                raise _Malformed(f"must be a {entry_name} of {entry_types}, got {entry!r}", f"[{index}]")

    def load(values: list) -> Iterable:
        if not (_all_of(list, values) and valid(list(chain.from_iterable(values)))):
            _reject_first(values, check)
        return (tuple(starmap(record_class, cell)) for cell in _consumed(values))

    return _Column(read, lambda cell: [_record_to_dict(writes, entry) for entry in cell], load)


# --- the schema --------------------------------------------------------------

_ID = _kind(str, "a non-empty string", ok=len)
_TEXT = _kind(str, "a string")
_TEAM = _kind(str, "a non-empty string", ok=len, rename="team_map")
_AUTHOR = _kind(str, "a non-empty string", ok=len, rename="alias_map")
_INT = _kind(int, "an integer")
_BOOL = _kind(bool, "a boolean")
_NUMBER = _floats(epoch=False)
_EPOCH = _floats(epoch=True)
_OPTIONAL_EPOCH = _floats(epoch=True, optional=True)
_STATE = _kind(str, "'open' or 'closed'", ok=_STATES.__contains__, convert=_STATES.__getitem__,
               write=attrgetter("value"))
_STR_LIST = _kind(list, "an array of strings", items=str)
_STR_SET = _kind(list, "an array of strings", items=str, write=sorted)
_ASSIGNEES = _kind(list, "an array of strings", items=str, rename="alias_map", write=sorted)
_FILES = _entries(FileChange, {"path": _ID, "added": _INT, "deleted": _INT},
                  "a non-empty string and two integers")
_MEMBERSHIPS = _entries(SprintMembership, {"sprint_id": _ID, "assigned_at": _EPOCH},
                        "a non-empty string and epoch seconds in years 1 to 9999 (UTC)")

# export kind -> (record class, {export field: column kind} in the order of the class's fields);
# a snapshot's columns are named like the export fields
_SCHEMA: dict[str, tuple[type, dict[str, _Column]]] = {
    "commits": (Commit, {"id": _ID, "author": _AUTHOR, "authored_at": _EPOCH, "parents": _STR_LIST,
                         "message": _TEXT, "files": _FILES, "team": _TEAM}),
    "issues": (UserStory, {"number": _INT, "title": _TEXT, "body": _TEXT, "state": _STATE,
                           "labels": _STR_SET, "milestone_history": _MEMBERSHIPS, "assignees": _ASSIGNEES,
                           "created_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH, "team": _TEAM}),
    "sprints": (Sprint, {"id": _ID, "title": _TEXT, "starts_at": _EPOCH, "due_on": _EPOCH, "team": _TEAM}),
    "pulls": (PullRequest, {"number": _INT, "opened_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH,
                            "merged": _BOOL, "comments": _INT, "team": _TEAM}),
    "stats": (BuildStats, {"commit_id": _ID, "coverage_percent": _NUMBER, "complexity": _NUMBER}),
}
_READS = {kind: (record_class, _reads(fields)) for kind, (record_class, fields) in _SCHEMA.items()}
_WRITES = {kind: _writes(fields) for kind, (_, fields) in _SCHEMA.items()}

STATS_HEADER = tuple(_SCHEMA["stats"][1])


# --- readers ---------------------------------------------------------------


def read_commits(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list[Commit], list[ParseIssue]]:
    """Read newline-delimited commit records, collecting bad lines with their numbers."""
    maps = {"team_map": team_map or {}, "alias_map": alias_map or {}}
    record_class, reads = _READS["commits"]
    records: list[Commit] = []
    issues: list[ParseIssue] = []
    # split at "\n" only: JSON allows U+2028, U+2029 and U+0085 raw inside a string
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
            check_unicode(line, raw)
            if not isinstance(raw, dict):
                raise _FieldError("", "line is not a JSON object")
            records.append(_record_from_dict(record_class, reads, raw, maps))
        except json.JSONDecodeError as exc:
            issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc.msg}"))
        except RecursionError as exc:
            issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc}"))
        except (_FieldError, ValueError) as exc:
            field_name = exc.field_name if isinstance(exc, _FieldError) else None
            issues.append(ParseIssue(lineno, field_name or None, str(exc)))
    return records, issues


def _read_array_file(
    path: str | Path, kind: str, what: str, team_map: Mapping[str, str] | None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list, list[ParseIssue]]:
    """Read each entry of a JSON array file of `what`, collecting bad ones by their index."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ParseError(f"{path} must contain a JSON array of {what}")
    maps = {"team_map": team_map or {}, "alias_map": alias_map or {}}
    record_class, reads = _READS[kind]
    records = []
    issues: list[ParseIssue] = []
    for index, raw in enumerate(rows):
        try:
            if not isinstance(raw, dict):
                raise _FieldError("", f"{what} entry is not an object")
            records.append(_record_from_dict(record_class, reads, raw, maps))
        except (_FieldError, ValueError) as exc:
            field_name = exc.field_name if isinstance(exc, _FieldError) else None
            issues.append(ParseIssue(index, field_name or None, str(exc)))
    return records, issues


def read_issues(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list[UserStory], list[ParseIssue]]:
    return _read_array_file(path, "issues", "stories", team_map, alias_map)


def read_sprints(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[Sprint], list[ParseIssue]]:
    return _read_array_file(path, "sprints", "sprints", team_map)


def read_pulls(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[PullRequest], list[ParseIssue]]:
    return _read_array_file(path, "pulls", "pull requests", team_map)


def read_stats(path: str | Path) -> tuple[list[BuildStats], list[ParseIssue]]:
    """Read the per-commit stats table; rows with out-of-range coverage are rejected."""
    # the reader sees the file's own line breaks, so a quoted field may span lines or hold a "\r"
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
    team_map, alias_map = manifest.team_map, manifest.alias_map
    # each reader is looked up by name on each call, so a tracer that swaps the module's readers sees it
    readers = {
        "commits": lambda path: read_commits(path, team_map, alias_map),
        "issues": lambda path: read_issues(path, team_map, alias_map),
        "sprints": lambda path: read_sprints(path, team_map),
        "pulls": lambda path: read_pulls(path, team_map),
        "stats": lambda path: read_stats(path),
    }
    records: list[list] = []
    diagnostics: list[str] = []
    for kind in EXPORTS:
        path = manifest.paths.get(kind)
        found, issues = ([], []) if path is None else readers[kind](path)
        records.append(found)
        diagnostics.extend(i.render(path) for i in issues)

    if diagnostics:
        return None, diagnostics
    return build_history(*records), diagnostics


# --- writers ---------------------------------------------------------------


def write_commits(path: str | Path, commits: Iterable[Commit]) -> None:
    writes = _WRITES["commits"]
    write_text(path, (canonical_json(_record_to_dict(writes, c)) + "\n" for c in commits))


def _write_array(path: str | Path, kind: str, records: Iterable) -> None:
    writes = _WRITES[kind]
    write_text(path, chain(array_pieces(_record_to_dict(writes, r) for r in records), "\n"))


def write_issues(path: str | Path, stories: Iterable[UserStory]) -> None:
    _write_array(path, "issues", stories)


def write_sprints(path: str | Path, sprints: Iterable[Sprint]) -> None:
    _write_array(path, "sprints", sprints)


def write_pulls(path: str | Path, pulls: Iterable[PullRequest]) -> None:
    _write_array(path, "pulls", pulls)


def write_stats(path: str | Path, stats: Iterable[BuildStats]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # csv quotes a field holding the line terminator, "\n", but may leave a "\r" bare, which a
    # reader takes for a line break; QUOTE_NONNUMERIC quotes only the id and writes floats by repr
    quoting_id = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(STATS_HEADER)
    for s in stats:
        if "\r" in s.commit_id:
            quoting_id.writerow((s.commit_id, s.coverage_percent, s.complexity))
        else:
            writer.writerow((s.commit_id, repr(s.coverage_percent), repr(s.complexity)))
    write_text(path, out.getvalue())


# --- snapshot (the validated single-file form the CLI passes between steps) -

SNAPSHOT_FORMAT = 2


def _column_pieces(column: _Column, records: tuple, index: int) -> Iterator[str]:
    # a generator, so a column is dumped only when its turn to be written comes
    yield canonical_json(column.dump(map(itemgetter(index), records)))


def write_snapshot(path: str | Path, history: ProjectHistory) -> None:
    """Write the format-2 snapshot of `history`, one column at a time, so no whole copy of it is held."""
    members: dict[str, Iterable[str]] = {"format": [canonical_json(SNAPSHOT_FORMAT)]}
    for kind, records in zip(EXPORTS, history.records()):
        columns = _SCHEMA[kind][1]
        members[kind] = object_pieces(
            {name: _column_pieces(column, records, index) for index, (name, column) in enumerate(columns.items())}
        )
    write_text(path, chain(object_pieces(members), "\n"))


def _consumed(values: Iterable) -> Iterator:
    """Each of `values` in order; a list is emptied as it is read, so each cell is freed once its record is built."""
    if not isinstance(values, list):
        return iter(values)
    values.reverse()
    # one pop per cell, called from C: cheaper than a generator that pops
    return starmap(values.pop, repeat((), len(values)))


def _records_from_columns(kind: str, table: object) -> list:
    """Check one format-2 collection column by column, then build its records, emptying the decoded columns."""
    record_class, columns = _SCHEMA[kind]
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
        for record in map(record_class, *map(_consumed, arguments)):
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
