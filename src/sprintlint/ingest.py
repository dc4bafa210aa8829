"""Readers and writers for the canonical export formats and the snapshot.

Formats:
  commits  -- newline-delimited JSON, one commit object per line
  issues   -- JSON array of user stories
  sprints  -- JSON array of sprint definitions
  pulls    -- JSON array of pull requests
  stats    -- CSV with header ``commit_id,coverage_percent,complexity``

`write_snapshot` writes the validated history as one file, format 3:
``{"commits": {...}, "format": 3, ..., "strings": [...]}``, each collection an
object of equal-length columns named like the export fields, every timestamp
a JSON number of epoch seconds (the float's repr, so it reads back exactly),
each commit's files a list of ``[path, added, deleted]`` triples and each
story's milestone history a list of ``[sprint_id, assigned_at]`` pairs. Each
name (an id, team, author, parent, label or assignee, and the path and
sprint id of an entry) is written once, in the top-level ``"strings"`` array,
and every cell or item that holds it holds its index there instead; free
text (messages, titles, bodies) and a story's state are written inline. It
encodes and writes one column at a time, filling the table as it goes and
writing it last, so no second whole copy of the history is held.

`_SCHEMA` drives the snapshot's load and write and the checks of the export
fields: one row per export kind, naming each field and its column kind.
Every kind comes from one of three factories: `_kind` for values of one
exact type, `_floats` for numbers and epoch timestamps, and `_entries` for
arrays of nested records. Each declares a field's check once, and that check
runs both where an export is read (``'<field>' must be <expected>``) and
where a snapshot is loaded (``must be <expected>, got <cell>``), a snapshot
column in bulk first. Before that check, `_lookup` resolves a snapshot
column's names, all in one call (for entries, each one's first field, which
holds its only name): each must be an index into ``strings``, an integer
from 0 to its length less one (so no boolean), or the load fails with ``must
be an index into strings, got <value>`` at the first that is not; the string
it indexes then meets the column's check. Only timestamps are read in two
ways, as an export holds ISO-8601 text and a snapshot numbers. Each JSON
export kind has one builder (`_commit`, `_story`, `_sprint`, `_pull`), which
reads its object's fields in `_SCHEMA` order, each through its column kind's
`read` (a nested entry's fields in turn, where its array is read), so a
rejection names the first field that fails; the builder puts teams and
authors through the manifest's maps itself.

Readers collect malformed records as positioned issues instead of aborting,
so one bad line does not hide the rest of a file. Unknown extra fields in
an export file are ignored for forward compatibility. Each export kind has
its own line writer, which builds a record's canonical JSON (a CSV row, for
stats) straight from the record, its keys written in sorted order; tests
hold each writer's keys to `_SCHEMA` and its bytes to `canonical_json` of
the export object. Write-then-read of any valid record set is the identity.
The commits and stats readers, whose files are the largest, read a line or
row at a time and hold no whole copy of the file; `load_history` hands both
one table of commit ids, so a commit's id, its parents and its stats row
hold one string.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque, namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import contextmanager
from itertools import accumulate, chain, count, filterfalse, islice, repeat, starmap
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter, setitem
from pathlib import Path
from typing import TextIO

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
)
from .serialize import (
    END_TS,
    FIRST_TS,
    array_pieces,
    canonical_json,
    check_unicode,
    csv_field,
    decode_json,
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


# export kind -> the file name `generate` writes it under, in `ProjectHistory` field order
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
    """A format-3 snapshot fails a check; `where` positions a failing cell in its column, as ``[17]``."""

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


def _enter(names: Iterable[str], table: dict[str, int]) -> None:
    """Give each of `names` not yet in `table`, a snapshot's string table as it is written, the next index."""
    table.update(zip(dict.fromkeys(filterfalse(table.__contains__, names)), count(len(table))))


def _regrouped(items: list, cells: list) -> Iterator[list]:
    """`items`, one for each item of each of `cells` in turn, as a list for each cell, made as it is asked for."""
    ends = list(accumulate(map(len, cells)))
    return map(items.__getitem__, map(slice, chain((0,), ends), ends))


def _lookup(indexes: list, strings: list) -> list:
    """The entries of `strings` that `indexes` name; raises _Malformed at ``[k]`` for the first that names none."""
    if _all_of(int, indexes) and (not indexes or min(indexes) >= 0):
        try:
            return list(map(strings.__getitem__, indexes))
        except IndexError:  # an index past the table's end, named below
            pass
    index, value = next((index, value) for index, value in enumerate(indexes)
                        if type(value) is not int or not 0 <= value < len(strings))
    raise _Malformed(f"must be an index into strings, got {value!r}", f"[{index}]")


def _listed(values: Iterable, table: dict[str, int]) -> list:
    return list(values)


class _Column(_Record, namedtuple("_Column", "read load dump resolve", defaults=(_listed, None))):
    """One kind of export field: how it is read in an export, and loaded and dumped in a snapshot.

    read: an export object, a field name -> the field's checked value, as its builder takes it; raises _FieldError
    load: the column's cells, their names resolved -> the record constructor's arguments; raises _Malformed
    dump: the records' values, the string table -> the column's cells, each name as its index in the
        table; `_listed` by default
    resolve: the column's cells, the snapshot's strings -> None, each name's index in the cells replaced
        in place by the string `_lookup` finds; raises _Malformed; None for a kind that holds no names
    """

    __slots__ = ()


def _kind(cls: type, expected: str, ok: Callable | None = None, items: type | None = None,
          convert: Callable | None = None, write: Callable | None = None, names: bool = False) -> _Column:
    """The column kind of values of exact type `cls` (so a bool is no integer), which must be `expected`.

    ok: a builtin true of each valid value, so a snapshot column is checked in C
    items: the exact type of each item of a valid value, for a kind of arrays
    convert: a builtin taking a valid value to the record constructor's argument
    write: a builtin taking the record's value to the snapshot cell's (the export writers write their own)
    names: each value (each item, for arrays) is a name, which a snapshot holds as its index in the string table
    """

    def valid(values: list) -> bool:
        return (_all_of(cls, values) and (ok is None or all(map(ok, values)))
                and (items is None or _all_of(items, chain.from_iterable(values))))

    def read(raw: Mapping, key: str) -> object:
        value = raw.get(key, _ABSENT)
        if (type(value) is not cls or ok is not None and not ok(value)
                or items is not None and not _all_of(items, value)):
            raise _rejected(value, key, f"{key!r} must be {expected}")
        return value if convert is None else convert(value)

    def check(value: object) -> None:
        if not valid([value]):
            raise _Malformed(f"must be {expected}, got {value!r}")

    def load(values: list) -> list:
        if not valid(values):
            _reject_first(values, check)
        return values if convert is None else list(map(convert, values))

    def dump(values: Iterable, table: dict[str, int]) -> list:
        values = list(values if write is None else map(write, values))
        if not names:
            return values
        if items is None:
            _enter(values, table)
            return list(map(table.__getitem__, values))
        _enter(chain.from_iterable(values), table)
        return list(map(list, map(map, repeat(table.__getitem__), values)))

    def resolve(cells: list, strings: list) -> None:
        if items is None:
            cells[:] = _lookup(cells, strings)
            return
        # every array cell's items in one lookup, then each cell refilled in place; another cell is left to `load`
        arrays = [cell for cell in cells if type(cell) is list]
        try:
            found = _lookup(list(chain.from_iterable(arrays)), strings)
        except _Malformed:  # named again by its cell and item
            _reject_first(cells, lambda cell: type(cell) is list and _lookup(cell, strings))
        deque(map(setitem, arrays, repeat(slice(None)), _regrouped(found, arrays)), maxlen=0)

    return _Column(read, load, dump, resolve if names else None)


def _floats(epoch: bool, optional: bool = False) -> _Column:
    """The column kind of numbers, which a snapshot holds as JSON numbers and a record as floats.

    epoch: the numbers are epoch seconds in years 1 to 9999 (UTC), which an
        export holds as ISO-8601 text; other numbers are only in the stats
        CSV, which has its own reader
    optional: a value may be null, and an export may leave it out
    """
    expected = "a number of epoch seconds" if epoch else "a number"

    def read(raw: Mapping, key: str) -> float | None:
        value = raw.get(key, _ABSENT)
        if optional and (value is None or value is _ABSENT):
            return None
        try:
            return parse_iso_utc(value, key)
        except ParseError as exc:
            raise _rejected(value, key, str(exc)) from None

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

    return _Column(read, load) if epoch else _Column(None, load)


def _entries(record_class: type, fields: dict[str, _Column], entry_types: str) -> _Column:
    """A column whose cells are arrays of `record_class` records, each an object of `fields` in an export.

    In a snapshot each entry is the array of its fields' values, each
    checked by its field's column; `entry_types` names what they must be.
    Its first field holds its only name, as an index into the string table,
    which is resolved first. The entries are built lazily, as the records
    holding them are, so a constructor failure is reported at its record's
    index. In an export, `read` checks only that they are an array.
    """
    columns = tuple(fields.values())
    entry_name = f"[{', '.join(fields)}] {({2: 'pair', 3: 'triple'})[len(fields)]}"

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

    def dump(cells: Iterable, table: dict[str, int]) -> list:
        cells = list(cells)
        entries = list(chain.from_iterable(cells))
        fields = [column.dump(map(itemgetter(index), entries), table) for index, column in enumerate(columns)]
        return list(_regrouped(list(zip(*fields)), cells))

    def resolve(cells: list, strings: list) -> None:
        # every array entry's first field in one lookup, then set in place; another cell or entry is left to `load`
        entries = [entry for cell in cells if type(cell) is list for entry in cell if type(entry) is list and entry]
        try:
            found = _lookup([entry[0] for entry in entries], strings)
        except _Malformed:  # named again by its cell, entry and field
            _reject_first(cells, lambda cell: type(cell) is list and _reject_first(
                cell, lambda entry: type(entry) is list and _lookup(entry[:1], strings)))
        deque(map(setitem, entries, repeat(0), found), maxlen=0)

    return _Column(_kind(list, "an array").read, load, dump, resolve)


# --- the schema --------------------------------------------------------------

_ID = _kind(str, "a non-empty string", ok=len, names=True)
_TEXT = _kind(str, "a string")
_INT = _kind(int, "an integer")
_BOOL = _kind(bool, "a boolean")
_NUMBER = _floats(epoch=False)
_EPOCH = _floats(epoch=True)
_OPTIONAL_EPOCH = _floats(epoch=True, optional=True)
_STATE = _kind(str, "'open' or 'closed'", ok=_STATES.__contains__, convert=_STATES.__getitem__,
               write=attrgetter("value"))
_PARENTS = _kind(list, "an array of strings", items=str, names=True)
_STR_SET = _kind(list, "an array of strings", items=str, write=sorted, names=True)
# the export fields of each entry of a commit's files and a story's milestone history
_FILE_FIELDS = {"path": _ID, "added": _INT, "deleted": _INT}
_MEMBERSHIP_FIELDS = {"sprint_id": _ID, "assigned_at": _EPOCH}
_FILES = _entries(FileChange, _FILE_FIELDS, "a non-empty string and two integers")
_MEMBERSHIPS = _entries(SprintMembership, _MEMBERSHIP_FIELDS,
                        "a non-empty string and epoch seconds in years 1 to 9999 (UTC)")

# export kind -> (record class, {export field: column kind} in the order of the class's fields);
# a snapshot's columns are named like the export fields
_SCHEMA: dict[str, tuple[type, dict[str, _Column]]] = {
    "commits": (Commit, {"id": _ID, "author": _ID, "authored_at": _EPOCH, "parents": _PARENTS,
                         "message": _TEXT, "files": _FILES, "team": _ID}),
    "issues": (UserStory, {"number": _INT, "title": _TEXT, "body": _TEXT, "state": _STATE,
                           "labels": _STR_SET, "milestone_history": _MEMBERSHIPS, "assignees": _STR_SET,
                           "created_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH, "team": _ID}),
    "sprints": (Sprint, {"id": _ID, "title": _TEXT, "starts_at": _EPOCH, "due_on": _EPOCH, "team": _ID}),
    "pulls": (PullRequest, {"number": _INT, "opened_at": _EPOCH, "closed_at": _OPTIONAL_EPOCH,
                            "merged": _BOOL, "comments": _INT, "team": _ID}),
    "stats": (BuildStats, {"commit_id": _ID, "coverage_percent": _NUMBER, "complexity": _NUMBER}),
}

STATS_HEADER = tuple(_SCHEMA["stats"][1])


# --- readers ---------------------------------------------------------------

# one decoder for every commit line: `json.loads` checks a text's type and start before it decodes
_decode = json.JSONDecoder().raw_decode


@contextmanager
def _open_text(path: str | Path, newline: str) -> Iterator[TextIO]:
    """`path` opened to read as UTF-8 text, each line ended by `newline` as `open` splits it.

    Failing to open or decode it raises the ParseError `read_text` raises:
    the decoder reads the file in chunks and positions a bad byte within its
    chunk, so the whole file is read again to position it within the file.
    A ParseError that the reader raises is raised only once the rest of the
    file has decoded, so a file that is not UTF-8 fails as that wherever
    its bad byte is, as when each file was decoded whole before it was read.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as file:
            try:
                yield file
            except ParseError:
                deque(file, maxlen=0)
                raise
    except (OSError, UnicodeDecodeError) as exc:
        read_text(path)
        raise ParseError(f"cannot read {path}: {exc}") from None


def _commit(raw: Mapping, team_of: Callable, alias: Callable, share: Callable[[str, str], str]) -> Commit:
    """The commit the export object `raw` holds, each field read in `_SCHEMA` order, so the first that fails raises.

    Its team goes through `team_of` and its author through `alias`, each a
    manifest map's `get`, and its id and then each parent through `share`,
    each called with the value as its default.
    """
    commit_id, author, authored_at = _ID.read(raw, "id"), _ID.read(raw, "author"), _EPOCH.read(raw, "authored_at")
    parents, message = _PARENTS.read(raw, "parents"), _TEXT.read(raw, "message")
    files = []
    for index, entry in enumerate(_FILES.read(raw, "files")):
        if not isinstance(entry, dict):  # `type(entry) is not dict`, as decoded JSON holds only exact dicts
            raise _FieldError("files", f"files[{index}] must be an object")
        files.append(FileChange(_ID.read(entry, "path"), _INT.read(entry, "added"), _INT.read(entry, "deleted")))
    team = _ID.read(raw, "team")
    return Commit(share(commit_id, commit_id), alias(author, author), authored_at,
                  list(map(share, parents, parents)), message, files, team_of(team, team))


def _story(raw: Mapping, team_of: Callable, alias: Callable) -> UserStory:
    """The user story the export object `raw` holds, read as `_commit` reads a commit; assignees go through `alias`."""
    number, title, body = _INT.read(raw, "number"), _TEXT.read(raw, "title"), _TEXT.read(raw, "body")
    state, labels = _STATE.read(raw, "state"), _STR_SET.read(raw, "labels")
    milestones = []
    for index, entry in enumerate(_MEMBERSHIPS.read(raw, "milestone_history")):
        if not isinstance(entry, dict):  # as in `_commit`
            raise _FieldError("milestone_history", f"milestone_history[{index}] must be an object")
        milestones.append(SprintMembership(_ID.read(entry, "sprint_id"), _EPOCH.read(entry, "assigned_at")))
    assignees, created_at = _STR_SET.read(raw, "assignees"), _EPOCH.read(raw, "created_at")
    closed_at, team = _OPTIONAL_EPOCH.read(raw, "closed_at"), _ID.read(raw, "team")
    return UserStory(number, title, body, state, labels, milestones, map(alias, assignees, assignees),
                     created_at, closed_at, team_of(team, team))


def _sprint(raw: Mapping, team_of: Callable) -> Sprint:
    """The sprint the export object `raw` holds, read as `_commit` reads a commit."""
    sprint_id, title, starts_at = _ID.read(raw, "id"), _TEXT.read(raw, "title"), _EPOCH.read(raw, "starts_at")
    due_on, team = _EPOCH.read(raw, "due_on"), _ID.read(raw, "team")
    return Sprint(sprint_id, title, starts_at, due_on, team_of(team, team))


def _pull(raw: Mapping, team_of: Callable) -> PullRequest:
    """The pull request the export object `raw` holds, read as `_commit` reads a commit."""
    number, opened_at = _INT.read(raw, "number"), _EPOCH.read(raw, "opened_at")
    closed_at, merged = _OPTIONAL_EPOCH.read(raw, "closed_at"), _BOOL.read(raw, "merged")
    comments, team = _INT.read(raw, "comments"), _ID.read(raw, "team")
    return PullRequest(number, opened_at, closed_at, merged, comments, team_of(team, team))


def read_commits(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
    *,
    commit_ids: dict[str, str] | None = None,
) -> tuple[list[Commit], list[ParseIssue]]:
    """Read newline-delimited commit records, collecting bad lines with their numbers.

    The file is read a line at a time. Each commit's id and parents are put
    through `commit_ids`, which maps each commit id read so far to its one
    copy (a new dict if None), so equal ids read are one string.
    """
    team_of, alias = (team_map or {}).get, (alias_map or {}).get
    share = ({} if commit_ids is None else commit_ids).setdefault
    records: list[Commit] = []
    issues: list[ParseIssue] = []
    # split at "\n" only: JSON allows U+2028, U+2029 and U+0085 raw inside a string
    with _open_text(path, "\n") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            line = line.removesuffix("\n")
            try:
                try:
                    raw, end = _decode(line)
                    if end != len(line):
                        raise ValueError
                except (ValueError, RecursionError):
                    # surrounding whitespace, a BOM, trailing data or bad JSON, read or worded as `json.loads` does
                    raw = decode_json(line)
                check_unicode(line, raw)
                if not isinstance(raw, dict):
                    raise _FieldError("", "line is not a JSON object")
                records.append(_commit(raw, team_of, alias, share))
            except json.JSONDecodeError as exc:
                issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc.msg}"))
            except RecursionError as exc:
                issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc}"))
            except (_FieldError, ValueError) as exc:
                field_name = exc.field_name if isinstance(exc, _FieldError) else None
                issues.append(ParseIssue(lineno, field_name or None, str(exc)))
    return records, issues


def _read_array_file(
    build: Callable[..., tuple], path: str | Path, what: str, *maps: Mapping[str, str] | None
) -> tuple[list, list[ParseIssue]]:
    """Read each entry of a JSON array file of `what` by `build`, collecting bad ones by index; `build`
    takes the entry and then the `get` of each of `maps`, an empty map for None."""
    rows = read_json(path)
    if not isinstance(rows, list):
        raise ParseError(f"{path} must contain a JSON array of {what}")
    lookups = [(found or {}).get for found in maps]
    records = []
    issues: list[ParseIssue] = []
    for index, raw in enumerate(rows):
        try:
            if not isinstance(raw, dict):
                raise _FieldError("", f"{what} entry is not an object")
            records.append(build(raw, *lookups))
        except (_FieldError, ValueError) as exc:
            field_name = exc.field_name if isinstance(exc, _FieldError) else None
            issues.append(ParseIssue(index, field_name or None, str(exc)))
    return records, issues


def read_issues(
    path: str | Path,
    team_map: Mapping[str, str] | None = None,
    alias_map: Mapping[str, str] | None = None,
) -> tuple[list[UserStory], list[ParseIssue]]:
    return _read_array_file(_story, path, "stories", team_map, alias_map)


def read_sprints(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[Sprint], list[ParseIssue]]:
    return _read_array_file(_sprint, path, "sprints", team_map)


def read_pulls(
    path: str | Path, team_map: Mapping[str, str] | None = None
) -> tuple[list[PullRequest], list[ParseIssue]]:
    return _read_array_file(_pull, path, "pull requests", team_map)


def read_stats(
    path: str | Path, *, commit_ids: dict[str, str] | None = None
) -> tuple[list[BuildStats], list[ParseIssue]]:
    """Read the per-commit stats table; rows with out-of-range coverage are rejected.

    The file is read a row at a time. Each row's commit id is put through
    `commit_ids` (see `read_commits`) unless it is None: a stats file names
    each commit once, so it shares no id with itself.
    """
    records: list[BuildStats] = []
    issues: list[ParseIssue] = []
    # the reader sees the file's own line breaks, so a quoted field may span lines or hold a "\r"
    with _open_text(path, "") as file:
        reader = csv.reader(file)
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
                commit_id = row[0] if commit_ids is None else commit_ids.setdefault(row[0], row[0])
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
    position; its `diagnostics` keep the shallow-parent, overlapping-sprints,
    no-sprint-window and many-sprint-windows flags. When any record failed to
    parse, the history is None: its cross-references are not checked, since
    they may name a rejected record.
    Raises on unreadable files or cross-reference failures.
    """
    team_map, alias_map = manifest.team_map, manifest.alias_map
    # each commit id read -> its one copy, shared by the commits and stats readers while they read
    commit_ids: dict[str, str] = {}
    # each reader is looked up by name on each call, so a tracer that swaps the module's readers sees it
    readers = {
        "commits": lambda path: read_commits(path, team_map, alias_map, commit_ids=commit_ids),
        "issues": lambda path: read_issues(path, team_map, alias_map),
        "sprints": lambda path: read_sprints(path, team_map),
        "pulls": lambda path: read_pulls(path, team_map),
        "stats": lambda path: read_stats(path, commit_ids=commit_ids),
    }
    records: list[list] = []
    diagnostics: list[str] = []
    for kind in EXPORTS:
        path = manifest.paths.get(kind)
        found, issues = ([], []) if path is None else readers[kind](path)
        records.append(found)
        diagnostics.extend(i.render(path) for i in issues)
    # the records hold the ids; the table is not needed to build the history
    commit_ids.clear()

    if diagnostics:
        return None, diagnostics
    return ProjectHistory(*records), diagnostics


# --- writers ---------------------------------------------------------------
#
# One line writer per export kind builds a record's JSON text straight from
# its fields, keys in sorted order, byte for byte as `canonical_json` writes
# its export object. A string goes through the encoder's own
# `encode_basestring`, and an integer, a boolean or an array of names is
# written only when its value is of that exact type, so a value of another
# type raises TypeError rather than writing text no reader parses or that
# reads back as a different valid value. A timestamp is `format_iso_utc`'s
# text, which holds no character JSON escapes; it is looked up on each call,
# so a caller that swaps the module's copy sees it.

_text = encode_basestring


def _wrong_type(value: object, expected: str) -> TypeError:
    return TypeError(f"expected {expected}, got {type(value).__name__}")


def _int(value: int) -> str:
    if type(value) is not int:
        raise _wrong_type(value, "an int")
    return repr(value)


def _bool(value: bool) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise _wrong_type(value, "a bool")


def _stamp(stamp: float | None) -> str:
    return "null" if stamp is None else f'"{format_iso_utc(stamp)}"'


def _names(names: Iterable[str]) -> str:
    return ",".join(map(_text, names))


def _commit_line(commit: Commit) -> str:
    commit_id, author, authored_at, parents, message, files, team = commit
    if type(parents) is not tuple and type(parents) is not list:
        raise _wrong_type(parents, "an array of commit ids")
    files = ",".join([f'{{"added":{_int(added)},"deleted":{_int(deleted)},"path":{_text(path)}}}'
                      for path, added, deleted in files])
    return (f'{{"author":{_text(author)},"authored_at":"{format_iso_utc(authored_at)}","files":[{files}],'
            f'"id":{_text(commit_id)},"message":{_text(message)},"parents":[{_names(parents)}],'
            f'"team":{_text(team)}}}\n')


def _story_line(story: UserStory) -> str:
    number, title, body, state, labels, milestones, assignees, created_at, closed_at, team = story
    history = ",".join([f'{{"assigned_at":"{format_iso_utc(assigned_at)}","sprint_id":{_text(sprint_id)}}}'
                        for sprint_id, assigned_at in milestones])
    return (f'{{"assignees":[{_names(sorted(assignees))}],"body":{_text(body)},"closed_at":{_stamp(closed_at)},'
            f'"created_at":"{format_iso_utc(created_at)}","labels":[{_names(sorted(labels))}],'
            f'"milestone_history":[{history}],"number":{_int(number)},"state":{_text(state.value)},'
            f'"team":{_text(team)},"title":{_text(title)}}}')


def _sprint_line(sprint: Sprint) -> str:
    sprint_id, title, starts_at, due_on, team = sprint
    return (f'{{"due_on":"{format_iso_utc(due_on)}","id":{_text(sprint_id)},'
            f'"starts_at":"{format_iso_utc(starts_at)}","team":{_text(team)},"title":{_text(title)}}}')


def _pull_line(pull: PullRequest) -> str:
    number, opened_at, closed_at, merged, comments, team = pull
    return (f'{{"closed_at":{_stamp(closed_at)},"comments":{_int(comments)},'
            f'"merged":{_bool(merged)},"number":{_int(number)},'
            f'"opened_at":"{format_iso_utc(opened_at)}","team":{_text(team)}}}')


def write_commits(path: str | Path, commits: Iterable[Commit]) -> None:
    write_text(path, map(_commit_line, commits))


def _write_array(path: str | Path, line: Callable[[tuple], str], records: Iterable) -> None:
    """Write the JSON array of `records`, each item's JSON made by `line`, and a line end."""
    items = map(line, records)
    # the first item as it is, then each other one after its comma
    write_text(path, chain("[", islice(items, 1), map(",".__add__, items), "]\n"))


def write_issues(path: str | Path, stories: Iterable[UserStory]) -> None:
    _write_array(path, _story_line, stories)


def write_sprints(path: str | Path, sprints: Iterable[Sprint]) -> None:
    _write_array(path, _sprint_line, sprints)


def write_pulls(path: str | Path, pulls: Iterable[PullRequest]) -> None:
    _write_array(path, _pull_line, pulls)


def _number(value: float) -> str:
    """A float or an int as a CSV field: its repr, which never needs quoting."""
    if type(value) is not float and type(value) is not int:
        raise _wrong_type(value, "a number")
    return repr(value)


def _stats_line(row: BuildStats) -> str:
    commit_id, coverage, complexity = row
    if type(commit_id) is not str:
        raise _wrong_type(commit_id, "a str")
    return f"{csv_field(commit_id)},{_number(coverage)},{_number(complexity)}\n"


def write_stats(path: str | Path, stats: Iterable[BuildStats]) -> None:
    write_text(path, chain([f"{','.join(STATS_HEADER)}\n"], map(_stats_line, stats)))


# --- snapshot (the validated single-file form the CLI passes between steps) -

SNAPSHOT_FORMAT = 3

# A snapshot array is dumped and encoded this many items to a call: one call
# over a whole column holds every fragment the encoder makes for it at once.
SNAPSHOT_BATCH = 1024


def _column_pieces(column: _Column, records: tuple, index: int, table: dict[str, int]) -> Iterator[str]:
    # pieces from a generator, so a column is dumped only when its turn to be written comes
    return array_pieces(map(itemgetter(index), records), SNAPSHOT_BATCH, lambda cells: column.dump(cells, table))


def write_snapshot(path: str | Path, history: ProjectHistory) -> None:
    """Write the format-3 snapshot of `history`, one column at a time, so no whole copy of it is held."""
    table: dict[str, int] = {}
    members: dict[str, Iterable[str]] = {
        "format": [canonical_json(SNAPSHOT_FORMAT)],
        # a generator, and "strings" sorts after every collection, so the table is complete when its turn comes
        "strings": array_pieces(table, SNAPSHOT_BATCH),
    }
    for kind, records in zip(EXPORTS, history.records()):
        columns = _SCHEMA[kind][1]
        members[kind] = object_pieces({name: _column_pieces(column, records, index, table)
                                       for index, (name, column) in enumerate(columns.items())})
    write_text(path, chain(object_pieces(members), "\n"))


def _consumed(values: Iterable) -> Iterator:
    """Each of `values` in order; a list is emptied as it is read, so each cell is freed once its record is built."""
    if not isinstance(values, list):
        return iter(values)
    values.reverse()
    # one pop per cell, called from C: cheaper than a generator that pops
    return starmap(values.pop, repeat((), len(values)))


def _records_from_columns(kind: str, table: object, strings: list) -> list:
    """Check one format-3 collection column by column, then build its records, emptying the decoded columns.

    Each column's names are resolved in place first, so the column's check sees the strings they index.
    """
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
            if column.resolve is not None:
                column.resolve(values, strings)
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


def _records_of_format_three(raw: Mapping) -> list[list]:
    unknown = [key for key in raw if key not in ("format", "strings") and key not in EXPORTS]
    if unknown:
        raise _Malformed(f"unknown key {unknown[0]!r}")
    missing = [kind for kind in EXPORTS if kind not in raw]
    if missing:
        raise _Malformed(f"missing collection {missing[0]!r}")
    strings = raw.get("strings", _ABSENT)
    if type(strings) is not list:
        raise _Malformed("missing key 'strings'" if strings is _ABSENT else "'strings' must be an array")
    return [_records_from_columns(kind, raw[kind], strings) for kind in EXPORTS]


def load_snapshot(path: str | Path) -> ProjectHistory:
    """Read and re-validate a format-3 snapshot; every record constructor runs."""
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
        # format 2 is the one earlier versions wrote with a "format" key
        rewrite = version == 2 and type(version) is int
        fix = f"; re-run `sprintlint ingest` to write format {SNAPSHOT_FORMAT}" if rewrite else ""
        raise ParseError(f"{path}: unsupported snapshot format {version!r}{fix}")
    try:
        records = _records_of_format_three(raw)
    except _Malformed as exc:
        raise ParseError(f"{path} holds a malformed snapshot: {exc}") from None
    return ProjectHistory(*records)
