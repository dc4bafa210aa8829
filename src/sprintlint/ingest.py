"""Readers and writers for the canonical export formats.

Formats:
  commits  -- newline-delimited JSON, one commit object per line
  issues   -- JSON array of user stories
  sprints  -- JSON array of sprint definitions
  pulls    -- JSON array of pull requests
  stats    -- CSV with header ``commit_id,coverage_percent,complexity``

Readers collect malformed records as positioned issues instead of aborting,
so one bad line does not hide the rest of a file. Unknown extra fields are
ignored for forward compatibility. Writers emit the same schemas back out;
write-then-read of any valid record set is the identity.
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
from pathlib import Path

from .errors import ParseError
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


def _as_number(obj: Mapping, key: str) -> float:
    value = _need(obj, key)
    # a type test, not isinstance: it excludes bool, and it costs less per row
    if type(value) is float:
        return value
    if type(value) is not int:
        raise _FieldError(key, f"{key!r} must be a number")
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
        # a keyword call costs up to a microsecond more
        files.append(FileChange(_as_str(entry, "path"), _as_int(entry, "added"), _as_int(entry, "deleted")))
    author = _as_str(raw, "author")
    author = alias_map.get(author, author)
    team = _as_str(raw, "team")
    return Commit(
        _as_str(raw, "id"),
        author,
        _as_ts(raw, "authored_at"),
        tuple(_as_str_list(raw, "parents")),
        _as_str(raw, "message", allow_empty=True),
        tuple(files),
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
        labels=frozenset(_as_str_list(raw, "labels")),
        milestones=tuple(memberships),
        assignees=frozenset(assignees),
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


def _stats_from_dict(raw: Mapping) -> BuildStats:
    return BuildStats(
        _as_str(raw, "commit_id"), _as_number(raw, "coverage_percent"), _as_number(raw, "complexity")
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


def _read_array_records(rows: list, what: str, parser: Callable) -> tuple[list, list[ParseIssue]]:
    """Parse each entry of a decoded JSON array, collecting bad ones by their index."""
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


def _read_array_file(path: str | Path, what: str, parser: Callable) -> tuple[list, list[ParseIssue]]:
    data = read_json(path)
    if not isinstance(data, list):
        raise ParseError(f"{path} must contain a JSON array of {what}")
    return _read_array_records(data, what, parser)


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


def stats_to_dict(stat: BuildStats) -> dict:
    return {"commit_id": stat.commit_id, "coverage_percent": stat.coverage_percent,
            "complexity": stat.complexity}


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


# export kind -> (what its entries are called, snapshot record parser, record writer)
_SNAPSHOT_RECORDS: dict[str, tuple[str, Callable[[dict], object], Callable[[object], dict]]] = {
    "commits": ("commits", lambda raw: _commit_from_dict(raw, {}, {}), commit_to_dict),
    "issues": ("stories", lambda raw: _story_from_dict(raw, {}, {}), story_to_dict),
    "sprints": ("sprints", lambda raw: _sprint_from_dict(raw, {}), sprint_to_dict),
    "pulls": ("pull requests", lambda raw: _pull_from_dict(raw, {}), pull_to_dict),
    "stats": ("stats", _stats_from_dict, stats_to_dict),
}


def snapshot_to_dict(history: ProjectHistory) -> dict:
    doc = {}
    for kind, records in zip(EXPORTS, history.records()):
        _, _, writer = _SNAPSHOT_RECORDS[kind]
        doc[kind] = [writer(record) for record in records]
    return doc


def write_snapshot(path: str | Path, history: ProjectHistory) -> None:
    write_text(path, canonical_json(snapshot_to_dict(history)) + "\n")


def load_snapshot(path: str | Path) -> ProjectHistory:
    """Read a snapshot through the export readers' record loop and record checks."""
    raw = read_json(path)
    if not isinstance(raw, Mapping):
        raise ParseError(f"{path} must contain a snapshot object")
    records = []
    for kind in EXPORTS:
        what, parser, _ = _SNAPSHOT_RECORDS[kind]
        rows = raw.get(kind, [])
        if not isinstance(rows, list):
            raise ParseError(f"{path} holds a malformed snapshot: {kind!r} must be an array")
        found, issues = _read_array_records(rows, what, parser)
        if issues:
            raise ParseError(f"{path} holds a malformed snapshot: {issues[0].message}")
        records.append(found)
    return build_history(*records)
