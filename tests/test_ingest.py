"""Export readers/writers: round-trips, malformed-line collection, text helpers."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from sprintlint import (
    BuildStats,
    Commit,
    FileChange,
    ParseError,
    PullRequest,
    Sprint,
    SprintMembership,
    StoryState,
    UserStory,
    build_history,
    count_checkboxes,
    story_text_length,
)
from sprintlint.ingest import (
    EXPORTS,
    IngestManifest,
    load_history,
    load_snapshot,
    read_commits,
    read_issues,
    read_pulls,
    read_sprints,
    read_stats,
    write_commits,
    write_issues,
    write_pulls,
    write_snapshot,
    write_sprints,
    write_stats,
)
from sprintlint import ingest, serialize
from sprintlint.fixtures import FixtureSpec, generate, inject
from sprintlint.serialize import array_pieces, canonical_json, format_iso_utc, object_pieces, parse_iso_utc
from conftest import DAY, T0, change, collector_paused, make_commit, make_pull, make_sprint, make_story
from test_golden import ALL_DIRECTIVES
from test_rejections import JSON_VALUES


def test_count_checkboxes_empty():
    assert count_checkboxes("") == 0


def test_count_checkboxes_two_literal_items():
    assert count_checkboxes("- [ ] a\n- [x] b") == 2


def test_count_checkboxes_interleaved_body():
    # 7 real task items buried in a 50-line body; hand-counted
    lines = []
    for i in range(40):
        lines.append(f"some prose line {i}")
    lines.insert(3, "- [ ] first")
    lines.insert(9, "  - [x] second (indented)")
    lines.insert(14, "* [ ] third, star bullet")
    lines.insert(20, "\t- [X] fourth, tab indent")
    lines.insert(27, "- [ ] fifth")
    lines.insert(33, "* [x] sixth")
    lines.insert(41, "- [ ] seventh")
    # decoys that must not count
    lines.insert(5, "-[ ] missing space after dash")
    lines.insert(22, "- [] empty brackets")
    lines.insert(30, "1. [ ] numbered list is not a task bullet")
    body = "\n".join(lines)
    assert len(lines) == 50
    assert count_checkboxes(body) == 7


def test_story_text_length_normalizes_whitespace():
    assert story_text_length("a  b", "c\n\nd") == len("a b c d")
    assert story_text_length("title", "") == 5
    assert story_text_length("", "body") == 4


def _commit_line(cid="c1", team="alpha"):
    return {
        "id": cid,
        "author": "ann@example.org",
        "authored_at": "2015-01-12T14:03:00Z",
        "parents": [],
        "message": "first",
        "files": [{"path": "src/a.py", "added": 3, "deleted": 1}],
        "team": team,
    }


def test_read_commits_empty_file(tmp_path):
    path = tmp_path / "commits.ndjson"
    path.write_text("", encoding="utf-8")
    records, issues = read_commits(path)
    assert records == [] and issues == []


def test_read_commits_round_trips_fields(tmp_path):
    path = tmp_path / "commits.ndjson"
    raw = _commit_line()
    path.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    records, issues = read_commits(path)
    assert issues == []
    (commit,) = records
    assert commit.id == "c1"
    assert commit.author == "ann@example.org"
    assert commit.message == "first"
    assert commit.team == "alpha"
    assert commit.files[0].path == "src/a.py"
    assert commit.files[0].lines_added == 3
    assert commit.files[0].lines_deleted == 1
    write_commits(tmp_path / "out.ndjson", records)
    assert json.loads((tmp_path / "out.ndjson").read_text(encoding="utf-8")) == raw


def test_read_commits_collects_bad_line_with_number(tmp_path):
    path = tmp_path / "commits.ndjson"
    lines = [json.dumps(_commit_line(cid=f"c{i}")) for i in range(1, 101)]
    lines[56] = '{"id": "broken"'  # line 57
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records, issues = read_commits(path)
    assert len(records) == 99
    assert len(issues) == 1
    assert issues[0].location == 57


def test_read_commits_missing_file_raises():
    with pytest.raises(ParseError):
        read_commits("/nonexistent/commits.ndjson")


def _story_entry(number=1, labels=(), history=None, body=""):
    return {
        "number": number,
        "title": f"Story {number}",
        "body": body,
        "state": "closed",
        "labels": list(labels),
        "milestone_history": history or [{"sprint_id": "s1", "assigned_at": "2015-01-05T00:00:00Z"}],
        "assignees": ["ann@example.org"],
        "created_at": "2015-01-04T00:00:00Z",
        "closed_at": "2015-01-18T00:00:00Z",
        "team": "alpha",
    }


def test_read_issues_preserves_duplicate_label(tmp_path):
    path = tmp_path / "issues.json"
    path.write_text(json.dumps([_story_entry(labels=["duplicate"])]), encoding="utf-8")
    records, issues = read_issues(path)
    assert issues == []
    assert records[0].labels == frozenset({"duplicate"})


def test_read_issues_empty_body_is_legal(tmp_path):
    path = tmp_path / "issues.json"
    path.write_text(json.dumps([_story_entry(body="")]), encoding="utf-8")
    records, issues = read_issues(path)
    assert issues == []
    assert records[0].body == ""


def test_read_issues_membership_order_preserved(tmp_path):
    history = [
        {"sprint_id": "s3", "assigned_at": "2015-01-05T00:00:00Z"},
        {"sprint_id": "s1", "assigned_at": "2015-01-06T00:00:00Z"},
        {"sprint_id": "s2", "assigned_at": "2015-01-07T00:00:00Z"},
    ]
    path = tmp_path / "issues.json"
    path.write_text(json.dumps([_story_entry(history=history)]), encoding="utf-8")
    records, issues = read_issues(path)
    assert issues == []
    assert records[0].sprint_memberships == ("s3", "s1", "s2")


def test_read_stats_direct_mapping(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text("commit_id,coverage_percent,complexity\nabc,81.5,120.0\n", encoding="utf-8")
    records, issues = read_stats(path)
    assert issues == []
    (row,) = records
    assert (row.commit_id, row.coverage_percent, row.complexity) == ("abc", 81.5, 120.0)


def test_read_stats_rejects_out_of_range_coverage(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text("commit_id,coverage_percent,complexity\nabc,101,5\n", encoding="utf-8")
    records, issues = read_stats(path)
    assert records == []
    assert len(issues) == 1 and "abc" in issues[0].message


def test_read_stats_issue_line_counts_a_quoted_newline(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text(
        'commit_id,coverage_percent,complexity\n"a\nb",50,5\nabc,101,5\n', encoding="utf-8"
    )
    records, issues = read_stats(path)
    assert [r.commit_id for r in records] == ["a\nb"]
    assert [i.location for i in issues] == [4]


def test_read_stats_unknown_commit_deferred_to_build(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text(
        "commit_id,coverage_percent,complexity\nc1,50,5\nc2,60,6\nghost,70,7\n",
        encoding="utf-8",
    )
    records, issues = read_stats(path)
    assert issues == [] and len(records) == 3
    commits = [make_commit("c1", T0), make_commit("c2", T0 + 1)]
    with pytest.raises(Exception, match="ghost"):
        build_history(commits=commits, build_stats=records)


def test_stats_commit_id_with_a_comma_round_trips(tmp_path):
    path = tmp_path / "stats.csv"
    for commit_id in ("abc,def", "a\nb"):
        row = BuildStats(commit_id=commit_id, coverage_percent=81.5, complexity=120.0)
        write_stats(path, [row])
        records, issues = read_stats(path)
        assert issues == []
        assert records == [row]


def test_read_stats_oversized_field_is_a_positioned_parse_error(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text(
        f'commit_id,coverage_percent,complexity\nc1,50,5\n"{"x" * 200_000}",50,5\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=r"stats\.csv:3: field larger than field limit"):
        read_stats(path)


def test_read_stats_requires_header(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_stats(path)


@pytest.mark.parametrize("start", ["a,b,c\n", f'commit_id,coverage_percent,complexity\n"{"x" * 200_000}",50,5\n'],
                         ids=["no-header", "oversized-field"])
def test_a_stats_file_that_is_not_utf8_fails_as_that_before_its_rows_fail(tmp_path, start):
    # the bad byte comes after the rows that fail, as it would come after what a reader decodes first
    path = tmp_path / "stats.csv"
    path.write_bytes(start.encode("utf-8") + b"c1,50,5\n" * 2000 + b"\xff\n")
    with pytest.raises(ParseError, match=r"cannot read .*stats\.csv: 'utf-8' codec can't decode byte 0xff"):
        read_stats(path)


def test_manifest_requires_a_source():
    with pytest.raises(ParseError):
        IngestManifest()


def test_manifest_rejects_duplicate_paths(tmp_path):
    path = tmp_path / "same.json"
    with pytest.raises(ParseError):
        IngestManifest({"commits": path, "issues": path})


def test_manifest_checks_its_kinds_and_maps(tmp_path):
    path = tmp_path / "commits.ndjson"
    with pytest.raises(ParseError, match="team_map must be an object mapping names to strings"):
        IngestManifest({"commits": path}, team_map={"t": 7})
    with pytest.raises(ParseError, match="alias_map"):
        IngestManifest({"commits": path}, alias_map={7: "ann@example.org"})
    with pytest.raises(ParseError, match="unknown export kind 'pull'"):
        IngestManifest({"commits": path, "pull": tmp_path / "pulls.json"})
    with pytest.raises(ParseError, match="commits or an issues file"):
        IngestManifest({"sprints": path})


def test_alias_and_team_maps_applied(tmp_path):
    commits = tmp_path / "commits.ndjson"
    raw = _commit_line()
    raw["author"] = "ann"
    raw["team"] = "repo-alpha"
    commits.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    paths = {"commits": commits}
    for kind, write, records in (
        ("issues", write_issues, [make_story(1, team="repo-alpha", assignees=("ann", "bob@example.org"))]),
        ("sprints", write_sprints, [make_sprint(team="repo-alpha")]),
        ("pulls", write_pulls, [make_pull(1, T0 + DAY, team="repo-alpha")]),
    ):
        paths[kind] = tmp_path / EXPORTS[kind]
        write(paths[kind], records)
    manifest = IngestManifest(
        paths,
        team_map={"repo-alpha": "alpha"},
        alias_map={"ann": "ann@example.org"},
    )
    history, diagnostics = load_history(manifest)
    assert diagnostics == []
    assert history.teams == ("alpha",)
    for records in (history.commits, history.stories, history.sprints, history.pulls):
        assert [r.team for r in records] == ["alpha"]
    assert history.commits[0].author == "ann@example.org"
    assert history.stories[0].assignees == {"ann@example.org", "bob@example.org"}


def _sample_records():
    sprint = make_sprint(days=7.0)
    commits = [
        make_commit("c1", T0 + DAY, files=[change("src/a.py", 3, 1)]),
        make_commit("c2", T0 + 2 * DAY, parents=("c1",), files=[change("src/b.py")]),
    ]
    stories = [
        make_story(1, labels=("Duplicate", "bug"), assignees=("ann@example.org",)),
        make_story(2, state="open", body="- [ ] a task\nprose"),
    ]
    pulls = [
        make_pull(1, T0 + DAY, closed=T0 + 2 * DAY, comments=2, merged=True),
        make_pull(2, T0 + 3 * DAY),
    ]
    from sprintlint import BuildStats

    stats = [
        BuildStats(commit_id="c1", coverage_percent=50.0, complexity=10.0),
        BuildStats(commit_id="c2", coverage_percent=52.25, complexity=11.5),
    ]
    return commits, stories, [sprint], pulls, stats


def test_write_then_read_is_identity(tmp_path):
    commits, stories, sprints, pulls, stats = _sample_records()
    original = build_history(commits, stories, sprints, pulls, stats)
    write_commits(tmp_path / "commits.ndjson", original.commits)
    write_issues(tmp_path / "issues.json", original.stories)
    write_sprints(tmp_path / "sprints.json", original.sprints)
    write_pulls(tmp_path / "pulls.json", original.pulls)
    write_stats(tmp_path / "stats.csv", original.build_stats)
    manifest = IngestManifest({kind: tmp_path / name for kind, name in EXPORTS.items()})
    reread, diagnostics = load_history(manifest)
    assert diagnostics == []
    assert reread == original


def test_snapshot_round_trip(tmp_path):
    commits, stories, sprints, pulls, stats = _sample_records()
    original = build_history(commits, stories, sprints, pulls, stats)
    write_snapshot(tmp_path / "snap.json", original)
    assert load_snapshot(tmp_path / "snap.json") == original
    # snapshots are canonical: writing again yields identical bytes
    first = (tmp_path / "snap.json").read_bytes()
    write_snapshot(tmp_path / "snap2.json", original)
    assert (tmp_path / "snap2.json").read_bytes() == first


@pytest.fixture
def iso_calls(monkeypatch):
    """Counts of the calls `ingest` makes to the ISO timestamp parser and formatter."""
    calls = {"parse_iso_utc": 0, "format_iso_utc": 0}

    def counted(name):
        original = getattr(ingest, name)

        def count(*args):
            calls[name] += 1
            return original(*args)

        return count

    for name in calls:
        monkeypatch.setattr(ingest, name, counted(name))
    return calls


def _injected_history():
    return inject(generate(FixtureSpec(teams=2, sprints=2))[0], ALL_DIRECTIVES, seed=7)[0]


# snapshot timestamps are epoch seconds, so neither direction formats or parses ISO text
def test_write_snapshot_formats_no_iso_timestamp(tmp_path, iso_calls):
    history = _injected_history()
    write_snapshot(tmp_path / "snap.json", history)
    assert iso_calls["format_iso_utc"] == 0
    write_sprints(tmp_path / "sprints.json", history.sprints[:1])
    assert iso_calls["format_iso_utc"] == 2  # the counter sees the module's own calls


def test_load_snapshot_parses_no_iso_timestamp(tmp_path, iso_calls):
    history = _injected_history()
    write_snapshot(tmp_path / "snap.json", history)
    assert load_snapshot(tmp_path / "snap.json") == history
    assert iso_calls["parse_iso_utc"] == 0
    write_sprints(tmp_path / "sprints.json", history.sprints[:1])
    read_sprints(tmp_path / "sprints.json")
    assert iso_calls["parse_iso_utc"] == 2  # the counter sees the module's own calls


def test_snapshot_carries_no_diagnostics(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, build_history(*_sample_records()))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "diagnostics" not in doc


def test_failed_snapshot_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, build_history(*_sample_records()))
    before = path.read_bytes()
    bad = build_history(commits=[make_commit("c1", T0, message="\ud800")], sprints=[make_sprint()])
    with pytest.raises(UnicodeEncodeError):
        write_snapshot(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


def test_write_text_writes_a_string_given_in_pieces(tmp_path):
    path = tmp_path / "out.txt"
    serialize.write_text(path, iter(["a", "", "\u00e9", "b\n"]))
    assert path.read_bytes() == "a\u00e9b\n".encode("utf-8")


@pytest.mark.parametrize("char", ["\u00e9", "\u20ac", "\U0001f600"], ids=["2-byte", "3-byte", "4-byte"])
def test_write_text_encodes_a_string_in_slices_that_split_no_character(tmp_path, char):
    # the character is the last of the first slice and the first of the second
    head = "x" * (serialize.SLICE - 1) + char
    text = f"{head}{char}y"
    assert list(serialize.utf8_slices(text)) == [head.encode("utf-8"), f"{char}y".encode("utf-8")]
    path = tmp_path / "out.txt"
    serialize.write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


def test_a_failing_piece_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")

    def pieces():
        yield "new, "
        yield "and more"
        raise RuntimeError("piece refused")

    with pytest.raises(RuntimeError, match="piece refused"):
        serialize.write_text(path, pieces())
    assert path.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_snapshot_holds_no_whole_copy_of_the_snapshot(tmp_path):
    history = generate(FixtureSpec(teams=2, sprints=20))[0]
    path = tmp_path / "snap.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_snapshot(path, history)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the text and the bytes of one whole copy alone would be twice the file
    assert peak < 2 * path.stat().st_size


@pytest.mark.parametrize(("kind", "bound"), [("commits", 0.5), ("stats", 1.0)])
def test_an_export_reader_holds_no_whole_copy_of_its_file(tmp_path, kind, bound):
    history = generate(FixtureSpec(teams=2, sprints=20))[0]
    path = tmp_path / EXPORTS[kind]
    records = dict(zip(EXPORTS, history.records()))[kind]
    getattr(ingest, f"write_{kind}")(path, records)
    with collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            found, issues = getattr(ingest, f"read_{kind}")(path)
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    assert (found, issues) == (list(records), [])
    # what the read held beyond the records it kept: reading the whole file first held 1.23 times
    # the commits file (its text and a list of its lines) and 4.19 times the stats file (its text
    # and a StringIO of it, 4 bytes a character)
    assert peak - kept < bound * path.stat().st_size


def test_load_snapshot_frees_each_decoded_cell_once_its_record_is_built(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, generate(FixtureSpec(teams=2, sprints=20))[0])
    # the collector is paused, as the CLI pauses it for each command
    with collector_paused():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            history = load_snapshot(path)
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
    assert history.commits
    # holding every decoded cell until the last record is built peaked at 1.78 times the history
    assert peak < 1.6 * kept


ITEMS = {"empty": [], "one-item": [{"b": 1, "a": [2, None]}], "many": [3, "\u00e9", [], {}, None, 1.5]}


@pytest.mark.parametrize("values", ITEMS.values(), ids=list(ITEMS))
def test_array_pieces_join_to_the_canonical_array(values):
    pieces = list(array_pieces(iter(values)))
    assert "".join(pieces) == canonical_json(values)
    # one piece per item, comma and bracket, so no item is joined to another before it is written
    assert len(pieces) == 2 * len(values) + 1 + (not values)


@pytest.mark.parametrize("members", [{}, {"k\u00e9": {"b": 1, "a": "x"}}, {"b": 2, "a": [1], "c": {"y": 1}}],
                         ids=["empty", "one-item", "many"])
def test_object_pieces_join_to_the_canonical_object(members):
    pieces = object_pieces({key: array_pieces([value]) for key, value in members.items()})
    assert "".join(pieces) == canonical_json({key: [value] for key, value in members.items()})


def test_a_written_snapshot_is_canonical_json(tmp_path):
    clean = generate(FixtureSpec(teams=2, sprints=3))[0]
    for history in (clean, inject(clean, ALL_DIRECTIVES, 5)[0], build_history()):
        path = tmp_path / "snap.json"
        write_snapshot(path, history)
        text = path.read_text(encoding="utf-8")
        assert canonical_json(json.loads(text)) + "\n" == text


def test_a_snapshot_written_in_small_batches_is_the_same_file(tmp_path, monkeypatch):
    history = inject(generate(FixtureSpec(teams=2, sprints=3))[0], ALL_DIRECTIVES, 5)[0]
    write_snapshot(tmp_path / "whole.json", history)
    monkeypatch.setattr(ingest, "SNAPSHOT_BATCH", 7)
    write_snapshot(tmp_path / "batched.json", history)
    assert (tmp_path / "batched.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_records_loaded_from_a_snapshot_share_equal_teams_authors_and_paths(tmp_path):
    commits = [make_commit(cid, T0, author="ann@example.org", files=[change("src/a.py")], parents=parents)
               for cid, parents in (("c1", ()), ("c2", ("c1",)))]
    path = tmp_path / "snap.json"
    write_snapshot(path, build_history(commits, sprints=[make_sprint()], build_stats=[BuildStats("c1", 50.0, 1.0)]))
    history = load_snapshot(path)
    first, second = history.commits
    assert first.team is second.team and first.author is second.author
    assert first.files[0].path is second.files[0].path
    # and each commit id is held once: a child's parent and the id's build stats name the commit's own id
    assert second.parents[0] is first.id and history.build_stats[0].commit_id is first.id


def test_records_read_from_exports_hold_each_commit_id_once(tmp_path):
    commits = [make_commit(cid, T0 + DAY * index, parents=parents)
               for index, (cid, parents) in enumerate((("c1", ()), ("c2", ("c1",))))]
    write_commits(tmp_path / "commits.ndjson", commits)
    write_stats(tmp_path / "stats.csv", [BuildStats("c1", 50.0, 1.0)])
    manifest = IngestManifest({"commits": tmp_path / "commits.ndjson", "stats": tmp_path / "stats.csv"})
    history, diagnostics = load_history(manifest)
    assert diagnostics == []
    first, second = history.commits
    # json and csv make a new string for each occurrence; the readers share the first one read
    assert second.parents[0] is first.id and history.build_stats[0].commit_id is first.id


def test_write_text_removes_its_temporary_when_the_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(serialize.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        serialize.write_text(path, "new")
    assert path.read_text(encoding="utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_text_into_a_missing_directory_names_the_path_asked_for(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        serialize.write_text(path, "text")
    assert info.value.filename == str(path)


def test_write_text_writes_through_a_symbolic_link(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    serialize.write_text(link, "new")
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "new"


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("2015-01-12T14:03:00Z", 1421071380.0),
        ("2015-01-12T16:03:00+02:00", 1421071380.0),
        ("2015-01-12T14:03:00.250000-00:30", 1421073180.25),
        ("0001-01-01T00:00:00Z", -62135596800.0),
        ("9999-12-31T23:59:59Z", 253402300799.0),
        ("9999-12-31T23:59:59.999900Z", 253402300799.9999),
    ],
)
def test_parse_iso_utc_reads_every_instant_format_iso_utc_writes(text, expected):
    assert parse_iso_utc(text) == expected
    assert parse_iso_utc(format_iso_utc(expected)) == expected


@pytest.mark.parametrize(
    "text",
    [
        "0001-01-01T00:00:00+01:00",
        "9999-12-31T23:59:59-01:00",
        "9999-12-31T23:59:59.999999Z",  # rounds up to year 10000 as a float
    ],
)
def test_parse_iso_utc_rejects_instants_format_iso_utc_cannot_write(text):
    with pytest.raises(ParseError, match=r"authored_at is out of range \(years 1 to 9999 in UTC\)"):
        parse_iso_utc(text, "authored_at")


def test_unknown_extra_fields_ignored(tmp_path):
    raw = _commit_line()
    raw["committer_tz"] = "+0200"  # forward-compat field
    path = tmp_path / "commits.ndjson"
    path.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    records, issues = read_commits(path)
    assert issues == [] and len(records) == 1


def test_read_sprints_and_pulls(tmp_path):
    sprints_path = tmp_path / "sprints.json"
    sprint = make_sprint()
    write_sprints(sprints_path, [sprint])
    records, issues = read_sprints(sprints_path)
    assert issues == [] and records == [sprint]

    pulls_path = tmp_path / "pulls.json"
    pull = make_pull(4, T0, closed=T0 + 120.0, comments=0, merged=True)
    write_pulls(pulls_path, [pull])
    records, issues = read_pulls(pulls_path)
    assert issues == [] and records == [pull]


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'


@given(value=JSON_VALUES)
def test_canonical_json_matches_json_dumps_with_its_arguments(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_a_unicode_line_separator_in_a_message_round_trips(tmp_path, separator):
    # JSON allows these raw inside a string, and canonical_json writes them raw
    commits = [make_commit("c1", T0, message=f"one{separator}two"), make_commit("c2", T0 + DAY)]
    path = tmp_path / "commits.ndjson"
    write_commits(path, commits)
    assert separator in path.read_text(encoding="utf-8")
    assert read_commits(path) == (commits, [])
    with path.open("a", encoding="utf-8") as out:
        out.write('{"id": "broken"\n')
    records, issues = read_commits(path)
    assert records == commits
    assert [(i.location, i.message) for i in issues] == [(3, "invalid JSON: Expecting ',' delimiter")]


# any character but a lone surrogate, which no UTF-8 file can hold, with the
# separators of the three formats drawn often
SPECIAL = "\n\r\t\x00\x85\u2028\u2029\"\\, "
TEXT = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(SPECIAL))
NAMES = TEXT.filter(bool)
# whole seconds in years 1 to 9999, each of which an ISO export writes exactly
STAMPS = st.integers(int(serialize.FIRST_TS), int(serialize.END_TS) - 1).map(float)
COUNTS = st.integers(0, 2**63)


@st.composite
def histories(draw):
    # some names come from one small pool, so one string may be a team, an author, a path, a parent, a label
    # and a commit id at once, as a snapshot's string table holds it once for all of them
    pool = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    names = st.sampled_from(pool) | NAMES
    teams = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    sprints = []
    for sprint_id in draw(st.lists(names, max_size=3, unique=True)):
        start, due = draw(st.lists(STAMPS, min_size=2, max_size=2, unique=True).map(sorted))
        sprints.append(Sprint(sprint_id, draw(TEXT), start, due, draw(st.sampled_from(teams))))
    sprint_ids = [s.id for s in sprints]
    commits = [
        Commit(commit_id, draw(names), draw(STAMPS), draw(st.lists(names, max_size=2)), draw(TEXT),
               [FileChange(draw(names), draw(COUNTS), draw(COUNTS)) for _ in range(draw(st.integers(0, 2)))],
               draw(st.sampled_from(teams)))
        for commit_id in draw(st.lists(names, max_size=3, unique=True))
    ]
    stories = []
    for team, number in draw(st.lists(st.tuples(st.sampled_from(teams), st.integers(1, 2**63)), max_size=3,
                                      unique=True)):
        memberships = [SprintMembership(s, draw(STAMPS))
                       for s in draw(st.lists(st.sampled_from(sprint_ids), unique=True))] if sprint_ids else []
        closed_at = draw(st.none() | STAMPS)
        state = StoryState.OPEN if closed_at is None else StoryState.CLOSED
        stories.append(UserStory(number, draw(TEXT), draw(TEXT), state, draw(st.lists(names, max_size=2)),
                                 memberships, draw(st.lists(names, max_size=2)), draw(STAMPS), closed_at, team))
    pulls = []
    for team, number in draw(st.lists(st.tuples(st.sampled_from(teams), st.integers(1, 2**63)), max_size=3,
                                      unique=True)):
        opened_at, closed_at = draw(st.lists(STAMPS, min_size=2, max_size=2).map(sorted))
        closed_at = draw(st.sampled_from([None, closed_at]))
        merged = closed_at is not None and draw(st.booleans())
        pulls.append(PullRequest(number, opened_at, closed_at, merged, draw(COUNTS), team))
    stats = [BuildStats(c.id, draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, allow_infinity=False)))
             for c in commits if draw(st.booleans())]
    return build_history(commits, stories, sprints, pulls, stats)


# one name as every kind of name, and as free text, which stays inline
ONE_NAME = build_history(
    [Commit("x", "x", T0, ["x"], "x", [FileChange("x", 1, 0)], "x")],
    [UserStory(1, "x", "x", StoryState.OPEN, ["x"], [SprintMembership("x", T0)], ["x"], T0, None, "x")],
    [Sprint("x", "x", T0, T0 + DAY, "x")], [], [BuildStats("x", 50.0, 1.0)],
)


def test_a_snapshot_writes_each_name_once_and_free_text_inline(tmp_path):
    path = tmp_path / "snap.json"
    write_snapshot(path, ONE_NAME)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["strings"] == ["x"]
    commits, stories = doc["commits"], doc["issues"]
    assert (commits["id"], commits["parents"], commits["files"]) == ([0], [[0]], [[[0, 1, 0]]])
    assert commits["message"] == ["x"]
    assert (stories["labels"], stories["title"], stories["state"]) == ([[0]], ["x"], ["open"])


@settings(max_examples=60, deadline=None)
@given(history=histories())
@example(history=ONE_NAME)
def test_write_then_read_of_any_valid_record_set_is_the_identity(tmp_path_factory, history):
    directory = tmp_path_factory.mktemp("round-trip")
    read = []
    for kind, records in zip(EXPORTS, history.records()):
        path = directory / EXPORTS[kind]
        getattr(ingest, f"write_{kind}")(path, records)
        found, issues = getattr(ingest, f"read_{kind}")(path)
        assert (found, issues) == (list(records), []), kind
        read.append(found)
    assert build_history(*read) == history
    write_snapshot(directory / "snap.json", history)
    loaded = load_snapshot(directory / "snap.json")
    assert loaded == history
    write_snapshot(directory / "again.json", loaded)
    assert (directory / "again.json").read_bytes() == (directory / "snap.json").read_bytes()


def test_a_carriage_return_in_a_stats_commit_id_round_trips(tmp_path):
    stats = [BuildStats("a\rb", 50.0, 1.0), BuildStats('"\r\n"', 0.1 + 0.2, 2), BuildStats("c", 1.0, 1.0)]
    write_stats(tmp_path / "stats.csv", stats)
    text = (tmp_path / "stats.csv").read_bytes().decode("utf-8")
    # only an id holding a carriage return is quoted, and only the id
    assert text.split("\n", 1)[1] == '"a\rb",50.0,1.0\n"""\r\n""",0.30000000000000004,2\nc,1.0,1.0\n'
    assert read_stats(tmp_path / "stats.csv") == (stats, [])


def test_stats_and_commits_files_with_crlf_line_ends_read(tmp_path):
    path = tmp_path / "stats.csv"
    path.write_bytes(b'commit_id,coverage_percent,complexity\r\nc1,50.0,1.0\r\n"c\r2",60.0,2.0\r\n\r\n')
    assert read_stats(path) == ([BuildStats("c1", 50.0, 1.0), BuildStats("c\r2", 60.0, 2.0)], [])
    commits = [make_commit("c1", T0, message="a\r\nb"), make_commit("c2", T0 + DAY)]
    path = tmp_path / "commits.ndjson"
    write_commits(path, commits)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_commits(path) == (commits, [])


def test_each_export_and_its_snapshot_collection_name_one_field_per_record_field(tmp_path):
    history = _injected_history()
    write_snapshot(tmp_path / "snap.json", history)
    columns = json.loads((tmp_path / "snap.json").read_text(encoding="utf-8"))
    for kind, records in zip(EXPORTS, history.records()):
        path = tmp_path / EXPORTS[kind]
        getattr(ingest, f"write_{kind}")(path, records)
        text = path.read_text(encoding="utf-8")
        if kind == "stats":
            names = text.split("\n", 1)[0].split(",")
        elif kind == "commits":
            names = list(json.loads(text.split("\n", 1)[0]))
        else:
            names = list(json.loads(text)[0])
        assert sorted(names) == sorted(columns[kind]), kind
        assert len(names) == len(type(records[0])._fields), kind
