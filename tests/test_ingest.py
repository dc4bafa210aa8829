"""Export readers/writers: round-trips, malformed-line collection, text helpers."""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import tracemalloc
from datetime import datetime, timezone

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
    ParseIssue,
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
from test_rejections import COMMIT, JSON_VALUES, PULL, SPRINT, STORY


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
    text = "x" * (serialize.SLICE - 1) + f"{char}{char}y"
    path = tmp_path / "out.txt"
    serialize.write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


@settings(deadline=None)
@given(lengths=st.lists(st.sampled_from([0, 1, 7, serialize.SLICE - 1, serialize.SLICE, 2 * serialize.SLICE + 3]),
                        max_size=6))
@example(lengths=[10] * 10_000)
def test_write_text_writes_the_bytes_of_its_pieces_joined(tmp_path_factory, lengths):
    pieces = ["\u00e9" * length if position % 2 else "x" * length for position, length in enumerate(lengths)]
    path = tmp_path_factory.mktemp("pieces") / "out.txt"
    serialize.write_text(path, iter(pieces))
    assert path.read_bytes() == "".join(pieces).encode("utf-8")


def test_write_text_holds_a_long_string_as_bytes_a_slice_at_a_time(tmp_path):
    # 1 Mi characters of 4 bytes each: 4 MiB of UTF-8
    text = "\U0001f600" * (1 << 20)
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        serialize.write_text(path, text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert path.stat().st_size == 4 << 20
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
    # one piece per item, a comma starting each but the first, and one per bracket,
    # so no item is joined to another before it is written
    assert len(pieces) == len(values) + 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda values: (value for value in values)}
DUMPS = {"list": list, "wrapped": lambda batch: [{"item": value, "twice": [value, value]} for value in batch]}


@settings(deadline=None)
@given(st.lists(JSON_VALUES, max_size=12), st.sampled_from(list(CONTAINERS)), st.sampled_from(list(DUMPS)))
def test_array_pieces_join_to_the_canonical_array_of_the_dump_in_any_batch(values, container, dump):
    for batch in range(1, len(values) + 3):
        pieces = list(array_pieces(CONTAINERS[container](values), batch, DUMPS[dump]))
        assert "".join(pieces) == canonical_json(DUMPS[dump](list(values))), batch
        # a bracket at each end and one piece per batch between them
        assert len(pieces) == 2 + -(-len(values) // batch), batch


def test_array_pieces_reads_and_dumps_a_batch_only_when_its_piece_is_asked_for():
    dumped = []

    def dump(batch):
        dumped.append(batch)
        return batch

    # as the snapshot's string table is: filled while the columns before it are written
    table = {}
    pieces = array_pieces(table, 2, dump)
    table.update(dict.fromkeys("abcde", 0))
    assert (next(pieces), dumped) == ("[", [])
    assert (next(pieces), dumped) == ('"a","b"', [["a", "b"]])
    assert (next(pieces), dumped) == (',"c","d"', [["a", "b"], ["c", "d"]])
    assert list(pieces) == [',"e"', "]"] and dumped == [["a", "b"], ["c", "d"], ["e"]]


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


@given(stamp=st.floats(serialize.FIRST_TS, serialize.END_TS - 1))
@example(stamp=serialize.FIRST_TS)
@example(stamp=1421071380.25)
def test_format_iso_utc_writes_seconds_and_microseconds_only_when_there_are_any(stamp):
    moment = datetime.fromtimestamp(stamp, tz=timezone.utc)
    spec = "microseconds" if moment.microsecond else "seconds"
    assert format_iso_utc(stamp) == moment.isoformat(timespec=spec).replace("+00:00", "Z")


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


# the cases a drawn history may miss: fractional seconds, an unmerged closed pull, empty parents, files,
# labels and milestones, text with U+2028, quotes, backslashes and control characters, and stats ids
# holding each character csv quotes
ODD_TEXT = 'a\u2028b "q" \\ \x00\x1f\x7f\t\r\n\u00e9'
ODD_IDS = ["plain", 'a,"b\r\nc', "comma,", 'quote"', "cr\r", "lf\n"]
EDGES = build_history(
    [Commit(ODD_IDS[0], "Ann", T0 + 0.5, [], ODD_TEXT, [], "alpha"),
     *(Commit(commit_id, "bob", T0 + DAY + 0.000001, [ODD_IDS[0]], "", [FileChange(ODD_TEXT, 0, 2**63)], "alpha")
       for commit_id in ODD_IDS[1:])],
    [UserStory(1, ODD_TEXT, "", StoryState.OPEN, [], [], [], T0 + 0.25, None, "alpha"),
     UserStory(2, "", ODD_TEXT, StoryState.CLOSED, ["b", ODD_TEXT], [SprintMembership("s1", T0 + 1.75)],
               ["Bob", "ann"], T0, T0 + DAY + 0.125, "alpha")],
    [Sprint("s1", ODD_TEXT, T0 - 0.5, T0 + 7 * DAY + 0.999999, "alpha")],
    [PullRequest(1, T0 + 0.1, T0 + DAY, False, 0, "alpha"), PullRequest(2, T0, T0 + 2.5, True, 3, "alpha"),
     PullRequest(3, T0 + 0.75, None, False, 2**63, "alpha")],
    [BuildStats(commit_id, 0.1 + 0.2, 2) for commit_id in ODD_IDS],
)


def _export_value(column, value):
    """`value` of a field of kind `column` as the schema-driven writer put it in the export object."""
    if column is ingest._EPOCH or column is ingest._OPTIONAL_EPOCH:
        return None if value is None else format_iso_utc(value)
    if column is ingest._STATE:
        return value.value
    if column is ingest._STR_SET:
        return sorted(value)
    if column is ingest._FILES or column is ingest._MEMBERSHIPS:
        fields = ingest._FILE_FIELDS if column is ingest._FILES else ingest._MEMBERSHIP_FIELDS
        return [_export_object(fields, entry) for entry in value]
    return value


def _export_object(fields, record):
    return {name: _export_value(column, value) for (name, column), value in zip(fields.items(), record)}


def _schema_driven_export(kind, records) -> str:
    """The text of the export of `records` as the writer driven by `_SCHEMA` wrote it: an export object per
    record through `canonical_json`, or the stats rows through `csv.writer`."""
    if kind == "stats":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        quoting_id = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(ingest.STATS_HEADER)
        for s in records:
            if "\r" in s.commit_id:
                quoting_id.writerow((s.commit_id, s.coverage_percent, s.complexity))
            else:
                writer.writerow((s.commit_id, repr(s.coverage_percent), repr(s.complexity)))
        return out.getvalue()
    objects = [_export_object(ingest._SCHEMA[kind][1], record) for record in records]
    if kind == "commits":
        return "".join(canonical_json(obj) + "\n" for obj in objects)
    return canonical_json(objects) + "\n"


@settings(max_examples=60, deadline=None)
@given(history=histories())
@example(history=EDGES)
@example(history=ONE_NAME)
def test_each_export_writer_writes_the_bytes_of_the_schema_driven_writer(tmp_path_factory, history):
    directory = tmp_path_factory.mktemp("export-bytes")
    for kind, records in zip(EXPORTS, history.records()):
        path = directory / EXPORTS[kind]
        getattr(ingest, f"write_{kind}")(path, records)
        assert path.read_bytes() == _schema_driven_export(kind, records).encode("utf-8"), kind


def test_each_written_object_holds_the_export_fields_its_schema_names(tmp_path):
    # a field added to `_SCHEMA` without its line writer fails here
    nested = {"files": ingest._FILE_FIELDS, "milestone_history": ingest._MEMBERSHIP_FIELDS}
    entries = dict.fromkeys(nested, 0)
    for kind, records in zip(EXPORTS, EDGES.records()):
        path = tmp_path / EXPORTS[kind]
        getattr(ingest, f"write_{kind}")(path, records)
        fields = sorted(ingest._SCHEMA[kind][1])
        if kind == "stats":
            with path.open(encoding="utf-8", newline="") as file:
                header, *rows = csv.reader(file)
            assert header == list(ingest._SCHEMA[kind][1])
            assert len(rows) == len(records) and {len(row) for row in rows} == {len(fields)}
            continue
        text = path.read_text(encoding="utf-8")
        # split at "\n" only: a message may hold U+2028
        objects = [json.loads(line) for line in text.split("\n")[:-1]] if kind == "commits" else json.loads(text)
        assert len(objects) == len(records), kind
        for obj in objects:
            assert sorted(obj) == fields, kind
            for name in nested.keys() & obj.keys():
                for entry in obj[name]:
                    assert sorted(entry) == sorted(nested[name]), name
                    entries[name] += 1
    assert all(entries.values()), entries


# a value of each type some field's reader rejects, the text of some holding a separator of each format, and
# an array of one file change whose line count is a boolean
WRONG_TYPES = [None, 1.5, True, False, 0, 2**70, "a,b\n", ("a",), ("a,b",), [1], {}, {"a"}, b"x", (("a", True, 0),)]


@pytest.mark.parametrize("kind", list(EXPORTS))
def test_a_field_of_a_type_the_readers_reject_fails_the_write_or_is_written_as_the_schema_driven_writer_did(
        tmp_path, kind):
    # the schema-driven writer wrote such a value as text its reader flags (a boolean number, a merged 1,
    # parents as a string) or as the value the field holds (labels from a string's characters), so a writer
    # that writes it otherwise turns it into a different valid value
    record = dict(zip(EXPORTS, EDGES.records()))[kind][-1]
    path = tmp_path / EXPORTS[kind]
    for index, field in enumerate(record._fields):
        for value in WRONG_TYPES:
            # the record's own constructor would check some of these, so it is built around it
            wrong = tuple.__new__(type(record), (*record[:index], value, *record[index + 1:]))
            path.write_text("old", encoding="utf-8")
            try:
                getattr(ingest, f"write_{kind}")(path, [wrong])
            except (TypeError, ValueError, AttributeError, OverflowError):
                assert path.read_text(encoding="utf-8") == "old", (field, value)
                continue
            assert path.read_text(encoding="utf-8") == _schema_driven_export(kind, [wrong]), (field, value)
            _, issues = getattr(ingest, f"read_{kind}")(path)
            # written text that parses: no line that is not JSON, no row that is not three columns
            assert not [i for i in issues if i.message.startswith(("invalid JSON", "expected 3"))], (field, value)


def test_write_stats_holds_no_whole_copy_of_its_file(tmp_path):
    stats = [BuildStats(f"team-{i % 2 + 1:02d}-c{i:06d}", 60 + i / 1e6, 100 + i / 1e5) for i in range(14_400)]
    path = tmp_path / "stats.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_stats(path, stats)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert read_stats(path) == (stats, [])
    # building the whole table in a StringIO and copying it out peaked at 3.86 times this file
    assert peak < path.stat().st_size


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


# --- the record builders against the `_SCHEMA` read --------------------------------
#
# Each JSON reader builds its records through one builder per kind (`_commit`, `_story`, `_sprint`, `_pull`),
# which words its own rejections. Before those, every export object was read by `_record_from_dict`, each
# field through its `_SCHEMA` column kind's read, the manifest maps applied through each kind's `through`.
# That read is copied below as the reference, with the readers that called it: each commits line decoded by
# `json.loads`, each object read by `_record_from_dict` alone.

_ABSENT = object()
_STATES = {state.value: state for state in StoryState}


def _rejected(value, key, message):
    return ingest._FieldError(key, f"missing field {key!r}" if value is _ABSENT else message)


def _kind_read(cls, expected, ok=None, items=None, convert=None, through=None):
    def read(value, key, maps):
        if (type(value) is not cls or ok is not None and not ok(value)
                or items is not None and not set(map(type, value)) <= {items}):
            raise _rejected(value, key, f"{key!r} must be {expected}")
        if through is not None:
            passed = maps[through]
            return passed(value, value) if items is None else list(map(passed, value, value))
        return value if convert is None else convert(value)
    return read


def _epoch_read(optional=False):
    def read(value, key, maps):
        if optional and (value is None or value is _ABSENT):
            return None
        try:
            return parse_iso_utc(value, key)
        except ParseError as exc:
            raise _rejected(value, key, str(exc)) from None
    return read


def _reads(fields):
    return tuple(fields.items())


def _record_from_dict(record_class, reads, raw, maps):
    """The record that the export object `raw` holds, its fields read by `reads`."""
    return record_class._make([read(raw.get(name, _ABSENT), name, maps) for name, read in reads])


def _entries_read(record_class, fields):
    reads = _reads(fields)

    def read(value, key, maps):
        if type(value) is not list:
            raise _rejected(value, key, f"{key!r} must be an array")
        entries = []
        for index, entry in enumerate(value):
            if type(entry) is not dict:
                raise ingest._FieldError(key, f"{key}[{index}] must be an object")
            entries.append(_record_from_dict(record_class, reads, entry, maps))
        return entries
    return read


def _maps(team_map, alias_map=None):
    return {"team_map": (team_map or {}).get, "alias_map": (alias_map or {}).get}


_ID = _kind_read(str, "a non-empty string", ok=len)
_TEXT = _kind_read(str, "a string")
_TEAM = _kind_read(str, "a non-empty string", ok=len, through="team_map")
_AUTHOR = _kind_read(str, "a non-empty string", ok=len, through="alias_map")
_INT = _kind_read(int, "an integer")
_EPOCH = _epoch_read()
_STRINGS = _kind_read(list, "an array of strings", items=str)
# export kind -> (record class, the reads of its fields in `_SCHEMA` order)
SCHEMA_READS = {kind: (record_class, _reads(fields)) for kind, (record_class, fields) in {
    "commits": (Commit, {"id": _ID, "author": _AUTHOR, "authored_at": _EPOCH, "parents": _STRINGS,
                         "message": _TEXT, "files": _entries_read(FileChange, {"path": _ID, "added": _INT,
                                                                               "deleted": _INT}),
                         "team": _TEAM}),
    "issues": (UserStory, {"number": _INT, "title": _TEXT, "body": _TEXT,
                           "state": _kind_read(str, "'open' or 'closed'", ok=_STATES.__contains__,
                                               convert=_STATES.__getitem__),
                           "labels": _STRINGS,
                           "milestone_history": _entries_read(SprintMembership, {"sprint_id": _ID,
                                                                                 "assigned_at": _EPOCH}),
                           "assignees": _kind_read(list, "an array of strings", items=str, through="alias_map"),
                           "created_at": _EPOCH, "closed_at": _epoch_read(optional=True), "team": _TEAM}),
    "sprints": (Sprint, {"id": _ID, "title": _TEXT, "starts_at": _EPOCH, "due_on": _EPOCH, "team": _TEAM}),
    "pulls": (PullRequest, {"number": _INT, "opened_at": _EPOCH, "closed_at": _epoch_read(optional=True),
                            "merged": _kind_read(bool, "a boolean"), "comments": _INT, "team": _TEAM}),
}.items()}


def _schema_read_commits(path, team_map=None, alias_map=None):
    maps = _maps(team_map, alias_map)
    records, issues = [], []
    with open(path, encoding="utf-8", newline="\n") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            line = line.removesuffix("\n")
            try:
                raw = json.loads(line)
                serialize.check_unicode(line, raw)
                if not isinstance(raw, dict):
                    raise ingest._FieldError("", "line is not a JSON object")
                records.append(_record_from_dict(*SCHEMA_READS["commits"], raw, maps))
            except json.JSONDecodeError as exc:
                issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc.msg}"))
            except RecursionError as exc:
                issues.append(ParseIssue(lineno, None, f"invalid JSON: {exc}"))
            except (ingest._FieldError, ValueError) as exc:
                issues.append(ParseIssue(lineno, getattr(exc, "field_name", None) or None, str(exc)))
    return records, issues


def _schema_read_array(kind, what, path, team_map=None, alias_map=None):
    maps = _maps(team_map, alias_map)
    records, issues = [], []
    for index, raw in enumerate(serialize.read_json(path)):
        try:
            if not isinstance(raw, dict):
                raise ingest._FieldError("", f"{what} entry is not an object")
            records.append(_record_from_dict(*SCHEMA_READS[kind], raw, maps))
        except (ingest._FieldError, ValueError) as exc:
            issues.append(ParseIssue(index, getattr(exc, "field_name", None) or None, str(exc)))
    return records, issues


# each JSON export kind -> its reader and the reference's, the manifest maps it takes, and its nested entries
JSON_READERS = {
    "commits": (read_commits, _schema_read_commits, 2, "files"),
    "issues": (read_issues, lambda *args: _schema_read_array("issues", "stories", *args), 2, "milestone_history"),
    "sprints": (read_sprints, lambda *args: _schema_read_array("sprints", "sprints", *args), 1, None),
    "pulls": (read_pulls, lambda *args: _schema_read_array("pulls", "pull requests", *args), 1, None),
}


def _outcome(read, *args):
    """What `read(*args)` returns, or the type and message of what it raises."""
    try:
        return read(*args)
    except Exception as exc:  # whatever a reader raises, the other must raise alike
        return type(exc).__name__, str(exc)


DELETE = object()
STAMP = "2015-01-12T14:03:00Z"
# values a field may be set to, or deleted: those near a valid value of some field, then any JSON value; the
# entry arrays whose first entry fails hold a second entry that is no object, which must be found only after it
NEAR_VALUES = [
    DELETE, "", "x", STAMP, "2015-01-12T14:03:00", "2015-01-12T14:03:00+01:00",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "yesterday", "open", "closed", 0, -1, 1, 2**63,
    True, False, 1.0, 1.5, None, [], ["a"], ["a", 1], ["a", True], [None], {}, [{}], [5],
    [{"path": "a", "added": 1, "deleted": 0}], [{"path": "a", "added": -1, "deleted": 0}, 5],
    [{"path": "", "added": 1, "deleted": 0}, 5], [{"path": "a", "added": True, "deleted": 0}, 5],
    [{"path": "a", "added": 1}, 5], [{"sprint_id": "s1", "assigned_at": STAMP}],
    [{"sprint_id": "", "assigned_at": STAMP}, 5], [{"sprint_id": "s1", "assigned_at": "yesterday"}, 5],
    [{"sprint_id": "s1"}, 5], [{"sprint_id": "s1", "assigned_at": STAMP}] * 2,
]
FIELD_VALUES = st.sampled_from(NEAR_VALUES) | JSON_VALUES
# pieces a splice puts into a commits file: JSON's own punctuation, whitespace, a BOM, a lone surrogate's
# escape, U+2028 and text
PIECES = st.sampled_from(["\n", "\r", " ", "\t", "\ufeff", "{", "}", "[", "]", ",", ":", '"', "\\", "\\ud800",
                          "null", "true", "0", "-1", "1e400", '"x"', "Z", "\u2028"]) | st.text(max_size=3)


def _mutated(data, obj, nested):
    """`obj`, with up to three of its fields (or, under `nested`, of its first entry's) set to a copy of a
    drawn value or deleted."""
    for _ in range(data.draw(st.integers(0, 3))):
        target = obj
        if nested in obj and type(obj[nested]) is list and obj[nested] and type(obj[nested][0]) is dict \
                and data.draw(st.booleans()):
            target = obj[nested][0]
        key = data.draw(st.sampled_from([*sorted(target), "extra"]))
        value = data.draw(FIELD_VALUES)
        if value is DELETE:
            target.pop(key, None)
        else:
            target[key] = copy.deepcopy(value)  # a later change may set a field inside it
    return obj


def _maps_drawn(data, names):
    """No map, or one taking some of `names` each to "" (which a record then rejects) or to another name."""
    if not names or data.draw(st.booleans()):
        return None
    return {name: data.draw(st.sampled_from(["", "mapped", name.upper()])) for name in names
            if data.draw(st.booleans())}


@settings(max_examples=100, deadline=None)
@given(history=histories(), data=st.data())
def test_each_json_reader_reads_as_the_schema_read_did(tmp_path_factory, history, data):
    # same records, issues and messages on valid objects, mutated ones, and byte splices of a commits file or
    # an array file's trailing entry of any JSON value, with and without manifest maps
    directory = tmp_path_factory.mktemp("builders")
    collections = {kind: [*records, *edges] for kind, records, edges in zip(EXPORTS, history.records(),
                                                                           EDGES.records()) if kind in JSON_READERS}
    team_map = _maps_drawn(data, sorted({record.team for records in collections.values() for record in records}))
    alias_map = _maps_drawn(data, sorted({*(commit.author for commit in collections["commits"]),
                                          *(name for story in collections["issues"] for name in story.assignees)}))
    for kind, records in collections.items():
        read, schema_read, maps, nested = JSON_READERS[kind]
        path = directory / EXPORTS[kind]
        getattr(ingest, f"write_{kind}")(path, records)
        text = path.read_text(encoding="utf-8")
        if kind == "commits":
            objects = [_mutated(data, json.loads(line), nested) for line in text.split("\n")[:-1]]
            text = "".join(json.dumps(obj, ensure_ascii=data.draw(st.booleans())) + "\n" for obj in objects)
            for _ in range(data.draw(st.integers(0, 2))):
                start = data.draw(st.integers(0, len(text)))
                end = data.draw(st.integers(start, min(len(text), start + 8)))
                text = text[:start] + data.draw(PIECES) + text[end:]
        else:
            objects = [_mutated(data, obj, nested) for obj in json.loads(text)]
            text = json.dumps([*objects, *data.draw(st.lists(JSON_VALUES, max_size=1))])
        path.write_bytes(text.encode("utf-8"))
        args = (path, team_map, alias_map)[:1 + maps]
        assert _outcome(read, *args) == _outcome(schema_read, *args), kind


# manifest maps under which a record's team or author is kept, renamed, or mapped to "" (which its record rejects)
MANIFEST_MAPS = [(None, None), ({"alpha": "beta"}, {"ann@example.org": "Bob"}), ({"alpha": ""}, None),
                 (None, {"ann@example.org": ""})]


def _one_change_each(base, nested=None):
    """`base` once as it is, then once with each of its fields, an extra one and each field of its first `nested`
    entry set to each of `NEAR_VALUES` (`DELETE` deletes it)."""
    yield base
    paths = [(key,) for key in [*base, "extra"]]
    if nested:
        paths += [(nested, 0, key) for key in [*base[nested][0], "extra"]]
    for *parents, key in paths:
        for value in NEAR_VALUES:
            changed = json.loads(json.dumps(base))
            target = changed
            for step in parents:
                target = target[step]
            if value is DELETE:
                target.pop(key, None)
            else:
                target[key] = value
            yield changed


@pytest.mark.parametrize("team_map, alias_map", MANIFEST_MAPS)
def test_each_builder_accepts_exactly_the_objects_the_schema_read_accepts(tmp_path, team_map, alias_map):
    # every one-field change of a valid object of each JSON export kind, read as the `_SCHEMA` read read it
    for kind, base in {"commits": COMMIT, "issues": STORY, "sprints": SPRINT, "pulls": PULL}.items():
        read, schema_read, maps, nested = JSON_READERS[kind]
        objects = list(_one_change_each(base, nested))
        path = tmp_path / EXPORTS[kind]
        text = "".join(json.dumps(obj) + "\n" for obj in objects) if kind == "commits" else json.dumps(objects)
        path.write_text(text, encoding="utf-8")
        args = (path, team_map, alias_map)[:1 + maps]
        expected = schema_read(*args)
        assert read(*args) == expected, kind
        assert 0 < len(expected[0]) < len(objects) and len(expected[1]) > len(objects) // 2, kind


BASE_LINE = json.dumps(_commit_line())
LONE_SURROGATE = BASE_LINE.replace('"first"', '"\\ud800"')
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line, issue", [
    (f"  {BASE_LINE}  ", None),
    (f"{BASE_LINE}\r", None),  # the line ended "\r\n"
    (f"\ufeff{BASE_LINE}", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (f"{BASE_LINE} x", "invalid JSON: Extra data"),
    (f"[{BASE_LINE}]", "line is not a JSON object"),
    (LONE_SURROGATE, "lone surrogate \\ud800 is not valid Unicode text"),
    (DEEP, "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
], ids=["spaces", "crlf", "bom", "trailing-data", "array", "lone-surrogate", "too-deep"])
def test_a_commit_line_the_decoder_cannot_read_whole_is_read_or_worded_as_json_loads_does(tmp_path, line, issue):
    path = tmp_path / "commits.ndjson"
    path.write_text(f"{BASE_LINE}\n{line}\n", encoding="utf-8", newline="")
    records, issues = read_commits(path)
    assert (records, issues) == _schema_read_commits(path)
    if issue is None:
        assert issues == [] and len(records) == 2 and records[0] == records[1]
    else:
        assert issues == [ParseIssue(2, None, issue)] and len(records) == 1


@pytest.mark.parametrize("kind, base, nested, entry, issue", [
    ("commits", COMMIT, "files", {"path": "", "added": 1, "deleted": 0},
     ParseIssue(1, "path", "'path' must be a non-empty string")),
    ("commits", COMMIT, "files", {"path": "a", "added": -1, "deleted": 0}, ParseIssue(1, None, "lines_added < 0 for a")),
    ("issues", STORY, "milestone_history", {"sprint_id": "", "assigned_at": STAMP},
     ParseIssue(0, "sprint_id", "'sprint_id' must be a non-empty string")),
], ids=["file-path", "file-count", "membership-sprint"])
def test_a_bad_entry_is_named_before_a_later_entry_that_is_no_object(tmp_path, kind, base, nested, entry, issue):
    # each entry is checked to be an object and then read, one after another, so entry 0 fails first
    path = tmp_path / EXPORTS[kind]
    obj = {**base, nested: [entry, 5]}
    path.write_text(json.dumps(obj) + "\n" if kind == "commits" else json.dumps([obj]), encoding="utf-8")
    assert JSON_READERS[kind][0](path) == ([], [issue])


class _Recording(dict):
    """A dict that notes each key read from it through `get`."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def test_each_record_builder_reads_the_fields_its_schema_names_in_order():
    # a field added to `_SCHEMA` fails here until its builder reads it, and in its place
    maps = _maps(None)
    builders = {
        "commits": (lambda raw: ingest._commit(raw, {}.get, {}.get, {}.setdefault), COMMIT, "files",
                    ingest._FILE_FIELDS),
        "issues": (lambda raw: ingest._story(raw, {}.get, {}.get), STORY, "milestone_history",
                   ingest._MEMBERSHIP_FIELDS),
        "sprints": (lambda raw: ingest._sprint(raw, {}.get), SPRINT, None, None),
        "pulls": (lambda raw: ingest._pull(raw, {}.get), PULL, None, None),
    }
    assert list(builders) == [kind for kind in EXPORTS if kind != "stats"]
    for kind, (build, base, nested, entry_fields) in builders.items():
        entry = nested and _Recording(base[nested][0])
        raw = _Recording({**base, nested: [entry]} if nested else base)
        assert build(raw) == _record_from_dict(*SCHEMA_READS[kind], base, maps), kind
        assert raw.read == list(ingest._SCHEMA[kind][1]), kind
        if nested:
            assert entry.read == list(entry_fields), kind


# --- the name lookup against the resolvers it replaced -----------------------------
#
# A snapshot's names are resolved through one lookup, `_lookup`: one call for a name column of cells, one for the
# items of an array column's array cells, and one per name field across an entry column's entries; a cell or an
# entry is walked again only to position a failure. Before it, three resolvers each decided which value was an
# index into the string table and where a bad one sat. They are copied below as the reference, with the helpers
# they called; the entry resolver's `itemgetter` and `setitem` maps are written as a comprehension and a loop.


def _all_of(cls, values):
    return set(map(type, values)) <= {cls}


def _reject_first(values, check):
    for index, value in enumerate(values):
        try:
            check(value)
        except ingest._Malformed as exc:
            raise ingest._Malformed(str(exc), f"[{index}]{exc.where}") from None


def _indexes(values):
    return _all_of(int, values) and (not values or min(values) >= 0)


def _index_check(strings):
    def check(value):
        if not (_indexes([value]) and value < len(strings)):
            raise ingest._Malformed(f"must be an index into strings, got {value!r}")
    return check


def _resolve_names(cells, strings):
    if _indexes(cells):
        try:
            cells[:] = map(strings.__getitem__, cells)
            return
        except IndexError:
            pass
    _reject_first(cells, _index_check(strings))


def _resolve_arrays(cells, strings):
    lookup = strings.__getitem__
    if _all_of(list, cells) and _indexes(list(itertools.chain.from_iterable(cells))):
        try:
            cells[:] = map(list, map(map, itertools.repeat(lookup), cells))
            return
        except IndexError:
            pass
    check = _index_check(strings)

    def resolve(cell):
        if type(cell) is list:
            _reject_first(cell, check)
            cell[:] = map(lookup, cell)

    _reject_first(cells, resolve)


def _resolve_entries(fields):
    """The resolver of an entry column of `fields`, an `_entries` field table."""
    width = len(fields)
    name_fields = [index for index, column in enumerate(fields.values()) if column.resolve is not None]

    def resolve(cells, strings):
        if _all_of(list, cells):
            entries = list(itertools.chain.from_iterable(cells))
            if _all_of(list, entries) and set(map(len, entries)) <= {width}:
                found = [[entry[field] for entry in entries] for field in name_fields]
                if all(map(_indexes, found)):
                    try:
                        names = [list(map(strings.__getitem__, indexes)) for indexes in found]
                    except IndexError:
                        pass
                    else:
                        for field, resolved in zip(name_fields, names):
                            for entry, name in zip(entries, resolved):
                                entry[field] = name
                        return
        check = _index_check(strings)

        def resolve_entry(entry):
            for field in name_fields:
                if type(entry) is list and field < len(entry):
                    try:
                        check(entry[field])
                    except ingest._Malformed as exc:
                        raise ingest._Malformed(str(exc), f"[{field}]") from None
                    entry[field] = strings[entry[field]]

        _reject_first(cells, lambda cell: type(cell) is list and _reject_first(cell, resolve_entry))

    return resolve


# each name column kind -> the reference's resolver and the shape of its cells
NAME_KINDS = {
    "ids": (ingest._ID, _resolve_names, "cells"),
    "parents": (ingest._PARENTS, _resolve_arrays, "arrays"),
    "labels": (ingest._STR_SET, _resolve_arrays, "arrays"),
    "files": (ingest._FILES, _resolve_entries(ingest._FILE_FIELDS), "entries"),
    "memberships": (ingest._MEMBERSHIPS, _resolve_entries(ingest._MEMBERSHIP_FIELDS), "entries"),
}
# values that are no index into any table, and cells or entries of another shape than their column's
NO_INDEXES = [-1, True, False, 3.0, 0.0, "0", "x", None, [0], {}]
OTHER_SHAPES = [None, 5, "ab", {}, {"0": 1}]


def _name_cells(data, shape, width):
    """A drawn column of `shape` holding names as indexes into a table of `width` strings, with some values that are
    no index and some cells or entries of another shape mixed in."""
    values = st.integers(0, width - 1) if width else st.nothing()
    values = values | st.sampled_from([*NO_INDEXES, width, width + 1])
    other = st.sampled_from(OTHER_SHAPES)
    if shape == "cells":
        return data.draw(st.lists(values, max_size=6))
    if shape == "arrays":
        return data.draw(st.lists(st.lists(values, max_size=3) | other, max_size=6))
    entries = st.builds(lambda name, rest: [name, *rest], values, st.lists(st.sampled_from([1, 0.0, -1, "x"]),
                                                                           max_size=3))
    return data.draw(st.lists(st.lists(entries | st.just([]) | other, max_size=3) | other, max_size=4))


def _resolved(resolve, cells, strings):
    """`cells` as `resolve` leaves them, or the position and message of the `_Malformed` it raises."""
    cells = copy.deepcopy(cells)
    try:
        resolve(cells, strings)
    except ingest._Malformed as exc:
        return exc.where, str(exc)
    return repr(cells)  # so 1 and True, or 1 and 1.0, differ


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(NAME_KINDS)), strings=st.lists(st.text(max_size=2), max_size=4), data=st.data())
def test_each_name_column_resolves_as_the_resolvers_it_replaced(kind, strings, data):
    column, reference, shape = NAME_KINDS[kind]
    cells = _name_cells(data, shape, len(strings))
    assert _resolved(column.resolve, cells, strings) == _resolved(reference, cells, strings)
