"""What a correct sprintlint run must produce on a benchmark workload.

Every check returns a list of problems; an empty list means the output
passed. The generator certifies that an uninjected history scores a clean
100 in every applicable cell, and records in ``ledger.json`` the exact
artifacts each injection directive planted. The checks below re-derive both
facts from the CLI's own outputs, and cross-check the narrowed report and the
trend CSV against the full report.
"""

from __future__ import annotations

import csv
import io

DETECTOR_FAILED = "detector failed"
DAILY_STORY_LOAD = "daily-story-load"
TREND_HEADER = ["team", "metric", "sprint_title", "due_on", "score"]
MAX_PROBLEMS = 5


def _capped(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_PROBLEMS:
        return problems
    return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]


def generate_problems(ledger_doc: dict, injection: dict | None) -> list[str]:
    """The self-lint certificate holds and the ledger has one entry per directive."""
    problems = []
    certificate = ledger_doc["certificate"]
    if not (certificate["violation_free"] and certificate["all_applicable_scores_100"]):
        problems.append(f"self-lint certificate does not hold: {certificate}")
    entries = ledger_doc["ledger"]["entries"]
    if len(entries) != len(injection or {}):
        problems.append(f"ledger has {len(entries)} entries for {len(injection or {})} directives")
    return problems


def ingest_problems(stdout: str, expected: dict[str, int]) -> list[str]:
    """The snapshot summary names exactly the record counts the generator wrote."""
    printed = {}
    for line in stdout.splitlines():
        key, _, value = line.strip().partition(":")
        if key in expected:
            printed[key] = int(value)
    return [
        f"ingest reported {printed.get(key)} {key}, expected {count}"
        for key, count in expected.items()
        if printed.get(key) != count
    ]


def cell_tally(report: dict) -> tuple[int, int]:
    """(evaluated cells, cells whose detector failed) in a lint report."""
    failed = sum(1 for r in report["results"] if (r["diagnostic"] or "").startswith(DETECTOR_FAILED))
    return len(report["results"]), failed


def report_problems(report: dict, ledger_entries: dict) -> list[str]:
    """Ledger targets carry exactly the planted artifacts; every other cell is a clean 100.

    A target cell of daily-story-load must also score below 100, since that
    check signals through its score alone. Cells whose detector failed are
    counted by `cell_tally`, not here.
    """
    targets = {
        (metric, entry["team"], entry["sprint"]): sorted(entry["artifacts"])
        for metric, entry in ledger_entries.items()
    }
    seen = set()
    problems = []
    for result in report["results"]:
        if (result["diagnostic"] or "").startswith(DETECTOR_FAILED):
            continue
        key = (result["metric"], result["team"], result["sprint"])
        where = " ".join(key)
        score, violations = result["score"], result["violations"]
        if key in targets:
            seen.add(key)
            found = sorted(a for v in violations for a in v["artifacts"])
            if found != targets[key]:
                problems.append(f"{where}: {len(found)} artifacts differ from the ledger's {len(targets[key])}")
            if result["metric"] == DAILY_STORY_LOAD and not (score is not None and score < 100.0):
                problems.append(f"{where}: injected quota scored {score}, expected below 100")
        elif violations or score not in (None, 100.0):
            problems.append(f"{where}: scored {score} with {len(violations)} violations, expected a clean 100")
    problems.extend(f"{' '.join(key)}: no result for this ledger target" for key in targets.keys() - seen)
    if not ledger_entries:
        problems.extend(
            f"{s['team']} {s['sprint']}: overall {s['overall']}, expected 100"
            for s in report["scores"]
            if s["overall"] not in (None, 100.0)
        )
    return _capped(problems)


def narrowed_problems(narrowed: dict, full: dict, title: str) -> list[str]:
    """A --sprint report equals the full report's rows for that sprint title."""
    problems = [
        f"--sprint {title!r}: {key} differ from the full report"
        for key in ("tool", "version", "config_digest", "config", "now", "diagnostics")
        if narrowed[key] != full[key]
    ]
    for key in ("results", "scores", "unfinished_stories"):
        expected = [row for row in full[key] if row["sprint_title"] == title]
        if narrowed[key] != expected:
            problems.append(
                f"--sprint {title!r}: {len(narrowed[key])} {key} rows, "
                f"not the full report's {len(expected)} rows for that title"
            )
    if not narrowed["results"]:
        problems.append(f"--sprint {title!r}: no results")
    return problems


def trend_problems(csv_text: str, full: dict) -> list[str]:
    """Every trend CSV score equals the full report's score for the same cell."""
    expected = {(r["team"], r["metric"], r["sprint_title"]): r["score"] for r in full["results"]}
    expected.update({(s["team"], "overall", s["sprint_title"]): s["overall"] for s in full["scores"]})
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != TREND_HEADER:
        return [f"trend CSV header is {rows[0] if rows else None}, expected {TREND_HEADER}"]
    problems = []
    scored = 0
    for row in rows[1:]:
        if len(row) != len(TREND_HEADER):
            problems.append(f"trend row {row} has {len(row)} columns")
            continue
        team, metric, title, _, score = row
        want = expected.get((team, metric, title))
        want_text = "" if want is None else f"{want:.1f}"
        if score != want_text:
            problems.append(f"trend {team} {metric} {title}: {score!r}, report has {want_text!r}")
        scored += want is not None
    missing = sum(1 for value in expected.values() if value is not None) - scored
    if missing:
        problems.append(f"{missing} scored report cells are missing from the trend CSV")
    return _capped(problems)
