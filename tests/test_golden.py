"""Byte-identity guard: the default config digest, the rendered outputs and the fixture files.

The expected values were computed once and must not move with refactors.
A change that alters a report, a trend CSV, a generated export or the
config document on purpose updates them here, and says why.
"""

from __future__ import annotations

import hashlib
import json

from sprintlint import (
    MetricConfig,
    aggregate_all,
    build_report,
    default_registry,
    render_json,
    render_markdown,
    run_all,
    trend,
    trend_csv,
)
from sprintlint.cli import main
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject

# every directive, so each of the nine checks emits or moves something
ALL_DIRECTIVES = InjectionSpec(
    hot_files=(2, 12, 1),
    tdd_regressions=2,
    huge_stories=(1, 12.0),
    neverending_stories=(1, 3),
    duplicate_stories=2,
    last_minute_commits=3,
    idle_developers=1,
    backlog_overflow=1,
    silent_fast_pulls=2,
)

EXPECTED_CONFIG_DIGEST = "5bfc7f0506f4fcb80ea1290e96bb646faf89755cd3390be3d7199ad41076eda6"
EXPECTED_SHA256 = {
    "json": "c0e9af6b5670f29554b2d0ca403b474fa13a2eba5e002ea4ea1a9dfcaf4a538d",
    "markdown": "d469aaab8624b8e8999fe10c9ce01845c83c791a5c4f6c093473b0e1eb608e38",
    "trend_csv": "7cb3cea8d2451ca899574c0ae449e46149fd0209fa5b29ead31cfac174cd7d8b",
}

EXPECTED_GENERATE_SHA256 = {
    "commits.ndjson": "a7af2bb0a16f99d3239798f483a90260323405bb16f0ea64b7304ad7b6b0e565",
    "issues.json": "0ff1de4aea0e6d76982ea34207963d7ae8461522f1a3d7f9daa3b21b6ddcf4eb",
    "sprints.json": "a6e3355182ae015d889999eb8834522f39d5f04dffd2862186f132b72f956e5f",
    "pulls.json": "1e02b64976dca992eaa8d56efcc02f844dd0484845b1d2e50919542bd05d588c",
    "stats.csv": "e8cc50007398d1324cf0985be79d42dd33e7be083a88d4108f55744493c54f98",
    "ledger.json": "0697e4719e65f77c6b6cb887d3bde3aba6ea1b3182022de2b4654fe2edf46390",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_config_digest_is_pinned():
    assert MetricConfig().digest() == EXPECTED_CONFIG_DIGEST


def test_rendered_outputs_are_pinned():
    spec = FixtureSpec(teams=2, sprints=4)
    clean, _ = generate(spec)
    history, _ = inject(clean, ALL_DIRECTIVES, spec.seed)
    registry = default_registry()
    config = MetricConfig()
    report = build_report(history, registry, config)
    results = run_all(registry, history, config)
    scores = aggregate_all(results, registry, config)
    actual = {
        "json": _sha256(render_json(report, history)),
        "markdown": _sha256(render_markdown(report, history, registry)),
        "trend_csv": _sha256(trend_csv(trend(history, results, scores))),
    }
    assert actual == EXPECTED_SHA256


def test_generate_output_bytes_are_pinned(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(FixtureSpec(teams=2, sprints=4).to_dict()), encoding="utf-8")
    inject_path = tmp_path / "inject.json"
    inject_path.write_text(json.dumps(ALL_DIRECTIVES.to_dict()), encoding="utf-8")
    out_dir = tmp_path / "fixture"
    argv = ["generate", "--spec", str(spec_path), "--inject", str(inject_path),
            "--out-dir", str(out_dir)]
    assert main(argv) == 0
    actual = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPECTED_GENERATE_SHA256
    }
    assert actual == EXPECTED_GENERATE_SHA256
