"""Command-line entry point: ingest, lint, score, generate.

Exit codes follow lint-tool convention: 0 for success, 1 when a policy gate
(--fail-below) trips, 2 for unreadable or invalid input.

`main` pauses the cyclic garbage collector for the whole command and then
restores the caller's setting; it is the only place in sprintlint that
touches the collector.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path

from . import __version__
from .catalog import default_registry
from .config import MetricConfig, load_config
from .engine import run_all
from .errors import SprintLintError
from .fixtures import (
    FixtureSpec,
    InjectionSpec,
    generate,
    inject,
    injection_from_dict,
    ledger_to_dict,
    spec_from_dict,
)
from . import ingest
from .ingest import EXPORTS, IngestManifest, load_history, load_snapshot, write_snapshot
from .report import build_report, render_json, render_markdown
from .scoring import aggregate_all, trend, trend_csv
from .serialize import canonical_json, parse_iso_utc, read_json, write_text

CONFIG_ENV_VAR = "SPRINTLINT_CONFIG"

EXIT_OK = 0
EXIT_POLICY = 1
EXIT_INPUT = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _resolve_config(path_arg: str | None) -> MetricConfig:
    # an empty flag or variable counts as unset
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return MetricConfig()
    return load_config(path)


def _read_json_file(path: str) -> dict:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SprintLintError(f"{path} must contain a JSON object")
    return raw


def _manifest_from_args(args: argparse.Namespace) -> IngestManifest:
    paths: dict[str, Path] = {}
    maps: dict[str, object] = {}
    if args.manifest:
        raw = _read_json_file(args.manifest)
        maps = {key: raw[key] for key in ("team_map", "alias_map") if key in raw}
        unknown = [key for key in raw if key not in EXPORTS and key not in maps]
        if unknown:
            raise SprintLintError(f"{args.manifest}: unknown manifest key {unknown[0]!r}")
        base = Path(args.manifest).parent
        for kind in EXPORTS:
            if raw.get(kind) is not None:
                if not isinstance(raw[kind], str):
                    raise SprintLintError(f"{args.manifest}: {kind} must be a file path string")
                paths[kind] = base / raw[kind]
    for kind in EXPORTS:
        value = getattr(args, kind)
        if value is not None:
            paths[kind] = Path(value)
    return IngestManifest(paths, **maps)


def cmd_ingest(args: argparse.Namespace) -> int:
    manifest = _manifest_from_args(args)
    history, parse_problems = load_history(manifest)
    if parse_problems:
        for problem in parse_problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    write_snapshot(args.out, history)
    print(f"snapshot written to {args.out}")
    print(f"  teams:     {len(history.teams)}")
    print(f"  sprints:   {len(history.sprints)}")
    print(f"  commits:   {len(history.commits)}")
    print(f"  stories:   {len(history.stories)}")
    print(f"  pulls:     {len(history.pulls)}")
    print(f"  stats:     {len(history.build_stats)}")
    if history.diagnostics:
        print(f"  flags:     {len(history.diagnostics)}")
    return EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    if args.fail_below is not None and not math.isfinite(args.fail_below):
        raise SprintLintError(f"--fail-below must be a finite number, got {args.fail_below}")
    history = load_snapshot(args.project)
    config = _resolve_config(args.config)
    registry = default_registry()
    now = parse_iso_utc(args.now, "--now") if args.now else None
    sprint_title = None if args.sprint == "all" else args.sprint
    report = build_report(history, registry, config, now=now, sprint_title=sprint_title)
    if args.format == "json":
        rendered = render_json(report, history)
    else:
        rendered = render_markdown(report, history, registry)
    if args.out:
        write_text(args.out, rendered)
    else:
        sys.stdout.write(rendered)
    if args.fail_below is not None:
        failing = [
            s for s in report.scores if s.overall is not None and s.overall < args.fail_below
        ]
        if failing:
            for score in failing:
                print(
                    f"policy: {score.team} {score.sprint} scored {score.overall:.1f} "
                    f"< {args.fail_below}",
                    file=sys.stderr,
                )
            return EXIT_POLICY
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    history = load_snapshot(args.project)
    config = _resolve_config(args.config)
    registry = default_registry()
    results = run_all(registry, history, config)
    scores = aggregate_all(results, registry, config)
    csv_text = trend_csv(trend(history, results, scores))
    if args.out:
        write_text(args.out, csv_text)
        print(f"trend written to {args.out}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    spec = spec_from_dict(_read_json_file(args.spec)) if args.spec else FixtureSpec()
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    injection = (
        injection_from_dict(_read_json_file(args.inject)) if args.inject else InjectionSpec()
    )
    history, certificate = generate(spec)
    history, ledger = inject(history, injection, spec.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # `EXPORTS` order is the order of `records()`
    for (kind, name), rows in zip(EXPORTS.items(), history.records()):
        # looked up by name on each call, so a tracer that swaps the module's writers sees it
        getattr(ingest, f"write_{kind}")(out_dir / name, rows)
    ledger_doc = {
        "spec": spec.to_dict(),
        "injection": injection.to_dict(),
        "certificate": certificate.to_dict(),
        "ledger": ledger_to_dict(ledger, spec.seed),
    }
    write_text(out_dir / "ledger.json", canonical_json(ledger_doc) + "\n")
    print(f"fixture written to {out_dir}")
    print(f"  commits: {len(history.commits)}, stories: {len(history.stories)}, "
          f"sprints: {len(history.sprints)}, pulls: {len(history.pulls)}")
    if ledger:
        print(f"  injected metrics: {', '.join(sorted(ledger))}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sprintlint",
        description="Detect agile-process violations in exported development data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse export files into a validated snapshot")
    p_ingest.add_argument("--manifest", help="JSON manifest naming the export files")
    p_ingest.add_argument("--commits", help="newline-delimited commits file")
    p_ingest.add_argument("--issues", help="stories JSON array")
    p_ingest.add_argument("--sprints", help="sprints JSON array")
    p_ingest.add_argument("--pulls", help="pull requests JSON array")
    p_ingest.add_argument("--stats", help="per-commit stats CSV")
    p_ingest.add_argument("--out", required=True, help="snapshot output path")
    p_ingest.set_defaults(func=cmd_ingest)

    p_lint = sub.add_parser("lint", help="run every enabled metric and report violations")
    p_lint.add_argument("--project", required=True, help="snapshot from 'ingest'")
    p_lint.add_argument("--config", help=f"config JSON (default from ${CONFIG_ENV_VAR})")
    p_lint.add_argument("--sprint", default="all", help="limit to sprints with this title")
    p_lint.add_argument("--format", choices=("json", "markdown"), default="json")
    p_lint.add_argument("--out", help="write the report here instead of stdout")
    p_lint.add_argument("--fail-below", type=float, default=None,
                        help="exit 1 if any overall score is below this")
    p_lint.add_argument("--now", help="reference time (ISO-8601) for past-due checks")
    p_lint.set_defaults(func=cmd_lint)

    p_score = sub.add_parser("score", help="emit per-sprint trend series as CSV")
    p_score.add_argument("--project", required=True)
    p_score.add_argument("--config", help=f"config JSON (default from ${CONFIG_ENV_VAR})")
    p_score.add_argument("--out", help="CSV output path (default stdout)")
    p_score.set_defaults(func=cmd_score)

    p_gen = sub.add_parser("generate", help="write a synthetic fixture in the export formats")
    p_gen.add_argument("--spec", help="fixture spec JSON (defaults apply)")
    p_gen.add_argument("--inject", help="violation injection JSON")
    p_gen.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    # A command builds an acyclic record for every exported item and keeps
    # them until it returns, so collector passes during it free nothing and
    # only cost time. The caller's collector state is restored on the way out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (SprintLintError, OSError) as exc:
        return _fail(str(exc))
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
