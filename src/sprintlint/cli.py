"""Command-line entry point: ingest, lint, score, generate.

Exit codes follow lint-tool convention: 0 for success, 1 when a policy gate
(--fail-below) trips, 2 for unreadable or invalid input.

`main` pauses the cyclic garbage collector for the whole command and restores
the caller's setting, and the program entry `run` freezes what is left at
exit; they are the only places in sprintlint that touch the collector.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path

from . import __version__, catalog, config as cfg, engine, fixtures, ingest, report, scoring
from .errors import SprintLintError
from .ingest import EXPORTS, IngestManifest, load_history, load_snapshot, write_snapshot
from .serialize import canonical_json, parse_iso_utc, read_json, utf8_slices, write_text

CONFIG_ENV_VAR = "SPRINTLINT_CONFIG"

EXIT_OK = 0
EXIT_POLICY = 1
EXIT_INPUT = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _resolve_config(path_arg: str | None) -> cfg.MetricConfig:
    # an empty flag or variable counts as unset
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return cfg.MetricConfig()
    return cfg.load_config(path)


def _write_stdout(text: str) -> None:
    """Write `text` to stdout as the UTF-8 bytes `write_text` would put in a file, whatever the stream's encoding.

    Every command's standard output goes through here: reports, trends and status lines alike.
    A command-line path that is not UTF-8 is echoed as the bytes given; report text holds no such character.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as an io.StringIO in its place
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.writelines(utf8_slices(text, "surrogateescape"))


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
    _write_stdout(
        f"snapshot written to {args.out}\n"
        f"  teams:     {len(history.teams)}\n"
        f"  sprints:   {len(history.sprints)}\n"
        f"  commits:   {len(history.commits)}\n"
        f"  stories:   {len(history.stories)}\n"
        f"  pulls:     {len(history.pulls)}\n"
        f"  stats:     {len(history.build_stats)}\n"
        + (f"  flags:     {len(history.diagnostics)}\n" if history.diagnostics else "")
    )
    return EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    if args.fail_below is not None and not math.isfinite(args.fail_below):
        raise SprintLintError(f"--fail-below must be a finite number, got {args.fail_below}")
    history = load_snapshot(args.project)
    config = _resolve_config(args.config)
    registry = catalog.default_registry()
    now = parse_iso_utc(args.now, "--now") if args.now else None
    run = report.build_report(history, registry, config, now=now, sprint_title=args.sprint)
    if args.format == "json":
        rendered = report.render_json(run, history)
    else:
        rendered = report.render_markdown(run, history, registry)
    if args.out:
        write_text(args.out, rendered)
    else:
        _write_stdout(rendered)
    if args.fail_below is not None:
        scores = (cell.score for cell in run.cells if cell.score is not None)
        failing = [s for s in scores if s.overall is not None and s.overall < args.fail_below]
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
    registry = catalog.default_registry()
    results = engine.run_all(registry, history, config)
    scores = scoring.aggregate_all(results, registry, config)
    csv_text = scoring.trend_csv(scoring.trend(history, results, scores))
    if args.out:
        write_text(args.out, csv_text)
        _write_stdout(f"trend written to {args.out}\n")
    else:
        _write_stdout(csv_text)
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    spec = fixtures.spec_from_dict(_read_json_file(args.spec)) if args.spec else fixtures.FixtureSpec()
    if args.seed is not None:
        spec = spec._replace(seed=args.seed)
    injection = (
        fixtures.injection_from_dict(_read_json_file(args.inject)) if args.inject else fixtures.InjectionSpec()
    )
    history, certificate = fixtures.generate(spec)
    history, ledger = fixtures.inject(history, injection, spec.seed)

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
        "ledger": fixtures.ledger_to_dict(ledger, spec.seed),
    }
    write_text(out_dir / "ledger.json", canonical_json(ledger_doc) + "\n")
    _write_stdout(
        f"fixture written to {out_dir}\n"
        f"  commits: {len(history.commits)}, stories: {len(history.stories)}, "
        f"sprints: {len(history.sprints)}, pulls: {len(history.pulls)}\n"
        + (f"  injected metrics: {', '.join(sorted(ledger))}\n" if ledger else "")
    )
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
    p_lint.add_argument("--sprint", help="limit to sprints with this title")
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


def run() -> None:
    """`main` as a program: what the command left is frozen, so the exit does not collect it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
