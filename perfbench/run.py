"""Benchmark of the sprintlint CLI pipeline on one workload.

    python3 perfbench/run.py --workload many-sprints --seed 42 --seconds 20 --trace 0

Run it from the root of a sprintlint checkout; it imports the program from
``src/`` and keeps its files under ``.perfbench/``. The workloads are defined
in ``perfbench/workloads.json``.

With ``--trace 0`` every step is a child process of this one, one after
another: ``generate`` three times (set-up), then ``ingest``, ``lint``,
``lint --sprint`` and ``score`` repeated for ``--seconds`` (at least twice).
It prints the end-to-end metrics as medians, with times scaled to a nominal
machine speed gauged by ``reference.py`` (see ``run_end_to_end``).

With ``--trace 1`` the same commands run in this process through
``sprintlint.cli.main`` with every layer traced (see ``tracing.py``), plus
``lint --format markdown`` and an untraced child ``lint``: the traced
``lint`` plus interpreter start-up, minus the untraced one, is the tracing
overhead.
It prints the per-layer metrics and writes every span to a side file.

Every output is checked by ``oracle.py``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A step that exits with an unexpected code ends the run with exit code 1 and
no result line; so does a checkout without ``src/sprintlint``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from pipeline import (
    BenchError,
    ChildExecutor,
    Pipeline,
    StepResult,
    Workload,
    iterations,
    load_workload,
    workload_names,
)

SETUP_REPEATS = 3
E2E_MIN_ITERATIONS = 2
TRACE_MIN_ITERATIONS = 1
STARTUP_REPEATS = 5
REFERENCE_PROGRAM = Path(__file__).with_name("reference.py")
REFERENCE_NOMINAL_S = 0.7  # reference.py's time at the speed the reported times are scaled to
OUT_DIR = ".perfbench"
IMPORT_CLI = "import sprintlint.cli"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names())
    parser.add_argument("--seed", type=int, default=None,
                        help="fixture seed (default: workloads.json default_seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat the measured steps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="a miniature of the workload's shape that runs in seconds")
    return parser.parse_args(argv)


def machine_stamp() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def run_end_to_end(pipe: Pipeline, executor: ChildExecutor, seconds: float) -> tuple[dict, float]:
    """Untraced child-process runs; returns ({metric: (samples, unit)}, speed factor).

    Times are scaled by the speed factor REFERENCE_NOMINAL_S / median time of
    reference.py, which runs before every set-up and every iteration. On a
    shared 2-vCPU virtual machine the speed of the same code drifted by 10-35%
    over minutes; the scaling cancels that drift between runs. Peak RSS and
    snapshot size are not scaled.
    """
    if executor.run([sys.executable, "-c", IMPORT_CLI]).returncode != 0:
        raise BenchError("cannot import sprintlint from src/")
    reference: list[float] = []

    def gauge() -> None:
        result = executor.run([sys.executable, str(REFERENCE_PROGRAM)])
        if result.returncode != 0:
            raise BenchError(f"reference program failed: {result.stderr.strip()}")
        reference.append(result.seconds)

    for _ in range(SETUP_REPEATS):
        gauge()
        pipe.generate()
    for _ in iterations(seconds, E2E_MIN_ITERATIONS):
        gauge()
        pipe.iteration()
    speed = REFERENCE_NOMINAL_S / median(reference)
    s = {name: [value * speed for value in samples] for name, samples in pipe.samples.items()
         if name.endswith("_s")}
    records_per_s = pipe.records / (median(s["ingest_s"]) + median(s["lint_s"]))
    metrics = {
        "setup_s": (s["generate_s"], "s"),
        "ingest_s": (s["ingest_s"], "s"),
        "lint_s": (s["lint_s"], "s"),
        "lint_sprint_s": (s["lint_sprint_s"], "s"),
        "score_s": (s["score_s"], "s"),
        "records_per_s": ([records_per_s], "1/s"),
        "ingest_rss_mb": (pipe.samples["ingest_rss_mib"], "MiB"),
        "lint_rss_mb": (pipe.samples["lint_rss_mib"], "MiB"),
        "snapshot_mb": (pipe.samples["snapshot_mib"], "MiB"),
    }
    return metrics, speed


def run_traced(pipe: Pipeline, executor: ChildExecutor, root: Path, seconds: float):
    """In-process traced runs; returns ({metric: (samples, unit)}, tracer)."""
    startup = [executor.run([sys.executable, "-c", IMPORT_CLI]) for _ in range(STARTUP_REPEATS)]
    if any(r.returncode != 0 for r in startup):
        raise BenchError("cannot import sprintlint from src/")
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("SPRINTLINT_CONFIG", None)
    from sprintlint import cli
    from tracing import PER_LAYER, Tracer, instrument, per_layer_values

    tracer = Tracer()
    runs: Counter[str] = Counter()

    def in_process(step: str, args: list[str]) -> StepResult:
        tracer.run = f"{step}#{runs[step]}"
        runs[step] += 1
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"step.{step}"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(args)
        span = tracer.spans[-1]
        return StepResult(code, span.end - span.start, None, out.getvalue(), err.getvalue())

    pipe.execute = in_process
    with instrument(tracer):
        pipe.generate()
        for _ in iterations(seconds, TRACE_MIN_ITERATIONS):
            pipe.ingest()
            pipe.lint()
            pipe.lint_markdown()
            pipe.score()
            pipe.lint(step="lint_untraced", execute=executor)
    s = pipe.samples
    startup_s = median([r.seconds for r in startup])
    overhead = median(s["lint_s"]) + startup_s - median(s["lint_untraced_s"])
    values = per_layer_values(tracer)
    metrics = {name: ([values[name]], _unit(name)) for name in PER_LAYER}
    metrics["cli.startup_s"] = ([r.seconds for r in startup], "s")
    metrics["trace.overhead_s"] = ([overhead], "s")
    return metrics, tracer


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _print_metrics(metrics: dict) -> None:
    for name, (samples, unit) in metrics.items():
        spread = f"  median of {len(samples)}, min {min(samples):.4f}, max {max(samples):.4f}"
        print(f"{name:<34} {median(samples):>14.4f} {unit:<5}{spread if len(samples) > 1 else ''}")


def _print_digests(pipe: Pipeline, workload: Workload) -> None:
    """Output digests, compared with the recorded default-seed ones but never gated on."""
    record = workload.record if pipe.seed == workload.default_seed else None
    for label, step in (("report_sha256", "lint"), ("trend_sha256", "score")):
        digest = pipe.digests[step]
        if record is None:
            note = "no record for this seed"
        else:
            note = "matches record" if record[label] == digest else f"record has {record[label]}"
        print(f"{label} {digest} ({note})")


def _print_shares(values: dict, untraced_lint_s: float) -> None:
    rescans = (values["model.window_s"] + values["catalog.multi-backlog-stories_s"]
               + values["catalog.unfinished_stories_s"])
    build = values["report.build_report_s"]
    print(f"per-sprint rescans (window + multi-backlog + unfinished_stories): {rescans:.4f} s, "
          f"{rescans / build:.1%} of report.build_report_s, "
          f"{rescans / untraced_lint_s:.1%} of untraced lint_s")


def _exit_on_sigterm(signum, frame) -> None:
    sys.exit(128 + signum)  # unwinds, so a running step's child is killed and waited for


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    root = Path.cwd()
    if not (root / "src" / "sprintlint" / "cli.py").is_file():
        print("error: src/sprintlint not found; run from the root of a sprintlint checkout",
              file=sys.stderr)
        return 2
    workload = load_workload(args.workload, tiny=args.tiny)
    seed = workload.default_seed if args.seed is None else args.seed
    label = f"{workload.name}{'-tiny' if args.tiny else ''}-seed{seed}-trace{args.trace}"
    out_dir = root / OUT_DIR
    work = out_dir / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stamp = {"start": machine_stamp()}
    executor = ChildExecutor(root, work)
    pipe = Pipeline(workload, seed, work, executor)
    tracer = speed = None
    try:
        if args.trace:
            metrics, tracer = run_traced(pipe, executor, root, args.seconds)
        else:
            metrics, speed = run_end_to_end(pipe, executor, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["end"] = machine_stamp()
    tally = pipe.tally

    start, end = stamp["start"], stamp["end"]
    print(f"workload {workload.name}{' (tiny)' if args.tiny else ''}, seed {seed}, trace {args.trace}: "
          f"{workload.why}")
    print(f"python {start['python']}, nproc {start['nproc']}, "
          f"loadavg start {start['loadavg']}, end {end['loadavg']}")
    print(f"records {pipe.records} {pipe.counts}")
    if speed is not None:
        print(f"times are scaled by {speed:.4f} to a machine where reference.py takes "
              f"{REFERENCE_NOMINAL_S} s; divide by it for raw wall times")
    _print_metrics(metrics)
    print(f"{'error_rate':<34} {tally.error_rate:>14.4f} ratio  "
          f"{tally.failed} of {tally.attempted} operations failed")
    for note in tally.notes:
        print(f"  failed: {note}")
    _print_digests(pipe, workload)

    side = {
        "workload": workload.name, "tiny": args.tiny, "seed": seed, "trace": args.trace,
        "stamp": stamp, "records": pipe.counts, "digests": pipe.digests, "speed_factor": speed,
        "samples": {name: samples for name, (samples, _) in metrics.items()},
        "raw_samples": pipe.samples,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.notes,
    }
    if tracer is not None:
        _print_shares({k: v[0][0] for k, v in metrics.items()}, median(pipe.samples["lint_untraced_s"]))
        side["counts"] = [
            {"run": run, "name": name, "value": value} for (run, name), value in tracer.counts.items()
        ]
        side["spans"] = [vars(span) for span in tracer.spans]
    side_file = out_dir / f"{label}.json"
    side_file.write_text(json.dumps(side), encoding="utf-8")
    print(f"details in {side_file.relative_to(root)}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": median(samples), "unit": unit}
            for name, (samples, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
