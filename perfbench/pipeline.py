"""The sprintlint CLI pipeline on one workload: generate, ingest, lint, lint --sprint, score.

Each step runs through an executor that returns a `StepResult`: by default a
child process per step (`ChildExecutor`), measured with `os.wait4`. Outputs
are checked against the oracle as they are produced, and every step and
every evaluated cell is tallied as an operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import oracle

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")
STEP_TIMEOUT_S = 150.0
EXPORTS = ("commits.ndjson", "issues.json", "sprints.json", "pulls.json", "stats.csv", "ledger.json")
MIB = 1024 * 1024


class BenchError(Exception):
    """A step could not run or exited with an unexpected code, so the run has no measurement."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    injection: dict | None
    record: dict | None
    sprint_title: str
    default_seed: int


def _workloads_doc() -> dict:
    return json.loads(WORKLOADS_FILE.read_text(encoding="utf-8"))


def workload_names() -> list[str]:
    return list(_workloads_doc()["workloads"])


def load_workload(name: str, tiny: bool = False) -> Workload:
    """A workload from workloads.json; `tiny` picks its seconds-long miniature."""
    doc = _workloads_doc()
    entry = doc["workloads"][name]
    shape = entry["tiny"] if tiny else entry
    return Workload(
        name=name,
        why=entry["why"],
        spec=shape["spec"],
        injection=shape["injection"],
        record=None if tiny else entry["default_seed_record"],
        sprint_title=doc["sprint_title"],
        default_seed=doc["default_seed"],
    )


@dataclass(frozen=True)
class StepResult:
    returncode: int
    seconds: float
    max_rss_mib: float | None
    stdout: str
    stderr: str


class ChildExecutor:
    """Runs argv as a child process with `src/` importable and the default config."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("SPRINTLINT_CONFIG", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list[str]) -> StepResult:
        out_path, err_path = self.work / "step.stdout", self.work / "step.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return StepResult(
            returncode=proc.returncode,
            seconds=seconds,
            max_rss_mib=usage.ru_maxrss * 1024 / MIB,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def __call__(self, step: str, args: list[str]) -> StepResult:
        return self.run([sys.executable, "-m", "sprintlint.cli", *args])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def iterations(seconds: float, minimum: int) -> Iterator[int]:
    """Indices of pipeline iterations: at least `minimum`, then until `seconds` have passed."""
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        yield index
        index += 1


@dataclass
class Tally:
    """Operations attempted and failed: CLI steps, plus evaluated team-sprint-metric cells."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def step(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.extend(f"{name}: {p}" for p in problems)

    def cells(self, evaluated: int, failed: int) -> None:
        self.attempted += evaluated
        self.failed += failed
        if failed:
            self.notes.append(f"{failed} of {evaluated} cells: {oracle.DETECTOR_FAILED}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _exit_problems(step: StepResult) -> list[str]:
    tail = step.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"exit code {step.returncode}, expected 0: {tail[0]}"]


class Pipeline:
    """One workload at one seed, in its own work directory.

    `execute(step, args)` runs one sprintlint CLI command. `samples` collects
    each step's seconds and peak RSS; `digests` the SHA-256 of every output
    file, which repeated runs must reproduce byte for byte.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, execute: Callable) -> None:
        self.workload = workload
        self.seed = seed
        self.execute = execute
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.cells = (0, 0)
        self.exports = work / "exports"
        self.snapshot = work / "project.json"
        self.report = work / "report.json"
        self.narrowed = work / "report-sprint.json"
        self.markdown = work / "report.md"
        self.trend = work / "trend.csv"
        self.spec_file = work / "spec.json"
        self.inject_file = work / "inject.json"
        self.ledger_entries: dict = {}
        self._verdicts: dict[str, list[str]] = {}
        self.spec_file.write_text(json.dumps(self.workload.spec), encoding="utf-8")
        if self.workload.injection:
            self.inject_file.write_text(json.dumps(self.workload.injection), encoding="utf-8")

    @property
    def records(self) -> int:
        return sum(self.counts.values())

    def _step(self, name: str, args: list[str], execute: Callable | None = None) -> StepResult:
        result = (execute or self.execute)(name, args)
        if result.returncode != 0:
            self.tally.step(name, _exit_problems(result))
            raise BenchError(f"{self.tally.notes[-1]} ({self.tally.failed} of "
                             f"{self.tally.attempted} operations failed)")
        self.samples[f"{name}_s"].append(result.seconds)
        if result.max_rss_mib is not None:
            self.samples[f"{name}_rss_mib"].append(result.max_rss_mib)
        return result

    def _check(self, name: str, digest: str, check: Callable[[], list[str]]) -> None:
        """Tally one output: its oracle verdict, or a byte mismatch with the first run's."""
        first = self.digests.setdefault(name, digest)
        if digest != first:
            self.tally.step(name, [f"{name} output is not byte-identical to the first run's"])
        else:
            if name not in self._verdicts:
                try:
                    self._verdicts[name] = check()
                except (KeyError, TypeError, ValueError) as exc:  # output not in the expected shape
                    self._verdicts[name] = [f"unreadable output: {exc!r}"]
            self.tally.step(name, self._verdicts[name])

    def generate(self) -> None:
        args = ["generate", "--spec", str(self.spec_file), "--seed", str(self.seed),
                "--out-dir", str(self.exports)]
        if self.workload.injection:
            args += ["--inject", str(self.inject_file)]
        result = self._step("generate", args)
        ledger = json.loads((self.exports / "ledger.json").read_text(encoding="utf-8"))
        self.ledger_entries = ledger["ledger"]["entries"]
        summary = result.stdout.splitlines()[1]  # "  commits: N, stories: N, sprints: N, pulls: N"
        self.counts = {k.strip(): int(v) for k, v in (part.split(":") for part in summary.split(","))}
        with open(self.exports / "stats.csv", encoding="utf-8") as stats:
            self.counts["stats"] = sum(1 for _ in stats) - 1
        exports = hashlib.sha256(b"".join(sha256_file(self.exports / n).encode() for n in EXPORTS))
        self._check("generate", exports.hexdigest(), lambda: oracle.generate_problems(
            ledger, self.workload.injection))

    def ingest(self) -> None:
        result = self._step("ingest", [
            "ingest", "--commits", str(self.exports / "commits.ndjson"),
            "--issues", str(self.exports / "issues.json"),
            "--sprints", str(self.exports / "sprints.json"),
            "--pulls", str(self.exports / "pulls.json"),
            "--stats", str(self.exports / "stats.csv"), "--out", str(self.snapshot),
        ])
        self.samples["snapshot_mib"].append(self.snapshot.stat().st_size / MIB)
        self._check("ingest", sha256_file(self.snapshot),
                    lambda: oracle.ingest_problems(result.stdout, self.counts))

    def lint(self, step: str = "lint", execute: Callable | None = None) -> None:
        """Full-history JSON lint; `step` names its samples, `execute` overrides the executor."""
        self._step(step, ["lint", "--project", str(self.snapshot), "--format", "json",
                          "--out", str(self.report)], execute)
        self._check("lint", sha256_file(self.report), self._check_report)
        self.tally.cells(*self.cells)

    def _check_report(self) -> list[str]:
        report = self._load(self.report)
        self.cells = oracle.cell_tally(report)
        return oracle.report_problems(report, self.ledger_entries)

    def lint_sprint(self) -> None:
        title = self.workload.sprint_title
        self._step("lint_sprint", ["lint", "--project", str(self.snapshot), "--format", "json",
                                   "--sprint", title, "--out", str(self.narrowed)])
        self._check("lint_sprint", sha256_file(self.narrowed), lambda: oracle.narrowed_problems(
            self._load(self.narrowed), self._load(self.report), title))

    def lint_markdown(self) -> None:
        self._step("lint_markdown", ["lint", "--project", str(self.snapshot), "--format", "markdown",
                                     "--out", str(self.markdown)])
        self._check("lint_markdown", sha256_file(self.markdown), list)

    def score(self) -> None:
        self._step("score", ["score", "--project", str(self.snapshot), "--out", str(self.trend)])
        self._check("score", sha256_file(self.trend), lambda: oracle.trend_problems(
            self.trend.read_text(encoding="utf-8"), self._load(self.report)))

    @staticmethod
    def _load(path: Path) -> dict:
        return json.loads(path.read_text(encoding="utf-8"))

    def iteration(self) -> None:
        self.ingest()
        self.lint()
        self.lint_sprint()
        self.score()
