"""Every module of the package parses as the oldest Python that `pyproject.toml` allows,
and every other installed interpreter it allows writes the same files.

The tests run on whatever interpreter is at hand, which is often newer than
`requires-python`; parsing each module with `ast.parse(..., feature_version=)`
at the oldest allowed version catches syntax that version lacks (`except*`,
say) without that interpreter.

The interpreters installed beside this one (the siblings of
`sys.base_prefix`, as a version manager such as pyenv lays them out) that
`requires-python` allows each run the miniature of the violation-dense
benchmark workload through the CLI in one child (`generate`, `ingest`, JSON
and markdown `lint`, `score`), and every file they write must be the same
bytes as this interpreter's. The child also loads the snapshot it wrote and
fails unless `copy.copy`, `copy.deepcopy` and `pickle` at every protocol
give an equal history with equal windows, as each interpreter's `copy`,
`copyreg` and `pickle` reach a history's own `__reduce__` by their own
route. Each interpreter is named in its test's id; with none installed, the
test is skipped and says why.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sprintlint").glob("*.py"))


def _oldest_python() -> tuple[int, int]:
    # read by hand: tomllib comes only with Python 3.11
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE).groups()
    return int(major), int(minor)


OLDEST = _oldest_python()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_each_module_parses_as_the_oldest_python_allowed(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


NEWER_SYNTAX = {
    "except-star": "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type-statement": "type Pair = tuple[int, int]\n",
    "generic-function": "def first[T](items: list[T]) -> T:\n    return items[0]\n",
}


@pytest.mark.parametrize("source", NEWER_SYNTAX.values(), ids=list(NEWER_SYNTAX))
def test_the_guard_refuses_syntax_newer_than_python_3_10(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST)


# The pipeline one interpreter runs in its child, then its round trips of the
# snapshot it wrote: argv is the source tree, the work directory holding
# spec.json and inject.json, and the seed.
PIPELINE = """
import copy
import pickle
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from sprintlint.cli import main
from sprintlint.ingest import EXPORTS, load_snapshot
from sprintlint.model import window

work, seed = Path(sys.argv[2]), sys.argv[3]
exports, snapshot = work / "exports", work / "snapshot.json"
for argv in (
    ["generate", "--spec", work / "spec.json", "--inject", work / "inject.json", "--seed", seed, "--out-dir", exports],
    ["ingest", *(arg for kind, name in EXPORTS.items() for arg in (f"--{kind}", exports / name)), "--out", snapshot],
    ["lint", "--project", snapshot, "--format", "json", "--out", work / "report.json"],
    ["lint", "--project", snapshot, "--format", "markdown", "--out", work / "report.md"],
    ["score", "--project", snapshot, "--out", work / "trend.csv"],
):
    code = main([str(arg) for arg in argv])
    if code:
        sys.exit(f"{argv[0]} exited {code}")

history = load_snapshot(snapshot)
twins = {"copy.copy": copy.copy(history), "copy.deepcopy": copy.deepcopy(history)}
for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
    twins[f"pickle protocol {protocol}"] = pickle.loads(pickle.dumps(history, protocol))
cells = [(team, sprint.id) for team in history.teams for sprint in history.sprints_of(team)]
for how, twin in twins.items():
    if twin != history or any(window(twin, *cell) != window(history, *cell) for cell in cells):
        sys.exit(f"{how} of the loaded history differs from it")
"""
WORKLOADS = ROOT / "perfbench" / "workloads.json"


def _other_interpreters() -> dict[str, Path]:
    """The `python3` of each sibling of this interpreter's home named as a version `requires-python` allows."""
    here = Path(sys.base_prefix).resolve()
    found = {}
    for home in here.parent.iterdir():
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", home.name)
        python = home / "bin" / "python3"
        if (home.resolve() != here and version and tuple(map(int, version.groups())) >= OLDEST
                and os.access(python, os.X_OK)):
            found[home.name] = python
    return dict(sorted(found.items(), key=lambda item: tuple(map(int, item[0].split(".")))))


def _run_pipeline(python: str | Path, work: Path) -> dict[str, bytes]:
    """Every file `python` writes running the violation-dense miniature, by its path under `work`."""
    document = json.loads(WORKLOADS.read_text(encoding="utf-8"))
    tiny = document["workloads"]["violation-dense"]["tiny"]
    work.mkdir()
    (work / "spec.json").write_text(json.dumps(tiny["spec"]), encoding="utf-8")
    (work / "inject.json").write_text(json.dumps(tiny["injection"]), encoding="utf-8")
    inputs = {path.relative_to(work).as_posix() for path in work.iterdir()}
    env = {key: value for key, value in os.environ.items() if key != "SPRINTLINT_CONFIG"}
    # -I keeps the caller's PYTHONPATH and site-packages out; -B leaves no bytecode in src/
    done = subprocess.run([str(python), "-I", "-B", "-c", PIPELINE, str(ROOT / "src"), str(work),
                           str(document["default_seed"])], env=env, cwd=work, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    return {path.relative_to(work).as_posix(): path.read_bytes() for path in sorted(work.rglob("*"))
            if path.is_file() and path.relative_to(work).as_posix() not in inputs}


@pytest.fixture(scope="module")
def this_interpreters_files(tmp_path_factory):
    return _run_pipeline(sys.executable, tmp_path_factory.mktemp("floor") / "this")


OTHERS = _other_interpreters()


@pytest.mark.parametrize("python", OTHERS.values() or [pytest.param(None, marks=pytest.mark.skip(
    reason=f"no other Python >= {'.'.join(map(str, OLDEST))} is installed beside {sys.base_prefix}"))],
                         ids=list(OTHERS) or ["none"])
def test_each_other_interpreter_writes_the_same_files(tmp_path, this_interpreters_files, python):
    theirs = _run_pipeline(python, tmp_path / "other")
    assert sorted(theirs) == sorted(this_interpreters_files)
    assert [name for name in theirs if theirs[name] != this_interpreters_files[name]] == []
