"""Metamorphic properties of the whole pipeline, each bounded to a few examples.

Record order in the exports carries no meaning, and the command line adds
nothing to what the library computes, so both must leave the output bytes
as they are.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sprintlint import MetricConfig, build_report, default_registry, render_json
from sprintlint.cli import main
from sprintlint.fixtures import FixtureSpec, InjectionSpec, generate, inject
from sprintlint.ingest import EXPORTS
from test_golden import ALL_DIRECTIVES


def _generate(work, spec: FixtureSpec, injection: InjectionSpec):
    (work / "spec.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    (work / "inject.json").write_text(json.dumps(injection.to_dict()), encoding="utf-8")
    assert main(["generate", "--spec", str(work / "spec.json"), "--inject",
                 str(work / "inject.json"), "--out-dir", str(work)]) == 0


def _pipeline(work) -> dict[str, bytes]:
    """ingest -> lint -> score over the exports in `work`; the bytes each step wrote."""
    sources = [arg for kind, name in EXPORTS.items() for arg in (f"--{kind}", str(work / name))]
    snapshot, report, trend = work / "snap.json", work / "report.json", work / "trend.csv"
    assert main(["ingest", *sources, "--out", str(snapshot)]) == 0
    assert main(["lint", "--project", str(snapshot), "--out", str(report)]) == 0
    assert main(["score", "--project", str(snapshot), "--out", str(trend)]) == 0
    return {path.name: path.read_bytes() for path in (snapshot, report, trend)}


def _shuffled(name: str, text: str, rnd) -> str:
    """The same records as `text`, in the order `rnd` picks."""
    if name.endswith(".json"):
        records = json.loads(text)
        rnd.shuffle(records)
        return json.dumps(records)
    lines = text.splitlines()
    header = lines[:1] if name.endswith(".csv") else []
    rows = lines[len(header):]
    rnd.shuffle(rows)
    return "\n".join(header + rows) + "\n"


@pytest.fixture(scope="module")
def injected_exports(tmp_path_factory):
    """The exports of a two-team fixture with every directive, and the pipeline's bytes on them."""
    work = tmp_path_factory.mktemp("unshuffled")
    _generate(work, FixtureSpec(teams=2, sprints=2), ALL_DIRECTIVES)
    exports = {name: (work / name).read_text(encoding="utf-8") for name in EXPORTS.values()}
    return exports, _pipeline(work)


@settings(max_examples=4, deadline=None)
@given(order_seed=st.integers(0, 2**32 - 1))
def test_record_order_in_the_exports_leaves_every_output_byte(
    tmp_path_factory, injected_exports, order_seed
):
    exports, expected = injected_exports
    rnd = random.Random(order_seed)
    work = tmp_path_factory.mktemp("shuffled")
    for name, text in exports.items():
        (work / name).write_text(_shuffled(name, text, rnd), encoding="utf-8")
    assert _pipeline(work) == expected


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    directives=st.sets(st.sampled_from(sorted(ALL_DIRECTIVES.to_dict()))),
)
def test_the_command_line_writes_the_report_the_library_builds(tmp_path_factory, seed, directives):
    spec = FixtureSpec(seed=seed, teams=1, sprints=2)
    injection = InjectionSpec(**{name: getattr(ALL_DIRECTIVES, name) for name in directives})
    work = tmp_path_factory.mktemp("roundtrip")
    _generate(work, spec, injection)
    written = _pipeline(work)["report.json"]

    history, _ = inject(generate(spec)[0], injection, spec.seed)
    built = render_json(build_report(history, default_registry(), MetricConfig()), history)
    assert written == built.encode("utf-8")
