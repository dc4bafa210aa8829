"""The names the benchmark's tracer (`perfbench/tracing.py`) wraps still exist.

`perfbench/tests` notices a renamed layer too, but it takes tens of seconds;
this reads the tracer's tables and checks them against the package.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sprintlint.cli  # noqa: F401  (loads every module, as the tracer does)
from sprintlint import default_registry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_layer_function_exists(tracing):
    missing = [
        f"sprintlint.{module}.{name}"
        for module, functions in tracing.LAYERS.items()
        for name in functions
        if not callable(getattr(sys.modules.get(f"sprintlint.{module}"), name, None))
    ]
    assert missing == []


def test_every_registered_check_has_what_the_tracer_reads(tracing):
    for metric in default_registry():
        # the tracer times each detector under its check's name
        assert f"catalog.{metric.descriptor.name}_s" in tracing.PER_LAYER
        # and re-registers each check with its detector wrapped
        assert callable(metric.detector)
        assert replace(metric, detector=print).detector is print
