"""The repository's pytest settings report a failing property test, with its example.

Every warning is an error under those settings. A warning raised by a
plugin while it reports a failure must not turn that failure into an
internal error that ends the session before the other tests run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_every_integer_is_negative(n):
    assert n < 0


def test_after_the_failure():
    pass
'''


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
    assert done.returncode == 1
