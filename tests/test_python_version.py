"""Every module of the package parses as the oldest Python that `pyproject.toml` allows.

The tests run on whatever interpreter is at hand, which is often newer than
`requires-python`; parsing each module with `ast.parse(..., feature_version=)`
at the oldest allowed version catches syntax that version lacks (`except*`,
say) without that interpreter.
"""

from __future__ import annotations

import ast
import re
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
