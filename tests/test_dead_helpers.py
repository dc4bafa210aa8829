"""Guard against dead private helpers and unused imports.

Every module-level private name (an ``_x`` function, class or constant) and
every private ``_method`` in `src/sprintlint` must be used somewhere in the
package besides its own definition, and every name a module of the package,
the tests or the demos imports must be read in that module, unless its
import is marked ``# noqa: F401``. So a refactor that leaves a helper or an
import behind fails here rather than leaving code nothing runs.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sprintlint"
# the directories whose modules may import no name they do not read
IMPORTING = (SRC, ROOT / "tests", ROOT / "demos")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names.extend(m.name for m in node.body if isinstance(m, ast.FunctionDef))
    return [name for name in names if _is_private(name)]


def _uses(tree: ast.Module) -> Counter:
    """Each name read, called or imported, and each attribute looked up; a `_replace` is also a use of `_make`."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    # a named tuple's `_replace` builds its result through its class's `_make`
    uses["_make"] += uses["_replace"]
    return uses


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules under {SRC}"
    uses: Counter = Counter()
    for tree in trees.values():
        uses += _uses(tree)
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if not uses[name]
    ]
    assert unused == []


def test_the_guard_finds_an_unused_helper():
    tree = ast.parse("def _used():\n    pass\n\n\ndef _dead():\n    _used()\n")
    uses = _uses(tree)
    assert [name for name in _definitions(tree) if not uses[name]] == ["_dead"]


def test_the_guard_counts_a_replace_as_a_use_of_make():
    record = "class _Record(tuple):\n    def _make(cls, iterable):\n        return cls(*iterable)\n\n\n"
    for use, unused in [("_Record()._replace(a=1)\n", []), ("_Record()\n", ["_make"])]:
        tree = ast.parse(record + use)
        uses = _uses(tree)
        assert [name for name in _definitions(tree) if not uses[name]] == unused, use


def _unused_imports(source: str) -> list[str]:
    """Each name the module imports and never reads.

    `from __future__` imports are directives, not names, and an import whose
    first line is marked `# noqa: F401` is kept for its side effect.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_imported_name_is_used():
    modules = []
    for directory in IMPORTING:
        found = sorted(directory.glob("*.py"))
        assert found, f"no modules under {directory}"
        modules += found
    unused = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in modules
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom .a import b, c as d\n"
        "import sys  # noqa: F401  (kept for its side effect)\n\n"
        "def f() -> b:\n    return os.path.sep\n"
    )
    assert _unused_imports(source) == ["j", "d"]
