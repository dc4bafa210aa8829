"""Guard against dead private helpers in the package.

Every module-level private name (an ``_x`` function, class or constant) and
every private ``_method`` in `src/sprintlint` must be used somewhere in the
package besides its own definition, so a refactor that leaves a helper
behind fails here rather than leaving code nothing runs.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sprintlint"


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
    """Each name read, called or imported, and each attribute looked up."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
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
