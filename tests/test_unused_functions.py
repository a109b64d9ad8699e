"""Every function and method defined in ``src/prspider`` has a caller.

Like ``test_unused_imports.py``, this walks syntax trees, so it needs no
linter. A definition counts as used when a module of ``src/prspider`` or
``perfbench/`` mentions its name other than by defining it: as a name
(``axpy(...)``), an attribute (``obj.draw_indices``) or a string
(``setattr(owner, "substream", ...)``, which is how the span tracer
patches calls). A name in ``__all__`` is exported, not called, so the
strings of an ``__all__`` assignment do not count. Tests do not count
either: API surface that only a test calls has no caller in the program.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prspider"
PERFBENCH = ROOT / "perfbench"

# names that code outside the repository calls, with the reason
PROTOCOL = {
    "generate_state": "numpy's Generator calls it on a seed sequence",
}


def _exports(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _mentions(tree: ast.AST) -> set[str]:
    names = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if _exports(node):
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_functions(defining: list[str], referencing: list[str]) -> list[str]:
    """Functions and methods of ``defining`` that no source mentions.

    Both lists hold module sources; ``defining`` is searched for uses too.
    Dunders and ``PROTOCOL`` names are exempt.
    """
    trees = [ast.parse(source) for source in defining]
    mentioned = set()
    for tree in trees + [ast.parse(source) for source in referencing]:
        mentioned |= _mentions(tree)
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in PROTOCOL and name not in mentioned:
                unused.append(name)
    return unused


def test_the_check_sees_unused_functions():
    source = (
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "class Seq:\n"
        "    def __init__(self): self.go()\n"
        "    def go(self): return helper()\n"
        "    def patched(self): pass\n"
        "    def generate_state(self, n): pass\n"
        "    def with_initial_point(self, x0): pass\n"
    )
    caller = "setattr(Seq, 'patched', None)\n"
    assert unused_functions([source], [caller]) == [
        "exported", "orphan", "with_initial_point",
    ]


def _sources(folder: Path) -> list[str]:
    return [path.read_text() for path in sorted(folder.glob("*.py"))]


def test_no_uncalled_functions():
    assert unused_functions(_sources(PACKAGE), _sources(PERFBENCH)) == []
