"""Every function, method and module-level name in ``src/prspider`` is used.

Like ``test_unused_imports.py``, this walks syntax trees, so it needs no
linter. A definition counts as used when a module of ``src/prspider`` or
``perfbench/`` mentions its name other than by defining it: as a name it
reads (``axpy(...)``) or an attribute (``obj.draw_indices``). A string
counts only in ``perfbench/spans.py``, the one module that patches calls
by name (``setattr(owner, "substream", ...)``); elsewhere a string that
happens to spell a name, such as a ``"sidecar"`` file key, is not a call.
A name in ``__all__`` is exported, not called, so the strings of an
``__all__`` assignment do not count. Tests do not count either: API
surface that only a test calls has no caller in the program.
The same rule holds for every name a module assigns at its top level,
``__all__`` itself excepted: a constant nothing reads is dead code too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prspider"
PERFBENCH = ROOT / "perfbench"
PATCHER = PERFBENCH / "spans.py"

# names that code outside the repository calls, with the reason
PROTOCOL = {
    "generate_state": "numpy's PCG64 calls it on a seed sequence",
}


def _exports(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _mentions(tree: ast.AST, strings: bool) -> set[str]:
    names = set()
    pending = [tree]
    while pending:
        node = pending.pop()
        if _exports(node):
            continue
        pending.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _all_mentions(
    trees: list[ast.AST], referencing: list[str], patching: list[str]
) -> set[str]:
    return set().union(
        *(_mentions(tree, False) for tree in trees),
        *(_mentions(ast.parse(source), False) for source in referencing),
        *(_mentions(ast.parse(source), True) for source in patching),
    )


def unused_functions(
    defining: list[str], referencing: list[str], patching: list[str] = ()
) -> list[str]:
    """Functions and methods of ``defining`` that no source mentions.

    The lists hold module sources; ``defining`` is searched for uses too,
    and only the strings of ``patching`` count as uses. Dunders and
    ``PROTOCOL`` names are exempt.
    """
    trees = [ast.parse(source) for source in defining]
    mentioned = _all_mentions(trees, referencing, patching)
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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_names(tree: ast.Module) -> list[str]:
    """Names bound by assignments at module level.

    The bodies of a module-level ``if``, ``try`` or ``with`` are module
    level too; functions and classes are not.
    """
    names = []
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        elif not isinstance(node, SCOPES):
            pending += [n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt)]
    return names


def unread_module_names(
    defining: list[str], referencing: list[str], patching: list[str] = ()
) -> list[str]:
    """Module-level names of ``defining`` that no source reads.

    As for ``unused_functions``; ``__all__`` is exempt.
    """
    trees = [ast.parse(source) for source in defining]
    mentioned = _all_mentions(trees, referencing, patching)
    return [
        name
        for tree in trees
        for name in _module_names(tree)
        if name != "__all__" and name not in mentioned
    ]


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
    assert unused_functions([source], [], [caller]) == [
        "exported", "orphan", "with_initial_point",
    ]
    # a string outside the patching module is not a use
    assert "patched" in unused_functions([source], [caller])


def _sources(folder: Path) -> list[str]:
    return [path.read_text() for path in sorted(folder.glob("*.py"))]


def _check(find) -> list[str]:
    return find(_sources(PACKAGE), _sources(PERFBENCH), [PATCHER.read_text()])


def test_no_uncalled_functions():
    assert _check(unused_functions) == []


def test_the_check_sees_unread_module_names():
    source = (
        "import numpy as np\n"
        "__all__ = ['EXPORTED']\n"
        "EXPORTED = 1\n"
        "_DTYPE = np.dtype(np.float64)\n"
        "LIMIT: int = 16\n"
        "_LOW, *_HIGH = 0, 1, 2\n"
        "if LIMIT:\n"
        "    _NESTED = 2\n"
        "def f(x):\n"
        "    local = x\n"
        "    return _LOW < local < LIMIT\n"
        "class C:\n"
        "    FIELD = 0\n"
    )
    caller = "getattr(module, '_HIGH')\n"
    assert unread_module_names([source], [], [caller]) == [
        "EXPORTED", "_DTYPE", "_NESTED",
    ]
    assert "_HIGH" in unread_module_names([source], [caller])


def test_no_unread_module_names():
    assert _check(unread_module_names) == []
