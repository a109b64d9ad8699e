"""Every top-level import in ``src/prspider`` is used by its module.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as used when the module reads it anywhere (``np`` in
``np.dot`` too) or lists it in ``__all__``. An import line marked
``# noqa`` is exempt: ``algorithms.py`` keeps ``import copy`` for the
benchmark's span tracer, which swaps ``algorithms.copy``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "prspider"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that it never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import copy  # noqa: F401\n"
        "import os.path as osp\n"
        "from json import (dumps,\n"
        "                  loads)\n"
        "import numpy as np\n"
        "__all__ = ['loads']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os", "osp", "dumps"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
