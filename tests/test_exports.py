"""Every name that a ``prspider`` module lists in ``__all__`` exists.

A deletion that leaves its name behind in an ``__all__`` list breaks
``from prspider.<module> import *`` and nothing else, so nothing else
notices it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import prspider

MODULES = ["prspider"] + sorted(
    f"prspider.{info.name}" for info in pkgutil.iter_modules(prspider.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names: {missing}"
