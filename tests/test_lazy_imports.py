"""A serial run loads no module it does not use.

``concurrent.futures`` (the worker thread pool) and ``statistics`` (the
sweep summary) cost a run's memory only when it uses them. Each case runs
in a fresh interpreter, since this test process has long since imported
both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

LAZY = ("concurrent.futures", "statistics")

# a tiny run through the calls ``prspider run`` makes, then the modules it
# left loaded, of LAZY
_SCRIPT = """
import json, sys
from pathlib import Path
from prspider import cli
config = {
    "family": "sigmoid", "N": %(N)d, "n": 16, "d": 4,
    "heterogeneity": 0.5, "seed": 1,
}
suite = cli.build_suite(config)
name, params = cli.resolve_algorithm({
    "name": "pr-spider-finite",
    "params": {"gamma": 0.05, "I": 2, "m": 4, "B": 2, "S": 2},
}, suite)
trace = cli.run_one(name, params, suite, 0, {"parallel": %(parallel)s})
out = Path(sys.argv[1])
trace.write_csv(out / "trace.csv")
trace.write_sidecar(out / "trace.json")
print(json.dumps([m for m in %(lazy)r if m in sys.modules]))
"""


def _loaded(tmp_path, N: int, parallel: bool) -> list[str]:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = _SCRIPT % {"N": N, "parallel": parallel, "lazy": LAZY}
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert (tmp_path / "trace.csv").is_file()
    assert (tmp_path / "trace.json").is_file()
    return json.loads(done.stdout)


@pytest.mark.parametrize("N, parallel", [(2, False), (1, True)])
def test_a_run_without_a_pool_loads_no_lazy_module(tmp_path, N, parallel):
    # a one-worker run has no pool to build, parallel or not
    assert _loaded(tmp_path, N, parallel) == []


def test_a_parallel_run_loads_the_pool_module_only(tmp_path):
    assert _loaded(tmp_path, 2, True) == ["concurrent.futures"]
