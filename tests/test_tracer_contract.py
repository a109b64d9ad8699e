"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` patches module globals and class methods by name
and reads some positional arguments; ``perfbench/workloads.py`` states how
often each traced call happens. A refactor that renames, inlines or moves
one of them breaks only the benchmark, so each workload's tiny config is
traced here in-process and its span counts are checked against the closed
forms.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from prspider.cli import build_suite, resolve_algorithm, run_one

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_span_counts_match_closed_forms(workload):
    config = workloads.make_config(workload, [0, 1], tiny=True)
    tracer = spans.Tracer()
    with tracer.installed():
        suite = build_suite(config["problem"])
        name, params = resolve_algorithm(config["algorithm"], suite)
        for seed in config["run"]["seeds"]:
            trace = run_one(name, params, suite, seed, config["run"])
            assert trace.outcome == "completed"
    got = tracer.layer_metrics(int(config["problem"]["d"]))
    expected = workloads.expected_layers(config)
    assert {key: got[key] for key in expected} == expected
