"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` patches module globals and class methods by name
and reads some positional arguments; ``perfbench/workloads.py`` states how
often each traced call happens. A refactor that renames, inlines or moves
one of them breaks only the benchmark, so each workload's tiny config is
traced here in-process and its span counts are checked against the closed
forms. ``perfbench/run_once.py`` reads the trace's counters by name, so
each tiny workload also goes through it here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from prspider.cli import build_suite, load_config, resolve_algorithm, run_one

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
run_once = _load("run_once")


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


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_configs_pass_the_config_schema(workload, tmp_path):
    # the tiny config goes through every check; the full one differs from
    # it in values only
    full = workloads.make_config(workload, [0])
    tiny = workloads.make_config(workload, [0], tiny=True)
    for block in ("problem", "algorithm", "run"):
        assert set(full[block]) == set(tiny[block])
    assert set(full["algorithm"]["params"]) == set(tiny["algorithm"]["params"])
    for config in (full, tiny):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert load_config(path) == config
    suite = build_suite(tiny["problem"])
    resolve_algorithm(tiny["algorithm"], suite)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_once_counters_match_closed_forms(workload, tmp_path):
    config = workloads.make_config(workload, [0, 1], tiny=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = run_once.run(path, tmp_path / "out")
    expected = workloads.expected_counters(config)
    assert len(result["seeds"]) == 2
    for seed in result["seeds"]:
        assert seed["outcome"] == "completed"
        assert {key: seed[key] for key in expected} == expected
