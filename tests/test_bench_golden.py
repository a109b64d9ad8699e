"""The benchmark's golden bytes, checked in-process at the tiny sizes.

A timed benchmark run counts as failed when its trace differs from
``perfbench/golden.json``. Here every pooled seed of each workload's tiny
config goes through the calls ``perfbench/run_once.py`` makes
(``build_suite``, ``resolve_algorithm``, ``run_one``, ``write_csv``,
``write_sidecar``), and the SHA-256 of both files must match the digest
recorded there, so a change to those bytes shows in the test suite too.
The tiny configs run 16 iterations each; one full ``sigmoid-finite`` seed
(7,808 iterations and 61 restarts, about a second) is checked as well.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from blas_kernel import digest_note

from prspider.cli import build_suite, resolve_algorithm, run_one

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(trace, tmp_path: Path, seed: int) -> dict:
    csv_path = tmp_path / f"trace_seed{seed}.csv"
    sidecar_path = tmp_path / f"trace_seed{seed}.json"
    trace.write_csv(csv_path)
    trace.write_sidecar(sidecar_path)
    return {"csv": _sha256(csv_path), "sidecar": _sha256(sidecar_path)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traces_match_benchmark_golden(workload, tmp_path):
    seeds = list(range(workloads.POOL_SIZE))
    config = workloads.make_config(workload, seeds, tiny=True)
    suite = build_suite(config["problem"])
    name, params = resolve_algorithm(config["algorithm"], suite)
    golden = GOLDEN[workload]["tiny"]
    assert set(golden) == {str(seed) for seed in seeds}
    for seed in seeds:
        trace = run_one(name, params, suite, seed, config["run"])
        assert trace.outcome == "completed"
        got = _digests(trace, tmp_path, seed)
        assert got == golden[str(seed)], f"{workload} seed {seed}: {digest_note()}"


def test_full_sigmoid_trace_matches_benchmark_golden(tmp_path):
    # a run seed's trace and sidecar do not depend on the other seeds of
    # its config, so one seed of the pool reproduces its recorded bytes
    seed = 5
    config = workloads.make_config("sigmoid-finite", [seed])
    suite = build_suite(config["problem"])
    name, params = resolve_algorithm(config["algorithm"], suite)
    trace = run_one(name, params, suite, seed, config["run"])
    assert trace.outcome == "completed"
    assert len(trace.records) == 61 * 128
    got = _digests(trace, tmp_path, seed)
    assert got == GOLDEN["sigmoid-finite"]["full"][str(seed)], digest_note()
