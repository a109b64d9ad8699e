"""Smoke test of the benchmark at tiny sizes.

Usage:
    python3 perfbench/smoke.py

For each workload of ``workloads.py`` (those ``BENCHMARK.json`` lists and
any others), untraced and traced: the run passes its gate, and
every metric ``BENCHMARK.json`` declares for the mode is printed with its
unit, both on a human-readable line and in the final JSON line. Then a
golden file with corrupted digests must make every run count as failed.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.WORKLOADS)
    for workload in names:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, lines = bench(workload, trace)
            tag = f"{workload} trace={trace}"
            assert result["correct"], f"{tag}: {lines}"
            assert result["attempted"] >= 1 and result["failed"] == 0, tag
            assert set(result["metrics"]) == {m["name"] for m in declared}, tag
            for m in declared:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], f"{tag}: {m['name']} unit"
                printed = [
                    line.split() for line in lines
                    if line.split()[:1] == [m["name"]]
                ]
                assert printed and printed[0][-1] == m["unit"], (
                    f"{tag}: {m['name']} not printed with its unit"
                )
            print(f"ok {tag}: {result['attempted']} runs")

    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    for entry in golden[names[0]]["tiny"].values():
        entry["csv"] = "0" * 64
    corrupt = ROOT / ".bench_work" / "golden-corrupt.json"
    corrupt.parent.mkdir(parents=True, exist_ok=True)
    corrupt.write_text(json.dumps(golden))
    result, lines = bench(names[0], 0, "--golden", str(corrupt))
    assert not result["correct"], lines
    assert result["failed"] == result["attempted"] >= 1, result
    print(f"ok corrupted digest: {result['failed']}/{result['attempted']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
