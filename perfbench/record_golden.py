"""Record the golden trace digests of every workload, size and pooled seed.

Usage:
    python3 perfbench/record_golden.py

Writes ``perfbench/golden.json``. Run it only to re-baseline on purpose:
the digests pin today's traces byte for byte, and a timed run whose
trace differs from them counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

NOTE = (
    "SHA-256 of trace_seed<k>.csv and trace_seed<k>.json per run seed. The "
    "sigmoid workloads go through a BLAS matvec, so a BLAS or CPU change "
    "can move their digests; the quadratic path is elementwise numpy."
)


def record(workload: str, tiny: bool) -> dict:
    config = workloads.make_config(
        workload, list(range(workloads.POOL_SIZE)), tiny
    )
    size = "tiny" if tiny else "full"
    work = ROOT / ".bench_work" / "golden" / f"{workload}-{size}"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    # the same fresh, pinned process as a timed run: BLAS sizes its thread
    # pool when numpy loads, and the sigmoid traces depend on it bitwise
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run_once.py"), str(config_path),
         str(work / "out")],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = {}
    for s in result["seeds"]:
        if s["outcome"] != "completed" or s["hit"] is None:
            raise SystemExit(f"{workload} {size} seed {s['seed']}: {s}")
        digests[str(s["seed"])] = {
            kind: hashlib.sha256((work / "out" / s[kind]).read_bytes())
            .hexdigest()
            for kind in ("csv", "sidecar")
        }
        print(workload, size, s["seed"], s["hit"], flush=True)
    return digests


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    workloads.pin_one_cpu()
    golden = {"note": NOTE}
    for workload in workloads.WORKLOADS:
        golden[workload] = {
            "tiny": record(workload, tiny=True),
            "full": record(workload, tiny=False),
        }
    (BENCH_DIR / "golden.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
