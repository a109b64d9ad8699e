"""One ``prspider run`` of a generated config, in a fresh process.

Usage:
    python3 perfbench/run_once.py CONFIG OUT_DIR [--spans SPANS_CSV]

Drives the calls ``prspider run`` makes -- ``cli.load_config``,
``cli.build_suite``, ``cli.resolve_algorithm``, ``cli.run_one`` per seed,
``MetricsTrace.write_csv`` and ``write_sidecar`` -- and prints one JSON
line with its timings, peak memory and counters. With ``--spans`` the
run is traced, and the per-layer metrics join the JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prspider import cli  # noqa: E402
from prspider.algorithms import DivergedError  # noqa: E402
from prspider.harness import first_hit  # noqa: E402


class _NoSpan:
    work = 0


@contextmanager
def _no_span(name):
    yield _NoSpan()


def run(config_path: Path, out: Path, span=_no_span) -> dict:
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    config = cli.load_config(config_path)
    t_setup = time.perf_counter()
    with span("cli.build_suite"):
        suite = cli.build_suite(config["problem"])
    with span("cli.resolve_algorithm"):
        name, params = cli.resolve_algorithm(config["algorithm"], suite)
    setup_s = time.perf_counter() - t_setup
    run_block = config["run"]
    out.mkdir(parents=True, exist_ok=True)
    runner_s = 0.0
    traces = []
    for seed in run_block["seeds"]:
        t_run = time.perf_counter()
        try:
            with span("cli.run_one"):
                trace = cli.run_one(name, params, suite, seed, run_block)
        except DivergedError as exc:
            trace = exc.trace
        runner_s += time.perf_counter() - t_run
        csv_path = out / f"trace_seed{seed}.csv"
        sidecar_path = out / f"trace_seed{seed}.json"
        with span("harness.write") as sp:
            trace.write_csv(csv_path)
            sp.work = csv_path.stat().st_size
        with span("harness.write") as sp:
            trace.write_sidecar(sidecar_path)
            sp.work = sidecar_path.stat().st_size
        traces.append((seed, trace, csv_path, sidecar_path))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    eps = float(run_block["eps_targets"][0])
    seeds = []
    for seed, trace, csv_path, sidecar_path in traces:
        hit = first_hit(trace, eps)
        seeds.append({
            "seed": seed,
            "outcome": trace.outcome,
            "ifo_total": trace.ifo_total,
            "comm_rounds": trace.comm_rounds,
            "bytes_equivalent": trace.ledger.bytes_equivalent,
            "records": len(trace.records),
            "last_record_ifo": (
                trace.records[-1].ifo_total if trace.records else None
            ),
            "hit": None if hit is None else {
                "ifo": hit.ifo_total, "comm": hit.comm_rounds,
            },
            "csv": csv_path.name,
            "sidecar": sidecar_path.name,
        })
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "runner_s": runner_s,
        "peak_rss_mib": peak_rss_mib,
        "seeds": seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.spans is None:
        result = run(args.config, args.out)
    else:
        from spans import Tracer

        tracer = Tracer()
        with tracer.installed():
            result = run(args.config, args.out, tracer.span)
        dim = int(json.loads(args.config.read_text())["problem"]["d"])
        result["layers"] = tracer.layer_metrics(dim)
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
