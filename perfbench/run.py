"""Benchmark of ``prspider run`` on fixed workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's generated config in a fresh process per run
(``run_once.py``), serially, for about ``--seconds`` seconds, and gates
every run on the closed-form counters, a first hit at the workload's eps
target and the golden SHA-256 digests of its trace CSV and sidecar.
Timings are scaled to reference seconds by the host's slowness during
each run (``calibrate.py``), and each metric is the median over runs. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced invocation alternates traced and untraced runs
(at least two traced and one untraced, unless a run would overrun the
three-minute limit); its span counts must match the closed forms and
repeat exactly between traced runs.

``--tiny`` shrinks each workload for the smoke test; ``--golden`` reads
the digests from another file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
# one invocation must end well inside three minutes
DEADLINE_S = 165.0


def environment(config: dict) -> dict:
    """nproc, CPUs used, versions, BLAS, L3 size and data size against L3."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = os.sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, ValueError):
        l3 = 0
    problem = config["problem"]
    pool = (
        problem.get("online_pool", 512) if problem["n"] == "online"
        else problem["n"]
    )
    working_set = problem["N"] * pool * problem["d"] * 8
    return {
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l3_mib": l3 / 2**20 if l3 > 0 else None,
        "data_mib": working_set / 2**20,
        "data_over_l3": working_set / l3 if l3 > 0 else None,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gate(result, out: Path, want: dict, golden: dict) -> list[str]:
    """Reasons a run is wrong; empty when it passed."""
    problems = []
    for s in result["seeds"]:
        tag = f"seed {s['seed']}"
        if s["outcome"] != "completed":
            problems.append(f"{tag}: outcome {s['outcome']}")
        for key in ("ifo_total", "comm_rounds", "bytes_equivalent", "records"):
            if s[key] != want[key]:
                problems.append(f"{tag}: {key} {s[key]} != {want[key]}")
        if s["last_record_ifo"] != s["ifo_total"]:
            problems.append(f"{tag}: last record ifo {s['last_record_ifo']}")
        if s["hit"] is None:
            problems.append(f"{tag}: eps target never reached")
        digests = golden.get(str(s["seed"]))
        if digests is None:
            problems.append(f"{tag}: no golden digest")
            continue
        for kind in ("csv", "sidecar"):
            path = out / s[kind]
            got = sha256(path) if path.is_file() else "missing"
            if got != digests[kind]:
                problems.append(f"{tag}: {kind} digest {got[:12]} != golden")
    return problems


def gate_layers(traced: list[dict], want: dict) -> list[str]:
    """Span counts against their closed forms and across traced runs."""
    problems = []
    first = traced[0]["layers"]
    for name, count in want.items():
        if first[name] != count:
            problems.append(f"span {name} = {first[name]}, closed form {count}")
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    for other in traced[1:]:
        again = {k: v for k, v in other["layers"].items() if isinstance(v, int)}
        if again != counts:
            diff = sorted(k for k in counts if counts[k] != again.get(k))
            problems.append(f"span counts differ between traced runs: {diff}")
    return problems


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    rank = n - 10
    if rank < 1:
        return f"no percentile has ten samples beyond it at n={n}"
    return f"p{100 * rank // n}={sorted(values)[rank - 1]:.6g} s (n={n})"


def median(values) -> float:
    """Median; counts stay whole numbers."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure(config_path, work, trace, seconds, started, check, gauge):
    """Run ``run_once.py`` until the next run would end after ``seconds``.

    Traced and untraced runs alternate when ``trace`` is set. Each run's
    ``slowness`` is read from ``gauge`` over the run's interval. Returns
    the runs' results and the reasons any of them failed.
    """
    out = work / "out"
    samples: list[dict] = []
    failures: list[str] = []
    durations = {True: [], False: []}
    while True:
        traced = bool(trace) and len(samples) % 2 == 0
        elapsed = time.monotonic() - started
        if samples:
            past = durations[traced] or durations[not traced]
            ends = elapsed + median(past)
            # never start a run that would overrun the hard deadline
            if ends > DEADLINE_S or (
                len(samples) >= (3 if trace else 1) and ends > seconds
            ):
                break
        cmd = [sys.executable, str(BENCH_DIR / "run_once.py"),
               str(config_path), str(out)]
        if traced:
            cmd += ["--spans", str(work / "spans.csv")]
        # a run that writes nothing must not find the last run's files
        shutil.rmtree(out, ignore_errors=True)
        t = time.monotonic()
        t_run = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, DEADLINE_S - elapsed),
            )
        except subprocess.TimeoutExpired:
            failures.append(f"run {len(samples)}: timed out")
            samples.append({"traced": traced, "failed": True})
            break
        slowness = gauge.slowness(t_run, time.perf_counter())
        durations[traced].append(time.monotonic() - t)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            failures.append(f"run {len(samples)}: exit {proc.returncode}")
            samples.append({"traced": traced, "failed": True})
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["traced"] = traced
        result["slowness"] = slowness
        reasons = check(result, out)
        result["failed"] = bool(reasons)
        failures.extend(f"run {len(samples)}: {r}" for r in reasons)
        samples.append(result)
    return samples, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "prspider" / "__init__.py").is_file():
        print(f"perfbench: no prspider sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calibrate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workloads.pin_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = "tiny" if args.tiny else "full"
    golden = json.loads(args.golden.read_text())[args.workload][size]

    run_seed = workloads.run_seed(args.seed)
    config = workloads.make_config(args.workload, [run_seed], args.tiny)
    work = WORK / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")

    kind = workloads.CALIBRATION[args.workload]
    with calibrate.Gauge(kind) as gauge:
        samples, failures = measure(
            config_path, work, args.trace, args.seconds, started,
            lambda result, out: gate(
                result, out, workloads.expected_counters(config), golden
            ),
            gauge,
        )

    good = [s for s in samples if "seeds" in s]
    traced_runs = [s for s in good if s["traced"]]
    plain = [s for s in good if not s["traced"]]
    if args.trace and traced_runs:
        reasons = gate_layers(traced_runs, workloads.expected_layers(config))
        if reasons:
            failures.extend(reasons)
            for s in traced_runs:
                s["failed"] = True
    failed = sum(1 for s in samples if s["failed"])

    def scaled(sample, key):
        """A run's timing in reference seconds (see ``calibrate.py``)."""
        return sample[key] / sample["slowness"]

    values = {}
    if plain:
        walls = [scaled(s, "wall_s") for s in plain]
        steps = workloads.steps_per_run(config)
        hits = [h for s in plain for h in (x["hit"] for x in s["seeds"]) if h]
        values = {
            "wall_s": median(walls),
            "setup_s": median(scaled(s, "setup_s") for s in plain),
            "steps_per_s": median(
                steps / scaled(s, "runner_s") for s in plain
            ),
            "peak_rss_mib": median(s["peak_rss_mib"] for s in plain),
            "ifo_at_eps": median(h["ifo"] for h in hits) if hits else 0,
            "comm_at_eps": median(h["comm"] for h in hits) if hits else 0,
        }
    if traced_runs:
        for name in traced_runs[0]["layers"]:
            values[name] = median(s["layers"][name] for s in traced_runs)
        if plain:
            values["tracing.overhead_s"] = median(
                scaled(s, "wall_s") for s in traced_runs
            ) - median(walls)

    env = environment(config)
    print(f"env: {json.dumps(env)}")
    print(
        f"workload {args.workload} ({size}), seed {args.seed} -> run seed "
        f"{run_seed}: {len(samples)} runs ({len(traced_runs)} traced), "
        f"{failed} failed"
    )
    missing = [m["name"] for m in declared if m["name"] not in values]
    failures.extend(f"metric {name} not measured" for name in missing)
    for reason in failures:
        print(f"  FAIL {reason}")
    if args.trace and len(traced_runs) < 2:
        print("  note: one traced run, span counts not compared between runs")
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:.10g} {m['unit']}")
    if not args.trace and plain:
        print(f"  {'wall_s tail':<40} {tail(walls)}")
        raw = median(s["wall_s"] for s in plain)
        print(f"  {'raw wall_s (not a metric)':<40} {raw:.10g} s")
        # CPU time of all threads excludes time the host stole from the
        # guest, so a wall_s far above it points at the machine, not the code
        cpu = median(s["cpu_s"] for s in plain)
        print(f"  {'raw cpu_s (not a metric)':<40} {cpu:.10g} s")
        slow = median(s["slowness"] for s in good)
        print(f"  {'slowness (not a metric)':<40} {slow:.10g} ({kind})")
    print(f"  {'fail_frac':<40} {failed / max(1, len(samples)):.10g} "
          f"({failed}/{len(samples)})")
    (work / "result.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "failures": failures,
         "samples": samples}, indent=1) + "\n")
    correct = failed == 0 and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
