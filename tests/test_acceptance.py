"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the measured value against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Scaling checks pin the start-point offset of their instances so the
first-hit sweep spans the probed accuracy grid; the slope and ratio
windows themselves come from the stated criteria.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import prspider as ps
from prspider.checks import (
    check_consensus_zeroing,
    check_counter_formulas,
    check_convergence_bound_finite,
    check_convergence_bound_online,
    check_gd_degeneracy,
    check_restart_identity,
    check_restart_variance_bound,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def report(criterion, name, measured, requirement, ok):
    line = (
        f"[criterion {criterion}] {name}: measured={measured} "
        f"required={requirement} -> {'PASS' if ok else 'FAIL'}"
    )
    print(line)
    assert ok, line


def standard_suite(**kw):
    defaults = dict(N=4, n=64, d=8, heterogeneity=0.5, seed=11)
    defaults.update(kw)
    return ps.make_quadratic_suite(**defaults)


def auto_params(suite, I, eps):
    return ps.choose_params_finite(
        suite.num_workers,
        suite.sample_count,
        I,
        suite.smoothness,
        suite.initial_gap(),
        eps,
    )


def test_criterion_1_restart_direction_identity():
    """Every epoch restart equals the exact gradient at the restart point."""
    start = time.perf_counter()
    # the check runs standard_suite() with auto_params(suite, I=4, eps=0.02)
    result = check_restart_identity(seeds=range(5))
    assert result.events >= 3 * 5, "instance must cross several epoch boundaries"
    worst = result.measured
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(1, "restart-direction identity", f"{worst:.3e}", "<= 1e-10", worst <= 1e-10)


def test_criterion_2_consensus_zeroing():
    """Averaging leaves exactly zero spread in whatever it broadcast."""
    suite = standard_suite(heterogeneity=1.0)
    hp = ps.HyperParams(gamma=1.0 / 32, I=3, m=12, B=2, S=4, N=4)
    result = check_consensus_zeroing(suite, hp, seeds=range(3))
    assert result.events > 0, "no broadcast was measured"
    worst = result.measured
    report(
        2, "consensus zeroing after averaging",
        f"{worst!r} over {result.events} events", "== 0.0 exactly", worst == 0.0,
    )


def test_criterion_3_gradient_descent_degeneracy():
    """Full batches and per-step averaging reproduce plain gradient descent."""
    start = time.perf_counter()
    # the check runs standard_suite(N=2, n=16, d=4, heterogeneity=0.3, seed=3)
    # with B = n = 16, I = 1 and gamma = 0.1 for 200 steps, against a
    # hand-rolled descent loop on the mean center
    result = check_gd_degeneracy()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    assert result.events > 0, "no step was measured"
    worst = result.measured
    report(
        3, "gradient-descent degeneracy (B=n, I=1)",
        f"{worst:.3e} over {result.events} steps", "<= 1e-12", worst <= 1e-12,
    )


def test_criterion_4_estimator_unbiasedness_by_enumeration():
    """All size-1 batches on a 3-sample instance average to the exact step."""
    rng = np.random.default_rng(7)
    suite = ps.sigmoid_suite_from_params(
        rng.normal(size=(1, 3, 2)), rng.normal(size=(1, 3)), np.zeros(2)
    )
    obj = suite.objectives[0]
    v0 = rng.normal(size=2)
    x_prev = rng.normal(size=2)
    x_curr = rng.normal(size=2)
    from prspider.algorithms import spider_update

    outcomes = [spider_update(v0, x_prev, obj, x_curr, [j]) for j in range(3)]
    enumerated = np.stack(outcomes).mean(axis=0)
    # the exact worker gradient: row 0 of the suite's analytic oracles
    grads = suite.analytic.gradients
    expected = v0 + grads(x_curr)[0] - grads(x_prev)[0]
    err = float(np.max(np.abs(enumerated - expected)))
    report(4, "estimator unbiasedness by enumeration", f"{err:.3e}", "<= 1e-12", err <= 1e-12)


def test_criterion_5_restart_variance_bound():
    """Mean squared restart error over 500 draws obeys sigma^2/(N n_b)."""
    start = time.perf_counter()
    result = check_restart_variance_bound(repeats=500)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        5, "restart variance bound (500 seeded restarts)",
        f"{result.measured:.5f}", f"<= {result.bound:.5f}", result.passed,
    )


def test_criterion_6_communication_scaling():
    """Rounds to reach eps scale like 1/eps: log-log slope in [0.7, 1.3]."""
    start = time.perf_counter()
    suite = standard_suite(initial_offset=0.15)
    eps_grid = [0.2, 0.1, 0.05, 0.025]
    medians = []
    for eps in eps_grid:
        hp = auto_params(suite, I=4, eps=eps)
        hits = []
        for seed in range(7):
            trace = ps.run_pr_spider_finite(suite, hp, seed)
            hit = ps.first_hit(trace, eps)
            assert hit is not None, f"eps={eps} never reached"
            hits.append(hit.comm_rounds)
        medians.append(statistics.median(hits))
    slope = float(
        np.polyfit(np.log([1.0 / e for e in eps_grid]), np.log(medians), 1)[0]
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        6, "communication scaling vs 1/eps",
        f"slope={slope:.3f} (rounds {medians})", "slope in [0.7, 1.3]",
        0.7 <= slope <= 1.3,
    )


def test_criterion_7_linear_speedup():
    """Per-node oracle cost at fixed accuracy halves as workers double."""
    start = time.perf_counter()
    eps, total = 0.05, 1024
    per_node = {}
    for N in (2, 4, 8):
        suite = standard_suite(N=N, n=total // N, initial_offset=0.15)
        hp = auto_params(suite, I=4, eps=eps)
        values = []
        for seed in range(7):
            trace = ps.run_pr_spider_finite(suite, hp, seed)
            hit = ps.first_hit(trace, eps)
            assert hit is not None
            values.append(hit.ifo_total / N)
        per_node[N] = statistics.median(values)
    ratios = [per_node[2] / per_node[4], per_node[4] / per_node[8]]
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f}s"
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    report(
        7, "linear speedup at fixed total data",
        f"per-doubling ratios={[round(r, 3) for r in ratios]} ({per_node})",
        "each in [1.5, 2.5]", ok,
    )


def test_criterion_8_variance_reduction_beats_baseline():
    """Total oracle cost to reach eps: recursion-based run <= plain SGD."""
    suite = ps.make_nonconvex_suite(N=4, n=256, d=4, heterogeneity=0.5, seed=9)
    g0 = ps.sq_norm(suite.gradient(suite.initial_point))
    eps = g0 / 5  # both methods converge comfortably past this level
    L, sigma, gap = suite.smoothness, suite.variance_bound, suite.initial_gap()

    hp = ps.choose_params_finite(4, 256, 4, L, gap, eps)
    spider = []
    for seed in range(7):
        hit = ps.first_hit(ps.run_pr_spider_finite(suite, hp, seed), eps)
        assert hit is not None
        spider.append(hit.ifo_total)

    # baseline tuned by its own rules: 1/(8L) step, variance-killing batch;
    # the iteration budget is capped well past the observed hit (the
    # assert below keeps the cap honest)
    gamma_b = 1.0 / (8 * L)
    batch = max(1, round(4 * sigma**2 / (suite.num_workers * eps)))
    horizon = min(400, int(2 * gap / (gamma_b * eps)) + 1)
    sgd = []
    for seed in range(7):
        trace = ps.run_parallel_minibatch_sgd(suite, gamma_b, batch, horizon, seed)
        hit = ps.first_hit(trace, eps)
        assert hit is not None
        sgd.append(hit.ifo_total)

    med_spider, med_sgd = statistics.median(spider), statistics.median(sgd)
    report(
        8, "oracle-cost advantage over mini-batch baseline",
        f"{med_spider} vs {med_sgd}", "spider <= baseline", med_spider <= med_sgd,
    )


def test_criterion_9_exact_counter_formulas():
    """Ledger totals equal the closed forms on randomized shapes."""
    result = check_counter_formulas(trials=20, seed=0)
    report(
        9, "exact counter formulas (20 random shapes)",
        f"{int(result.measured)} mismatches", "0 mismatches", result.passed,
    )


def test_criterion_10_determinism(tmp_path):
    """Same config and seed give byte-identical traces, here or in a fresh
    interpreter, whose scratch, seed-block and analytic caches start empty."""
    suite = standard_suite()
    hp = auto_params(suite, I=4, eps=0.05)
    payloads = {}
    for name in ("serial-a", "serial-b"):
        path = tmp_path / f"{name}.csv"
        ps.run_pr_spider_finite(suite, hp, 5).write_csv(path)
        payloads[name] = path.read_bytes()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"family": "quadratic", "N": 4, "n": 64, "d": 8,
                    "heterogeneity": 0.5, "seed": 11},
        "algorithm": {"name": "pr-spider-finite", "params": hp.as_dict()},
        "run": {"seeds": [5]},
    }))
    out = tmp_path / "fresh"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "prspider", "run", str(config), "--out", str(out)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path),
        check=True, timeout=120,
    )
    payloads["fresh"] = (out / "trace_seed5.csv").read_bytes()
    identical = payloads["serial-a"] == payloads["serial-b"] == payloads["fresh"]
    report(
        10, "byte-identical traces (repeat + fresh process)",
        f"{len(payloads['serial-a'])} bytes each", "all equal", identical,
    )


def test_convergence_guarantee_upper_bounds():
    """One-sided: observed best measure never exceeds the guarantee."""
    finite = check_convergence_bound_finite()
    online = check_convergence_bound_online()
    report(
        "T", "convergence guarantee upper bounds (finite, online)",
        f"{finite.measured:.3e}, {online.measured:.3e}",
        f"<= {finite.bound:.3e}, <= {online.bound:.3e}",
        finite.passed and online.passed,
    )
