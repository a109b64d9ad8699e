"""Built-in verification suites: exact identities, bounds, and oracles.

Each check runs a fixed, seeded configuration and compares a measured
quantity against a pinned tolerance or closed-form bound, so a fresh
checkout can be validated without any external data. The checks mirror
the structural guarantees of the method: the restart direction matches
the exact gradient at every epoch start, averaging zeroes disagreement,
the recursion degenerates to plain gradient descent on quadratics, the
restart-direction variance obeys its sigma^2/(N n_b) bound, counters
follow their closed forms, and the observed best stationarity measure
never exceeds the convergence guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import (
    HyperParams,
    choose_params_finite,
    draw_restart_direction,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from .harness import RunHooks
from .numerics import RngStream, mean_reduce, sq_norm
from .problems import make_quadratic_suite

__all__ = [
    "CheckResult",
    "expected_comm_rounds",
    "expected_ifo_finite",
    "expected_ifo_online",
    "check_restart_identity",
    "check_consensus_zeroing",
    "check_gd_degeneracy",
    "check_restart_variance_bound",
    "check_convergence_bound_finite",
    "check_convergence_bound_online",
    "check_counter_formulas",
    "run_suite",
    "SUITES",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    note: str = ""
    # how many measurements ``measured`` is the worst of, for the checks
    # that count them; a check that measured nothing fails
    events: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: measured={self.measured:.6g} "
            f"bound={self.bound:.6g} {self.note}".rstrip()
        )


def expected_comm_rounds(S: int, m: int, I: int) -> int:
    """Closed-form round count of a PR-SPIDER run, for any ``m`` and ``I``.

    One initial gradient round, ``(m - 1) // I`` in-epoch exchanges per
    epoch (at ``t = I, 2I, ... < m``; the t=0 boundary is covered by the
    restart), and two rounds per epoch boundary (iterate average, then
    gradients at the average).
    """
    return 1 + S * ((m - 1) // I) + (S - 1) * 2


def expected_ifo_finite(S: int, m: int, B: int, n: int, N: int) -> int:
    """Closed-form oracle count: init pass, inner steps, restart passes."""
    return N * n + S * (m - 1) * N * 2 * B + (S - 1) * N * n


def expected_ifo_online(S: int, m: int, B: int, n_b: int, N: int) -> int:
    """The finite count with restart batches of ``n_b`` for passes of ``n``."""
    return expected_ifo_finite(S, m, B, n_b, N)


def _default_quadratic():
    return make_quadratic_suite(N=4, n=64, d=8, heterogeneity=0.5, seed=11)


def check_restart_identity(seeds=range(3)) -> CheckResult:
    """At every epoch start the mean direction equals the exact gradient."""
    suite = _default_quadratic()
    hp = choose_params_finite(
        N=4, n=64, I=4, L=suite.smoothness, gap_bound=suite.initial_gap(), eps=0.02
    )
    residuals = []
    for seed in seeds:
        trace = run_pr_spider_finite(suite, hp, seed)
        residuals += trace.epoch_restart_residuals
    worst = max(residuals, default=0.0)
    return CheckResult(
        "restart-identity", bool(residuals) and worst <= 1e-10, worst, 1e-10,
        events=len(residuals),
    )


def check_consensus_zeroing(suite=None, hp=None, seeds=(0,)) -> CheckResult:
    """Every broadcast leaves zero iterate and direction disagreement."""
    if suite is None:
        suite = _default_quadratic()
    if hp is None:
        hp = HyperParams(gamma=1.0 / 32, I=3, m=10, B=2, S=3, N=4)
    spreads = []

    def on_sync(s, t, payload, workers):
        x_bar = mean_reduce([w.x for w in workers])
        spreads.append(sum(sq_norm(w.x - x_bar) for w in workers))
        if payload in ("both", "gradients"):
            # directions are zero-spread once their broadcast has happened;
            # the boundary averages iterates first, directions second
            v_bar = mean_reduce([w.v for w in workers])
            spreads.append(sum(sq_norm(w.v - v_bar) for w in workers))

    for seed in seeds:
        run_pr_spider_finite(suite, hp, seed, hooks=RunHooks(on_sync=on_sync))
    worst = max(spreads, default=0.0)
    return CheckResult(
        "consensus-zeroing", bool(spreads) and worst == 0.0, worst, 0.0,
        events=len(spreads),
    )


def check_gd_degeneracy() -> CheckResult:
    """B=n, I=1 reproduces a hand-rolled gradient-descent loop."""
    suite = make_quadratic_suite(N=2, n=16, d=4, heterogeneity=0.3, seed=3)
    gamma = 0.1
    steps = 200
    hp = HyperParams(gamma=gamma, I=1, m=steps, B=16, S=1, N=2)
    centers = suite.analytic.centers.reshape(-1, suite.dim)
    grand = centers.mean(axis=0)
    oracle = [suite.initial_point.copy()]
    for _ in range(steps - 1):
        oracle.append(oracle[-1] - gamma * (oracle[-1] - grand))
    deviations = []

    def on_record(s, t, workers):
        x_bar = mean_reduce([w.x for w in workers])
        deviations.append(float(np.max(np.abs(x_bar - oracle[t]))))

    run_pr_spider_finite(suite, hp, 0, hooks=RunHooks(on_record=on_record))
    worst = max(deviations, default=0.0)
    return CheckResult(
        "gd-degeneracy", bool(deviations) and worst <= 1e-12, worst, 1e-12,
        events=len(deviations),
    )


def check_restart_variance_bound(repeats: int = 500) -> CheckResult:
    """Mean squared restart-direction error obeys sigma^2 / (N n_b)."""
    suite = make_quadratic_suite(N=4, n=64, d=8, heterogeneity=1.0, seed=21)
    n_b = 16
    x = suite.initial_point
    exact = suite.gradient(x)
    total = 0.0
    for seed in range(repeats):
        grads = draw_restart_direction(suite, x, n_b, RngStream(seed), 0, 0)
        total += sq_norm(mean_reduce(grads) - exact)
    measured = total / repeats
    sigma = suite.variance_bound
    bound = sigma**2 / (suite.num_workers * n_b) * (1.0 + 3.0 / math.sqrt(repeats))
    return CheckResult("restart-variance-bound", measured <= bound, measured, bound)


def check_convergence_bound_finite() -> CheckResult:
    """Best observed stationarity measure stays under 2*gap/(T*gamma)."""
    suite = _default_quadratic()
    gap = suite.initial_gap()
    hp = choose_params_finite(
        N=4, n=64, I=4, L=suite.smoothness, gap_bound=gap, eps=0.05
    )
    trace = run_pr_spider_finite(suite, hp, 1)
    best = min(r.fos for r in trace.records)
    bound = 2.0 * gap / (hp.horizon * hp.gamma)
    return CheckResult("convergence-bound-finite", best <= bound, best, bound)


def check_convergence_bound_online() -> CheckResult:
    """Online analogue with the extra 2*sigma^2/(N n_b) slack term."""
    suite = _default_quadratic()
    gap = suite.initial_gap()
    sigma = suite.variance_bound
    hp = choose_params_finite(
        N=4, n=64, I=4, L=suite.smoothness, gap_bound=gap, eps=0.05
    )
    hp = replace(hp, n_b=32)
    trace = run_pr_spider_online(suite, hp, 1)
    best = min(r.fos for r in trace.records)
    bound = 2.0 * gap / (hp.horizon * hp.gamma) + 2.0 * sigma**2 / (
        suite.num_workers * hp.n_b
    )
    return CheckResult("convergence-bound-online", best <= bound, best, bound)


def check_counter_formulas(trials: int = 20, seed: int = 0) -> CheckResult:
    """Ledger totals match the closed forms on randomized small shapes."""
    gen = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(trials):
        N = int(gen.integers(1, 5))
        I = int(gen.integers(1, 4))
        m = I * int(gen.integers(1, 5))
        B = int(gen.integers(1, 4))
        S = int(gen.integers(1, 4))
        n = int(gen.integers(2, 9))
        suite = make_quadratic_suite(
            N=N, n=n, d=3, heterogeneity=0.2, seed=int(gen.integers(0, 1000))
        )
        hp = HyperParams(gamma=1.0 / (8 * I), I=I, m=m, B=B, S=S, N=N)
        trace = run_pr_spider_finite(suite, hp, int(gen.integers(0, 1000)))
        if trace.comm_rounds != expected_comm_rounds(S, m, I):
            mismatches += 1
        elif trace.ifo_total != expected_ifo_finite(S, m, B, n, N):
            mismatches += 1
        elif trace.records[-1].ifo_total != trace.ifo_total:
            mismatches += 1
    return CheckResult(
        "counter-formulas", mismatches == 0, float(mismatches), 0.0,
        note=f"({trials} random shapes)",
    )


SUITES = {
    "finite": (
        check_restart_identity,
        check_consensus_zeroing,
        check_gd_degeneracy,
        check_convergence_bound_finite,
        check_counter_formulas,
    ),
    "online": (
        check_restart_variance_bound,
        check_convergence_bound_online,
    ),
}


def run_suite(selector: str = "all") -> list[CheckResult]:
    """Run the ``finite`` or ``online`` verification suite, or ``all`` of them."""
    if selector == "all":
        names = ("finite", "online")
    elif selector in SUITES:
        names = (selector,)
    else:
        raise ValueError(f"unknown verification suite {selector!r}")
    return [fn() for name in names for fn in SUITES[name]]
