"""Algorithm runners and the hyperparameter derivation rules.

All runners are bulk-synchronous: within one inner iteration the N worker
updates are independent and run on the calling thread in worker-index
order; barriers and metrics run between them. Runners never mutate the
suite they are given: objectives hold no run state, and each run charges
its oracle calls to a ``Meter`` of its own, so repeated and concurrent runs
over one suite object are safe. Every runner shares one set-up, schedule
(``_Run.loop``) and teardown, and keeps only its argument checks, its step
and its epoch boundary. A worker (``harness.WorkerState``) holds its
iterate ``x`` and, in PR-SPIDER, its direction ``v``.

``run_pr_spider_finite`` restarts every epoch from exact local full
gradients averaged at the server; ``run_pr_spider_online`` replaces those
with size-``n_b`` batch gradients. Both share the step: move every worker
along ``v``, check, then estimate the direction of iteration ``t + 1`` from
the iterates before and after the move, with iterate/direction averaging
every ``I`` iterations. The estimate (``spider_update``) adds to ``v`` the
batch mean of per-sample gradient differences between the two iterates.
One batch serves both points, since the variance cancellation depends on
the shared samples, and costs two oracle accesses per sample. The runner
draws every batch, inner and restart alike, and holds ``v`` in the
worker. The baselines are plain distributed SGD with iterate averaging
every iteration (``run_parallel_minibatch_sgd``) or every ``I``
iterations (``run_parallel_restarted_sgd``); their boundary is the
trailing average at the horizon.

Every runner takes ``parallel`` and echoes it in the sidecar, but it
selects nothing: workers always step on the calling thread, which beat a
thread pool on every measured workload. The key stays so that existing
configs and sidecars reload and rerun byte-identically, since every
sidecar, and so every golden digest, carries it. It goes with the next
re-baseline of the digests (ROADMAP items 2 and 13); giving it a
process-level meaning (item 14) is later work.
"""

from __future__ import annotations

import copy  # noqa: F401 -- perfbench/spans.py swaps ``algorithms.copy``
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .harness import (
    CertificateError,
    MetricsTrace,
    RunHooks,
    WorkerState,
    make_record,
    sync_round,
)
from .numerics import (
    DRAW_INIT,
    DRAW_INNER,
    DRAW_RESTART,
    ParamVector,
    RngStream,
    axpy,
    mean_reduce,
    sq_norm,
    sq_norms,
)
from .problems import (
    LocalObjective,
    Meter,
    ProblemSuite,
    UnsupportedOperationError,
)

__all__ = [
    "HyperParams",
    "DivergedError",
    "choose_params_finite",
    "choose_params_online",
    "choose_params_baseline",
    "run_pr_spider_finite",
    "run_pr_spider_online",
    "run_parallel_minibatch_sgd",
    "run_parallel_restarted_sgd",
    "draw_restart_direction",
    "spider_update",
]


class DivergedError(RuntimeError):
    """A run produced non-finite values; carries the trace so far."""

    outcome = "diverged"
    trace = None


@dataclass(frozen=True)
class HyperParams:
    """Run-shape parameters: step size, periods, batch sizes, worker count.

    ``n_b`` is the restart batch size and only meaningful for the online
    variant. ``horizon`` is the total inner-iteration budget ``S * m``.
    """

    gamma: float
    I: int
    m: int
    B: int
    S: int
    N: int
    n_b: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("step size must be finite and nonnegative")
        for name in ("I", "m", "B", "S", "N"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_b is not None and self.n_b < 1:
            raise ValueError("n_b must be at least 1")

    @property
    def horizon(self) -> int:
        return self.S * self.m

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.n_b is None:
            del d["n_b"]
        return d


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _ceil_guarded(x: float) -> int:
    # absorb float noise just above an integer before taking the ceiling
    return int(math.ceil(x * (1.0 - 1e-12)))


def step_size_rule(L: float, I: int) -> float:
    """Largest step size the convergence analysis permits: 1 / (8 L I)."""
    if L <= 0:
        raise ValueError("smoothness modulus must be positive")
    return 1.0 / (8.0 * L * I)


def choose_params_finite(
    N: int, n: int, I: int, L: float, gap_bound: float, eps: float
) -> HyperParams:
    """Derive the finite-sum run shape for a target accuracy ``eps``.

    Epoch length ``m = I * sqrt(N n)`` and inner batch
    ``B = sqrt(n / N) / I`` (both rounded half-up and clamped to valid
    integers, with B capped at n); step size from the 1/(8 L I) rule; the
    horizon covers ``2 * gap_bound / (gamma * eps)`` iterations. Rounding
    always errs toward more computation.
    """
    if min(N, n, I) < 1 or eps <= 0 or gap_bound < 0:
        raise ValueError("invalid parameter-rule inputs")
    m = max(1, _round_half_up(I * math.sqrt(N * n)))
    B = min(n, max(1, _round_half_up(math.sqrt(n / N) / I)))
    gamma = step_size_rule(L, I)
    T = max(1, _ceil_guarded(2.0 * gap_bound / (gamma * eps)))
    S = max(1, _ceil_guarded(T / m))
    return HyperParams(gamma=gamma, I=I, m=m, B=B, S=S, N=N)


def choose_params_online(
    N: int, sigma: float, I: int, L: float, gap_bound: float, eps: float
) -> HyperParams:
    """Online analogue: restart batch ``n_b = 4 sigma^2 / (N eps)``.

    The remaining quantities follow the finite-sum rule with ``n``
    replaced by ``n_b``.
    """
    if N < 1 or I < 1 or eps <= 0 or sigma < 0 or gap_bound < 0:
        raise ValueError("invalid parameter-rule inputs")
    n_b = max(1, _ceil_guarded(4.0 * sigma**2 / (N * eps)))
    base = choose_params_finite(N, n_b, I, L, gap_bound, eps)
    return replace(base, n_b=n_b)


def choose_params_baseline(
    N: int, sigma: float, I: int, L: float, gap_bound: float, eps: float
) -> dict:
    """Local-SGD baseline run shape: ``gamma``, ``batch`` and ``horizon``.

    The 1/(8 L I) step, the variance-killing batch ``round(4 sigma^2 / (N eps))``
    and ``int(2 gap_bound / (gamma eps)) + 1`` iterations. The PR-SPIDER rules
    take ``_ceil_guarded`` ceilings as their sizes are lower bounds from the
    analysis; these are the baseline's own tuning, the formulas criterion 8
    tunes its baseline with, so the CLI runs the baseline it measures.
    """
    if N < 1 or I < 1 or eps <= 0 or sigma < 0 or gap_bound < 0:
        raise ValueError("invalid parameter-rule inputs")
    gamma = step_size_rule(L, I)
    return {
        "gamma": gamma,
        "batch": max(1, round(4.0 * sigma**2 / (N * eps))),
        "horizon": max(1, int(2.0 * gap_bound / (gamma * eps)) + 1),
    }


def draw_restart_direction(
    suite: ProblemSuite,
    x: ParamVector,
    n_b: int,
    rng: RngStream,
    epoch: int,
    iteration: int,
    purpose: int = DRAW_RESTART,
    meter: Meter | None = None,
) -> list[ParamVector]:
    """Per-worker batch gradients of size ``n_b`` at a common point.

    Each worker draws its own independent batch and charges exactly
    ``n_b`` to its row of ``meter``. The caller averages via a gradient
    round.
    """
    vectors = []
    for i, obj in enumerate(suite.objectives):
        gen = rng.substream(i, epoch, iteration, purpose)
        idx = obj.draw_indices(gen, n_b)
        vectors.append(obj.batch_gradient_mean(x, idx, meter))
    return vectors


def spider_update(
    v: ParamVector,
    x_prev: ParamVector,
    obj: LocalObjective,
    x_curr: ParamVector,
    indices,
    meter: Meter | None = None,
) -> ParamVector:
    """The direction after one SPIDER step on the batch ``indices``.

    ``v`` plus the batch mean of ``grad f_j(x_curr) - grad f_j(x_prev)``,
    charging ``2 * len(indices)`` to the worker's row of ``meter``.
    ``x_prev`` is the iterate before the last move. The inputs are left
    unchanged, and an empty batch raises ``ValueError``.
    """
    return v + obj.pair_difference_mean(x_curr, x_prev, indices, meter)


def _check_finite(vectors, N, s, t):
    # one check of every vector, row k being worker k % N's; the first
    # worker holding a non-finite value is named
    finite = np.isfinite(vectors)
    # the ufunc's own reduce skips ndarray.all's Python wrapper
    if np.logical_and.reduce(finite, axis=None):
        return
    worker = int(min(np.flatnonzero(~finite.all(axis=1)) % N))
    raise DivergedError(
        f"non-finite values at worker {worker}, epoch {s}, iteration {t}"
    )


def _map_workers(pool, fn, workers):
    # every worker steps on the calling thread, in worker-index order; the
    # unused ``pool`` and the one call per step stay because
    # perfbench/spans.py wraps this signature and perfbench/workloads.py
    # pins the call count, until the benchmark changes (ROADMAP item 3)
    return [fn(w) for w in workers]


class _Run:
    """One run's state: keyed randomness, workers, and the trace it fills.

    ``trace`` is built once, with the config echo, the seed and the run's
    ``Meter`` as its ledger; records and epoch-start residuals are appended
    to it as the run goes. As a context manager it gives a
    ``DivergedError`` or ``CertificateError`` the trace so far with its
    outcome set. ``parallel`` is only echoed (see the module docstring).

    A record point is taken as a pending entry: (s, t), the (N, d)
    iterates, their mean by ``mean_reduce`` and a ledger snapshot, whose
    totals the record holds. ``flush`` makes the pending records, in
    order, from one stacked pass of the suite's analytic oracles over
    their means and one ``sq_norms`` of every worker's deviation from its
    mean; a chunk holds at most ``suite.analytic.chunk`` records.
    """

    def __init__(self, suite, seed, algorithm, metrics_every, parallel, hooks):
        if metrics_every < 1:
            raise ValueError("metrics_every must be at least 1")
        self.suite = suite
        self.metrics_every = metrics_every
        self.hooks = hooks or RunHooks()
        self.rng = RngStream(seed)
        self.meter = Meter(suite.num_workers)
        self.workers = [
            WorkerState(worker_id=i, obj=obj, x=suite.initial_point.copy())
            for i, obj in enumerate(suite.objectives)
        ]
        self.pending = []
        echo = {
            "problem": dict(suite.config),
            "algorithm": algorithm,
            "run": {
                "seeds": [seed],
                "metrics_every": metrics_every,
                "parallel": parallel,
            },
        }
        self.trace = MetricsTrace(echo, seed, self.meter)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, (DivergedError, CertificateError)):
            self.trace.outcome = exc.outcome
            exc.trace = self.trace

    def sync(self, s: int, t: int, payload: str, gradients=None) -> None:
        """Round at ``(s, t)``, then its ``on_sync`` hook."""
        sync_round(self.workers, payload, self.meter, gradients=gradients)
        if self.hooks.on_sync:
            self.hooks.on_sync(s, t, payload, self.workers)

    def take_record(self, s: int, t: int) -> None:
        """Take the record point ``(s, t)``; a full chunk is flushed."""
        iterates = np.array([w.x for w in self.workers])
        x_bar = mean_reduce(iterates)
        self.pending.append((s, t, iterates, x_bar, self.meter.snapshot()))
        if len(self.pending) == self.suite.analytic.chunk:
            self.flush()

    def flush(self) -> None:
        """Make the pending records, in order, into the trace.

        A ``CertificateError`` at one of them ends the trace before it,
        with the ledger set back to that record's snapshot.
        """
        pending, self.pending = self.pending, []
        if not pending:
            return
        suite = self.suite
        x_bars = np.array([entry[3] for entry in pending])
        suite.analytic.evaluate(x_bars)
        deviations = np.array([entry[2] for entry in pending])
        deviations -= x_bars[:, None]
        deviations = sq_norms(deviations)
        for (s, t, _, x_bar, ledger), dev in zip(pending, deviations):
            total, rounds = ledger[:2]
            try:
                record = make_record(s, t, suite, x_bar, dev, total, rounds)
            except CertificateError:
                self.meter.restore(ledger)
                raise
            self.trace.records.append(record)

    def loop(self, S: int, m: int, I: int, payload: str, step, boundary) -> None:
        """The schedule both families share: ``S`` epochs of ``m`` iterations.

        Iteration ``t`` of epoch ``s`` takes a record point (every
        ``metrics_every`` iterations) and calls ``on_record`` (at each),
        takes ``step(s, t)``, and averages ``payload`` at ``(s, t + 1)``
        when that is an in-epoch averaging step; ``boundary(s)`` closes
        each epoch. Pending records are flushed when a chunk is full,
        before each boundary, so the last one's flush ends the run's
        records, and before a ``DivergedError`` leaves the run; a
        certificate failure among them takes precedence over it.
        """
        try:
            for s in range(S):
                for t in range(m):
                    if (s * m + t) % self.metrics_every == 0:
                        self.take_record(s, t)
                    if self.hooks.on_record:
                        self.hooks.on_record(s, t, self.workers)
                    step(s, t)
                    if t + 1 < m and (t + 1) % I == 0:
                        self.sync(s, t + 1, payload)
                self.flush()
                boundary(s)
        except DivergedError:
            self.flush()
            raise


def _run_spider(
    suite: ProblemSuite,
    hp: HyperParams,
    seed: int,
    *,
    online: bool,
    **run_options,
) -> MetricsTrace:
    if hp.N != suite.num_workers:
        raise ValueError(
            f"hyperparams expect {hp.N} workers, suite has {suite.num_workers}"
        )
    if online:
        if hp.n_b is None:
            raise ValueError("online variant needs a restart batch size n_b")
    elif hp.n_b is not None:
        raise ValueError("finite-sum variant takes no restart batch size n_b")
    elif not suite.is_finite_sum:
        raise UnsupportedOperationError(
            "finite-sum variant needs enumerable samples; use the online one"
        )
    algo = "pr-spider-online" if online else "pr-spider-finite"
    run = _Run(suite, seed, {"name": algo, "params": hp.as_dict()}, **run_options)
    workers, meter, rng = run.workers, run.meter, run.rng

    def restart(s, t, purpose):
        # exact local full gradients (finite-sum) or per-worker restart
        # batches (online), at the workers' common iterate, averaged into
        # the direction; the next epoch starts with its residual
        # || mean direction - grad f(mean iterate) ||
        if online:
            grads = draw_restart_direction(
                suite, workers[0].x, hp.n_b, rng, s, t, purpose, meter
            )
        else:
            grads = [w.obj.full_gradient(w.x, meter) for w in workers]
        run.sync(s, t, "gradients", grads)
        meter.phase = "inner"
        v_bar = mean_reduce([w.v for w in workers])
        x_bar = mean_reduce([w.x for w in workers])
        residual = math.sqrt(sq_norm(v_bar - suite.gradient(x_bar)))
        run.trace.epoch_restart_residuals.append(residual)

    def step(s, t):
        # move, check, then estimate iteration t + 1 from the pre-move
        # iterates; checking first charges a diverged run no further step
        prev = [w.x for w in workers]
        for w in workers:
            w.x = axpy(w.x, -hp.gamma, w.v)
        _check_finite([w.x for w in workers] + [w.v for w in workers], hp.N, s, t)
        if t + 1 < hp.m:
            def estimate(w):
                gen = rng.substream(w.worker_id, s, t + 1, DRAW_INNER)
                idx = w.obj.draw_indices(gen, hp.B)
                return spider_update(
                    w.v, prev[w.worker_id], w.obj, w.x, idx, meter
                )

            for w, v in zip(workers, _map_workers(None, estimate, workers)):
                w.v = v

    def boundary(s):
        if s < hp.S - 1:
            run.sync(s, hp.m, "iterates")
            meter.phase = "refresh"
            restart(s, hp.m, DRAW_RESTART)

    # float overflow is a detected failure mode here, not a warning
    with run, np.errstate(over="ignore", invalid="ignore"):
        restart(0, 0, DRAW_INIT)
        run.loop(hp.S, hp.m, hp.I, "both", step, boundary)
    return run.trace


def run_pr_spider_finite(
    suite: ProblemSuite,
    hp: HyperParams,
    seed: int,
    *,
    metrics_every: int = 1,
    parallel: bool = False,
    hooks: RunHooks | None = None,
) -> MetricsTrace:
    """Epoch-restarted variance-reduced run with exact full-gradient restarts.

    Emits one record per inner iteration (at the default cadence); the
    record at ``(s, t)`` reflects the state after all exchanges scheduled
    at that index, together with the cost totals at that moment. Each
    epoch starts from the averaged exact gradient at the averaged iterate,
    the identity ``checks.check_restart_identity`` measures.
    """
    return _run_spider(
        suite, hp, seed, online=False, metrics_every=metrics_every,
        parallel=parallel, hooks=hooks,
    )


def run_pr_spider_online(
    suite: ProblemSuite,
    hp: HyperParams,
    seed: int,
    *,
    metrics_every: int = 1,
    parallel: bool = False,
    hooks: RunHooks | None = None,
) -> MetricsTrace:
    """Online variant: initialization and restarts use size-``n_b`` batches."""
    return _run_spider(
        suite, hp, seed, online=True, metrics_every=metrics_every,
        parallel=parallel, hooks=hooks,
    )


def _run_local_sgd(
    suite: ProblemSuite,
    gamma: float,
    batch: int,
    I: int,
    horizon: int,
    seed: int,
    *,
    name: str,
    **run_options,
) -> MetricsTrace:
    if horizon < 1 or batch < 1 or I < 1:
        raise ValueError("horizon, batch and I must be at least 1")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError("step size must be finite and nonnegative")
    params = {"gamma": gamma, "batch": batch, "horizon": horizon}
    if name == "par-restarted-sgd":
        params["I"] = I
    run = _Run(suite, seed, {"name": name, "params": params}, **run_options)
    workers, meter, rng = run.workers, run.meter, run.rng
    meter.phase = "inner"

    def step(s, t):
        def one_step(w):
            obj = w.obj
            if obj.is_finite_sum and batch == obj.sample_count:
                # a batch covering the whole sample set is a full pass
                grad = obj.full_gradient(w.x, meter)
            else:
                gen = rng.substream(w.worker_id, s, t, DRAW_INNER)
                idx = obj.draw_indices(gen, batch)
                grad = obj.batch_gradient_mean(w.x, idx, meter)
            return axpy(w.x, -gamma, grad)

        for w, x_new in zip(workers, _map_workers(None, one_step, workers)):
            w.x = x_new
        _check_finite([w.x for w in workers], len(workers), s, t)

    with run, np.errstate(over="ignore", invalid="ignore"):
        # one epoch of the whole horizon; its boundary is the trailing average
        run.loop(
            1, horizon, I, "iterates", step,
            lambda s: run.sync(s, horizon, "iterates"),
        )
    return run.trace


def run_parallel_minibatch_sgd(
    suite: ProblemSuite,
    gamma: float,
    batch: int,
    horizon: int,
    seed: int,
    *,
    metrics_every: int = 1,
    parallel: bool = False,
    hooks: RunHooks | None = None,
) -> MetricsTrace:
    """Baseline: local batch step then iterate averaging, every iteration."""
    return _run_local_sgd(
        suite, gamma, batch, 1, horizon, seed, name="par-sgd",
        metrics_every=metrics_every, parallel=parallel, hooks=hooks,
    )


def run_parallel_restarted_sgd(
    suite: ProblemSuite,
    gamma: float,
    batch: int,
    I: int,
    horizon: int,
    seed: int,
    *,
    metrics_every: int = 1,
    parallel: bool = False,
    hooks: RunHooks | None = None,
) -> MetricsTrace:
    """Baseline: local SGD with iterate averaging every ``I`` iterations.

    A trailing average fires at the horizon when it is not aligned with
    ``I``, so the total round count is ``ceil(horizon / I)``; ``I = 1``
    reduces to the parallel mini-batch baseline bitwise, ``I = horizon``
    to one-shot averaging.
    """
    return _run_local_sgd(
        suite, gamma, batch, I, horizon, seed, name="par-restarted-sgd",
        metrics_every=metrics_every, parallel=parallel, hooks=hooks,
    )
