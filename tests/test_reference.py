"""Both PR-SPIDER runners against an independent reference (``reference.py``).

Suites of both families, finite and online, run through
``run_pr_spider_finite`` and ``run_pr_spider_online`` and through the
reference, over small random shapes: epochs that end between averaging
steps, batches larger than the pool, and record cadences whose chunks end
part-way. Counts and drawn indices must be equal; the record floats, and
the restart residuals, within ``REL`` relative or ``ABS_FLOOR`` absolute.
The floor covers entries near zero, such as a finite restart's residual
or ``grad_sq`` close to a stationary point, where two summation orders
differ by rounding on data of order one.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import Reference, quadratic_samples, sigmoid_samples

from prspider.algorithms import (
    HyperParams,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from prspider.problems import (
    LocalObjective,
    make_nonconvex_suite,
    make_quadratic_suite,
)

REL = 1e-9
ABS_FLOOR = 1e-12


def _suite(family, N, n, d, seed):
    """The suite and the reference's samples over its data arrays."""
    if family == "quadratic":
        suite = make_quadratic_suite(N, n, d, heterogeneity=0.5, seed=seed)
        return suite, quadratic_samples(_stack(suite, "centers"))
    online = family == "sigmoid-online"
    suite = make_nonconvex_suite(
        N, None if online else n, d, heterogeneity=0.5, seed=seed, online_pool=n
    )
    return suite, sigmoid_samples(_stack(suite, "features"), _stack(suite, "offsets"))


def _stack(suite, name):
    return np.stack([getattr(obj, name) for obj in suite.objectives])


def _logged_run(runner, suite, hp, seed, every):
    """The runner's trace and every batch it drew, as ``(worker, indices)``."""
    draws = []
    draw = LocalObjective.draw_indices

    def logged(obj, gen, size):
        idx = draw(obj, gen, size)
        draws.append((obj.worker_id, idx.tolist()))
        return idx

    with mock.patch.object(LocalObjective, "draw_indices", logged):
        trace = runner(suite, hp, seed, metrics_every=every)
    return trace, draws


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["quadratic", "sigmoid", "sigmoid-online"]),
    online=st.booleans(),
    N=st.integers(1, 3),
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    I=st.integers(1, 3),
    S=st.integers(1, 3),
    m=st.integers(1, 7),
    extra=st.tuples(st.integers(0, 14), st.integers(0, 14)),
    every=st.integers(1, 3),
    gamma=st.sampled_from([0.05, 0.1, 0.25]),
    seed=st.integers(0, 2**16),
)
# a batch above the pool, an epoch of whole and of broken averaging periods
@example("quadratic", False, 3, 5, 2, 2, 3, 6, (4, 0), 1, 0.25, 7)
@example("quadratic", True, 2, 4, 3, 3, 3, 7, (6, 7), 2, 0.1, 9)
@example("sigmoid", False, 2, 6, 3, 2, 2, 5, (3, 0), 3, 0.25, 1)
@example("sigmoid-online", True, 3, 8, 4, 3, 3, 7, (9, 2), 2, 0.25, 5)
def test_runners_match_the_reference(
    family, online, N, n, d, I, S, m, extra, every, gamma, seed
):
    online = online or family == "sigmoid-online"
    suite, sample = _suite(family, N, n, d, seed)
    B, n_b = 1 + extra[0], (1 + extra[1] if online else None)
    hp = HyperParams(gamma=gamma, I=I, m=m, B=B, S=S, N=N, n_b=n_b)
    runner = run_pr_spider_online if online else run_pr_spider_finite
    trace, draws = _logged_run(runner, suite, hp, seed, every)
    ref = Reference(
        sample, [n] * N, suite.initial_point, seed, gamma=gamma, I=I, m=m, B=B,
        S=S, n_b=n_b, metrics_every=every,
    )
    assert trace.outcome == "completed"
    assert (trace.ifo_total, trace.comm_rounds) == (ref.ifo, ref.rounds)
    assert draws == ref.draws
    got = [(r.s, r.t, r.ifo_total, r.comm_rounds) for r in trace.records]
    assert got == [(r[0], r[1], r[6], r[7]) for r in ref.records]
    for record, want in zip(trace.records, ref.records):
        floats = (record.f_bar, record.grad_sq, record.consensus, record.fos)
        assert floats == pytest.approx(want[2:6], rel=REL, abs=ABS_FLOOR)
    assert trace.epoch_restart_residuals == pytest.approx(
        ref.residuals, rel=REL, abs=ABS_FLOOR
    )
