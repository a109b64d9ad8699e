import warnings

import numpy as np
import pytest

from prspider.algorithms import spider_update
from prspider.numerics import RngStream, sq_norm
from prspider.problems import (
    Meter,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)


def one_worker_quadratic(n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(1, n, d))
    return quadratic_suite_from_centers(centers, np.zeros(d))


class TestSpiderUpdate:
    def test_quadratic_batch_independence(self):
        # gradient differences are sample-free for quadratics, so the update
        # equals v + (x_curr - x_prev) no matter which batch was drawn
        suite = one_worker_quadratic()
        obj = suite.objectives[0]
        rng = np.random.default_rng(1)
        v0 = rng.normal(size=3)
        x_prev = rng.normal(size=3)
        x_curr = rng.normal(size=3)
        for batch_seed in range(5):
            idx = obj.draw_indices(RngStream(batch_seed).substream(0, 0, 1), 2)
            v = spider_update(v0, x_prev, obj, x_curr, idx)
            expected = v0 + x_curr - x_prev
            assert np.max(np.abs(v - expected)) <= 1e-12

    def test_zero_displacement_is_bitwise_noop(self):
        suite = one_worker_quadratic()
        obj = suite.objectives[0]
        v0 = np.array([0.1, -0.2, 0.3])
        x = np.array([1.0, 2.0, 3.0])
        idx = obj.draw_indices(RngStream(0).substream(0, 0, 1), 4)
        v = spider_update(v0, x, obj, x.copy(), idx)
        assert v.tobytes() == v0.tobytes()

    def test_ifo_cost_is_two_per_sample(self):
        suite = one_worker_quadratic()
        obj = suite.objectives[0]
        idx = obj.draw_indices(RngStream(0).substream(0, 0, 1), 7)
        meter = Meter(1)
        meter.phase = "inner"
        spider_update(np.zeros(3), np.zeros(3), obj, np.ones(3), idx, meter)
        assert meter.rows == [{"init": 0, "inner": 14, "refresh": 0}]

    def test_inputs_are_left_unchanged(self):
        # the caller owns v and x_prev and moves x_prev itself
        suite = one_worker_quadratic()
        v0, x_prev = np.zeros(3), np.zeros(3)
        x_curr = np.array([1.0, 1.0, 1.0])
        v = spider_update(v0, x_prev, suite.objectives[0], x_curr, [0])
        assert v is not v0
        assert np.array_equal(v0, np.zeros(3))
        assert np.array_equal(x_prev, np.zeros(3))

    def test_conditional_unbiasedness_by_enumeration(self):
        # one worker, three samples, d=2: averaging the update over every
        # size-1 batch must land exactly on v + grad(x_curr) - grad(x_prev)
        rng = np.random.default_rng(7)
        features = rng.normal(size=(1, 3, 2))
        offsets = rng.normal(size=(1, 3))
        suite = sigmoid_suite_from_params(features, offsets, np.zeros(2))
        obj = suite.objectives[0]
        v0 = rng.normal(size=2)
        x_prev = rng.normal(size=2)
        x_curr = rng.normal(size=2)
        outcomes = [
            spider_update(v0, x_prev, obj, x_curr, [j]) for j in range(3)
        ]
        enumerated_mean = np.stack(outcomes).mean(axis=0)
        # the exact worker gradient: row 0 of the suite's analytic oracles
        grads = suite.analytic.gradients
        expected = v0 + grads(x_curr)[0] - grads(x_prev)[0]
        assert np.max(np.abs(enumerated_mean - expected)) <= 1e-12


EMPTY_BATCH_SUITES = {
    "quadratic": lambda: make_quadratic_suite(
        N=1, n=5, d=3, heterogeneity=0.3, seed=0
    ),
    "sigmoid-finite": lambda: make_nonconvex_suite(
        N=1, n=5, d=3, heterogeneity=0.3, seed=0
    ),
    "sigmoid-online": lambda: make_nonconvex_suite(
        N=1, n=None, d=3, heterogeneity=0.3, seed=0, online_pool=8
    ),
}

EMPTY_BATCH_CALLS = {
    "batch_gradient_mean": lambda obj, x, idx: obj.batch_gradient_mean(x, idx),
    "pair_difference_mean": lambda obj, x, idx: obj.pair_difference_mean(
        x, -x, idx
    ),
    "spider_update": lambda obj, x, idx: spider_update(x, -x, obj, x, idx),
}


@pytest.mark.parametrize("call", sorted(EMPTY_BATCH_CALLS))
@pytest.mark.parametrize("family", sorted(EMPTY_BATCH_SUITES))
@pytest.mark.parametrize(
    "empty", [[], np.array([], dtype=np.int64)], ids=["list", "int64"]
)
def test_empty_batch_raises_value_error_without_warning(family, call, empty):
    # a batch mean over no samples is refused by every kernel, before any
    # gather, rather than returning NaN or failing on the index dtype
    obj = EMPTY_BATCH_SUITES[family]().objectives[0]
    x = np.array([0.5, -1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one sample"):
            EMPTY_BATCH_CALLS[call](obj, x, empty)


class TestTelescoping:
    def test_quadratic_recursion_collapses(self):
        # after k updates along any trajectory, v_k = v_0 + x_k - x_0
        suite = make_quadratic_suite(N=1, n=12, d=4, heterogeneity=0.3, seed=3)
        obj = suite.objectives[0]
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=4) for _ in range(9)]
        v0 = rng.normal(size=4)
        v = v0
        stream = RngStream(11)
        for k, x in enumerate(xs[1:], start=1):
            idx = obj.draw_indices(stream.substream(0, 0, k), 3)
            v = spider_update(v, xs[k - 1], obj, x, idx)
        expected = v0 + xs[-1] - xs[0]
        assert np.max(np.abs(v - expected)) <= 1e-12


class TestErrorAccumulation:
    def test_error_grows_monotonically_and_respects_bound(self):
        """Estimator error along a frozen trajectory is a nondecreasing
        accumulation, bounded by (L^2 / N^2 B) * sum of squared moves."""
        rng = np.random.default_rng(9)
        N, n, d, B, steps, reps = 2, 8, 3, 1, 6, 4000
        features = rng.normal(size=(N, n, d)) / np.sqrt(d)
        offsets = rng.normal(size=(N, n))
        suite = sigmoid_suite_from_params(features, offsets, np.zeros(d))
        L = suite.smoothness
        # frozen per-worker trajectories
        trajs = [
            [rng.normal(size=d) * 0.5 for _ in range(steps + 1)] for _ in range(N)
        ]
        move_sq = np.zeros(steps + 1)
        for t in range(1, steps + 1):
            move_sq[t] = move_sq[t - 1] + sum(
                sq_norm(trajs[i][t] - trajs[i][t - 1]) for i in range(N)
            )
        bounds = (L**2 / (N**2 * B)) * move_sq

        err_sums = np.zeros(steps + 1)
        stream_root = np.random.default_rng(123)
        grads = suite.analytic.gradients  # row i: worker i's exact gradient
        for _ in range(reps):
            vs = [grads(trajs[i][0])[i] for i in range(N)]
            for t in range(1, steps + 1):
                for i, obj in enumerate(suite.objectives):
                    idx = stream_root.integers(0, n, size=B)
                    vs[i] = spider_update(
                        vs[i], trajs[i][t - 1], obj, trajs[i][t], idx
                    )
                v_bar = np.stack(vs).mean(axis=0)
                g_bar = np.stack(
                    [grads(trajs[i][t])[i] for i in range(N)]
                ).mean(axis=0)
                err_sums[t] += sq_norm(v_bar - g_bar)
        estimates = err_sums / reps
        stderr = estimates / np.sqrt(reps)  # generous per-step allowance
        for t in range(1, steps + 1):
            assert estimates[t] >= estimates[t - 1] - 3 * max(stderr[t], 1e-12)
            assert estimates[t] <= bounds[t] * (1 + 3 / np.sqrt(reps)) + 1e-12
