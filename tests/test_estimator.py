import numpy as np
import pytest

from prspider.estimator import (
    EstimatorState,
    is_averaging_step,
    spider_update,
    spider_update_with_samples,
)
from prspider.numerics import RngStream, sq_norm
from prspider.problems import (
    Meter,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)


class TestIsAveragingStep:
    @pytest.mark.parametrize(
        "t,I,expected", [(4, 2, True), (5, 2, False), (1, 1, True), (7, 7, True)]
    )
    def test_schedule(self, t, I, expected):
        assert is_averaging_step(t, I) is expected


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
        state = EstimatorState(v=v0, x_prev=x_prev, t=0)
        for batch_seed in range(5):
            gen = RngStream(batch_seed).substream(0, 0, 1)
            new = spider_update(state, obj, x_curr, B=2, rng=gen)
            expected = v0 + x_curr - x_prev
            assert np.max(np.abs(new.v - expected)) <= 1e-12

    def test_zero_displacement_is_bitwise_noop(self):
        suite = one_worker_quadratic()
        obj = suite.objectives[0]
        v0 = np.array([0.1, -0.2, 0.3])
        x = np.array([1.0, 2.0, 3.0])
        state = EstimatorState(v=v0, x_prev=x, t=0)
        gen = RngStream(0).substream(0, 0, 1)
        new = spider_update(state, obj, x.copy(), B=4, rng=gen)
        assert new.v.tobytes() == v0.tobytes()
        assert new.t == 1

    def test_ifo_cost_is_two_per_sample(self):
        suite = one_worker_quadratic()
        obj = suite.objectives[0]
        state = EstimatorState(v=np.zeros(3), x_prev=np.zeros(3), t=0)
        gen = RngStream(0).substream(0, 0, 1)
        meter = Meter(1)
        meter.phase = "inner"
        spider_update(state, obj, np.ones(3), B=7, rng=gen, meter=meter)
        assert meter.rows == [{"init": 0, "inner": 14, "refresh": 0}]

    def test_rejects_nonpositive_batch(self):
        suite = one_worker_quadratic()
        state = EstimatorState(v=np.zeros(3), x_prev=np.zeros(3), t=0)
        gen = RngStream(0).substream(0, 0, 1)
        with pytest.raises(ValueError):
            spider_update(state, suite.objectives[0], np.ones(3), B=0, rng=gen)

    def test_reference_point_moves_to_current(self):
        suite = one_worker_quadratic()
        state = EstimatorState(v=np.zeros(3), x_prev=np.zeros(3), t=3)
        x_curr = np.array([1.0, 1.0, 1.0])
        gen = RngStream(0).substream(0, 0, 1)
        new = spider_update(state, suite.objectives[0], x_curr, B=1, rng=gen)
        assert np.array_equal(new.x_prev, x_curr)
        assert new.t == 4

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
        state = EstimatorState(v=v0, x_prev=x_prev, t=0)
        outcomes = [
            spider_update_with_samples(state, obj, x_curr, [j]).v for j in range(3)
        ]
        enumerated_mean = np.stack(outcomes).mean(axis=0)
        expected = v0 + obj.mean_gradient(x_curr) - obj.mean_gradient(x_prev)
        assert np.max(np.abs(enumerated_mean - expected)) <= 1e-12


class TestTelescoping:
    def test_quadratic_recursion_collapses(self):
        # after k updates along any trajectory, v_k = v_0 + x_k - x_0
        suite = make_quadratic_suite(N=1, n=12, d=4, heterogeneity=0.3, seed=3)
        obj = suite.objectives[0]
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=4) for _ in range(9)]
        v0 = rng.normal(size=4)
        state = EstimatorState(v=v0, x_prev=xs[0], t=0)
        stream = RngStream(11)
        for k, x in enumerate(xs[1:], start=1):
            state = spider_update(state, obj, x, B=3, rng=stream.substream(0, 0, k))
        expected = v0 + xs[-1] - xs[0]
        assert np.max(np.abs(state.v - expected)) <= 1e-12


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
        for _ in range(reps):
            states = []
            for i, obj in enumerate(suite.objectives):
                v0 = obj.mean_gradient(trajs[i][0])
                states.append(EstimatorState(v=v0, x_prev=trajs[i][0], t=0))
            for t in range(1, steps + 1):
                for i, obj in enumerate(suite.objectives):
                    idx = stream_root.integers(0, n, size=B)
                    states[i] = spider_update_with_samples(
                        states[i], obj, trajs[i][t], idx
                    )
                v_bar = np.stack([s.v for s in states]).mean(axis=0)
                g_bar = np.stack(
                    [
                        obj.mean_gradient(trajs[i][t])
                        for i, obj in enumerate(suite.objectives)
                    ]
                ).mean(axis=0)
                err_sums[t] += sq_norm(v_bar - g_bar)
        estimates = err_sums / reps
        stderr = estimates / np.sqrt(reps)  # generous per-step allowance
        for t in range(1, steps + 1):
            assert estimates[t] >= estimates[t - 1] - 3 * max(stderr[t], 1e-12)
            assert estimates[t] <= bounds[t] * (1 + 3 / np.sqrt(reps)) + 1e-12
