import numpy as np
import pytest

from prspider.numerics import RngStream, sq_norm
from prspider.problems import (
    PHI_GRAD_MAX,
    Meter,
    UnsupportedOperationError,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)


def single_center_suite():
    # one worker, one sample at center 3: f(x) = 0.5 (x - 3)^2
    return quadratic_suite_from_centers([[[3.0]]], [0.0])


def two_center_suite():
    # two workers, one sample each at 0 and 2
    return quadratic_suite_from_centers([[[0.0]], [[2.0]]], [5.0])


class TestQuadraticSuite:
    def test_single_sample_minimum_at_center(self):
        suite = single_center_suite()
        assert suite.value(np.array([3.0])) == pytest.approx(0.0, abs=1e-15)
        assert suite.optimum_value == pytest.approx(0.0, abs=1e-15)
        assert suite.gradient(np.array([3.0]))[0] == pytest.approx(0.0, abs=1e-15)

    def test_two_centers_brute_force(self):
        suite = two_center_suite()
        # brute-force average of the two quadratics on a grid: the unique
        # stationary point is 1 with value 0.5
        grid = np.linspace(-3.0, 5.0, 1601)
        values = 0.5 * ((grid - 0.0) ** 2 + (grid - 2.0) ** 2) / 2
        assert grid[np.argmin(values)] == pytest.approx(1.0, abs=1e-2)
        assert suite.value(np.array([1.0])) == pytest.approx(0.5, rel=1e-12)
        assert suite.gradient(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert suite.optimum_value == pytest.approx(0.5, rel=1e-12)

    def test_gradient_vanishes_at_grand_mean(self):
        suite = make_quadratic_suite(N=3, n=16, d=5, heterogeneity=0.7, seed=1)
        centers = np.concatenate([o.centers for o in suite.objectives])
        grand = centers.mean(axis=0)
        assert np.linalg.norm(suite.gradient(grand)) <= 1e-12

    def test_smoothness_is_exactly_one(self):
        suite = make_quadratic_suite(N=2, n=4, d=3, heterogeneity=0.5, seed=2)
        assert suite.smoothness == 1.0

    def test_value_never_below_optimum(self):
        suite = make_quadratic_suite(N=3, n=8, d=4, heterogeneity=1.0, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=4)
            assert suite.value(x) >= suite.optimum_value - 1e-12

    def test_all_workers_share_start_and_dim(self):
        suite = make_quadratic_suite(N=4, n=8, d=6, heterogeneity=0.2, seed=4)
        assert {o.dim for o in suite.objectives} == {6}
        assert suite.initial_point.shape == (6,)


class TestStochasticOracle:
    def test_quadratic_single_sample_gradient(self):
        suite = single_center_suite()
        obj = suite.objectives[0]
        g = obj.stochastic_gradient(np.array([5.0]), 0)
        assert g[0] == pytest.approx(2.0, abs=0)

    def test_counter_increments_by_one(self):
        suite = single_center_suite()
        obj = suite.objectives[0]
        meter = Meter(1)
        obj.stochastic_gradient(np.array([1.0]), 0, meter)
        assert meter.total == 1

    def test_eval_returns_value_gradient_pair(self):
        suite = single_center_suite()
        obj = suite.objectives[0]
        meter = Meter(1)
        value, grad = obj.stochastic_eval(np.array([5.0]), 0, meter)
        assert value == pytest.approx(2.0)  # 0.5 * (5-3)^2
        assert grad[0] == pytest.approx(2.0)
        assert meter.total == 1

    def test_sample_id_out_of_range(self):
        suite = single_center_suite()
        with pytest.raises(ValueError):
            suite.objectives[0].stochastic_gradient(np.array([1.0]), 1)

    def test_enumeration_mean_equals_full_gradient(self):
        suite = make_quadratic_suite(N=2, n=9, d=4, heterogeneity=0.4, seed=5)
        x = np.array([0.3, -0.2, 0.7, 0.1])
        for obj in suite.objectives:
            grads = [obj.stochastic_gradient(x, j) for j in range(9)]
            mean = np.stack(grads).mean(axis=0)
            full = obj.full_gradient(x)
            assert np.max(np.abs(mean - full)) <= 1e-12

    def test_full_gradient_counter_and_online_rejection(self):
        suite = make_quadratic_suite(N=1, n=7, d=2, heterogeneity=0, seed=6)
        obj = suite.objectives[0]
        meter = Meter(1)
        obj.full_gradient(np.zeros(2), meter)
        assert meter.total == 7
        online = make_nonconvex_suite(N=1, n="online", d=2, heterogeneity=0, seed=6)
        with pytest.raises(UnsupportedOperationError):
            online.objectives[0].full_gradient(np.zeros(2))

    def test_online_rejects_sample_ids_but_samples_generators(self):
        online = make_nonconvex_suite(N=1, n=None, d=2, heterogeneity=0, seed=6)
        obj = online.objectives[0]
        with pytest.raises(UnsupportedOperationError):
            obj.stochastic_gradient(np.zeros(2), 0)
        gen = RngStream(0).substream(0, 0, 0)
        meter = Meter(1)
        g = obj.stochastic_gradient(np.zeros(2), gen, meter)
        assert g.shape == (2,)
        assert meter.total == 1

    def test_counters_suspended(self):
        # called without a meter, an oracle charges nothing: it leaves the
        # objective as it was, since objectives hold no run state
        suite = make_quadratic_suite(N=2, n=4, d=2, heterogeneity=0, seed=7)
        for obj in suite.objectives:
            before = dict(vars(obj))
            obj.full_gradient(np.zeros(2))
            obj.stochastic_eval(np.zeros(2), 1)
            obj.pair_difference_mean(np.zeros(2), np.ones(2), [0, 3])
            assert vars(obj).keys() == before.keys()
            assert all(vars(obj)[k] is v for k, v in before.items())


class TestMeter:
    def test_charge_lands_on_owning_worker_row_under_current_phase(self):
        suite = make_quadratic_suite(N=3, n=5, d=2, heterogeneity=0.5, seed=1)
        meter = Meter(3)
        x = np.zeros(2)
        suite.objectives[1].full_gradient(x, meter)
        meter.phase = "inner"
        suite.objectives[2].pair_difference_mean(x, x + 1.0, [0, 4, 4], meter)
        suite.objectives[0].batch_gradient_mean(x, [1, 2], meter)
        meter.phase = "refresh"
        suite.objectives[2].stochastic_gradient(x, 3, meter)
        assert meter.rows == [
            {"init": 0, "inner": 2, "refresh": 0},
            {"init": 5, "inner": 0, "refresh": 0},
            {"init": 0, "inner": 6, "refresh": 1},
        ]
        assert meter.total == 14

    def test_breakdown_sums_workers_in_phase_order(self):
        meter = Meter(2)
        for phase, worker, amount in (
            ("refresh", 1, 4), ("inner", 0, 6), ("init", 1, 3), ("inner", 1, 2)
        ):
            meter.phase = phase
            meter.charge(worker, np.int64(amount))
        breakdown = meter.breakdown()
        assert list(breakdown) == ["init", "inner", "refresh"]
        assert breakdown == {"init": 3, "inner": 8, "refresh": 4}
        # plain ints, so the sidecar's json.dumps takes them
        assert {type(v) for v in breakdown.values()} == {int}
        assert type(meter.total) is int and meter.total == 15


class TestGlobalGradientOracle:
    def test_matches_mean_of_full_gradients(self):
        suite = make_quadratic_suite(N=3, n=5, d=4, heterogeneity=0.8, seed=8)
        x = np.array([0.1, 0.2, -0.3, 0.4])
        fulls = [obj.full_gradient(x) for obj in suite.objectives]
        mean = np.stack(fulls).mean(axis=0)
        assert np.max(np.abs(suite.gradient(x) - mean)) <= 1e-12

    def test_online_symmetric_pair_is_stationary_at_zero(self):
        # one worker, sample pair (a, 0) and (-a, 0): slopes cancel at x=0
        suite = sigmoid_suite_from_params(
            [[[1.0], [-1.0]]], [[0.0, 0.0]], [0.0], online=True
        )
        assert abs(suite.gradient(np.zeros(1))[0]) <= 1e-15


class TestSigmoidFamily:
    def test_flat_slope_at_zero_margin(self):
        suite = sigmoid_suite_from_params([[[1.0]]], [[0.0]], [0.0])
        g = suite.objectives[0].stochastic_gradient(np.zeros(1), 0)
        assert g[0] == pytest.approx(0.0, abs=0)

    def test_values_are_bounded_below_by_certified_optimum(self):
        suite = make_nonconvex_suite(N=3, n=32, d=4, heterogeneity=0.6, seed=10)
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert suite.value(rng.normal(size=4)) >= suite.optimum_value

    def test_finite_difference_matches_analytic_gradient(self):
        suite = make_nonconvex_suite(N=2, n=16, d=5, heterogeneity=0.4, seed=11)
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(100):
            x = rng.normal(size=5)
            k = rng.integers(0, 5)
            e = np.zeros(5)
            e[k] = h
            numeric = (suite.value(x + e) - suite.value(x - e)) / (2 * h)
            analytic = suite.gradient(x)[k]
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-9)

    def test_finite_difference_quadratic(self):
        suite = make_quadratic_suite(N=2, n=8, d=3, heterogeneity=0.5, seed=12)
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(100):
            x = rng.normal(size=3)
            k = rng.integers(0, 3)
            e = np.zeros(3)
            e[k] = h
            numeric = (suite.value(x + e) - suite.value(x - e)) / (2 * h)
            assert numeric == pytest.approx(suite.gradient(x)[k], rel=1e-6, abs=1e-9)


class TestAdvertisedConstants:
    """Randomized certificates for the advertised L and sigma."""

    def test_quadratic_mean_squared_smoothness(self):
        suite = make_quadratic_suite(N=2, n=16, d=4, heterogeneity=0.9, seed=13)
        L = suite.smoothness
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            obj = suite.objectives[rng.integers(0, 2)]
            x, y = rng.normal(size=4), rng.normal(size=4)
            j = rng.integers(0, 16)
            gx = obj.stochastic_gradient(x, int(j))
            gy = obj.stochastic_gradient(y, int(j))
            lhs = np.linalg.norm(gx - gy)
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_sigmoid_mean_squared_smoothness(self):
        suite = make_nonconvex_suite(N=2, n=16, d=4, heterogeneity=0.9, seed=14)
        L = suite.smoothness
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            obj = suite.objectives[rng.integers(0, 2)]
            x, y = rng.normal(size=4), rng.normal(size=4)
            j = rng.integers(0, 16)
            gx = obj.stochastic_gradient(x, int(j))
            gy = obj.stochastic_gradient(y, int(j))
            lhs = np.linalg.norm(gx - gy)
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)

    @pytest.mark.parametrize("family", ["quadratic", "sigmoid"])
    def test_deviation_bound_holds_by_enumeration(self, family):
        if family == "quadratic":
            suite = make_quadratic_suite(N=3, n=16, d=4, heterogeneity=1.2, seed=15)
        else:
            suite = make_nonconvex_suite(N=3, n=16, d=4, heterogeneity=1.2, seed=15)
        rng = np.random.default_rng(6)
        for obj in suite.objectives:
            sigma_sq = obj.variance_bound**2
            for _ in range(100):
                x = rng.normal(size=4)
                g_global = suite.gradient(x)
                devs = [
                    sq_norm(obj.stochastic_gradient(x, j) - g_global)
                    for j in range(16)
                ]
                assert np.mean(devs) <= sigma_sq * (1 + 1e-9)

    def test_sigmoid_slope_extremum_constant(self):
        # max |phi'| over a fine grid stays below the closed-form constant
        t = np.linspace(-50, 50, 2_000_001)
        slope = np.abs(2 * t / (1 + t * t) ** 2)
        assert slope.max() <= PHI_GRAD_MAX + 1e-12
        assert slope.max() == pytest.approx(PHI_GRAD_MAX, rel=1e-6)


class TestSuiteUtilities:
    def test_with_initial_point(self):
        suite = make_quadratic_suite(N=2, n=4, d=3, heterogeneity=0.1, seed=16)
        moved = suite.with_initial_point([1.0, 2.0, 3.0])
        assert np.array_equal(moved.initial_point, [1, 2, 3])
        assert moved.objectives is suite.objectives
        assert not np.array_equal(suite.initial_point, moved.initial_point)

    def test_config_echo_round_trips_through_factory(self):
        suite = make_quadratic_suite(N=2, n=4, d=3, heterogeneity=0.3, seed=17)
        again = make_quadratic_suite(
            N=suite.config["N"],
            n=suite.config["n"],
            d=suite.config["d"],
            heterogeneity=suite.config["heterogeneity"],
            seed=suite.config["seed"],
            center_spread=suite.config["center_spread"],
        )
        assert np.array_equal(suite.initial_point, again.initial_point)
        for a, b in zip(suite.objectives, again.objectives):
            assert np.array_equal(a.centers, b.centers)
