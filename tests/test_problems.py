import copy
import pickle
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from oracle_reference import one_worker_oracles

from prspider.algorithms import (
    HyperParams,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from prspider.cli import build_suite
from prspider.checks import expected_ifo_finite
from prspider.harness import WorkerState, make_record
from prspider.numerics import mean_reduce, sq_norm, sq_norms
from prspider.problems import (
    PHI_GRAD_MAX,
    Meter,
    ProblemSuite,
    QuadraticAnalytic,
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


# every suite kind: generated quadratic, finite and online sigmoid, and
# the explicit quadratic and sigmoid
EVERY_SUITE_KIND = pytest.mark.parametrize(
    "make_suite",
    [
        lambda: make_quadratic_suite(N=2, n=4, d=3, heterogeneity=0.3, seed=17),
        lambda: make_nonconvex_suite(N=2, n=4, d=3, heterogeneity=0.3, seed=17),
        lambda: make_nonconvex_suite(N=2, n=None, d=3, heterogeneity=0.3, seed=17),
        lambda: quadratic_suite_from_centers([[[0.0]], [[2.0]]], [5.0]),
        lambda: sigmoid_suite_from_params(
            [[[1.0, 0.5]], [[0.5, 1.0]]], [[0.1], [-0.1]], [0.3, 0.7]
        ),
    ],
    ids=["quadratic", "sigmoid", "sigmoid-online", "quadratic-explicit",
         "sigmoid-explicit"],
)


def _data_rng():
    return np.random.default_rng(11)


# every suite kind at N=4, n=256, d=64, with its data's bytes: (N, n, d)
# centers, or (N, n, d) features and (N, n) offsets
EVERY_SUITE_KIND_AT_SIZE = pytest.mark.parametrize(
    "make_suite, data_bytes",
    [
        (lambda: make_quadratic_suite(4, 256, 64, 0.5, 1), 524_288),
        (lambda: make_nonconvex_suite(4, 256, 64, 0.5, 1), 532_480),
        (lambda: make_nonconvex_suite(4, None, 64, 0.5, 1, online_pool=256), 532_480),
        (
            lambda: quadratic_suite_from_centers(
                _data_rng().normal(size=(4, 256, 64)), np.zeros(64)
            ),
            524_288,
        ),
        (
            lambda: sigmoid_suite_from_params(
                _data_rng().uniform(-0.125, 0.125, size=(4, 256, 64)),
                _data_rng().uniform(-0.2, 0.2, size=(4, 256)),
                np.zeros(64),
            ),
            532_480,
        ),
    ],
    ids=["quadratic", "sigmoid", "sigmoid-online", "quadratic-explicit",
         "sigmoid-explicit"],
)


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
        g = obj.batch_gradient_mean(np.array([5.0]), [0])
        assert g[0] == pytest.approx(2.0, abs=0)

    def test_counter_increments_by_one(self):
        suite = single_center_suite()
        obj = suite.objectives[0]
        meter = Meter(1)
        obj.batch_gradient_mean(np.array([1.0]), [0], meter)
        assert meter.total == 1

    def test_enumeration_mean_equals_full_gradient(self):
        suite = make_quadratic_suite(N=2, n=9, d=4, heterogeneity=0.4, seed=5)
        x = np.array([0.3, -0.2, 0.7, 0.1])
        for obj in suite.objectives:
            grads = [obj.batch_gradient_mean(x, [j]) for j in range(9)]
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

    def test_counters_suspended(self):
        # called without a meter, an oracle charges nothing: it leaves the
        # objective as it was, since objectives hold no run state
        suite = make_quadratic_suite(N=2, n=4, d=2, heterogeneity=0, seed=7)
        for obj in suite.objectives:
            before = dict(vars(obj))
            obj.full_gradient(np.zeros(2))
            obj.batch_gradient_mean(np.zeros(2), [1])
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
        suite.objectives[2].batch_gradient_mean(x, [3], meter)
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

    def test_running_totals_hold_under_threads(self):
        # each worker's thread charges its own row and the running total
        # while the others charge theirs, switching threads often; no update
        # is lost, and a parallel run's ledger agrees with itself
        N, charges = 4, 3000
        meter = Meter(N)
        meter.phase = "inner"

        def charge_many(worker):
            for k in range(charges):
                meter.charge(worker, k % 7 + worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=N) as pool:
                futures = [pool.submit(charge_many, w) for w in range(N)]
                for future in futures:
                    future.result(timeout=60)
            suite = make_nonconvex_suite(
                N=N, n=32, d=3, heterogeneity=0.5, seed=2
            )
            hp = HyperParams(gamma=0.05, I=2, m=9, B=3, S=3, N=N)
            trace = run_pr_spider_finite(suite, hp, 0, parallel=True)
        finally:
            sys.setswitchinterval(interval)
        per_worker = [sum(k % 7 + w for k in range(charges)) for w in range(N)]
        assert [sum(row.values()) for row in meter.rows] == per_worker
        assert meter.total == sum(meter.breakdown().values()) == sum(per_worker)
        ledger = trace.ledger
        assert ledger.total == sum(ledger.breakdown().values())
        assert ledger.total == expected_ifo_finite(3, 9, 3, 32, N)
        assert ledger.total == sum(sum(row.values()) for row in ledger.rows)
        serial = run_pr_spider_finite(suite, hp, 0)
        assert list(trace.csv_lines()) == list(serial.csv_lines())


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
        g = suite.objectives[0].batch_gradient_mean(np.zeros(1), [0])
        assert g[0] == pytest.approx(0.0, abs=0)

    @pytest.mark.parametrize("online", [False, True])
    def test_suite_refuses_an_infinite_smoothness(self, online):
        # ||a||^2 overflows, so no step size rule holds; the CLI's error
        # state keeps the overflow from warning
        features = [[[1e200, 1.0]], [[1.0, 1.0]]]
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="smoothness is inf"):
                sigmoid_suite_from_params(
                    features, [[0.0], [0.0]], [0.0, 0.0], online=online
                )

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
            gx = obj.batch_gradient_mean(x, [j])
            gy = obj.batch_gradient_mean(y, [j])
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
            gx = obj.batch_gradient_mean(x, [j])
            gy = obj.batch_gradient_mean(y, [j])
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
                    sq_norm(obj.batch_gradient_mean(x, [j]) - g_global)
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

    @pytest.mark.parametrize(
        "make_suite", [make_quadratic_suite, make_nonconvex_suite]
    )
    def test_suites_are_frozen_and_replace_makes_changed_copies(self, make_suite):
        suite = make_suite(N=2, n=4, d=3, heterogeneity=0.3, seed=17)
        for f in fields(ProblemSuite):
            with pytest.raises(FrozenInstanceError):
                setattr(suite, f.name, getattr(suite, f.name))
        optimum = suite.optimum_value
        lower = replace(suite, optimum_value=optimum - 1.0)
        assert (lower.optimum_value, suite.optimum_value) == (optimum - 1.0, optimum)
        assert lower.objectives is suite.objectives
        assert lower.analytic is suite.analytic

    @EVERY_SUITE_KIND
    def test_start_point_and_objectives_are_read_only(self, make_suite):
        # a write into a shared suite would move every later run's start
        # or worker count
        suite = make_suite()
        start = suite.initial_point.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            suite.initial_point[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            suite.initial_point += 1.0
        with pytest.raises(AttributeError):
            suite.objectives.append(suite.objectives[0])
        with pytest.raises(TypeError):
            suite.objectives[0] = suite.objectives[1]
        assert (suite.initial_point.tobytes(), suite.num_workers) == (start, 2)
        lower = replace(suite, optimum_value=suite.optimum_value - 1.0)
        assert not lower.initial_point.flags.writeable
        assert isinstance(lower.objectives, tuple)

    @EVERY_SUITE_KIND
    def test_replace_checks_and_copies_the_start_point(self, make_suite):
        # README starts a suite elsewhere by replace: the copy keeps the
        # suite's invariants, so a bad start point fails here, not in a run
        suite = make_suite()
        d = suite.dim
        for given in (np.arange(d, dtype=np.float64), list(range(d))):
            moved = replace(suite, initial_point=given)
            start = moved.initial_point
            assert (start.dtype, start.tolist()) == (np.float64, list(range(d)))
            with pytest.raises(ValueError, match="read-only"):
                start[0] = 5.0
        given = np.zeros(d)
        moved = replace(suite, initial_point=given)
        given[0] = 5.0  # the caller's array stays writable; the copy does not see it
        assert moved.initial_point[0] == 0.0
        for wrong in (np.zeros(d + 1), [0.0] * (d - 1), np.zeros((1, d))):
            with pytest.raises(ValueError):
                replace(suite, initial_point=wrong)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                replace(suite, initial_point=np.full(d, bad))
        listed = replace(suite, objectives=list(suite.objectives))
        assert listed.objectives == suite.objectives
        assert isinstance(listed.objectives, tuple)
        # PR-SPIDER's rules need a finite start gap: a quadratic's value at
        # 1e200 overflows and is refused, with no warning; a sigmoid's
        # margins saturate there, phi is 1.0 and the start stands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(suite.analytic, QuadraticAnalytic):
                with pytest.raises(ValueError, match="start point"):
                    replace(suite, initial_point=[1e200] * d)
            else:
                assert replace(suite, initial_point=[1e155] * d).initial_gap() == 1.0

    @EVERY_SUITE_KIND
    def test_pickle_and_deepcopy_rebuild_through_the_constructors(self, make_suite):
        # a copy keeps the suite's invariants: every array it holds is
        # read-only, and a run over it writes the original's trace
        suite = make_suite()
        hp = HyperParams(gamma=0.1, I=2, m=5, B=3, S=2, N=2, n_b=3)
        trace = "".join(run_pr_spider_online(suite, hp, 4).csv_lines())
        for copied in (pickle.loads(pickle.dumps(suite)), copy.deepcopy(suite)):
            arrays = [copied.initial_point]
            for part in (*copied.objectives, copied.analytic):
                arrays += [a for a in vars(part).values() if isinstance(a, np.ndarray)]
            assert len(arrays) >= 7
            assert not any(a.flags.writeable for a in arrays)
            assert copied.smoothness == suite.smoothness
            assert copied.variance_bound == suite.variance_bound
            again = run_pr_spider_online(copied, hp, 4)
            assert "".join(again.csv_lines()) == trace

    @EVERY_SUITE_KIND_AT_SIZE
    def test_a_suite_ships_its_data_once(self, make_suite, data_bytes):
        # the evaluator owns the data: the objectives are views of its
        # arrays and an explicit suite's config holds them, so pickle and
        # deepcopy ship each array once, in a copy or the original
        suite = make_suite()
        blob = pickle.dumps(suite)
        assert len(blob) <= data_bytes + 16 * 2**10
        explicit = suite.config["family"].endswith("-explicit")
        for copied in (suite, pickle.loads(blob), copy.deepcopy(suite)):
            owned = [
                a for a in vars(copied.analytic).values() if isinstance(a, np.ndarray)
            ]
            for obj in copied.objectives:
                held = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
                assert held
                for array in held:
                    assert any(np.shares_memory(array, mine) for mine in owned)
            echoed = [a for a in copied.config.values() if isinstance(a, np.ndarray)]
            assert bool(echoed) == explicit
            for array in echoed:
                assert any(array is mine for mine in owned)
                assert not array.flags.writeable
            assert len(pickle.dumps(copied)) == len(blob)

    @EVERY_SUITE_KIND
    def test_a_suite_refuses_an_evaluator_of_another_worker_count(self, make_suite):
        # N=2 objectives over a 3-worker evaluator would read a third
        # worker's values into every metric, and the other way round
        suite = make_suite()
        factory = (
            make_quadratic_suite
            if isinstance(suite.analytic, QuadraticAnalytic)
            else make_nonconvex_suite
        )
        wider = factory(N=3, n=4, d=suite.dim, heterogeneity=0.3, seed=1)
        with pytest.raises(ValueError, match="evaluator has 3 workers"):
            ProblemSuite(
                objectives=suite.objectives,
                optimum_value=suite.optimum_value,
                initial_point=suite.initial_point,
                analytic=wider.analytic,
            )
        with pytest.raises(ValueError, match="evaluator has 3 workers"):
            replace(suite, analytic=wider.analytic)
        with pytest.raises(ValueError, match="evaluator has 2 workers"):
            replace(wider, analytic=suite.analytic)


def _stacked_suites():
    rng = np.random.default_rng(5)
    yield "sigmoid-finite", make_nonconvex_suite(
        N=4, n=256, d=4, heterogeneity=0.5, seed=9
    )
    yield "sigmoid-online", make_nonconvex_suite(
        N=3, n=None, d=8, heterogeneity=0.5, seed=3, online_pool=64
    )
    yield "sigmoid-explicit", sigmoid_suite_from_params(
        rng.uniform(-1, 1, size=(3, 17, 5)),
        rng.uniform(-0.2, 0.2, size=(3, 17)),
        rng.normal(size=5),
    )
    yield "sigmoid-N1", make_nonconvex_suite(
        N=1, n=40, d=3, heterogeneity=0.5, seed=1
    )
    # one gemv over all workers' rows would start a worker mid row group
    yield "sigmoid-n33-d16", make_nonconvex_suite(
        N=3, n=33, d=16, heterogeneity=0.5, seed=8
    )
    yield "sigmoid-d1", make_nonconvex_suite(
        N=3, n=50, d=1, heterogeneity=0.5, seed=2
    )
    yield "sigmoid-d2048", make_nonconvex_suite(
        N=2, n=24, d=2048, heterogeneity=0.5, seed=4
    )
    yield "quadratic", make_quadratic_suite(
        N=5, n=30, d=6, heterogeneity=0.5, seed=11
    )
    yield "quadratic-explicit", quadratic_suite_from_centers(
        rng.normal(size=(3, 4, 2)) * 10.0 ** rng.uniform(-6, 6, size=(3, 4, 2)),
        rng.normal(size=2),
    )
    # twelve workers: numpy sums twelve values pairwise, not in worker order
    yield "quadratic-explicit-N12", quadratic_suite_from_centers(
        rng.normal(size=(12, 3, 2)) * 10.0 ** rng.uniform(-1, 1, size=(12, 1, 1)),
        rng.normal(size=2),
    )
    yield "quadratic-N1", make_quadratic_suite(
        N=1, n=9, d=4, heterogeneity=0.5, seed=12
    )
    yield "quadratic-d1", make_quadratic_suite(
        N=4, n=20, d=1, heterogeneity=1.0, seed=5
    )
    yield "quadratic-d2048", make_quadratic_suite(
        N=3, n=8, d=2048, heterogeneity=0.5, seed=7
    )


STACKED = dict(_stacked_suites())


def _sigmoid_d2048(n):
    rng = np.random.default_rng(n)
    features = rng.uniform(-1.0, 1.0, size=(2, n, 2048)) / np.sqrt(2048)
    offsets = rng.uniform(-0.2, 0.2, size=(2, n))
    return sigmoid_suite_from_params(features, offsets, np.zeros(2048))


# at d=2048, n=33 is one margin block of 33 rows and n=65 two, the last
# with the lone last row
CHUNKED = dict(
    STACKED, **{f"sigmoid-n{n}-d2048": _sigmoid_d2048(n) for n in (33, 65)}
)


class TestStackedAnalytic:
    """The worker-stacked oracles give the per-objective loop's bits."""

    @staticmethod
    def _points(suite, count=12):
        rng = np.random.default_rng(suite.dim)
        scale = 10.0 ** rng.uniform(-3, 3, size=(count, 1))
        return [suite.initial_point] + list(
            rng.normal(size=(count, suite.dim)) * scale
        )

    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_value_and_gradient_match_per_objective_loop(self, name):
        suite = STACKED[name]
        for x in self._points(suite):
            total = 0.0
            grads = []
            for obj in suite.objectives:
                value, grad = one_worker_oracles(obj, x)
                total += value
                grads.append(grad)
            value = total / suite.num_workers
            grad = mean_reduce(grads)
            assert suite.value(x) == value
            assert suite.gradient(x).tobytes() == grad.tobytes()

    @pytest.mark.parametrize("name", sorted(STACKED))
    def test_evaluate_fos_matches_per_worker_loop(self, name):
        suite = STACKED[name]
        points = self._points(suite, count=suite.num_workers)[1:]
        workers = [
            WorkerState(worker_id=i, obj=obj, x=points[i])
            for i, obj in enumerate(suite.objectives)
        ]
        x_bar = mean_reduce([w.x for w in workers])
        total = 0.0
        grads = []
        for obj in suite.objectives:
            value, grad = one_worker_oracles(obj, x_bar)
            total += value
            grads.append(grad)
        consensus = 0.0
        for w in workers:
            consensus += sq_norm(w.x - x_bar)
        consensus /= len(workers)
        grad = mean_reduce(grads)
        want = (total / suite.num_workers, sq_norm(grad), consensus)
        deviations = sq_norms(np.array([w.x for w in workers]) - x_bar)
        (values,), (gradients,) = suite.analytic.evaluate([x_bar])
        record = make_record(
            0, 0, suite, x_bar, deviations, 0, 0, values=values, gradients=gradients
        )
        assert (record.f_bar, record.grad_sq, record.consensus) == want

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65])
    def test_sigmoid_margin_paths_match_one_worker_oracles(self, N, n):
        # at d=2048 a margin block is 32 rows: the blocked matmul takes
        # one block up to n=33 and two past it (a lone last row joins the
        # block before it)
        d = 2048
        rng = np.random.default_rng(N * 100 + n)
        features = rng.uniform(-1.0, 1.0, size=(N, n, d)) / np.sqrt(d)
        offsets = rng.uniform(-0.2, 0.2, size=(N, n))
        suite = sigmoid_suite_from_params(features, offsets, np.zeros(d))
        analytic = suite.analytic
        assert len(analytic._edges) - 1 == (2 if n > 33 else 1)
        for x in self._points(suite, count=3):
            values = analytic.values(x)
            grads = analytic.gradients(x)
            for i, obj in enumerate(suite.objectives):
                value, grad = one_worker_oracles(obj, x)
                assert values[i] == value
                assert grads[i].tobytes() == grad.tobytes()

    @staticmethod
    def _chunk_points(suite, count):
        # distinct points: scales from 1e-3 to 1e3, then entries whose
        # margins overflow t * t, an inf entry and a NaN entry
        rng = np.random.default_rng(count)
        scale = 10.0 ** rng.uniform(-3, 3, size=(count, 1))
        points = rng.normal(size=(count, suite.dim)) * scale
        for k, special in enumerate((1e155, np.inf, np.nan), start=1):
            if count > 3 * k:
                points[-3 * k, 0] = special
        return points

    @pytest.mark.parametrize("name", sorted(CHUNKED))
    def test_every_chunk_size_gives_each_point_its_one_worker_bits(self, name):
        # chunk sizes 1 to R + 1: each point's values and gradients are its
        # one-worker oracles' bits, wherever it sits in the chunk
        suite = CHUNKED[name]
        analytic = suite.analytic
        points = self._chunk_points(suite, analytic.chunk + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [
                [one_worker_oracles(obj, x) for obj in suite.objectives]
                for x in points
            ]
            values = np.array([[v for v, _ in rows] for rows in want])
            grads = np.array([[g for _, g in rows] for rows in want])
            for size in range(1, len(points) + 1):
                got_values, got_grads = analytic.evaluate(points[:size])
                assert got_values.tobytes() == values[:size].tobytes(), size
                assert got_grads.tobytes() == grads[:size].tobytes(), size

    @pytest.mark.parametrize("name", ["sigmoid-finite", "quadratic"])
    def test_a_point_twice_in_a_chunk_gets_the_same_bytes(self, name):
        analytic = STACKED[name].analytic
        x, y = self._points(STACKED[name], count=2)[1:]
        first = analytic.evaluate(np.array([x, y]))
        last = analytic.evaluate(np.array([y, y, x]))
        for a, b in zip(first, last):
            assert len(b) == 3
            assert a[0].tobytes() == b[2].tobytes()
            assert a[1].tobytes() == b[0].tobytes() == b[1].tobytes()

    def test_phi_saturates_where_the_margin_squared_overflows(self):
        def suite_at(start):
            return sigmoid_suite_from_params(
                [[[1.0]], [[1.0]]], [[0.0], [0.0]], [start]
            )

        # |t| >= ~1.34e154: t * t is inf, and phi = inf / inf would be NaN
        problem = {
            "family": "sigmoid-explicit",
            "features": [[[1.0]], [[1.0]]],
            "offsets": [[0.0], [0.0]],
            "initial_point": [1e155],
        }
        assert build_suite(problem).analytic.values([1e155]).tolist() == [1.0, 1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            for start in (1e155, -1e300, 1.7e308):
                suite = suite_at(start)
                assert suite.analytic.values([start]).tolist() == [1.0, 1.0]
                assert suite.analytic.gradients([start]).tolist() == [[0.0], [0.0]]
            # below the overflow, today's formulas and bits
            t = np.array([1e150])
            t2 = t * t
            q = t2 + 1.0
            analytic = suite_at(1e150).analytic
            assert analytic.values(t).tobytes() == np.repeat(t2 / q, 2).tobytes()
            slopes = np.repeat((t + t) / (q * q), 2)
            assert analytic.gradients(t).ravel().tobytes() == slopes.tobytes()

    def test_saturated_values_and_gradients_do_not_warn(self):
        # where q * q or t * t overflows, phi is 1.0 and phi' is +-0 at a
        # point evaluated for the first time, with no error state around
        suite = sigmoid_suite_from_params([[[1.0]], [[1.0]]], [[0.0], [0.0]], [0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e100, 1.35e154, -1e155, 1e300, -1.7e308):
                assert suite.value([x]) == 1.0
                assert suite.gradient([x]).tolist() == [0.0]
            # a margin that overflows in its own gemv
            suite = sigmoid_suite_from_params([[[1.0, 1.0]]], [[0.0]], [0.0, 0.0])
            assert suite.value([1e308, 1e308]) == 1.0
            assert suite.gradient([1e308, 1e308]).tolist() == [0.0, 0.0]

    def test_hand_built_suite_asks_each_objective(self):
        # a hand-built suite needs its family's evaluator: there is no
        # per-objective fallback, and given one it answers each objective
        suite = STACKED["sigmoid-explicit"]
        with pytest.raises(TypeError):
            ProblemSuite(
                objectives=suite.objectives,
                optimum_value=0.0,
                initial_point=suite.initial_point,
            )
        plain = ProblemSuite(
            objectives=suite.objectives,
            optimum_value=0.0,
            initial_point=suite.initial_point,
            analytic=suite.analytic,
        )
        for x in self._points(suite):
            rows = [one_worker_oracles(obj, x) for obj in suite.objectives]
            values = plain.analytic.values(x)
            grads = plain.analytic.gradients(x)
            for i, (value, grad) in enumerate(rows):
                assert values[i] == value
                assert grads[i].tobytes() == grad.tobytes()
            assert plain.value(x) == suite.value(x)
            assert plain.gradient(x).tobytes() == suite.gradient(x).tobytes()

    def test_sigmoid_stack_shares_the_objectives_data(self):
        suite = STACKED["sigmoid-finite"]
        stack = suite.analytic
        for i, obj in enumerate(suite.objectives):
            assert np.shares_memory(stack.features[i], obj.features)
            assert np.shares_memory(stack.offsets[i], obj.offsets)
        assert not stack.features.flags.writeable
