import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prspider import algorithms
from prspider.algorithms import (
    DivergedError,
    HyperParams,
    choose_params_baseline,
    choose_params_finite,
    choose_params_online,
    draw_restart_direction,
    run_parallel_minibatch_sgd,
    run_parallel_restarted_sgd,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from prspider.checks import (
    check_consensus_zeroing,
    check_restart_identity,
    expected_comm_rounds,
    expected_ifo_finite,
    expected_ifo_online,
)
from prspider.harness import CertificateError, RunHooks, first_hit
from prspider.numerics import RngStream, mean_reduce, sq_norm
from prspider.problems import (
    UnsupportedOperationError,
    make_nonconvex_suite,
    make_quadratic_suite,
)


class TestChooseParams:
    def test_finite_rule_arithmetic(self):
        hp = choose_params_finite(N=4, n=64, I=4, L=1.0, gap_bound=1.0, eps=0.1)
        assert hp.m == 64  # 4 * sqrt(256)
        assert hp.B == 1  # sqrt(64/4) / 4
        assert hp.gamma == pytest.approx(1.0 / 32)

    def test_step_size_rule(self):
        hp = choose_params_finite(N=2, n=16, I=8, L=1.0, gap_bound=1.0, eps=0.1)
        assert hp.gamma == pytest.approx(1.0 / 64)

    def test_degenerate_instance_clamps(self):
        hp = choose_params_finite(N=1, n=1, I=1, L=1.0, gap_bound=0.5, eps=0.5)
        assert hp.m == 1 and hp.B == 1 and hp.S >= 1

    def test_horizon_covers_target(self):
        hp = choose_params_finite(N=4, n=64, I=4, L=2.0, gap_bound=0.8, eps=0.05)
        T = 2 * 0.8 / (hp.gamma * 0.05)
        assert hp.horizon >= T - 1e-9

    def test_online_restart_batch_rule(self):
        hp = choose_params_online(N=4, sigma=2.0, I=4, L=1.0, gap_bound=1.0, eps=0.1)
        assert hp.n_b == 40  # ceil(16 / 0.4)

    def test_online_zero_deviation_floor(self):
        hp = choose_params_online(N=4, sigma=0.0, I=2, L=1.0, gap_bound=1.0, eps=0.1)
        assert hp.n_b == 1

    def test_online_inherits_finite_shape(self):
        hp = choose_params_online(N=4, sigma=4.0, I=4, L=1.0, gap_bound=1.0, eps=1.0)
        # n_b = ceil(64/4) = 16; m = 4*sqrt(64) = 32; B = sqrt(4)/4 -> 1
        assert hp.n_b == 16
        assert hp.m == 32
        assert hp.B == 1

    def test_online_matches_finite_arithmetic_at_nb_64(self):
        # sigma=8, N=4, eps=1 -> n_b = 64, then m = 4*sqrt(256) = 64, B = 1
        hp = choose_params_online(N=4, sigma=8.0, I=4, L=1.0, gap_bound=1.0, eps=1.0)
        assert hp.n_b == 64
        assert hp.m == 64
        assert hp.B == 1

    def test_baseline_rule_rounds_its_batch_and_floors_its_horizon(self):
        # batch 4 * 1.5**2 / (1 * 2) = 4.5 rounds half to even, to 4;
        # horizon 2 / (gamma eps) = 2 / (1/8 * 1/2) = 32 gives int() + 1 = 33
        params = choose_params_baseline(
            N=1, sigma=1.5, I=1, L=1.0, gap_bound=1.0, eps=2.0
        )
        assert params["batch"] == 4
        params = choose_params_baseline(
            N=1, sigma=1.5, I=1, L=1.0, gap_bound=1.0, eps=0.5
        )
        assert params == {"gamma": 1.0 / 8, "batch": 18, "horizon": 33}
        # 4 / (4 * 0.16) = 6.25 rounds down; 2 / (1/16 * 0.3) = 106.7 -> 107
        params = choose_params_baseline(
            N=4, sigma=1.0, I=2, L=1.0, gap_bound=1.0, eps=0.16
        )
        assert params["batch"] == 6
        assert params["gamma"] == 1.0 / 16
        params = choose_params_baseline(
            N=4, sigma=0.0, I=2, L=1.0, gap_bound=1.0, eps=0.3
        )
        assert params["batch"] == 1  # the floor of a zero-variance batch
        assert params["horizon"] == 107

    @pytest.mark.parametrize("bad", [
        {"N": 0}, {"I": 0}, {"eps": 0.0}, {"sigma": -1.0}, {"gap_bound": -1.0},
        {"L": 0.0},
    ])
    def test_baseline_rule_rejects_bad_inputs(self, bad):
        args = dict(N=2, sigma=1.0, I=1, L=1.0, gap_bound=1.0, eps=0.1)
        with pytest.raises(ValueError):
            choose_params_baseline(**{**args, **bad})

    def test_hyperparams_validation(self):
        with pytest.raises(ValueError):
            HyperParams(gamma=-1.0, I=1, m=1, B=1, S=1, N=1)
        with pytest.raises(ValueError):
            HyperParams(gamma=0.1, I=0, m=1, B=1, S=1, N=1)
        hp = HyperParams(gamma=0.0, I=1, m=3, B=1, S=2, N=1)  # ablation: ok
        assert hp.horizon == 6


def quad_suite(**kw):
    defaults = dict(N=4, n=16, d=4, heterogeneity=0.5, seed=20)
    defaults.update(kw)
    return make_quadratic_suite(**defaults)


class TestSpiderFinite:
    def test_trace_shape_and_counters(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=3, N=4)
        trace = run_pr_spider_finite(suite, hp, 0)
        assert len(trace.records) == hp.S * hp.m
        assert trace.comm_rounds == expected_comm_rounds(3, 8, 2)
        assert trace.ifo_total == expected_ifo_finite(3, 8, 2, 16, 4)
        assert trace.records[-1].ifo_total == trace.ifo_total
        assert trace.outcome == "completed"
        indices = [(r.s, r.t) for r in trace.records]
        assert indices == sorted(indices)

    def test_counters_nondecreasing(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=3, N=4)
        trace = run_pr_spider_finite(suite, hp, 0)
        for a, b in zip(trace.records, trace.records[1:]):
            assert b.ifo_total >= a.ifo_total
            assert b.comm_rounds >= a.comm_rounds

    def test_zero_step_size_stays_put(self):
        suite = quad_suite()
        hp = HyperParams(gamma=0.0, I=2, m=6, B=1, S=2, N=4)
        trace = run_pr_spider_finite(suite, hp, 0)
        g0 = sq_norm(suite.gradient(suite.initial_point))
        for r in trace.records:
            assert r.fos == pytest.approx(g0, rel=1e-12)

    def test_restart_identity_along_run(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=1, S=4, N=4)
        trace = run_pr_spider_finite(suite, hp, 1)
        assert len(trace.epoch_restart_residuals) == 4
        assert max(trace.epoch_restart_residuals) <= 1e-12

    def test_rejects_online_suite(self):
        online = make_nonconvex_suite(N=2, n="online", d=3, heterogeneity=0, seed=1)
        hp = HyperParams(gamma=0.01, I=1, m=2, B=1, S=1, N=2)
        with pytest.raises(UnsupportedOperationError):
            run_pr_spider_finite(online, hp, 0)

    def test_rejects_worker_count_mismatch(self):
        suite = quad_suite(N=3)
        hp = HyperParams(gamma=0.01, I=1, m=2, B=1, S=1, N=4)
        with pytest.raises(ValueError):
            run_pr_spider_finite(suite, hp, 0)

    def test_input_suite_not_mutated(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=4, B=1, S=2, N=4)
        objectives = list(suite.objectives)
        before = [dict(vars(obj)) for obj in objectives]
        x0 = suite.initial_point.copy()
        run_pr_spider_finite(suite, hp, 0)
        assert suite.objectives == objectives
        for obj, state in zip(objectives, before):
            assert vars(obj).keys() == state.keys()
            assert all(vars(obj)[k] is v for k, v in state.items())
        assert suite.initial_point.tobytes() == x0.tobytes()

    def test_average_iterate_recursion(self):
        # server-side averages follow x_{t+1} = x_t - gamma * v_t even at
        # non-averaging steps
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=4, m=12, B=1, S=2, N=4)
        seen = []

        def on_record(s, t, workers):
            seen.append(
                (
                    mean_reduce([w.x for w in workers]),
                    mean_reduce([w.v for w in workers]),
                    s,
                    t,
                )
            )

        run_pr_spider_finite(suite, hp, 2, hooks=RunHooks(on_record=on_record))
        for (x0, v0, s0, t0), (x1, _, s1, t1) in zip(seen, seen[1:]):
            if s0 != s1:
                continue  # boundary averaging may intervene between epochs
            predicted = x0 - hp.gamma * v0
            assert np.max(np.abs(predicted - x1)) <= 1e-12

    def test_consensus_zero_after_every_sync(self):
        # the boundary averages iterates first and directions second, so the
        # direction spread is asserted once its broadcast has happened
        suite = quad_suite(heterogeneity=1.0)
        hp = HyperParams(gamma=1.0 / 16, I=3, m=9, B=2, S=3, N=4)
        worst = []

        def on_sync(s, t, payload, workers):
            x_bar = mean_reduce([w.x for w in workers])
            worst.append(sum(sq_norm(w.x - x_bar) for w in workers))
            if payload in ("both", "gradients"):
                v_bar = mean_reduce([w.v for w in workers])
                worst.append(sum(sq_norm(w.v - v_bar) for w in workers))

        run_pr_spider_finite(suite, hp, 3, hooks=RunHooks(on_sync=on_sync))
        assert worst and max(worst) == 0.0

    def test_gd_degeneracy_with_full_batches(self):
        suite = quad_suite(n=8)
        gamma = 0.1
        hp = HyperParams(gamma=gamma, I=1, m=50, B=8, S=1, N=4)
        centers = np.concatenate([o.centers for o in suite.objectives])
        grand = centers.mean(axis=0)
        x = suite.initial_point.copy()
        oracle = []
        for _ in range(50):
            oracle.append(x)
            x = x - gamma * (x - grand)
        traj = []
        run_pr_spider_finite(
            suite,
            hp,
            0,
            hooks=RunHooks(
                on_record=lambda s, t, ws: traj.append(mean_reduce([w.x for w in ws]))
            ),
        )
        for got, want in zip(traj, oracle):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_divergence_raises_with_partial_trace(self):
        suite = quad_suite()
        hp = HyperParams(gamma=64.0, I=4, m=400, B=1, S=2, N=4)
        with pytest.raises(DivergedError) as info:
            run_pr_spider_finite(suite, hp, 0)
        trace = info.value.trace
        assert trace.outcome == "diverged"
        assert 0 < len(trace.records) < hp.horizon

    def test_divergence_in_a_direction_alone_names_the_first_bad_worker(
        self, monkeypatch
    ):
        # NaNs in the directions of workers 2 and 3 at (s=1, t=3); the move
        # is patched to leave iterates where they are, so every x stays
        # finite and only a direction can trip the check
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=3, N=4)
        monkeypatch.setattr(algorithms, "axpy", lambda x, a, y: x.copy())

        def on_record(s, t, workers):
            if (s, t) == (1, 3):
                for w in workers[2:]:
                    w.v = w.v.copy()
                    w.v[1] = math.nan

        with pytest.raises(DivergedError) as info:
            run_pr_spider_finite(suite, hp, 0, hooks=RunHooks(on_record=on_record))
        assert str(info.value) == (
            "non-finite values at worker 2, epoch 1, iteration 3"
        )
        assert info.value.trace.outcome == "diverged"

    def test_below_optimum_raises_certificate_error_with_partial_trace(self):
        real = quad_suite()
        start = real.value(real.initial_point)
        # a wrong optimum halfway down, which the run passes below
        wrong = (start + real.optimum_value) / 2
        suite = replace(real, optimum_value=wrong)
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=4, N=4)
        with pytest.raises(CertificateError, match="below certified optimum") as info:
            run_pr_spider_finite(suite, hp, 0)
        trace = info.value.trace
        assert trace.outcome == "below-optimum"
        assert 0 < len(trace.records) < hp.horizon
        assert all(r.f_bar >= wrong for r in trace.records)

    def test_metrics_cadence_does_not_leak_into_run(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=2, N=4)
        dense = run_pr_spider_finite(suite, hp, 4, metrics_every=1)
        sparse = run_pr_spider_finite(suite, hp, 4, metrics_every=3)
        assert len(sparse.records) == math.ceil(hp.horizon / 3)
        lookup = {(r.s, r.t): r for r in dense.records}
        for r in sparse.records:
            assert lookup[(r.s, r.t)] == r
        assert dense.ifo_total == sparse.ifo_total
        assert dense.comm_rounds == sparse.comm_rounds

    def test_determinism_same_seed_bitwise(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=2, N=4)
        a = run_pr_spider_finite(suite, hp, 9)
        b = run_pr_spider_finite(suite, hp, 9)
        assert list(a.csv_lines()) == list(b.csv_lines())

class TestDeferredRecords:
    """Records wait for a chunk's stacked analytic pass, yet a certificate
    failure ends the trace where making each record at once ended it."""

    HP = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=4, N=2)

    @staticmethod
    def suite():
        # N * d = 2600 entries a point: chunks of three records, so an
        # epoch of 8 flushes after records 3 and 6 and before its boundary
        suite = make_quadratic_suite(N=2, n=16, d=1300, heterogeneity=0.5, seed=20)
        assert suite.analytic.chunk == 3
        return suite

    @staticmethod
    def wrong_optimum(records, k):
        """An optimum that record ``k`` is the first to pass below."""
        f = [r.f_bar for r in records]
        assert f[k] < min(f[:k])
        wrong = (f[k] + min(f[:k])) / 2
        slack = 1e-9 * max(1.0, abs(wrong))
        assert k == next(j for j, v in enumerate(f) if v < wrong - slack)
        return wrong

    def check_ends_at(self, trace, full, k):
        want = full.records[k]
        assert trace.outcome == "below-optimum"
        assert list(trace.records) == full.records[:k]
        result = trace.sidecar()["result"]
        assert result["ifo_total"] == want.ifo_total
        assert result["comm_rounds"] == want.comm_rounds
        assert sum(result["ifo_breakdown"].values()) == want.ifo_total
        residuals = full.epoch_restart_residuals[: want.s + 1]
        assert result["epoch_restart_residuals"] == residuals

    @pytest.mark.parametrize(
        "k",
        [
            12,  # (1, 4): the middle record of the chunk (1, 3)..(1, 5)
            16,  # (2, 0): an epoch's first record, the first of its chunk
        ],
    )
    def test_certificate_failure_ends_the_trace_at_its_record(self, k):
        suite = self.suite()
        full = run_pr_spider_finite(suite, self.HP, 0)
        wrong = replace(suite, optimum_value=self.wrong_optimum(full.records, k))
        with pytest.raises(CertificateError) as info:
            run_pr_spider_finite(wrong, self.HP, 0)
        self.check_ends_at(info.value.trace, full, k)

    def test_pending_certificate_failure_wins_over_a_divergence(self):
        # a NaN direction at (1, 4) diverges its step, with records (1, 3)
        # and (1, 4) pending; the failure at (1, 3) ends the trace
        def on_record(s, t, workers):
            if (s, t) == (1, 4):
                for w in workers:
                    w.v = np.full_like(w.v, math.nan)

        hooks = RunHooks(on_record=on_record)
        suite = self.suite()
        with pytest.raises(DivergedError) as info:
            run_pr_spider_finite(suite, self.HP, 0, hooks=hooks)
        full = info.value.trace
        assert (full.records[-1].s, full.records[-1].t) == (1, 4)
        wrong = replace(suite, optimum_value=self.wrong_optimum(full.records, 11))
        with pytest.raises(CertificateError) as info:
            run_pr_spider_finite(wrong, self.HP, 0, hooks=hooks)
        assert isinstance(info.value.__context__, DivergedError)
        self.check_ends_at(info.value.trace, full, 11)


class TestSpiderOnline:
    def test_counters_follow_online_formulas(self):
        suite = quad_suite()
        hp = HyperParams(gamma=1.0 / 16, I=2, m=8, B=2, S=3, N=4, n_b=5)
        trace = run_pr_spider_online(suite, hp, 0)
        assert trace.comm_rounds == expected_comm_rounds(3, 8, 2)
        assert trace.ifo_total == expected_ifo_online(3, 8, 2, 5, 4)

    def test_requires_restart_batch(self):
        suite = quad_suite()
        hp = HyperParams(gamma=0.01, I=1, m=2, B=1, S=1, N=4)
        with pytest.raises(ValueError):
            run_pr_spider_online(suite, hp, 0)

    def test_finite_variant_refuses_restart_batch(self):
        # a stray n_b would be echoed into a sidecar that no config takes
        suite = quad_suite()
        hp = HyperParams(gamma=0.01, I=1, m=2, B=1, S=1, N=4, n_b=5)
        with pytest.raises(ValueError, match="n_b"):
            run_pr_spider_finite(suite, hp, 0)

    def test_runs_on_online_suite(self):
        suite = make_nonconvex_suite(
            N=2, n="online", d=3, heterogeneity=0.3, seed=2, online_pool=64
        )
        hp = HyperParams(gamma=0.02, I=2, m=6, B=2, S=2, N=2, n_b=8)
        trace = run_pr_spider_online(suite, hp, 1)
        assert trace.outcome == "completed"
        assert len(trace.records) == 12

    def test_restart_error_shrinks_with_batch_size(self):
        suite = quad_suite(heterogeneity=1.0, n=64)
        x = suite.initial_point
        exact = suite.gradient(x)

        def mean_sq_err(n_b, repeats=200):
            total = 0.0
            for seed in range(repeats):
                vecs = draw_restart_direction(suite, x, n_b, RngStream(seed), 0, 0)
                total += sq_norm(mean_reduce(vecs) - exact)
            return total / repeats

        small, large = mean_sq_err(4), mean_sq_err(64)
        assert large < small / 4  # ~16x batch should give ~16x reduction

    def test_zero_deviation_family_coincides_with_finite_run(self):
        # every sample identical at every worker: the online restarts equal
        # the exact full-gradient restarts, so the traces match bitwise
        suite = make_quadratic_suite(
            N=2, n=4, d=3, heterogeneity=0.0, seed=5, center_spread=0.0
        )
        assert suite.variance_bound == 0.0
        hp_f = HyperParams(gamma=1.0 / 16, I=2, m=6, B=2, S=3, N=2)
        hp_o = replace(hp_f, n_b=4)
        finite = run_pr_spider_finite(suite, hp_f, 7)
        online = run_pr_spider_online(suite, hp_o, 7)
        assert list(finite.csv_lines()) == list(online.csv_lines())

    def test_zero_step_size_stationary(self):
        suite = quad_suite()
        hp = HyperParams(gamma=0.0, I=2, m=4, B=1, S=2, N=4, n_b=8)
        trace = run_pr_spider_online(suite, hp, 0)
        fos = {r.fos for r in trace.records}
        assert max(fos) - min(fos) <= 1e-12 * max(fos)


@pytest.mark.parametrize("online", [False, True], ids=["finite", "online"])
@pytest.mark.parametrize("I, m", [(2, 5), (3, 7), (4, 9), (3, 2), (4, 1)])
def test_round_count_closed_form_when_I_does_not_divide_m(online, I, m):
    suite = quad_suite(N=2, n=6)
    n_b = 4 if online else None
    hp = HyperParams(gamma=1.0 / 16, I=I, m=m, B=1, S=3, N=2, n_b=n_b)
    trace = (run_pr_spider_online if online else run_pr_spider_finite)(suite, hp, 0)
    assert trace.comm_rounds == expected_comm_rounds(3, m, I)


@settings(max_examples=120, deadline=None)
@given(
    N=st.integers(1, 5),
    n=st.integers(1, 64),
    d=st.integers(1, 8),
    I=st.integers(1, 8),
    m=st.integers(1, 40),
    S=st.integers(1, 4),
    extra_B=st.integers(0, 67),
    metrics_every=st.integers(1, 4),
    gamma=st.floats(0.01, 0.5),
    heterogeneity=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(
    N=4, n=16, d=4, I=4, m=8, S=3, extra_B=1, metrics_every=1, gamma=0.1,
    heterogeneity=0.5, seed=0,
)
@example(
    N=3, n=5, d=2, I=3, m=7, S=2, extra_B=6, metrics_every=2, gamma=0.2,
    heterogeneity=1.0, seed=1,
)
@example(
    N=2, n=64, d=6, I=1, m=33, S=2, extra_B=41, metrics_every=1, gamma=0.5,
    heterogeneity=1.0, seed=3355,
)
def test_quadratic_runs_follow_the_gradient_descent_closed_form(
    N, n, d, I, m, S, extra_B, metrics_every, gamma, heterogeneity, seed
):
    # every sample's gradient difference is x_new - x_old, so the SPIDER
    # direction is exact and all workers move alike: after k = s*m + t
    # moves, grad f(x_bar) = (1 - gamma)^k grad f(x0) and the workers agree.
    # The records' costs follow the schedule: rounds and oracle calls of
    # every exchange and step before the record at (s, t), none after it.
    B = 1 + extra_B % (n + 3)  # 1 .. n + 3, so above n too
    suite = make_quadratic_suite(
        N=N, n=n, d=d, heterogeneity=heterogeneity, seed=seed
    )
    hp = HyperParams(gamma=gamma, I=I, m=m, B=B, S=S, N=N)
    trace = run_pr_spider_finite(suite, hp, seed, metrics_every=metrics_every)
    x0 = suite.initial_point
    g0 = sq_norm(suite.gradient(x0))
    # Rounding: a step's rows (x_new - c) - (x_old - c) round at the scale
    # of x - c, not of the move, so each step adds up to about 2**-52 times
    # that scale to the direction's error, and after k moves the gradient
    # norm is off by up to drift = k * 2**-52 * scale. Every iterate lies
    # between x0 and the grand mean, so ||x - c|| <= sqrt(g0) + ||x0 - c||.
    centers = np.concatenate([obj.centers for obj in suite.objectives])
    spread = np.max(np.sum((centers - x0) ** 2, axis=1))
    scale = math.sqrt(g0) + math.sqrt(spread)
    ks = [k for k in range(S * m) if k % metrics_every == 0]
    assert [(r.s, r.t) for r in trace.records] == [divmod(k, m) for k in ks]
    for k, r in zip(ks, trace.records):
        s, t = divmod(k, m)
        expected = (1.0 - gamma) ** (2 * k) * g0
        drift = k * 2.0**-52 * scale
        # (||g|| + drift)^2 - ||g||^2 on top of the relative allowance
        rounding = 2.0 * math.sqrt(expected) * drift + drift * drift
        if max(r.grad_sq, expected) > 1e-20:
            assert abs(r.grad_sq - expected) <= 1e-5 * expected + rounding, (s, t)
        assert r.consensus < 1e-25, (s, t)
        assert r.comm_rounds == 1 + s * ((m - 1) // I + 2) + t // I, (s, t)
        assert r.ifo_total == N * n + s * ((m - 1) * 2 * B + n) * N + t * 2 * B * N
    assert trace.comm_rounds == expected_comm_rounds(S, m, I)
    assert trace.ifo_total == expected_ifo_finite(S, m, B, n, N)


class TestDescentTrend:
    def test_epoch_end_objective_nonincreasing(self):
        # the epoch-end average is the next epoch's start record; averaged
        # over seeds it must not rise beyond two Monte-Carlo standard errors
        suite = quad_suite(N=4, n=64, d=8, heterogeneity=0.5, seed=30)
        hp = choose_params_finite(
            N=4, n=64, I=4, L=suite.smoothness,
            gap_bound=suite.initial_gap(), eps=0.1,
        )
        assert hp.S >= 3
        ends = []
        for seed in range(20):
            trace = run_pr_spider_finite(suite, hp, seed)
            ends.append([r.f_bar for r in trace.records if r.t == 0])
        ends = np.array(ends)
        means = ends.mean(axis=0)
        stderr = ends.std(axis=0, ddof=1) / math.sqrt(ends.shape[0]) + 1e-15
        for k in range(1, len(means)):
            assert means[k] <= means[k - 1] + 2 * stderr[k]


class TestBaselines:
    def test_single_worker_full_batch_is_exact_gd(self):
        suite = quad_suite(N=1, n=8)
        gamma = 0.2
        trace = run_parallel_minibatch_sgd(suite, gamma, batch=8, horizon=60, seed=0)
        grand = suite.objectives[0].centers.mean(axis=0)
        x = suite.initial_point.copy()
        for r in trace.records:
            assert r.grad_sq == pytest.approx(sq_norm(x - grand), abs=1e-12)
            x = x - gamma * (x - grand)

    def test_minibatch_comm_rounds_equal_iterations(self):
        suite = quad_suite()
        trace = run_parallel_minibatch_sgd(suite, 0.05, batch=2, horizon=37, seed=1)
        assert trace.comm_rounds == 37
        assert trace.ifo_total == 37 * 4 * 2

    def test_zero_step_size_stationary(self):
        suite = quad_suite()
        trace = run_parallel_minibatch_sgd(suite, 0.0, batch=1, horizon=5, seed=2)
        g0 = sq_norm(suite.gradient(suite.initial_point))
        assert trace.records[-1].fos == pytest.approx(g0, rel=1e-12)

    def test_period_one_reduces_to_minibatch_bitwise(self):
        suite = quad_suite()
        a = run_parallel_minibatch_sgd(suite, 0.05, batch=3, horizon=20, seed=3)
        b = run_parallel_restarted_sgd(suite, 0.05, batch=3, I=1, horizon=20, seed=3)
        assert list(a.csv_lines()) == list(b.csv_lines())

    def test_period_equal_horizon_is_one_shot(self):
        suite = quad_suite()
        trace = run_parallel_restarted_sgd(
            suite, 0.05, batch=2, I=25, horizon=25, seed=4
        )
        assert trace.comm_rounds == 1

    @pytest.mark.parametrize("I,horizon", [(1, 10), (3, 10), (4, 12), (7, 50)])
    def test_restarted_round_count(self, I, horizon):
        suite = quad_suite()
        trace = run_parallel_restarted_sgd(
            suite, 0.05, batch=1, I=I, horizon=horizon, seed=5
        )
        assert trace.comm_rounds == math.ceil(horizon / I)

    def test_consensus_between_syncs_then_zero(self):
        suite = quad_suite(heterogeneity=2.0)
        events = []

        def on_sync(s, t, payload, workers):
            x_bar = mean_reduce([w.x for w in workers])
            events.append(sum(sq_norm(w.x - x_bar) for w in workers))

        trace = run_parallel_restarted_sgd(
            suite, 0.05, batch=1, I=5, horizon=20, seed=6,
            hooks=RunHooks(on_sync=on_sync),
        )
        assert len(events) == 4 and max(events) == 0.0
        # between syncs local draws differ, so consensus is visible
        mid = [r.consensus for r in trace.records if r.t % 5 == 2]
        assert max(mid) > 0.0

    def test_divergence_detected(self):
        suite = quad_suite()
        with pytest.raises(DivergedError):
            run_parallel_minibatch_sgd(suite, 1e3, batch=16, horizon=500, seed=7)


def test_a_check_that_measures_nothing_fails():
    # no seeds, so no hook fires and no restart is measured
    for result in (check_consensus_zeroing(seeds=()), check_restart_identity(seeds=())):
        assert result.events == 0
        assert not result.passed


RUNNERS = {
    "pr-spider-finite": lambda suite, seed=0, **kw: run_pr_spider_finite(
        suite, HyperParams(gamma=1.0 / 16, I=2, m=6, B=2, S=3, N=4), seed, **kw
    ),
    "pr-spider-online": lambda suite, seed=1, **kw: run_pr_spider_online(
        suite, HyperParams(gamma=1.0 / 16, I=3, m=6, B=2, S=2, N=4, n_b=8),
        seed, **kw,
    ),
    "par-sgd": lambda suite, seed=2, **kw: run_parallel_minibatch_sgd(
        suite, 0.05, batch=2, horizon=7, seed=seed, **kw
    ),
    "par-restarted-sgd": lambda suite, seed=3, **kw: run_parallel_restarted_sgd(
        suite, 0.05, batch=2, I=3, horizon=10, seed=seed, **kw
    ),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_on_sync_fires_once_per_counted_round(name):
    # the initial gradient round of PR-SPIDER is a counted round too
    calls = []

    def on_sync(s, t, payload, workers):
        calls.append(payload)

    trace = RUNNERS[name](quad_suite(), hooks=RunHooks(on_sync=on_sync))
    assert trace.outcome == "completed"
    assert len(calls) == trace.comm_rounds > 0
    if name.startswith("pr-spider"):
        assert calls[0] == "gradients"


def spider_schedule(S, m, I):
    # the initial gradient round, then per epoch: a "both" round at every
    # t > 0 that I divides, before that t's record, and between epochs the
    # iterate round and the restart gradient round
    log = [("sync", 0, 0, "gradients")]
    for s in range(S):
        for t in range(m):
            if t > 0 and t % I == 0:
                log.append(("sync", s, t, "both"))
            log.append(("record", s, t))
        if s < S - 1:
            log += [("sync", s, m, "iterates"), ("sync", s, m, "gradients")]
    return log


def baseline_schedule(horizon, I):
    # an iterate round at every k > 0 that I divides and at the horizon,
    # before that k's record
    log = []
    for k in range(horizon + 1):
        if k > 0 and (k % I == 0 or k == horizon):
            log.append(("sync", 0, k, "iterates"))
        if k < horizon:
            log.append(("record", 0, k))
    return log


SCHEDULES = {
    # m % I != 0, S >= 2
    "spider-finite-m7-I3-S3": (
        lambda **kw: run_pr_spider_finite(
            quad_suite(), HyperParams(gamma=1.0 / 16, I=3, m=7, B=2, S=3, N=4),
            0, **kw,
        ),
        spider_schedule(3, 7, 3),
    ),
    "spider-finite-I1": (
        lambda **kw: run_pr_spider_finite(
            quad_suite(), HyperParams(gamma=1.0 / 16, I=1, m=4, B=2, S=2, N=4),
            1, **kw,
        ),
        spider_schedule(2, 4, 1),
    ),
    # I > m: no in-epoch round
    "spider-online-I-above-m": (
        lambda **kw: run_pr_spider_online(
            quad_suite(),
            HyperParams(gamma=1.0 / 16, I=5, m=3, B=2, S=3, N=4, n_b=8),
            2, **kw,
        ),
        spider_schedule(3, 3, 5),
    ),
    "par-sgd": (
        lambda **kw: run_parallel_minibatch_sgd(
            quad_suite(), 0.05, batch=2, horizon=7, seed=3, **kw
        ),
        baseline_schedule(7, 1),
    ),
    # horizon % I != 0: a trailing round at the horizon
    "par-restarted-sgd-trailing": (
        lambda **kw: run_parallel_restarted_sgd(
            quad_suite(), 0.05, batch=2, I=4, horizon=10, seed=4, **kw
        ),
        baseline_schedule(10, 4),
    ),
    "par-restarted-sgd-I-above-horizon": (
        lambda **kw: run_parallel_restarted_sgd(
            quad_suite(), 0.05, batch=2, I=9, horizon=5, seed=5, **kw
        ),
        baseline_schedule(5, 9),
    ),
}


@pytest.mark.parametrize("metrics_every", [1, 3])
@pytest.mark.parametrize("case", sorted(SCHEDULES))
def test_hooks_follow_the_schedule(case, metrics_every):
    # on_record fires at every iteration whatever the metrics cadence
    run, expected = SCHEDULES[case]
    log = []
    hooks = RunHooks(
        on_record=lambda s, t, workers: log.append(("record", s, t)),
        on_sync=lambda s, t, payload, workers: log.append(("sync", s, t, payload)),
    )
    trace = run(metrics_every=metrics_every, hooks=hooks)
    assert trace.outcome == "completed"
    assert log == expected
    records = sum(e[0] == "record" for e in expected)
    assert trace.comm_rounds == len(expected) - records
    assert len(trace.records) == -(-records // metrics_every)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_worker_vectors_at_every_record(name):
    # a worker is its iterate and, in PR-SPIDER, the finite direction its
    # next move takes; the baselines hold no direction
    spider = name.startswith("pr-spider")
    seen = []

    def on_record(s, t, workers):
        for w in workers:
            assert not hasattr(w, "x_prev")
            if spider:
                seen.append(w.v.shape == w.x.shape and np.isfinite(w.v).all())
            else:
                seen.append(w.v is None)

    trace = RUNNERS[name](quad_suite(), hooks=RunHooks(on_record=on_record))
    assert trace.outcome == "completed"
    assert seen and all(seen)


SUITES = {
    "quadratic": quad_suite,
    "sigmoid": lambda: make_nonconvex_suite(
        N=4, n=64, d=4, heterogeneity=0.5, seed=9
    ),
    "sigmoid-online": lambda: make_nonconvex_suite(
        N=4, n="online", d=4, heterogeneity=0.5, seed=8, online_pool=32
    ),
}


# every runner on every suite family; PR-SPIDER's finite sampling needs a
# finite suite
RUNS = [
    (name, family)
    for name in sorted(RUNNERS)
    for family in sorted(SUITES)
    if (name, family) != ("pr-spider-finite", "sigmoid-online")
]


@pytest.mark.parametrize("name, family", RUNS)
def test_concurrent_runs_over_one_suite_match_serial_runs(name, family):
    # workers step on the thread that runs them, so runs on separate threads
    # are what share one suite's data, caches and kernel scratch at once;
    # each run's hooks see its own workers, in its own schedule
    suite = SUITES[family]()

    def iterates(workers):
        return b"".join(w.x.tobytes() for w in workers)

    def run(seed):
        log = []
        hooks = RunHooks(
            on_record=lambda s, t, workers: log.append(
                ("record", s, t, iterates(workers))
            ),
            on_sync=lambda s, t, payload, workers: log.append(
                ("sync", s, t, payload, iterates(workers))
            ),
        )
        trace = RUNNERS[name](suite, seed, hooks=hooks)
        assert trace.outcome == "completed"
        return list(trace.csv_lines()), log

    serial = [run(seed) for seed in range(4)]
    # runs that differ, so one that took another's state would show
    assert len({tuple(lines) for lines, _ in serial}) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, seed) for seed in range(4)]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _held(value, alive):
    # what an attribute holds: its identity, an array's bytes, a container's
    # items; ``alive`` keeps each object, so no id is reused
    alive.append(value)
    if isinstance(value, np.ndarray):
        return id(value), value.tobytes()
    if isinstance(value, (list, tuple)):
        return id(value), [_held(v, alive) for v in value]
    if isinstance(value, dict):
        return id(value), {k: _held(v, alive) for k, v in value.items()}
    return id(value)


@pytest.mark.parametrize("name, family", RUNS)
def test_runs_leave_the_suite_as_they_found_it(name, family):
    # every attribute of the suite, its objectives and its analytic
    # evaluator holds the same objects and bytes after a run
    suite = SUITES[family]()
    alive = []

    def state():
        owners = [suite, suite.analytic, *suite.objectives]
        return [
            {key: _held(value, alive) for key, value in vars(owner).items()}
            for owner in owners
        ]

    before = state()
    assert RUNNERS[name](suite).outcome == "completed"
    assert state() == before


def test_pending_records_take_no_more_memory_than_records_made_one_by_one():
    # a point of this suite is 16 entries, so CHUNK_ENTRIES alone would keep
    # 512 records pending, about 2 KiB of Python objects each
    hp = HyperParams(gamma=0.03, I=4, m=128, B=2, S=8, N=4)

    def peak(chunk=None):
        suite = make_quadratic_suite(N=4, n=16, d=4, heterogeneity=0.5, seed=7)
        if chunk is not None:
            suite.analytic.chunk = chunk
        run_pr_spider_finite(suite, hp, 0)
        tracemalloc.start()
        try:
            run_pr_spider_finite(suite, hp, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() <= 1.2 * peak(1)
