"""Blocked oracle kernels and the shared read-only data behind them."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prspider.algorithms import HyperParams, run_pr_spider_finite
from prspider.harness import RunHooks
from prspider.problems import (
    BLOCK_ROWS,
    LocalObjective,
    Meter,
    QuadraticObjective,
    SigmoidObjective,
    make_nonconvex_suite,
    make_quadratic_suite,
)

METERED = ("batch_gradient_mean", "pair_difference_mean", "full_gradient")

# batch sizes at the block edges, plus a spread of others
BATCH_SIZES = st.one_of(
    st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]),
    st.integers(1, 3 * BLOCK_ROWS + 3),
)


def _wide(rng, shape):
    # magnitudes over 16 decades, so any change of summation order shows
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 7, 16]),
    n=st.integers(1, 3 * BLOCK_ROWS + 5),
    B=BATCH_SIZES,
    hit_center=st.booleans(),
)
def test_blocked_quadratic_kernels_match_row_formula_bitwise(
    seed, d, n, B, hit_center
):
    rng = np.random.default_rng(seed)
    centers = _wide(rng, (n, d))
    # zero coordinates against a -0.0 iterate give signed-zero rows
    centers[rng.random((n, d)) < 0.2] = 0.0
    idx = rng.integers(0, n, size=B)
    x_new, x_old = _wide(rng, d), _wide(rng, d)
    x_new[rng.random(d) < 0.3] = -0.0
    if hit_center:
        x_new = centers[idx[0]].copy()
        x_old[:] = centers[idx[-1]]
    obj = QuadraticObjective(0, centers)
    gathered = centers[idx]
    meter = Meter(1)

    pair = obj.pair_difference_mean(x_new, x_old, idx, meter)
    assert meter.total == 2 * B
    rows = (x_new[None, :] - gathered) - (x_old[None, :] - gathered)
    ref = rows.mean(axis=0)
    assert pair.tobytes() == ref.tobytes()

    batch = obj.batch_gradient_mean(x_new, idx, meter)
    assert meter.total == 3 * B
    ref = (x_new[None, :] - gathered).mean(axis=0)
    assert batch.tobytes() == ref.tobytes()

    full = obj.full_gradient(x_new, meter)
    assert meter.total == 3 * B + n
    ref = (x_new[None, :] - centers[np.arange(n)]).mean(axis=0)
    assert full.tobytes() == ref.tobytes()


def test_sigmoid_pair_kernel_matches_per_point_gradients():
    suite = make_nonconvex_suite(N=1, n=64, d=5, heterogeneity=0.5, seed=2)
    obj = suite.objectives[0]
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 64, size=BLOCK_ROWS + 9)
    x_new, x_old = rng.normal(size=5), rng.normal(size=5)
    ref = (
        obj._sample_gradients(x_new, idx) - obj._sample_gradients(x_old, idx)
    ).mean(axis=0)
    meter = Meter(1)
    got = obj.pair_difference_mean(x_new, x_old, idx, meter)
    assert got.tobytes() == ref.tobytes()
    assert meter.total == 2 * idx.size


def test_out_of_range_sample_index_raises():
    obj = QuadraticObjective(0, np.zeros((4, 3)))
    x = np.zeros(3)
    for bad in ([0, 4], [-5]):
        with pytest.raises(IndexError):
            obj.pair_difference_mean(x, x, bad)
        with pytest.raises(IndexError):
            obj.batch_gradient_mean(x, bad)
    # negative indices count from the end, as in ``centers[idx]``
    centers = np.arange(12.0).reshape(4, 3)
    obj = QuadraticObjective(0, centers)
    got = obj.batch_gradient_mean(x, [-1, 0])
    assert got.tobytes() == (x - centers[[-1, 0]]).mean(axis=0).tobytes()


def test_families_override_hooks_not_metered_oracles():
    # the metered methods own the charging, and tracers patch them on the
    # base class only
    for cls in (QuadraticObjective, SigmoidObjective):
        for name in METERED:
            assert name not in vars(cls)
            assert getattr(cls, name) is getattr(LocalObjective, name)


class TestSharedData:
    def _run(self, suite, seed, parallel=False, hooks=None):
        hp = HyperParams(
            gamma=0.1, I=2, m=6, B=BLOCK_ROWS + 3, S=2, N=suite.num_workers
        )
        return run_pr_spider_finite(
            suite, hp, seed, parallel=parallel, hooks=hooks
        )

    def test_run_shares_data_and_leaves_input_counters_alone(self):
        # a run works on the suite's own objectives and charges its oracle
        # calls to its own meter (TestSpiderFinite checks the objectives
        # come back unchanged)
        suite = make_quadratic_suite(N=3, n=80, d=4, heterogeneity=0.5, seed=1)
        seen = []

        def on_record(s, t, workers):
            seen.append([w.obj for w in workers])

        trace = self._run(suite, 0, hooks=RunHooks(on_record=on_record))
        for i, obj in enumerate(suite.objectives):
            assert all(objs[i] is obj for objs in seen)
        assert trace.ifo_total > 0

    def test_threaded_runs_match_serial_runs(self):
        suite = make_quadratic_suite(N=2, n=70, d=5, heterogeneity=0.5, seed=3)
        serial = [self._run(suite, seed).to_csv() for seed in range(4)]
        # more runs than cores, switching threads often, over one suite
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(self._run, suite, seed, parallel=seed % 2 == 1)
                    for seed in range(4)
                ]
                threaded = [f.result(timeout=60).to_csv() for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_data_arrays_are_read_only(self):
        quad = make_quadratic_suite(N=1, n=4, d=2, heterogeneity=0.0, seed=0)
        sig = make_nonconvex_suite(N=1, n=4, d=2, heterogeneity=0.0, seed=0)
        arrays = [
            quad.objectives[0].centers,
            quad.objectives[0].center_mean,
            sig.objectives[0].features,
            sig.objectives[0].offsets,
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_caller_array_stays_writable(self):
        centers = np.ones((4, 3))
        features, offsets = np.ones((4, 3)), np.zeros(4)
        quad = QuadraticObjective(0, centers)
        sig = SigmoidObjective(0, features, offsets)
        for mine, theirs in (
            (centers, quad.centers),
            (features, sig.features),
            (offsets, sig.offsets),
        ):
            assert np.shares_memory(mine, theirs)
            assert mine.flags.writeable
            mine[0] = 2.0
