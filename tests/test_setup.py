"""Quadratic suite set-up: streamed passes against the whole-array formulas."""

from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prspider import problems
from prspider.algorithms import HyperParams, run_pr_spider_finite
from prspider.numerics import ordered_sum, sq_norms
from prspider.problems import (
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)

# sample counts at the block edges (32 rows), plus one over three blocks
SAMPLE_COUNTS = st.sampled_from([1, 31, 32, 33, 100])
DIMS = st.sampled_from([1, 2, 64])
WORKERS = st.sampled_from([1, 3])


def _reference_stats(centers):
    """Center means, spreads, deviation bounds, grand mean: whole arrays."""
    N, n, d = centers.shape
    grand_mean = centers.reshape(-1, d).mean(axis=0)
    means, spreads, bounds = [], [], []
    for c in centers:
        mean = c.mean(axis=0)
        means.append(mean)
        spreads.append(float(np.mean(np.sum((c - mean) ** 2, axis=1))))
        dev_sq = float(np.mean(np.sum((c - grand_mean) ** 2, axis=1)))
        bounds.append(math.sqrt(dev_sq))
    means = np.array(means)
    # the averaged quadratic's value at its minimum, the grand mean
    values = 0.5 * sq_norms(grand_mean - means) + 0.5 * np.array(spreads)
    optimum = ordered_sum(values) / N
    return means, spreads, bounds, grand_mean, optimum


def _reference_generated(N, n, d, heterogeneity, seed, spread, initial_offset):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = 1.0 / math.sqrt(d)
    worker_means = heterogeneity * rng.normal(0.0, scale, size=(N, d))
    centers = rng.normal(0.0, scale, size=(N, n, d))
    centers *= spread
    centers += worker_means[:, None, :]
    stats = _reference_stats(centers)
    offset = rng.normal(0.0, scale, size=d)
    if initial_offset is not None:
        norm = math.sqrt(float(np.dot(offset, offset)))
        offset = offset * (math.sqrt(initial_offset) / norm)
    return centers, stats, stats[3] + offset


def _assert_suite_bitwise(suite, centers, stats, initial_point):
    means, spreads, bounds, _, optimum = stats
    assert len(suite.objectives) == centers.shape[0]
    analytic = suite.analytic
    for i, obj in enumerate(suite.objectives):
        assert obj.centers.tobytes() == centers[i].tobytes()
        assert analytic.center_means[i].tobytes() == means[i].tobytes()
        assert analytic.spread_sq[i].hex() == spreads[i].hex()
        assert obj.variance_bound.hex() == bounds[i].hex()
    assert suite.optimum_value.hex() == optimum.hex()
    assert suite.initial_point.tobytes() == initial_point.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    N=WORKERS,
    n=SAMPLE_COUNTS,
    d=DIMS,
    seed=st.integers(0, 2**32 - 1),
    heterogeneity=st.sampled_from([0.0, 0.5, 3.0]),
    spread=st.sampled_from([0.0, 1.0, 0.3]),
    initial_offset=st.sampled_from([None, 0.0, 2.5]),
)
def test_generated_suite_matches_whole_array_formulas_bitwise(
    N, n, d, seed, heterogeneity, spread, initial_offset
):
    suite = make_quadratic_suite(
        N, n, d, heterogeneity, seed, center_spread=spread,
        initial_offset=initial_offset,
    )
    centers, stats, initial_point = _reference_generated(
        N, n, d, heterogeneity, seed, spread, initial_offset
    )
    _assert_suite_bitwise(suite, centers, stats, initial_point)


@settings(max_examples=60, deadline=None)
@given(N=WORKERS, n=SAMPLE_COUNTS, d=DIMS, seed=st.integers(0, 2**32 - 1))
def test_explicit_suite_matches_whole_array_formulas_bitwise(N, n, d, seed):
    rng = np.random.default_rng(seed)
    # magnitudes over 16 decades, so any change of summation order shows
    centers = rng.normal(size=(N, n, d)) * 10.0 ** rng.uniform(-8, 8, (N, n, d))
    centers[rng.random((N, n, d)) < 0.2] = -0.0
    initial_point = rng.normal(size=d)
    suite = quadratic_suite_from_centers(centers, initial_point)
    stats = _reference_stats(centers)
    _assert_suite_bitwise(suite, centers, stats, initial_point)


def _fortran(a):
    return np.asfortranarray(a)


def _transposed(a):
    return np.ascontiguousarray(a.transpose(2, 0, 1)).transpose(1, 2, 0)


def _strided(a):
    wide = np.zeros((a.shape[0], 2 * a.shape[1], a.shape[2]))
    wide[:, ::2] = a
    return wide[:, ::2]


@pytest.mark.parametrize("layout", [_fortran, _transposed, _strided])
def test_explicit_suite_takes_centers_in_any_memory_layout(layout):
    # the factory's own copy is C-ordered, whatever the caller's layout;
    # n spans several blocks, so the carried sums see every layout
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(3, 70, 5)) * 10.0 ** rng.uniform(-8, 8, (3, 70, 5))
    initial_point = rng.normal(size=5)
    held = layout(centers)
    assert not held.flags.c_contiguous and np.array_equal(held, centers)
    suite = quadratic_suite_from_centers(held, initial_point)
    _assert_suite_bitwise(suite, centers, _reference_stats(centers), initial_point)
    assert held.tobytes() == centers.tobytes()


@pytest.mark.parametrize("shape", [(0, 4, 2), (2, 0, 2), (2, 4, 0), (4, 2)])
def test_explicit_centers_need_three_nonempty_axes(shape):
    with pytest.raises(ValueError, match="centers must have shape"):
        quadratic_suite_from_centers(np.ones(shape), np.zeros(2))


def test_setup_allocates_no_dataset_sized_temporary():
    N, n, d = 2, 4096, 256
    dataset = N * n * d * 8  # 16 MiB of centers
    tracemalloc.start()
    try:
        suite = make_quadratic_suite(N, n, d, 0.5, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert suite.objectives[1].centers.nbytes * N == dataset
    assert peak <= dataset + 2**20


@pytest.mark.parametrize(
    "factory", [quadratic_suite_from_centers, sigmoid_suite_from_params]
)
def test_explicit_suite_holds_its_dataset_once(factory):
    N, n, d = 4, 1024, 64
    rng = np.random.default_rng(2)
    if factory is quadratic_suite_from_centers:
        data = {"centers": rng.normal(size=(N, n, d))}
    else:
        data = {
            "features": rng.uniform(-0.125, 0.125, size=(N, n, d)),
            "offsets": rng.uniform(-0.2, 0.2, size=(N, n)),
        }
    tracemalloc.start()
    try:
        suite = factory(*data.values(), np.zeros(d))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for key, array in data.items():
        assert suite.config[key].tolist() == array.tolist()
    assert held <= sum(a.nbytes for a in data.values()) + 2**20


class _StubGenerator:
    """Hands ``standard_normal(out=)`` chosen values, one row per call."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, out):
        out[...] = self.z[:, None]


@pytest.mark.parametrize("spread", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("scale", [1.0, 1.0 / math.sqrt(7)])
def test_center_draws_finish_as_normal_does(spread, scale):
    # ``normal`` gives 0.0 + scale * z, which turns z = -0.0 into +0.0; a
    # test against rng.normal all but never meets that draw
    z = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.7, -1.3, 2.5]
    means = [-0.0, 0.0, 1.5, -2.25, 5e-324]
    out = np.empty((len(z), len(means)))
    problems._draw_centers(
        _StubGenerator(np.array(z)), out, scale, spread, np.array(means)
    )
    for row, zi in zip(out.tolist(), z):
        for got, w in zip(row, means):
            assert got.hex() == ((0.0 + scale * zi) * spread + w).hex()


@pytest.fixture
def distance_calls(monkeypatch):
    """Each ``_mean_sq_distances`` call's point count, in call order."""
    calls = []
    real = problems._mean_sq_distances

    def counted(centers, *points):
        calls.append(len(points))
        return real(centers, *points)

    monkeypatch.setattr(problems, "_mean_sq_distances", counted)
    return calls


def test_sigma_is_a_pure_read(distance_calls):
    N, n, d = 3, 70, 8
    suite = make_quadratic_suite(N, n, d, 0.5, 11)
    assert distance_calls == [1] * N  # the spreads' pass
    hp = HyperParams(gamma=0.1, I=2, m=4, B=3, S=2, N=N)
    run_pr_spider_finite(suite, hp, seed=0)
    assert len(distance_calls) == N  # a run reads no sigma
    _, stats, _ = _reference_generated(N, n, d, 0.5, 11, 1.0, None)
    before = [dict(vars(o)) for o in suite.objectives]
    for reads in (1, 2):
        # each read is one pass over every worker's centers, and keeps nothing
        assert suite.variance_bound.hex() == max(stats[2]).hex()
        assert distance_calls == [1] * ((1 + reads) * N)
    assert [o.variance_bound.hex() for o in suite.objectives] == [
        b.hex() for b in stats[2]
    ]
    for obj, attrs in zip(suite.objectives, before):
        assert vars(obj).keys() == attrs.keys()
        assert all(vars(obj)[k] is v for k, v in attrs.items())


def test_concurrent_first_reads_of_sigma_agree(monkeypatch):
    N, n, d = 2, 100, 64
    suite = make_quadratic_suite(N, n, d, 3.0, 5)
    _, stats, _ = _reference_generated(N, n, d, 3.0, 5, 1.0, None)
    real = problems._mean_sq_distances
    both_inside = threading.Barrier(2)
    first = threading.local()

    def meet_then_compute(centers, *points):
        # both threads start worker 0's sigma before either stores it
        if not getattr(first, "done", False):
            first.done = True
            both_inside.wait(timeout=10)
        return real(centers, *points)

    monkeypatch.setattr(problems, "_mean_sq_distances", meet_then_compute)
    reads = [None, None]

    def read(k):
        reads[k] = [o.variance_bound for o in suite.objectives]

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert [[s.hex() for s in r] for r in reads] == [
        [b.hex() for b in stats[2]]
    ] * 2
