"""Quadratic suite set-up: streamed passes against the whole-array formulas."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prspider.numerics import ordered_sum, sq_norms
from prspider.problems import (
    QuadraticObjective,
    make_quadratic_suite,
    quadratic_suite_from_centers,
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
    for i, obj in enumerate(suite.objectives):
        assert obj.centers.tobytes() == centers[i].tobytes()
        assert obj.center_mean.tobytes() == means[i].tobytes()
        assert obj.center_spread_sq.hex() == spreads[i].hex()
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
    # an objective built on its own computes the same statistics
    for i, obj in enumerate(suite.objectives):
        alone = QuadraticObjective(i, centers[i])
        assert alone.center_mean.tobytes() == obj.center_mean.tobytes()
        assert alone.center_spread_sq.hex() == obj.center_spread_sq.hex()


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
