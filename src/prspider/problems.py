"""Synthetic objective suites with exact oracle metadata.

Two families are provided:

* ``quadratic`` -- per-sample losses ``0.5 * ||x - c||^2`` around drawn
  centers. Gradient-Lipschitz modulus is exactly 1, the optimum value is
  known in closed form, and the worker-vs-global gradient deviation is a
  constant computable exactly from the drawn centers.
* ``sigmoid`` -- bounded nonconvex regression losses ``phi(<a, x> - b)``
  with ``phi(t) = t^2 / (1 + t^2)``. The advertised Lipschitz modulus is
  ``max|phi''| * max ||a||^2 = 2 * max ||a||^2`` and the deviation bound
  follows from ``max|phi'| = 3*sqrt(3)/8`` and the compact draw of the
  ``a`` vectors, so both hold uniformly rather than just empirically.

Objectives hold data, never run state. Each metered oracle takes the
run's ``Meter`` and charges the samples it evaluated to the owning worker's
row; called without one it charges nothing. The analytic mean-value /
mean-gradient oracles used for metrics are free.

The metered batch means sum their per-sample rows in index order, the
order ``rows.mean(axis=0)`` uses, so they match the row-materialising
formula bit for bit. The quadratic kernels and the sigmoid restart
gradients get there without materialising the rows: they walk the batch in
blocks of rows (``BLOCK_ROWS`` for the quadratic kernels, the same bytes
for the sigmoid ones), gather each sample once per block and carry the
running sum from block to block.

The analytic oracles behind ``ProblemSuite.value``/``gradient`` evaluate
all workers at once, as one stacked ``np.matmul`` over worker-stacked data
that the suite factories share with the objectives. Each worker's slice
goes through the same BLAS call as its own ``mean_value``/
``mean_gradient``, so the results are the same bits.

Data arrays (centers, features, offsets) are read-only, so any number of
runs, serial or concurrent, can share one suite.

A quadratic suite is set up in two streamed passes over row blocks, with
no dataset-sized temporaries: one draws the centers block by block into
the one array that holds them and carries the per-worker and grand row
sums, and one reads them back for the spreads around both means. Draws,
means and spreads equal the whole-array formulas bit for bit.

Online suites expose a sampler only. Internally the sampler draws from a
finite atom pool, which is what makes the analytic expectation oracles
exact; the pool is not enumerable through the public sample-id surface.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    ParamVector,
    as_vector,
    mean_reduce,
    ordered_sum,
    sq_norm,
    sq_norms,
)

__all__ = [
    "UnsupportedOperationError",
    "Meter",
    "LocalObjective",
    "QuadraticObjective",
    "SigmoidObjective",
    "ProblemSuite",
    "PerWorkerAnalytic",
    "QuadraticAnalytic",
    "SigmoidAnalytic",
    "make_quadratic_suite",
    "make_nonconvex_suite",
    "quadratic_suite_from_centers",
    "sigmoid_suite_from_params",
    "PHI_GRAD_MAX",
    "PHI_CURV_MAX",
]


class UnsupportedOperationError(RuntimeError):
    """Raised when an oracle is asked for something its kind cannot do."""


# Extrema of phi(t) = t^2/(1+t^2): |phi'| peaks at 3*sqrt(3)/8 (t=1/sqrt(3)),
# |phi''| peaks at 2 (t=0).
PHI_GRAD_MAX = 3.0 * math.sqrt(3.0) / 8.0
PHI_CURV_MAX = 2.0

# Phases of a run that a Meter tells apart, in the order it reports them.
PHASES = ("init", "inner", "refresh")

# Rows per kernel block: at d=2048 a block of float64 rows is 512 KiB, so
# the gather buffer and the row buffer fit a 2 MiB L2 together.
BLOCK_ROWS = 32


def sigmoid_block_rows(dim: int) -> int:
    """Rows per sigmoid restart block: ``BLOCK_ROWS`` rows of d=2048 in bytes.

    A sigmoid block costs a dozen numpy calls whatever its height, so at
    small d it holds more rows. The height stays a multiple of
    ``BLOCK_ROWS``, which keeps each row in the same BLAS gemv row group
    as in the whole batch; and a block of 64 Ki entries stays below the
    size at which OpenBLAS splits a gemv across threads, so its bits do
    not depend on the thread count.
    """
    return BLOCK_ROWS * max(1, 2048 // dim)


def _read_only(array: np.ndarray) -> np.ndarray:
    """Read-only view of ``array``; the caller's array stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


def _block_edges(count: int, dim: int, rows: int) -> list[int]:
    """Edges ``0, ..., count`` of the row blocks of a batch mean.

    Blocks hold ``rows`` rows, with two exceptions. numpy sums a lone
    column pairwise rather than in order, so a d=1 batch stays one block.
    And a lone last row joins the block before it: BLAS takes a one-row
    product through its dot, not through the gemv kernel that multiplies
    the same row inside a taller matrix, and the two can differ in the last
    bit.
    """
    if count < 1:
        raise ValueError("a batch mean needs at least one sample")
    if dim == 1:
        return [0, count]
    edges = list(range(0, count, rows)) + [count]
    if len(edges) > 2 and count - edges[-2] == 1:
        del edges[-2]
    return edges


def _block_height(edges: list[int]) -> int:
    """Rows in the tallest block between ``edges``."""
    return max(hi - lo for lo, hi in zip(edges, edges[1:]))


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """``rows.mean(axis=0)``, bit for bit, without its Python wrapper."""
    return np.add.reduce(rows, axis=0) / rows.shape[0]


def _check_indices(idx: np.ndarray, n: int) -> None:
    # checked once per call, so block gathers can take mode="wrap": under
    # the default mode="raise", np.take works in a copy of its ``out``
    # buffer and copies it back
    if idx.size and (idx.min() < -n or idx.max() >= n):
        raise IndexError(f"sample index out of range for {n} samples")


def _carry_sum(
    buf: np.ndarray, rows: int, acc: np.ndarray, first: bool
) -> None:
    """Add the block ``buf[1 : 1 + rows]`` to the running row sum ``acc``.

    Rows are summed in index order, bit for bit as ``np.add.reduce`` sums a
    whole C-ordered batch of d >= 2 columns: the first block is reduced on
    its own, and row 0 of ``buf`` carries the running sum into each later
    block.
    """
    if first:
        np.add.reduce(buf[1 : 1 + rows], axis=0, out=acc)
    else:
        buf[0] = acc
        np.add.reduce(buf[: 1 + rows], axis=0, out=acc)


def _blocked_mean(
    count: int, dim: int, fill, rows: int = BLOCK_ROWS
) -> np.ndarray:
    """Mean of ``count`` rows that ``fill(lo, hi, out)`` writes by blocks.

    ``fill`` writes rows ``lo:hi`` into ``out``, one block at a time, and
    the rows are summed in index order (``_carry_sum``), bit for bit as
    ``rows.mean(axis=0)`` sums them.
    """
    edges = _block_edges(count, dim, rows)
    buf = np.empty((_block_height(edges) + 1, dim))
    acc = np.empty(dim)
    for lo, hi in zip(edges, edges[1:]):
        fill(lo, hi, buf[1 : 1 + hi - lo])
        _carry_sum(buf, hi - lo, acc, first=not lo)
    return acc / count


def _center_means(
    centers: np.ndarray, fill=None
) -> tuple[np.ndarray, np.ndarray]:
    """Each worker's center mean and the grand mean of (N, n, d) centers.

    The set-up's first pass: one walk over each worker's rows, a block at a
    time. ``fill(i, out)``, when given, writes the next block of worker
    ``i``'s rows into ``out`` and the block is stored into ``centers``;
    otherwise the blocks are read from ``centers``. Both means sum rows in
    index order (``_carry_sum``), bit for bit as ``centers[i].mean(axis=0)``
    and ``centers.reshape(-1, d).mean(axis=0)`` do.
    """
    N, n, d = centers.shape
    edges = _block_edges(n, d, BLOCK_ROWS)
    buf = np.empty((_block_height(edges) + 1, d))
    sums = np.empty((N, d))
    total = np.empty(d)
    for i in range(N):
        for lo, hi in zip(edges, edges[1:]):
            block = buf[1 : 1 + hi - lo]
            if fill is None:
                block[...] = centers[i, lo:hi]
            else:
                fill(i, block)
                centers[i, lo:hi] = block
            _carry_sum(buf, hi - lo, sums[i], first=not lo)
            if d > 1:
                _carry_sum(buf, hi - lo, total, first=not (i or lo))
    if d == 1:
        # a lone column is summed pairwise, not in order, so it is reduced
        # whole (each worker's already is: its rows are one block)
        total = np.add.reduce(centers.reshape(-1, 1), axis=0)
    return sums / n, total / (N * n)


def _mean_sq_distances(centers: np.ndarray, *points) -> list[float]:
    """``np.mean(np.sum((centers - p) ** 2, axis=1))`` for each point ``p``.

    The set-up's second pass: one read of the (n, d) centers, a block of
    rows at a time. Each block's per-row sums go into an (n,) vector per
    point, and each vector is averaged whole, so the results are the
    formula's bits without its (n, d) temporary.
    """
    n, d = centers.shape
    diff = np.empty((min(n, BLOCK_ROWS), d))
    row_sums = np.empty((len(points), n))
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        block = diff[: hi - lo]
        for point, out in zip(points, row_sums):
            np.subtract(centers[lo:hi], point, out=block)
            np.square(block, out=block)
            np.add.reduce(block, axis=1, out=out[lo:hi])
    return [float(np.mean(sums)) for sums in row_sums]


class Meter:
    """Oracle calls of one run, per worker and phase.

    The runner sets ``phase`` between dispatches. Each worker charges only
    its own row, so workers stepping on a thread pool need no lock.
    """

    def __init__(self, num_workers: int):
        self.phase = PHASES[0]
        self.rows = [dict.fromkeys(PHASES, 0) for _ in range(num_workers)]

    def charge(self, worker: int, amount: int) -> None:
        self.rows[worker][self.phase] += int(amount)

    @property
    def total(self) -> int:
        return sum(sum(row.values()) for row in self.rows)

    def breakdown(self) -> dict:
        """Calls per phase over all workers, in ``PHASES`` order."""
        return {p: sum(row[p] for row in self.rows) for p in PHASES}


class LocalObjective:
    """One worker's cost function plus its metered per-sample oracles.

    ``sample_count`` is ``None`` for online objectives, which then expose
    sampling only. ``smoothness`` and ``variance_bound`` are the advertised
    L and sigma; both are certified by the randomized test suite.
    """

    kind = "abstract"

    def __init__(
        self,
        worker_id: int,
        dim: int,
        sample_count: int | None,
        pool_size: int,
        smoothness: float,
        variance_bound: float,
    ):
        self.worker_id = worker_id
        self.dim = dim
        self.sample_count = sample_count
        self.smoothness = smoothness
        self.variance_bound = variance_bound
        self._pool_size = pool_size

    @property
    def is_finite_sum(self) -> bool:
        return self.sample_count is not None

    def _charge(self, meter: Meter | None, amount: int) -> None:
        if meter is not None:
            meter.charge(self.worker_id, amount)

    # -- sampling ---------------------------------------------------------

    def draw_indices(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. sample indices (with replacement)."""
        return gen.integers(0, self._pool_size, size=int(size))

    def _resolve_sample(self, sample) -> np.ndarray:
        if isinstance(sample, np.random.Generator):
            return self.draw_indices(sample, 1)
        if not self.is_finite_sum:
            raise UnsupportedOperationError(
                "online objective accepts a generator, not a sample id"
            )
        s = int(sample)
        if not 0 <= s < self.sample_count:
            raise ValueError(
                f"sample id {s} out of range [0, {self.sample_count})"
            )
        return np.array([s])

    # -- metered oracle surface --------------------------------------------
    # Each cost below is charged to ``meter``, when one is given.

    def stochastic_eval(
        self, x: ParamVector, sample, meter: Meter | None = None
    ) -> tuple[float, ParamVector]:
        """One oracle access: the (value, gradient) pair for one sample."""
        idx = self._resolve_sample(sample)
        value = float(self._sample_values(x, idx)[0])
        grad = self._sample_gradients(x, idx)[0]
        self._charge(meter, 1)
        return value, grad

    def stochastic_gradient(
        self, x: ParamVector, sample, meter: Meter | None = None
    ) -> ParamVector:
        """Gradient of one sample; costs exactly one oracle access."""
        idx = self._resolve_sample(sample)
        grad = self._sample_gradients(x, idx)[0]
        self._charge(meter, 1)
        return grad

    def batch_gradient_mean(
        self, x: ParamVector, indices, meter: Meter | None = None
    ) -> ParamVector:
        """Mean gradient over a drawn batch; costs ``len(indices)``."""
        idx = np.asarray(indices)
        grad = self._gradient_mean(x, idx)
        self._charge(meter, idx.shape[0])
        return grad

    def pair_difference_mean(
        self,
        x_new: ParamVector,
        x_old: ParamVector,
        indices,
        meter: Meter | None = None,
    ) -> ParamVector:
        """Mean of per-sample gradient differences over a shared batch.

        Each sample is evaluated at both points, so the cost is
        ``2 * len(indices)``. The difference is formed row-wise before
        averaging: equal inputs give an exactly zero result.
        """
        idx = np.asarray(indices)
        delta = self._pair_difference_mean(x_new, x_old, idx)
        self._charge(meter, 2 * idx.shape[0])
        return delta

    def full_gradient(
        self, x: ParamVector, meter: Meter | None = None
    ) -> ParamVector:
        """Exact local gradient by one pass over all samples; costs n."""
        if not self.is_finite_sum:
            raise UnsupportedOperationError(
                "full gradient requires an enumerable sample set"
            )
        grad = self._gradient_mean(x, None)
        self._charge(meter, self.sample_count)
        return grad

    # -- analytic oracles (metrics only, never metered) ---------------------

    def mean_value(self, x: ParamVector) -> float:
        raise NotImplementedError

    def mean_gradient(self, x: ParamVector) -> ParamVector:
        raise NotImplementedError

    # -- family internals ----------------------------------------------------
    # Families override these hooks, never the metered methods above, which
    # own the charging.

    def _sample_values(self, x: ParamVector, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _sample_gradients(self, x: ParamVector, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gradient_mean(
        self, x: ParamVector, idx: np.ndarray | None
    ) -> ParamVector:
        """Mean gradient over ``idx``, or over every sample when it is None."""
        if idx is None:
            idx = np.arange(self.sample_count)
        return _row_mean(self._sample_gradients(x, idx))

    def _pair_difference_mean(
        self, x_new: ParamVector, x_old: ParamVector, idx: np.ndarray
    ) -> ParamVector:
        g_new = self._sample_gradients(x_new, idx)
        g_old = self._sample_gradients(x_old, idx)
        return _row_mean(g_new - g_old)


class QuadraticObjective(LocalObjective):
    """Average of ``0.5 * ||x - c_j||^2`` over per-sample centers.

    ``stats`` is ``(center_mean, center_spread_sq)`` when the caller has
    them from its own passes over ``centers``; without it the objective
    computes the same bits itself.
    """

    kind = "quadratic"

    def __init__(self, worker_id: int, centers: np.ndarray, stats=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        centers = _read_only(centers)
        n, d = centers.shape
        super().__init__(
            worker_id,
            dim=d,
            sample_count=n,
            pool_size=n,
            smoothness=1.0,
            variance_bound=0.0,  # assigned by the suite factory
        )
        if stats is None:
            center_mean = centers.mean(axis=0)
            [spread_sq] = _mean_sq_distances(centers, center_mean)
        else:
            center_mean, spread_sq = stats
        self.centers = centers
        self.center_mean = _read_only(center_mean)
        # mean squared spread around the local mean; exact value offset
        self.center_spread_sq = spread_sq

    def _sample_values(self, x, idx):
        diff = x[None, :] - self.centers[idx]
        return 0.5 * np.sum(diff * diff, axis=1)

    def _sample_gradients(self, x, idx):
        return x[None, :] - self.centers[idx]

    def _gradient_mean(self, x, idx):
        centers = self.centers
        if idx is None:
            def fill(lo, hi, rows):
                np.subtract(x, centers[lo:hi], out=rows)

            return _blocked_mean(self.sample_count, self.dim, fill)

        _check_indices(idx, self._pool_size)

        def fill(lo, hi, rows):
            np.take(centers, idx[lo:hi], axis=0, out=rows, mode="wrap")
            np.subtract(x, rows, out=rows)

        return _blocked_mean(idx.shape[0], self.dim, fill)

    def _pair_difference_mean(self, x_new, x_old, idx):
        _check_indices(idx, self._pool_size)
        centers = self.centers
        edges = _block_edges(idx.shape[0], self.dim, BLOCK_ROWS)
        height = _block_height(edges)
        gathered = np.empty((height, self.dim))

        def fill(lo, hi, rows):
            # each sampled center is read once for both points; the
            # difference stays (x_new - c) - (x_old - c), row by row
            c = gathered[: hi - lo]
            np.take(centers, idx[lo:hi], axis=0, out=c, mode="wrap")
            np.subtract(x_new, c, out=rows)
            np.subtract(x_old, c, out=c)
            np.subtract(rows, c, out=rows)

        return _blocked_mean(idx.shape[0], self.dim, fill)

    def mean_value(self, x):
        return 0.5 * sq_norm(x - self.center_mean) + 0.5 * self.center_spread_sq

    def mean_gradient(self, x):
        return x - self.center_mean


class SigmoidObjective(LocalObjective):
    """Average of ``phi(<a_j, x> - b_j)`` with ``phi(t) = t^2/(1+t^2)``."""

    kind = "sigmoid"

    def __init__(
        self,
        worker_id: int,
        features: np.ndarray,
        offsets: np.ndarray,
        online: bool = False,
    ):
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        features = _read_only(features)
        offsets = _read_only(np.asarray(offsets, dtype=np.float64).reshape(-1))
        pool, d = features.shape
        if offsets.shape[0] != pool:
            raise ValueError("features and offsets disagree on sample count")
        feature_norms = np.sqrt(np.sum(features * features, axis=1))
        self.feature_norm_max = float(feature_norms.max())
        super().__init__(
            worker_id,
            dim=d,
            sample_count=None if online else pool,
            pool_size=pool,
            smoothness=PHI_CURV_MAX * self.feature_norm_max**2,
            variance_bound=0.0,  # assigned by the suite factory
        )
        self.features = features
        self.offsets = offsets

    @staticmethod
    def _phi(t: np.ndarray) -> np.ndarray:
        t2 = t * t
        return t2 / (1.0 + t2)

    @staticmethod
    def _phi_prime(t: np.ndarray) -> np.ndarray:
        t2 = t * t
        return 2.0 * t / ((1.0 + t2) ** 2)

    def _sample_values(self, x, idx):
        return self._phi(self.features[idx] @ x - self.offsets[idx])

    def _gradients(self, x, a, b):
        # per-sample gradients over gathered rows ``a`` and offsets ``b``
        return self._phi_prime(a @ x - b)[:, None] * a

    def _sample_gradients(self, x, idx):
        return self._gradients(x, self.features[idx], self.offsets[idx])

    def _gradient_mean(self, x, idx):
        # the restart gradient: row blocks, so an online restart batch of
        # any size needs memory for one block only
        features, offsets = self.features, self.offsets
        rows = sigmoid_block_rows(self.dim)
        if idx is None:
            def fill(lo, hi, out):
                a = features[lo:hi]
                t = a @ x
                t -= offsets[lo:hi]
                np.multiply(a, self._phi_prime(t)[:, None], out=out)

            return _blocked_mean(self.sample_count, self.dim, fill, rows)

        _check_indices(idx, self._pool_size)

        def fill(lo, hi, out):
            block = idx[lo:hi]
            np.take(features, block, axis=0, out=out, mode="wrap")
            t = out @ x
            t -= np.take(offsets, block, mode="wrap")
            out *= self._phi_prime(t)[:, None]

        return _blocked_mean(idx.shape[0], self.dim, fill, rows)

    def _pair_difference_mean(self, x_new, x_old, idx):
        a, b = self.features[idx], self.offsets[idx]
        g_new = self._gradients(x_new, a, b)
        g_old = self._gradients(x_old, a, b)
        return _row_mean(g_new - g_old)

    def mean_value(self, x):
        t = self.features @ x - self.offsets
        return float(np.mean(self._phi(t)))

    def mean_gradient(self, x):
        t = self.features @ x - self.offsets
        return (self.features.T @ self._phi_prime(t)) / self._pool_size


class PerWorkerAnalytic:
    """Analytic oracles of any objectives, one worker at a time."""

    def __init__(self, objectives: list[LocalObjective]):
        self.objectives = objectives

    def values(self, x: ParamVector) -> np.ndarray:
        return np.array([obj.mean_value(x) for obj in self.objectives])

    def gradients(self, x: ParamVector) -> np.ndarray:
        return np.array([obj.mean_gradient(x) for obj in self.objectives])


class QuadraticAnalytic:
    """Quadratic ``mean_value``/``mean_gradient`` of all workers at once."""

    def __init__(self, objectives: list[QuadraticObjective]):
        self.center_means = np.array([o.center_mean for o in objectives])
        self.spread_sq = np.array([o.center_spread_sq for o in objectives])

    def values(self, x: ParamVector) -> np.ndarray:
        return 0.5 * sq_norms(x - self.center_means) + 0.5 * self.spread_sq

    def gradients(self, x: ParamVector) -> np.ndarray:
        return x - self.center_means


class SigmoidAnalytic:
    """Sigmoid ``mean_value``/``mean_gradient`` of all workers at once.

    ``features`` (N, n, d) and ``offsets`` (N, n) are the arrays whose
    worker slices the objectives hold, not copies of them.
    """

    def __init__(self, features: np.ndarray, offsets: np.ndarray):
        self.features = features
        self.offsets = offsets

    def _margins(self, x):
        return np.matmul(self.features, x) - self.offsets

    def values(self, x: ParamVector) -> np.ndarray:
        phi = SigmoidObjective._phi(self._margins(x))
        return np.add.reduce(phi, axis=1) / phi.shape[1]

    def gradients(self, x: ParamVector) -> np.ndarray:
        slopes = SigmoidObjective._phi_prime(self._margins(x))
        # a stack of (d, n) @ (n, 1): per worker, the gemv of features.T @ p
        grads = np.matmul(self.features.transpose(0, 2, 1), slopes[:, :, None])
        return grads[:, :, 0] / slopes.shape[1]


@dataclass
class ProblemSuite:
    """N worker objectives sharing a dimension and a common start point.

    ``optimum_value`` is exact for the quadratic family and a certified
    lower bound (zero) for the nonnegative sigmoid family. ``config`` echoes
    the construction parameters for experiment bookkeeping. ``analytic``
    evaluates every worker's analytic oracles at once (``values``/
    ``gradients``); the factories pass their family's stacked evaluator,
    and without one the suite asks each objective in turn.
    """

    objectives: list[LocalObjective]
    optimum_value: float
    initial_point: ParamVector
    config: dict = field(default_factory=dict)
    analytic: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.analytic is None:
            self.analytic = PerWorkerAnalytic(self.objectives)

    @property
    def num_workers(self) -> int:
        return len(self.objectives)

    @property
    def dim(self) -> int:
        return self.objectives[0].dim

    @property
    def is_finite_sum(self) -> bool:
        return all(o.is_finite_sum for o in self.objectives)

    @property
    def sample_count(self) -> int | None:
        return self.objectives[0].sample_count

    @property
    def smoothness(self) -> float:
        return max(o.smoothness for o in self.objectives)

    @property
    def variance_bound(self) -> float:
        return max(o.variance_bound for o in self.objectives)

    def value(self, x: ParamVector) -> float:
        """Analytic global objective value (no oracle charge).

        The worker values are summed in worker order.
        """
        return ordered_sum(self.analytic.values(x)) / self.num_workers

    def gradient(self, x: ParamVector) -> ParamVector:
        """Analytic global gradient (no oracle charge)."""
        return mean_reduce(self.analytic.gradients(x))

    def initial_gap(self) -> float:
        """Upper bound on the optimality gap at the start point."""
        return self.value(self.initial_point) - self.optimum_value

    def with_initial_point(self, x0) -> "ProblemSuite":
        """Copy of the suite starting from a caller-chosen point."""
        return dataclasses.replace(
            self, initial_point=as_vector(x0, self.dim)
        )


def _finish_quadratic_suite(
    centers: np.ndarray,
    center_means: np.ndarray,
    grand_mean: np.ndarray,
    initial_point: ParamVector,
    config: dict,
) -> ProblemSuite:
    objectives = []
    for i, center_mean in enumerate(center_means):
        # the set-up's second pass: both spreads from one read of the worker
        spread_sq, dev_sq = _mean_sq_distances(
            centers[i], center_mean, grand_mean
        )
        obj = QuadraticObjective(i, centers[i], stats=(center_mean, spread_sq))
        # uniform worker-vs-global deviation: for this family the gradient
        # deviation is x-free and equals the spread around the grand mean
        obj.variance_bound = math.sqrt(dev_sq)
        objectives.append(obj)
    suite = ProblemSuite(
        objectives=objectives,
        optimum_value=0.0,
        initial_point=as_vector(initial_point),
        config=config,
        analytic=QuadraticAnalytic(objectives),
    )
    # minimum of the averaged quadratic sits at the grand mean
    suite.optimum_value = suite.value(grand_mean)
    return suite


def make_quadratic_suite(
    N: int,
    n: int,
    d: int,
    heterogeneity: float,
    seed: int,
    center_spread: float = 1.0,
    initial_offset: float | None = None,
) -> ProblemSuite:
    """Quadratic suite with worker means separated by ``heterogeneity``.

    Draws are scaled by 1/sqrt(d) per coordinate so the key squared norms
    stay O(1) regardless of dimension. ``center_spread`` scales the
    within-worker sample spread; zero makes every sample identical
    (a zero-deviation suite). ``initial_offset`` pins the squared distance
    of the start point from the optimum (the start direction still comes
    from the seed); by default the offset is a unit-scale draw.
    """
    if min(N, n, d) < 1:
        raise ValueError("N, n, d must all be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = 1.0 / math.sqrt(d)
    worker_means = heterogeneity * rng.normal(0.0, scale, size=(N, d))
    centers = np.empty((N, n, d))

    def draw(i, out):
        # block by block, the same draws and bits as one (N, n, d) draw
        # times center_spread plus worker_means[:, None, :]
        draws = rng.normal(0.0, scale, size=out.shape)
        np.multiply(draws, center_spread, out=out)
        out += worker_means[i]

    center_means, grand_mean = _center_means(centers, draw)
    offset = rng.normal(0.0, scale, size=d)
    if initial_offset is not None:
        if initial_offset < 0:
            raise ValueError("initial_offset must be nonnegative")
        norm = math.sqrt(float(np.dot(offset, offset)))
        offset = offset * (math.sqrt(initial_offset) / norm)
    initial_point = grand_mean + offset
    config = {
        "family": "quadratic",
        "N": N,
        "n": n,
        "d": d,
        "heterogeneity": heterogeneity,
        "seed": seed,
        "center_spread": center_spread,
    }
    if initial_offset is not None:
        config["initial_offset"] = initial_offset
    return _finish_quadratic_suite(
        centers, center_means, grand_mean, initial_point, config
    )


def quadratic_suite_from_centers(centers, initial_point) -> ProblemSuite:
    """Quadratic suite over explicit centers of shape (N, n, d)."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 3 or 0 in centers.shape:
        raise ValueError("centers must have shape (N, n, d), each at least 1")
    config = {
        "family": "quadratic-explicit",
        "centers": centers.tolist(),
        "initial_point": list(map(float, np.asarray(initial_point))),
    }
    center_means, grand_mean = _center_means(centers)
    return _finish_quadratic_suite(
        centers, center_means, grand_mean, as_vector(initial_point), config
    )


def _finish_sigmoid_suite(
    features: np.ndarray,
    offsets: np.ndarray,
    initial_point: ParamVector,
    online: bool,
    config: dict,
) -> ProblemSuite:
    # one read-only view of the data: the objectives hold its worker
    # slices, the stacked analytic oracles the whole of it
    features = _read_only(np.asarray(features, dtype=np.float64))
    num_workers = features.shape[0]
    offsets = np.asarray(offsets, dtype=np.float64).reshape(num_workers, -1)
    offsets = _read_only(offsets)
    objectives = [
        SigmoidObjective(i, features[i], offsets[i], online=online)
        for i in range(num_workers)
    ]
    # ||grad sample|| <= max|phi'| * ||a||, so worker-vs-global deviation is
    # uniformly below max|phi'| * (local max ||a|| + global max ||a||)
    global_amax = max(o.feature_norm_max for o in objectives)
    for obj in objectives:
        obj.variance_bound = PHI_GRAD_MAX * (obj.feature_norm_max + global_amax)
    return ProblemSuite(
        objectives=objectives,
        optimum_value=0.0,  # certified lower bound: the losses are nonnegative
        initial_point=as_vector(initial_point),
        config=config,
        analytic=SigmoidAnalytic(features, offsets),
    )


def make_nonconvex_suite(
    N: int,
    n: int | str | None,
    d: int,
    heterogeneity: float,
    seed: int,
    online_pool: int = 512,
) -> ProblemSuite:
    """Bounded nonconvex sigmoid-loss suite; ``n=None``/"online" for online.

    Feature vectors are drawn from a compact box and scaled so
    ``||a|| <= 1``; per-worker target parameters are separated by
    ``heterogeneity``. Online suites sample from an internal atom pool of
    ``online_pool`` points per worker, which keeps the expectation oracles
    exact while the public surface stays sampling-only.
    """
    online = n is None or n == "online"
    pool = int(online_pool if online else n)
    if min(N, pool, d) < 1:
        raise ValueError("worker count, sample pool and dimension must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    scale = 1.0 / math.sqrt(d)
    anchor = rng.normal(0.0, scale, size=d)
    targets = anchor[None, :] + heterogeneity * rng.normal(
        0.0, scale, size=(N, d)
    )
    features = rng.uniform(-1.0, 1.0, size=(N, pool, d)) * scale
    offsets = np.einsum("wpd,wd->wp", features, targets) + rng.uniform(
        -0.2, 0.2, size=(N, pool)
    )
    initial_point = anchor + rng.normal(0.0, scale, size=d)
    config = {
        "family": "sigmoid",
        "N": N,
        "n": "online" if online else int(n),
        "d": d,
        "heterogeneity": heterogeneity,
        "seed": seed,
        "online_pool": online_pool,
    }
    return _finish_sigmoid_suite(features, offsets, initial_point, online, config)


def sigmoid_suite_from_params(
    features, offsets, initial_point, online: bool = False
) -> ProblemSuite:
    """Sigmoid suite over explicit per-worker (features, offsets) arrays."""
    features = np.asarray(features, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if features.ndim != 3:
        raise ValueError("features must have shape (N, n, d)")
    config = {
        "family": "sigmoid-explicit",
        "features": features.tolist(),
        "offsets": offsets.tolist(),
        "initial_point": list(map(float, np.asarray(initial_point))),
        "online": online,
    }
    return _finish_sigmoid_suite(
        features, offsets, as_vector(initial_point), online, config
    )
