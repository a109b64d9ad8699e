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
row; called without one it charges nothing. The analytic oracles used for
metrics are free: each suite has one, built by its factory, that evaluates
every worker's mean value and mean gradient at once.

The metered batch means sum their per-sample rows in index order, the
order ``rows.mean(axis=0)`` uses, so they match the row-materialising
formula bit for bit. The quadratic kernels and the sigmoid restart
gradients get there without materialising the rows: they walk the batch in
blocks of rows (``BLOCK_ROWS`` for the quadratic kernels, the same bytes
for the sigmoid ones), gather each sample once per block and carry the
running sum from block to block.

The sigmoid pair kernel takes its margins by BLAS gemv at any size. For a
batch of at most ``numerics.SCALAR_ENTRIES`` entries and d >= 2, the rest
runs on Python floats, bit for bit as the numpy path: ``+ - * /`` round as
numpy's elementwise ufuncs do, the row sum starts from 0.0 as
``np.add.reduce`` over d >= 2 columns does, and the slope's square is
``q * q``, since ``q ** 2`` raises ``OverflowError`` on a Python float. At
d = 1 numpy sums 8 or more rows of the lone column pairwise, so that case
stays on numpy.

The analytic oracles behind ``ProblemSuite.value``/``gradient`` evaluate
all workers at once. ``QuadraticAnalytic`` holds the per-worker center
means and spreads from the set-up's two passes; ``SigmoidAnalytic`` runs one
stacked ``np.matmul`` over the worker-stacked data that the factories share
with the objectives, which takes each worker's slice through the BLAS gemv
of ``features[i] @ x``. It keeps the last point's margins, read-only, with
the point's bytes as their key, so a record's ``value`` and ``gradient`` at
one ``x_bar`` take the margins once.

Data arrays (centers, features, offsets) are read-only, so any number of
runs, serial or concurrent, can share one suite.

A quadratic suite is set up in two streamed passes over row blocks, with
no dataset-sized temporaries: one draws the centers block by block into
the one array that holds them and carries the per-worker and grand row
sums, and one reads them back for the spreads around both means. Draws,
means and spreads equal the whole-array formulas bit for bit.

Every metered oracle takes a batch of sample indices; one sample is
``[j]``, and a full gradient is the batch of every sample, ``0 .. n-1``.
Online objectives refuse ``full_gradient``. Their batch oracles
take the indices ``draw_indices`` returns, into a finite atom pool, which
is what makes the analytic expectation oracles exact. They are
``gen.integers(0, pool, size)`` bit for bit, drawn from the generator's raw
64-bit outputs by numpy's own bounded draw (Lemire, arXiv:1805.10941)
without ``integers``' argument handling, most of its cost for a few indices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    SCALAR_ENTRIES,
    ParamVector,
    as_vector,
    mean_reduce,
    ordered_sum,
    sq_norms,
)

__all__ = [
    "UnsupportedOperationError",
    "Meter",
    "LocalObjective",
    "QuadraticObjective",
    "SigmoidObjective",
    "ProblemSuite",
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

# draw_indices' words: a raw output is two 32-bit words, low word first
_LE64, _LE32, _WORD_BITS = np.dtype("<u8"), np.dtype("<u4"), np.uint64(32)
_MASK32 = 0xFFFFFFFF

# Batches up to this size are drawn on Python ints, faster than arrays up
# to about 7 indices (10 with rejections) on a 2-vCPU x86-64 host
SCALAR_DRAWS = 6


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
    """Every cost of one run: oracle calls per worker and phase, and rounds.

    The runner sets ``phase`` between dispatches. Each worker charges only
    its own row, so workers stepping on a thread pool need no lock.
    ``rounds`` counts synchronized exchanges and ``bytes_equivalent`` the
    d-vectors shipped in them; only the coordinator's ``sync_round``
    writes them.
    """

    def __init__(self, num_workers: int):
        self.phase = PHASES[0]
        self.rows = [dict.fromkeys(PHASES, 0) for _ in range(num_workers)]
        self.rounds = self.bytes_equivalent = 0

    def charge(self, worker: int, amount: int) -> None:
        self.rows[worker][self.phase] += int(amount)

    @property
    def total(self) -> int:
        total = 0
        for row in self.rows:
            for calls in row.values():
                total += calls
        return total

    def breakdown(self) -> dict:
        """Calls per phase over all workers, in ``PHASES`` order."""
        return {p: sum(row[p] for row in self.rows) for p in PHASES}


def _check_pool_size(pool_size: int) -> None:
    # draw_indices scales 32-bit words; factories check before they draw
    if not 1 <= pool_size <= 2**32:
        raise ValueError(f"sample pool of {pool_size} outside 1 .. 2**32")


class LocalObjective:
    """One worker's cost function plus its metered batch oracles.

    ``sample_count`` is ``None`` for online objectives, which refuse
    ``full_gradient``; their batch oracles take the indices that
    ``draw_indices`` returns. ``smoothness`` and ``variance_bound`` are the
    advertised L and sigma; both are certified by the randomized test suite.
    """

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
        _check_pool_size(pool_size)
        self._pool_size = pool_size
        # draw_indices' factor, and the bound on a kept product's low half
        self._scale = np.uint64(pool_size)
        self._reject_below = (2**32 - pool_size) % pool_size

    @property
    def is_finite_sum(self) -> bool:
        return self.sample_count is not None

    def _charge(self, meter: Meter | None, amount: int) -> None:
        if meter is not None:
            meter.charge(self.worker_id, amount)

    # -- sampling ---------------------------------------------------------

    def draw_indices(self, gen: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. sample indices (with replacement).

        Values and dtype of ``gen.integers(0, pool, size)``: each raw output
        gives two 32-bit words, low first, and a word ``u`` gives ``(u *
        pool) >> 32`` unless that product's low half is below ``(2**32 -
        pool) mod pool``. Up to ``SCALAR_DRAWS`` indices are drawn on Python
        ints, more on arrays; the words and the rule are the same. ``gen``
        must be a fresh ``substream``, used once.
        """
        size = int(size)
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if size <= SCALAR_DRAWS:
            raw = gen.bit_generator.random_raw
            pool, bound = self._pool_size, self._reject_below
            picks = []
            while len(picks) < size:
                out = raw()
                for word in (out & _MASK32, out >> 32):
                    m = word * pool
                    if m & _MASK32 >= bound:
                        picks.append(m >> 32)
            return np.array(picks[:size], dtype=np.int64)
        parts, need = [], size
        while need > 0:
            raw = gen.bit_generator.random_raw((need + 1) // 2)
            words = raw.astype(_LE64, copy=False).view(_LE32).astype(np.uint64)
            words *= self._scale
            if self._reject_below:
                low = words.astype(_LE64, copy=False).view(_LE32)[::2]
                if low.min(initial=self._reject_below) < self._reject_below:
                    words = words[low >= self._reject_below]
            parts.append(words)
            need -= words.shape[0]
        scaled = parts[0] if len(parts) == 1 else np.concatenate(parts)
        scaled >>= _WORD_BITS
        return scaled[:size].view(np.int64)

    # -- metered oracle surface --------------------------------------------
    # Each cost below is charged to ``meter``, when one is given.

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
        # the hook, not batch_gradient_mean, which a tracer counts again
        grad = self._gradient_mean(x, np.arange(self.sample_count))
        self._charge(meter, self.sample_count)
        return grad

    # -- family internals ----------------------------------------------------
    # Families define ``_gradient_mean`` and ``_pair_difference_mean`` over
    # a batch of indices, never the metered methods above, which own the
    # charging. A full gradient is the batch of every sample, ``0 .. n-1``.


class QuadraticObjective(LocalObjective):
    """Average of ``0.5 * ||x - c_j||^2`` over per-sample centers."""

    def __init__(self, worker_id: int, centers: np.ndarray):
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
        self.centers = centers

    def _gradient_mean(self, x, idx):
        _check_indices(idx, self._pool_size)

        def fill(lo, hi, rows):
            np.take(self.centers, idx[lo:hi], axis=0, out=rows, mode="wrap")
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


class SigmoidObjective(LocalObjective):
    """Average of ``phi(<a_j, x> - b_j)`` with ``phi(t) = t^2/(1+t^2)``."""

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
        self._block_rows = sigmoid_block_rows(d)

    @staticmethod
    def _phi(t: np.ndarray) -> np.ndarray:
        t2 = t * t
        return t2 / (1.0 + t2)

    @staticmethod
    def _phi_prime(t: np.ndarray) -> np.ndarray:
        t2 = t * t
        # t + t is 2t exactly, without converting a Python float
        return (t + t) / ((1.0 + t2) ** 2)

    def _gradient_mean(self, x, idx):
        # the restart gradient: row blocks, so an online restart batch of
        # any size needs memory for one block only
        _check_indices(idx, self._pool_size)

        def fill(lo, hi, out):
            block = idx[lo:hi]
            np.take(self.features, block, axis=0, out=out, mode="wrap")
            t = out @ x
            t -= np.take(self.offsets, block, mode="wrap")
            out *= self._phi_prime(t)[:, None]

        return _blocked_mean(idx.shape[0], self.dim, fill, self._block_rows)

    def _pair_difference_mean(self, x_new, x_old, idx):
        # one gather and one pass per step for both points; margins by gemv
        # blocks BLAS won't thread, or whole if one block; a tiny batch's
        # tail on Python floats (see the module docstring)
        a = self.features.take(idx, axis=0)
        count = a.shape[0]
        if self.dim > 1 and 0 < count * self.dim <= SCALAR_ENTRIES:
            return _pair_mean_on_floats(
                np.matmul(a, x_new).tolist(),
                np.matmul(a, x_old).tolist(),
                self.offsets.take(idx).tolist(),
                a.tolist(),
            )
        t = np.empty((2, count))
        if count <= self._block_rows:
            np.matmul(a, x_new, out=t[0])
            np.matmul(a, x_old, out=t[1])
        else:
            edges = _block_edges(count, self.dim, self._block_rows)
            for lo, hi in zip(edges, edges[1:]):
                np.matmul(a[lo:hi], x_new, out=t[0, lo:hi])
                np.matmul(a[lo:hi], x_old, out=t[1, lo:hi])
        t -= self.offsets.take(idx)
        grads = self._phi_prime(t)[:, :, None] * a
        return np.add.reduce(grads[0] - grads[1], axis=0) / count


def _pair_mean_on_floats(new, old, offsets, rows) -> np.ndarray:
    """The sigmoid pair kernel's tail on Python floats, with the same bits.

    ``new`` and ``old`` are the BLAS margins of ``rows`` at both points.
    The row sum starts from 0.0, as ``np.add.reduce`` over d >= 2 columns
    does, so a column of -0.0 sums to +0.0; ``q * q``, since ``q ** 2``
    raises ``OverflowError`` on a Python float.
    """
    total = [0.0] * len(rows[0])
    for u, w, b, row in zip(new, old, offsets, rows):
        u -= b
        w -= b
        qu = 1.0 + u * u
        qw = 1.0 + w * w
        pu = (u + u) / (qu * qu)
        pw = (w + w) / (qw * qw)
        total = [s + (pu * r - pw * r) for s, r in zip(total, row)]
    count = len(rows)
    return np.array([s / count for s in total])


class QuadraticAnalytic:
    """Every quadratic worker's mean value and mean gradient at once.

    ``center_means`` (N, d) are the workers' center means and ``spread_sq``
    (N,) their mean squared spreads around them, the exact value offsets;
    both are held as read-only views.
    """

    def __init__(self, center_means: np.ndarray, spread_sq: np.ndarray):
        self.center_means = _read_only(center_means)
        self.spread_sq = _read_only(spread_sq)

    def values(self, x: ParamVector) -> np.ndarray:
        return 0.5 * sq_norms(x - self.center_means) + 0.5 * self.spread_sq

    def gradients(self, x: ParamVector) -> np.ndarray:
        return x - self.center_means


class SigmoidAnalytic:
    """Every sigmoid worker's mean value and mean gradient at once.

    ``features`` (N, n, d) and ``offsets`` (N, n) are the arrays whose
    worker slices the objectives hold, not copies of them. The margins at
    the last point asked for are kept, so ``values`` and ``gradients`` at
    one point compute them once; runs sharing the suite may race on the
    cache, and at worst compute margins again.
    """

    def __init__(self, features: np.ndarray, offsets: np.ndarray):
        self.features = features
        self.offsets = offsets
        self._features_t = features.transpose(0, 2, 1)
        n, d = features.shape[1:]
        rows = sigmoid_block_rows(d)
        # row blocks BLAS won't thread, as in the pair kernel; whole if one
        self._edges = _block_edges(n, d, rows) if n > rows else None
        self._last = None  # (x.tobytes(), read-only margins at x)

    def _margins(self, x):
        # key and margins are one tuple, replaced whole, so runs sharing
        # the suite never pair one point's key with another's margins
        x = np.asarray(x, dtype=np.float64)
        key = x.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        if self._edges is None:
            t = np.matmul(self.features, x) - self.offsets
        else:
            t = np.empty(self.offsets.shape)
            for lo, hi in zip(self._edges, self._edges[1:]):
                np.matmul(self.features[:, lo:hi], x, out=t[:, lo:hi])
            t -= self.offsets
        t.flags.writeable = False
        self._last = (key, t)
        return t

    def values(self, x: ParamVector) -> np.ndarray:
        phi = SigmoidObjective._phi(self._margins(x))
        return np.add.reduce(phi, axis=1) / phi.shape[1]

    def gradients(self, x: ParamVector) -> np.ndarray:
        slopes = SigmoidObjective._phi_prime(self._margins(x))
        # a stack of (d, n) @ (n, 1): per worker, the gemv of features.T @ p
        grads = np.matmul(self._features_t, slopes[:, :, None])
        return grads[:, :, 0] / slopes.shape[1]


@dataclass
class ProblemSuite:
    """N worker objectives sharing a dimension and a common start point.

    ``optimum_value`` is exact for the quadratic family and a certified
    lower bound (zero) for the nonnegative sigmoid family. ``analytic``
    evaluates every worker's analytic oracles at once (``values``/
    ``gradients``): the factories build their family's evaluator over the
    suite's data, so a suite comes from a factory, and a modified copy from
    ``dataclasses.replace``. ``config`` echoes the construction parameters
    for experiment bookkeeping.
    """

    objectives: list[LocalObjective]
    optimum_value: float
    initial_point: ParamVector
    analytic: object = field(repr=False, compare=False)
    config: dict = field(default_factory=dict)

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


def _finish_quadratic_suite(
    centers: np.ndarray,
    center_means: np.ndarray,
    grand_mean: np.ndarray,
    initial_point: ParamVector,
    config: dict,
) -> ProblemSuite:
    objectives = []
    spreads = np.empty(len(center_means))
    for i, center_mean in enumerate(center_means):
        # the set-up's second pass: both spreads from one read of the worker
        spreads[i], dev_sq = _mean_sq_distances(
            centers[i], center_mean, grand_mean
        )
        obj = QuadraticObjective(i, centers[i])
        # uniform worker-vs-global deviation: for this family the gradient
        # deviation is x-free and equals the spread around the grand mean
        obj.variance_bound = math.sqrt(dev_sq)
        objectives.append(obj)
    suite = ProblemSuite(
        objectives=objectives,
        optimum_value=0.0,
        initial_point=as_vector(initial_point, centers.shape[2]),
        analytic=QuadraticAnalytic(center_means, spreads),
        config=config,
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
    _check_pool_size(n)
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


def _check_numbers(data) -> None:
    """Raise unless ``data`` (nested lists or an array) holds only numbers.

    ``np.asarray(..., dtype=np.float64)`` alone would take ``True``,
    ``"1.5"`` and ``None`` as 1.0, 1.5 and NaN.
    """
    pending = [data]
    while pending:
        item = pending.pop()
        if isinstance(item, (list, tuple)):
            # JSON's numbers, nearly every entry, are not visited one by one
            pending += [x for x in item if type(x) not in (int, float)]
        elif isinstance(item, np.ndarray):
            if item.dtype.kind not in "iuf":
                raise ValueError(f"must hold numbers, got {item.dtype} entries")
        elif isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise ValueError(f"must hold numbers, got {item!r}")


def _explicit_array(key: str, data, shape: tuple) -> np.ndarray:
    """An explicit suite's array ``key`` as a finite float64 copy of ``shape``.

    A named axis (``"n"``) takes any length of at least 1. Every message
    starts with ``key``, so a config error names the bad array.
    """
    try:
        _check_numbers(data)
        if len(shape) == 1:
            return as_vector(data, shape[0])
        array = np.array(data, dtype=np.float64)
        if not np.isfinite(array).all():
            raise ValueError("non-finite entries")
    except (ValueError, TypeError, OverflowError) as exc:
        # not numbers, ragged, non-finite, or a start point of another length
        raise ValueError(f"{key}: {exc}") from None
    if array.ndim != len(shape) or any(
        got < 1 if isinstance(want, str) else got != want
        for got, want in zip(array.shape, shape)
    ):
        free = ", each at least 1" if isinstance(shape[0], str) else ""
        axes = ", ".join(map(str, shape))
        raise ValueError(f"{key} must have shape ({axes}){free}, got {array.shape}")
    return array


def quadratic_suite_from_centers(centers, initial_point) -> ProblemSuite:
    """Quadratic suite over explicit centers of shape (N, n, d)."""
    centers = _explicit_array("centers", centers, ("N", "n", "d"))
    initial_point = _explicit_array("initial_point", initial_point, centers.shape[2:])
    config = {
        "family": "quadratic-explicit",
        "centers": centers.tolist(),
        "initial_point": initial_point.tolist(),
    }
    center_means, grand_mean = _center_means(centers)
    return _finish_quadratic_suite(
        centers, center_means, grand_mean, initial_point, config
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
    features = _read_only(features)
    offsets = _read_only(offsets)
    num_workers = features.shape[0]
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
        initial_point=as_vector(initial_point, features.shape[2]),
        analytic=SigmoidAnalytic(features, offsets),
        config=config,
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
    _check_pool_size(pool)
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
    """Sigmoid suite over explicit (N, n, d) features and (N, n) offsets."""
    features = _explicit_array("features", features, ("N", "n", "d"))
    offsets = _explicit_array("offsets", offsets, features.shape[:2])
    initial_point = _explicit_array("initial_point", initial_point, features.shape[2:])
    config = {
        "family": "sigmoid-explicit",
        "features": features.tolist(),
        "offsets": offsets.tolist(),
        "initial_point": initial_point.tolist(),
        "online": online,
    }
    return _finish_sigmoid_suite(
        features, offsets, initial_point, online, config
    )
