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

Each family has one kernel hook, ``_gradient_mean(x, idx, x_old=None)``:
the mean of the per-sample gradients at ``x`` over a batch, or, with
``x_old``, the mean of each sample's gradient difference between the two
points, formed row by row before the sum. The batch means sum their rows
in index order, the order ``rows.mean(axis=0)`` uses, so they match the
row-materialising formula bit for bit. Both hooks get there without
materialising the rows: ``_blocked_mean`` walks the batch in blocks of
rows (``QUAD_ROWS`` for the quadratic hook, ``sigmoid_block_rows`` for the
sigmoid one), the hook gathers each sample once per block, for both
points of a pair, and the running sum is carried from block to block.
Since that sum adds rows in index order at any height, the quadratic bits
do not depend on ``QUAD_ROWS``; the sigmoid bits depend on ``BLOCK_ROWS``
through the margins' gemv row groups.

Block buffers are each thread's scratch (``_scratch``), kept across calls,
so a warm kernel allocates only its running sum and its result: fresh
block buffers would be mapped, faulted in page by page and trimmed again
by the allocator on every call. A thread holds one block per buffer, at
any batch size. Each buffer starts on a 64-byte boundary (``np.empty``
gives 16 bytes): alone, a subtract of (16, 2048) blocks at 16-, 32- or
48-byte offsets ran up to twice as long. The end-to-end effect is
unresolved, and kernel speed still depends on the heap: ``_blocked_mean``
fills its buffer from row 1, and sums, results and iterates keep
``np.empty``'s alignment. The quadratic hook gathers each block of centers
once into scratch and writes the block's rows by subtracting the centers
from its points, which it tiles into the scratch once per call, so every
subtract takes (h, d) operands: that runs faster than a broadcast (d,)
operand, which numpy buffers.

The sigmoid hook takes its margins by BLAS gemv, block by block, through
``ndarray.dot``: the gemv ``np.matmul`` reaches, at about half its call
cost. One per-block fill serves the restart and the pair. The restart
gathers a block's rows into the block and scales them there by their
slopes, a broadcast multiply. The pair gathers them into scratch once and
writes the rows at both points and their difference, tiling the slopes by
a copy: a ufunc with a broadcast operand allocates a 64 KiB buffer. The
restart keeps that buffer, since a tiled copy is one more pass over the
block: a d=256 restart ran 10-15 % longer with it.

A pair batch of at most ``numerics.SCALAR_ENTRIES`` entries and d >= 2
never reaches the walker. At the top of the hook, the tail after its
margins runs on Python floats, bit for bit as the numpy path: ``+ - * /``
round as numpy's elementwise ufuncs do, the row sum starts from 0.0 as
``np.add.reduce`` over d >= 2 columns does, and the slope's square is
``q * q``, since ``q ** 2`` raises ``OverflowError`` on a Python float. At
d = 1 numpy sums 8 or more rows of the lone column pairwise, so that case
stays on numpy.

The analytic oracles behind ``ProblemSuite.value``/``gradient`` evaluate
all workers at a chunk of points at once. ``evaluate(points)`` is a pure
function: every worker's values and gradients at each of R points, from
one stacked pass; ``values(x)`` and ``gradients(x)`` take ``x`` alone
through it. A runner stacks up to ``chunk`` record points, at most
``CHUNK_RECORDS`` and ``CHUNK_ENTRIES`` entries over a point's largest
(N, .) array: 8 at N=4, n=256, where a point of a chunk costs about half
as much as a point alone. It hands each record its row of the pass, and
every point gets its own bits at any chunk size and position.
``QuadraticAnalytic`` holds the per-worker center means and spreads from
the set-up's two passes and takes a chunk's values by stacked
``sq_norms``; ``SigmoidAnalytic`` takes its margins over the
worker-stacked data that the factories share with the objectives, by one
broadcast ``np.matmul`` per block of ``sigmoid_block_rows`` rows, which
gives each worker the bits of its own gemv of ``features[i] @ x``.

Data arrays (centers, features, offsets) are read-only and the analytic
evaluators keep nothing, so any number of runs, serial or concurrent, can
share one suite.

A quadratic suite is set up in one pass over row blocks that writes each
center once, where it lives, with no block buffer and no dataset-sized
temporary. Each block of centers is drawn in place by
``standard_normal(out=)`` and finished in place with ``normal``'s own
arithmetic; the per-worker and grand row sums are carried through the row
just before each block, which is saved, overwritten by the running sum,
reduced with the block and put back. A second pass reads each worker's
centers back for its spread around its own mean, the analytic oracle's
value offset, and nothing more: a worker's sigma, its spread around the
grand mean, is computed at each read, which costs one more pass over the
worker's centers and which no ``pr-spider-finite`` run makes. Draws,
means, spreads and sigma equal the whole-array formulas bit for bit.

Every metered oracle takes a batch of sample indices; one sample is
``[j]``, and a full gradient is the batch of every sample, ``0 .. n-1``.
Online objectives refuse ``full_gradient``. Their batch oracles
take the indices ``draw_indices`` returns, into a finite atom pool, which
is what makes the analytic expectation oracles exact. ``draw_indices``
hands its pool to ``numerics.Substream.indices``, which owns the keyed
draw: the key's ``Generator.integers(0, pool, size)``, bit for bit.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .numerics import (
    SCALAR_ENTRIES,
    ParamVector,
    _check_pool_size,
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

# Rows per sigmoid kernel block (see sigmoid_block_rows), and per block of
# the quadratic set-up passes: the margins' BLAS gemv row groups fix this
# height, and with it the sigmoid bits.
BLOCK_ROWS = 32

# Float64 entries of a chunk's largest analytic array: a point's largest
# (N, .) array times the points the runner evaluates in one stacked pass.
# 64 KiB an array: at N=4, n=256 a chunk of 14 or more points (112 KiB
# arrays) met glibc's 128 KiB trim and mmap thresholds, and each pass
# faulted its pages in again at twice the cost a point.
CHUNK_ENTRIES = 2**13

# Records a runner keeps pending at most: a pending record costs about
# 2 KiB of Python objects, not its few array entries. On a quadratic N=4,
# d=4 suite (512 points by CHUNK_ENTRIES) a run's traced peak was the same
# at 16 records as at 1, 14 % higher at 32 and 97 % higher at 512.
CHUNK_RECORDS = 16

# Rows per quadratic kernel block: at d=2048 a block of float64 rows is
# 256 KiB, so the pair kernel's four buffers (gathered centers, rows, and
# both points tiled) fit a 2 MiB L2 together. Quadratic bits do not depend
# on it, since _carry adds rows in index order at any height.
QUAD_ROWS = 16


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


class _Scratch(threading.local):
    """Each thread's kernel buffers, by slot; see ``_scratch``."""

    def __init__(self):
        self.buffers = {}


_SCRATCH = _Scratch()


def _scratch(slot: str, rows: int, dim: int) -> np.ndarray:
    """This thread's float64 buffer ``slot``, a 64-byte aligned (rows, dim) view.

    The buffer is kept across calls and replaced only when ``dim`` changes
    or more rows are asked for, so a warm kernel allocates no block-sized
    memory (see the module docstring). Each thread has its own buffers, so
    concurrent runs over one suite never share one; a thread holds one
    call's blocks per slot, what a call allocated before.
    Callers return fresh arrays, never a view of a buffer.
    """
    buffers = _SCRATCH.buffers
    buf = buffers.get(slot)
    if buf is None or buf.shape[1] != dim or buf.shape[0] < rows:
        # float64 data is 8-byte aligned, so 7 spare entries reach a 64-byte one
        raw = np.empty(rows * dim + 7)
        start = -raw.ctypes.data % 64 // 8
        buf = buffers[slot] = raw[start : start + rows * dim].reshape(rows, dim)
    return buf[:rows]


def _blocked_mean(
    count: int, dim: int, fill, rows: int = BLOCK_ROWS
) -> np.ndarray:
    """Mean of ``count`` rows that ``fill(lo, hi, out)`` writes by blocks.

    ``fill`` writes rows ``lo:hi`` into ``out``, one block at a time, and
    the rows are summed in index order (``_carry``, through row 0 of the
    buffer), bit for bit as ``rows.mean(axis=0)`` sums them. The block
    buffer is this thread's scratch; the mean is a fresh array.
    """
    edges = _block_edges(count, dim, rows)
    buf = _scratch("mean", _block_height(edges) + 1, dim)
    acc = np.empty(dim)
    for lo, hi in zip(edges, edges[1:]):
        fill(lo, hi, buf[1 : 1 + hi - lo])
        if lo:
            _carry(buf, 1, 1 + hi - lo, (acc,))
        else:
            np.add.reduce(buf[1 : 1 + hi], axis=0, out=acc)
    return acc / count


def _draw_centers(rng, out, scale, center_spread, worker_mean) -> None:
    """Draw a block of centers into ``out``, where they stay.

    Bit for bit ``rng.normal(0.0, scale, out.shape) * center_spread +
    worker_mean``: the standard normals are drawn in place and finished in
    place with ``normal``'s own arithmetic, ``0.0 + scale * z``, whose
    ``+= 0.0`` turns a -0.0 into +0.0.
    """
    rng.standard_normal(out=out)
    out *= scale
    out += 0.0
    out *= center_spread
    out += worker_mean


def _carry(
    rows: np.ndarray, start: int, stop: int, sums, saved=None
) -> None:
    """Add ``rows[start:stop]`` to each running row sum in ``sums``.

    The row just before the block carries each sum into one
    ``np.add.reduce`` with the block, so rows are added in index order,
    bit for bit as ``np.add.reduce`` sums a whole C-ordered batch of d >= 2
    columns. When ``saved`` is given, that row is saved into it first and
    put back after; otherwise the row is scratch and is overwritten.
    """
    before = rows[start - 1]
    if saved is not None:
        np.copyto(saved, before)
    for acc in sums:
        np.copyto(before, acc)
        np.add.reduce(rows[start - 1 : stop], axis=0, out=acc)
    if saved is not None:
        np.copyto(before, saved)


def _center_means(
    centers: np.ndarray, draw=None
) -> tuple[np.ndarray, np.ndarray]:
    """Each worker's center mean and the grand mean of (N, n, d) centers.

    The set-up's first pass: one walk over each worker's rows, a block at a
    time. ``draw(i, out)``, when given, writes worker ``i``'s next block of
    rows into ``out``, the view of ``centers`` where they stay. Both means
    sum rows in index order, bit for bit as ``centers[i].mean(axis=0)`` and
    ``centers.reshape(-1, d).mean(axis=0)`` do: a worker's first block is
    reduced on its own, and the row just before every later block carries
    the running sums through it (``_carry``), the grand sum across workers
    too. So ``centers`` is written, but every row it held or was drawn
    into is put back. It must be the factory's own C-ordered array, so that
    its flat ``(N * n, d)`` reshape is a view: generated centers are, and
    ``_explicit_array`` copies an explicit suite's into C order.
    """
    N, n, d = centers.shape
    rows = centers.reshape(N * n, d)  # a view: centers is C-ordered
    edges = _block_edges(n, d, BLOCK_ROWS)
    sums = np.empty((N, d))
    total = np.empty(d)
    saved = np.empty(d)
    for i in range(N):
        for lo, hi in zip(edges, edges[1:]):
            start, stop = i * n + lo, i * n + hi
            if draw is not None:
                draw(i, rows[start:stop])
            if lo:
                _carry(rows, start, stop, (sums[i], total), saved)
                continue
            np.add.reduce(rows[start:stop], axis=0, out=sums[i])
            if not i:
                np.copyto(total, sums[0])
            elif d > 1:
                _carry(rows, start, stop, (total,), saved)
    if d == 1:
        # a lone column is summed pairwise, not in order, so it is reduced
        # whole (each worker's already is: its rows are one block)
        total = np.add.reduce(rows, axis=0)
    return sums / n, total / (N * n)


def _mean_sq_distances(centers: np.ndarray, point: np.ndarray) -> float:
    """``np.mean(np.sum((centers - point) ** 2, axis=1))``, bit for bit.

    One read of the (n, d) centers, a block of rows at a time. Each block's
    per-row sums go into one (n,) vector, which is averaged whole, so the
    result is the formula's bits without its (n, d) temporary.
    """
    n, d = centers.shape
    diff = np.empty((min(n, BLOCK_ROWS), d))
    row_sums = np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        block = diff[: hi - lo]
        np.subtract(centers[lo:hi], point, out=block)
        np.square(block, out=block)
        np.add.reduce(block, axis=1, out=row_sums[lo:hi])
    return float(np.mean(row_sums))


class Meter:
    """Every cost of one run: oracle calls per worker and phase, and rounds.

    The runner sets ``phase`` between dispatches. A charge adds to the
    worker's row and to ``total``, the run's oracle calls, read at every
    record. ``rounds`` counts synchronized exchanges and
    ``bytes_equivalent`` the d-vectors shipped in them; only the
    coordinator's ``sync_round`` writes them.
    """

    def __init__(self, num_workers: int):
        self.phase = PHASES[0]
        self.rows = [dict.fromkeys(PHASES, 0) for _ in range(num_workers)]
        self.total = self.rounds = self.bytes_equivalent = 0

    def charge(self, worker: int, amount: int) -> None:
        amount = int(amount)
        self.rows[worker][self.phase] += amount
        self.total += amount

    def breakdown(self) -> dict:
        """Calls per phase over all workers, in ``PHASES`` order."""
        return {p: sum(row[p] for row in self.rows) for p in PHASES}

    def snapshot(self) -> tuple:
        """``(total, rounds, bytes_equivalent, rows)`` as they stand now."""
        rows = [row.copy() for row in self.rows]
        return self.total, self.rounds, self.bytes_equivalent, rows

    def restore(self, snapshot: tuple) -> None:
        """Set the ledger back to ``snapshot``, taking its rows; the phase stays."""
        self.total, self.rounds, self.bytes_equivalent, self.rows = snapshot


class LocalObjective:
    """One worker's cost function plus its metered batch oracles.

    ``sample_count`` is ``None`` for online objectives, which refuse
    ``full_gradient``; their batch oracles take the indices that
    ``draw_indices`` returns. ``smoothness`` and ``variance_bound`` are the
    advertised L and sigma; both are certified by the randomized test suite.
    ``variance_bound`` is known once the suite factory has built every
    worker: the sigmoid factory assigns it, a quadratic objective computes
    it at each read, and an objective built alone advertises 0.0.
    """

    variance_bound = 0.0

    def __init__(
        self,
        worker_id: int,
        dim: int,
        sample_count: int | None,
        pool_size: int,
        smoothness: float,
    ):
        self.worker_id = worker_id
        self.dim = dim
        self.sample_count = sample_count
        self.smoothness = smoothness
        _check_pool_size(pool_size)
        self._pool_size = pool_size

    @property
    def is_finite_sum(self) -> bool:
        return self.sample_count is not None

    def _charge(self, meter: Meter | None, amount: int) -> None:
        if meter is not None:
            meter.charge(self.worker_id, amount)

    # -- sampling ---------------------------------------------------------

    def draw_indices(self, gen, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. sample indices (with replacement).

        ``gen`` is a key's ``numerics.Substream``, and the indices are its
        ``indices`` over this objective's pool: the key's
        ``Generator.integers(0, pool, size)``, bit for bit.
        """
        return gen.indices(self._pool_size, size)

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
        delta = self._gradient_mean(x_new, idx, x_old)
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
    # Each family defines one hook, ``_gradient_mean(x, idx, x_old=None)``,
    # over a batch of indices, never the metered methods above, which own
    # the charging: the mean gradient at ``x``, or with ``x_old`` the mean
    # of the per-sample differences. A full gradient is the batch of every
    # sample, ``0 .. n-1``.


class QuadraticObjective(LocalObjective):
    """Average of ``0.5 * ||x - c_j||^2`` over per-sample centers.

    ``grand_mean`` is the mean of every worker's centers, which the suite
    factory passes. ``variance_bound`` is then computed from the centers
    and the grand mean at each read, which costs one pass over the worker's
    centers, as much as the spreads' pass of the set-up: no
    ``pr-spider-finite`` run reads it. A stand-alone objective, built
    without ``grand_mean``, advertises 0.0.
    """

    def __init__(
        self,
        worker_id: int,
        centers: np.ndarray,
        grand_mean: np.ndarray | None = None,
    ):
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        centers = _read_only(centers)
        n, d = centers.shape
        super().__init__(
            worker_id,
            dim=d,
            sample_count=n,
            pool_size=n,
            smoothness=1.0,
        )
        self.centers = centers
        self._grand_mean = None if grand_mean is None else _read_only(grand_mean)

    def __reduce__(self):
        return type(self), (self.worker_id, self.centers, self._grand_mean)

    @property
    def variance_bound(self) -> float:
        """Uniform worker-vs-global deviation, ``sqrt(mean ||c - g||^2)``.

        For this family the gradient deviation is x-free and equals the
        spread of the centers around the grand mean ``g``.
        """
        if self._grand_mean is None:
            return 0.0
        return math.sqrt(_mean_sq_distances(self.centers, self._grand_mean))

    def _gradient_mean(self, x, idx, x_old=None):
        _check_indices(idx, self._pool_size)
        centers = self.centers
        edges = _block_edges(idx.shape[0], self.dim, QUAD_ROWS)
        height = _block_height(edges)
        gathered = _scratch("gathered", height, self.dim)
        # the points tiled once per call: an (h, d) operand runs faster
        # than a broadcast (d,) one, which numpy buffers
        pair = x_old is not None
        points = _scratch("points", (1 + pair) * height, self.dim)
        new, old = points[:height], points[height:]
        new[...] = x
        if pair:
            old[...] = x_old

        def fill(lo, hi, rows):
            # each sampled center is read once, for both points of a pair,
            # whose difference stays (x - c) - (x_old - c), row by row
            count = hi - lo
            c = gathered[:count]
            np.take(centers, idx[lo:hi], axis=0, out=c, mode="wrap")
            np.subtract(new[:count], c, out=rows)
            if pair:
                np.subtract(old[:count], c, out=c)
                np.subtract(rows, c, out=rows)

        return _blocked_mean(idx.shape[0], self.dim, fill, QUAD_ROWS)


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
        )
        self.features = features
        self.offsets = offsets
        self._block_rows = sigmoid_block_rows(d)

    def __reduce__(self):
        # sigma is the factory's, set after construction
        args = (self.worker_id, self.features, self.offsets, not self.is_finite_sum)
        return type(self), args, {"variance_bound": self.variance_bound}

    @staticmethod
    def _slopes(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``phi'(<a_j, x> - b_j)`` for the rows of ``a``, margins by gemv."""
        t = a.dot(x)
        t -= b
        t2 = t * t
        # t + t is 2t exactly, without converting a Python float
        return (t + t) / ((1.0 + t2) ** 2)

    def _gradient_mean(self, x, idx, x_old=None):
        """Mean of the rows ``phi'(<a, x> - b) * a`` over ``idx``, by blocks.

        This is the restart gradient, and a batch of any size, online
        restarts included, needs memory for one block only. With ``x_old``,
        each row is the difference of that row at ``x`` and at ``x_old``,
        formed before the sum: the pair kernel. Margins are taken per block,
        so no gemv is big enough for BLAS to thread it.
        """
        # a tiny pair batch's tail on Python floats (see the module
        # docstring); an empty one is refused by _block_edges
        tiny = 0 < idx.shape[0] * self.dim <= SCALAR_ENTRIES
        if x_old is not None and self.dim > 1 and tiny:
            a = self.features.take(idx, axis=0)
            return _pair_mean_on_floats(
                a.dot(x).tolist(),
                a.dot(x_old).tolist(),
                self.offsets.take(idx).tolist(),
                a.tolist(),
            )
        _check_indices(idx, self._pool_size)
        edges = _block_edges(idx.shape[0], self.dim, self._block_rows)
        if x_old is not None:
            gathered = _scratch("gathered", _block_height(edges), self.dim)
            spare = _scratch("grads", _block_height(edges), self.dim)

        def fill(lo, hi, out):
            b = np.take(self.offsets, idx[lo:hi], mode="wrap")
            a = out if x_old is None else gathered[: hi - lo]
            np.take(self.features, idx[lo:hi], axis=0, out=a, mode="wrap")
            if x_old is None:
                # a broadcast multiply: tiling the slopes would add a pass
                # over the block (see the module docstring)
                out *= self._slopes(a, x, b)[:, None]
                return
            old = spare[: hi - lo]
            for point, grad in ((x, out), (x_old, old)):
                grad[...] = self._slopes(a, point, b)[:, None]
                np.multiply(grad, a, out=grad)
            np.subtract(out, old, out=out)

        return _blocked_mean(idx.shape[0], self.dim, fill, self._block_rows)


def _pair_mean_on_floats(new, old, offsets, rows) -> np.ndarray:
    """The sigmoid pair kernel's tail on Python floats, with the same bits.

    ``new`` and ``old`` are the BLAS margins of ``rows`` at both points.
    The row sum starts from 0.0, as ``np.add.reduce`` over d >= 2 columns
    does, so a column of -0.0 sums to +0.0; ``q * q``, since ``q ** 2``
    raises ``OverflowError`` on a Python float.
    """
    slopes = []
    for u, w, b, row in zip(new, old, offsets, rows):
        u -= b
        w -= b
        qu = 1.0 + u * u
        qw = 1.0 + w * w
        slopes.append(((u + u) / (qu * qu), (w + w) / (qw * qw), row))
    # per column, p*r - q*r added row by row
    count = len(rows)
    mean = []
    for k in range(len(rows[0])):
        total = 0.0
        for pu, pw, row in slopes:
            r = row[k]
            total += pu * r - pw * r
        mean.append(total / count)
    return np.array(mean)


class _StackedAnalytic:
    """Every worker's mean value and mean gradient, a chunk of points at once.

    ``evaluate(points)`` is a pure function of an (R, d) stack of points:
    one stacked pass (the family's ``_stacked``) gives the (R, N) values
    and (R, N, d) gradients. ``values(x)`` and ``gradients(x)`` evaluate
    ``x`` alone, as a chunk of one; every point gets its own bits at any
    chunk size and position. ``chunk`` is how many points a runner stacks:
    ``CHUNK_ENTRIES`` over a point's largest (N, .) array, at most
    ``CHUNK_RECORDS``.
    """

    def __init__(self, entries_per_point: int):
        self.chunk = max(1, min(CHUNK_RECORDS, CHUNK_ENTRIES // entries_per_point))

    def evaluate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """``(values, gradients)`` of every worker at each of ``points``."""
        return self._stacked(np.asarray(points, dtype=np.float64))

    def values(self, x: ParamVector) -> np.ndarray:
        return self.evaluate([x])[0][0]

    def gradients(self, x: ParamVector) -> np.ndarray:
        return self.evaluate([x])[1][0]


class QuadraticAnalytic(_StackedAnalytic):
    """Every quadratic worker's mean value and mean gradient at once.

    ``center_means`` (N, d) are the workers' center means, from the set-up's
    first pass, and ``spread_sq`` (N,) their mean squared spreads around
    them, the exact value offsets, from its second; both are held as
    read-only views. A chunk's (R, N, d) differences ``x - mean`` are its
    gradients, and their stacked ``sq_norms`` give its values.
    """

    def __init__(self, center_means: np.ndarray, spread_sq: np.ndarray):
        super().__init__(center_means.size)
        self.center_means = _read_only(center_means)
        self.spread_sq = _read_only(spread_sq)

    def __reduce__(self):
        return type(self), (self.center_means, self.spread_sq)

    def _stacked(self, points):
        diff = points[:, None, :] - self.center_means
        return 0.5 * sq_norms(diff) + 0.5 * self.spread_sq, diff


class SigmoidAnalytic(_StackedAnalytic):
    """Every sigmoid worker's mean value and mean gradient at once.

    ``features`` (N, n, d) and ``offsets`` (N, n) are the arrays whose
    worker slices the objectives hold, not copies of them. A chunk's
    (R, N, n) margins ``t`` are taken by one broadcast ``np.matmul`` per
    row block, which gives each worker at each point its own gemv's bits.
    ``phi(t) = t*t / (t*t + 1)`` and ``phi'(t) = (t + t) / (q * q)``,
    ``q = t*t + 1``, are taken over the whole stack, and the gradients by
    the gemvs of ``features.T @ phi'``. Where ``t*t`` overflows, ``phi`` is
    1.0, its correctly rounded value, and ``phi'`` is 0 with the sign of
    ``t``; elsewhere the formulas stand, so finite entries keep their bits.
    """

    def __init__(self, features: np.ndarray, offsets: np.ndarray):
        num_workers, n, d = features.shape
        super().__init__(num_workers * max(n, d))
        self.features = _read_only(features)
        self.offsets = _read_only(offsets)
        self._features_t = self.features.transpose(0, 2, 1)
        # row blocks BLAS won't thread, as in the metered kernels
        self._edges = _block_edges(n, d, sigmoid_block_rows(d))

    def __reduce__(self):
        return type(self), (self.features, self.offsets)

    def _stacked(self, points):
        t = np.empty((points.shape[0],) + self.offsets.shape)
        columns = points[:, None, :, None]
        # the saturation below sets every entry that overflows, margins
        # included, so it is not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(self._edges, self._edges[1:]):
                np.matmul(self.features[:, lo:hi], columns, out=t[:, :, lo:hi, None])
            t -= self.offsets
            t2 = t * t
            q = t2 + 1.0
            phi = t2 / q
            slopes = (t + t) / (q * q)
        # where q * q alone overflows, (t + t) / inf is already +-0
        if not np.isfinite(t2).all():
            big = np.isinf(t2)
            phi[big] = 1.0
            slopes[big] = np.copysign(0.0, t[big])
        n = t.shape[2]
        # a stack of (d, n) @ (n, 1): per worker and point, features.T @ phi'
        grads = np.matmul(self._features_t, slopes[..., None])
        return np.add.reduce(phi, axis=2) / n, grads[..., 0] / n


@dataclass(frozen=True)
class ProblemSuite:
    """N worker objectives sharing a dimension and a common start point.

    ``optimum_value`` is exact for the quadratic family and a certified
    lower bound (zero) for the nonnegative sigmoid family. ``analytic``
    evaluates every worker's analytic oracles at once (``values``/
    ``gradients``): the factories build their family's evaluator over the
    suite's data, so a suite comes from a factory. A suite is frozen, its
    fields set once; a changed copy comes from ``dataclasses.replace``.
    Every construction, ``replace`` included, keeps ``objectives`` as a
    tuple and ``initial_point`` as a read-only float64 copy, checked by
    ``as_vector`` for the suite's dimension and finite entries, so neither
    changes under the runs that share the suite. Every construction also
    refuses, with ``ValueError``, a non-finite ``smoothness`` and a start
    point where a worker's value is not finite: PR-SPIDER's rules assume a
    finite L and a finite start gap. Pickle and deepcopy rebuild a suite
    and its parts through their constructors, checks and read-only flags
    included. ``variance_bound`` is a
    pure read: for a quadratic suite it costs one pass over each worker's
    centers. ``config`` echoes the construction parameters for experiment
    bookkeeping; an explicit suite's data arrays are in it as the
    read-only arrays the suite holds, not as lists, and a sidecar writes
    them as lists.
    """

    objectives: tuple[LocalObjective, ...]
    optimum_value: float
    initial_point: ParamVector
    analytic: object = field(repr=False, compare=False)
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        objectives = tuple(self.objectives)
        point = _read_only(as_vector(self.initial_point, objectives[0].dim))
        object.__setattr__(self, "objectives", objectives)
        object.__setattr__(self, "initial_point", point)
        # PR-SPIDER's rules assume a finite L and a finite start gap
        if not math.isfinite(self.smoothness):
            raise ValueError(f"smoothness is {self.smoothness}")
        # the worker values, not ``value``, whose call count the benchmark's
        # span gate pins; data that overflows is refused, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            start = self.analytic.values(point)
        if not np.isfinite(start).all():
            raise ValueError("the objective at the start point is not finite")

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor and its checks
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

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

    def value(self, x: ParamVector, *, worker_values=None) -> float:
        """Analytic global objective value (no oracle charge).

        The worker values, ``analytic.values(x)`` unless given, are summed
        in worker order. A runner gives each record its row of a stacked
        pass as ``worker_values``, rather than evaluate ``x`` again, and
        still makes the call once a record: the benchmark's span gate
        (``perfbench/workloads.py``) pins its count.
        """
        if worker_values is None:
            worker_values = self.analytic.values(x)
        return ordered_sum(worker_values) / self.num_workers

    def gradient(self, x: ParamVector, *, worker_gradients=None) -> ParamVector:
        """Analytic global gradient (no oracle charge).

        The mean of the worker gradients, ``analytic.gradients(x)`` unless
        given; ``worker_gradients`` is a record's row, as in ``value``.
        """
        if worker_gradients is None:
            worker_gradients = self.analytic.gradients(x)
        return mean_reduce(worker_gradients)

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
    # the set-up's second pass: each worker's spread around its own mean,
    # the analytic oracle's value offset; sigma is computed at each read
    spreads = np.array(
        [_mean_sq_distances(c, mean) for c, mean in zip(centers, center_means)]
    )
    objectives = [
        QuadraticObjective(i, c, grand_mean) for i, c in enumerate(centers)
    ]
    suite = ProblemSuite(
        objectives=objectives,
        optimum_value=0.0,
        initial_point=initial_point,
        analytic=QuadraticAnalytic(center_means, spreads),
        config=config,
    )
    # minimum of the averaged quadratic sits at the grand mean
    return replace(suite, optimum_value=suite.value(grand_mean))


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
        _draw_centers(rng, out, scale, center_spread, worker_means[i])

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
    """An explicit suite's array ``key`` as a finite, C-ordered float64 copy.

    A named axis (``"n"``) takes any length of at least 1. Every message
    starts with ``key``, so a config error names the bad array.
    """
    try:
        _check_numbers(data)
        if len(shape) == 1:
            return as_vector(data, shape[0])
        array = np.array(data, dtype=np.float64, order="C")
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
        "centers": _read_only(centers),
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
        initial_point=initial_point,
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
        "features": _read_only(features),
        "offsets": _read_only(offsets),
        "initial_point": initial_point.tolist(),
        "online": online,
    }
    return _finish_sigmoid_suite(
        features, offsets, initial_point, online, config
    )
