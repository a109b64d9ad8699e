"""Deterministic vector arithmetic and keyed random substreams.

Every reduction over workers runs in a fixed worker-index order, so a run
is bit-identical across repetitions and across execution parallelism.
Randomness is counter-style: each draw site is keyed by
(seed, worker, epoch, iteration, purpose), which makes any single worker
replayable in isolation and keeps draws on distinct workers independent.

A key becomes a generator exactly as
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(worker, epoch,
iteration, purpose))))`` would make it: same seed words, same draws.
``SeedSequence``'s hash is fixed by NEP 19, so ``RngStream`` computes it
itself, for ``ITER_BLOCK`` consecutive iterations of one (worker, epoch,
purpose) at a time, in one vectorised numpy pass, and hands each PCG64 its
four seed words directly. A draw site of two indices, drawn by
``LocalObjective.draw_indices``, costs about 4.2 us on a 2-vCPU x86-64
host; through ``SeedSequence`` and ``Generator.integers``, about 22 us.

Tiny stacks skip numpy's per-call cost. ``mean_reduce`` of at most
``SCALAR_ENTRIES`` float64 entries runs on Python floats, whose ``+ - * /``
round exactly as numpy's elementwise ufuncs do, and keeps numpy's order of
summation, so both paths give the same bits. ``problems`` runs the tail of
its small-batch sigmoid pair kernel the same way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "ParamVector",
    "RngStream",
    "DRAW_INNER",
    "DRAW_RESTART",
    "DRAW_INIT",
    "as_vector",
    "mean_reduce",
    "axpy",
    "sq_norm",
    "sq_norms",
    "ordered_sum",
]

# Model coordinates are plain 1-D float64 arrays.
ParamVector = np.ndarray

# Stacks of up to this many entries run on Python floats: on a 2-vCPU
# x86-64 host they beat numpy's per-call cost up to 16 entries, tie near 32
# and lose by 64
SCALAR_ENTRIES = 16

# Purpose tags keep co-located draw sites (inner-loop batches, epoch
# restarts, the initial direction) on disjoint substreams.
DRAW_INNER = 0
DRAW_RESTART = 1
DRAW_INIT = 2


def as_vector(data, dim: int | None = None) -> ParamVector:
    """Coerce ``data`` to a finite 1-D float64 array (always a copy)."""
    v = np.array(data, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def mean_reduce(vectors: Sequence[ParamVector] | np.ndarray) -> ParamVector:
    """Componentwise mean over a worker-ordered list of vectors (or rows).

    ``vectors`` is a list of equal-length 1-D vectors or an ``(N, d)``
    array, stacked once. The sum runs left-to-right over the worker index,
    anchored at the first vector (``v0 + mean(v_k - v0)``), so the result
    is deterministic and the mean of N copies of one vector is that vector
    bitwise. ``np.add.accumulate`` adds row by row for any d, where
    ``np.add.reduce`` would sum a lone column (d = 1) pairwise. A float64
    stack of 2 or more rows and at most ``SCALAR_ENTRIES`` entries is
    reduced on Python floats in the same order, with the same bits.
    """
    stack = np.asarray(vectors, order="C")
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError(f"mean_reduce needs N >= 1 vectors, got {stack.shape}")
    first = stack[0]
    if stack.shape[0] == 1:
        return first.copy()
    if stack.size <= SCALAR_ENTRIES and stack.dtype == np.float64:
        return np.array([_anchored_mean(col) for col in zip(*stack.tolist())])
    acc = np.add.accumulate(stack[1:] - first, axis=0)[-1]
    acc /= stack.shape[0]
    # a zero accumulated deviation means the mean IS the anchor; returning
    # it verbatim keeps the identity bitwise (including signed zeros)
    mean = first + acc
    np.copyto(mean, first, where=acc == 0.0)
    return mean


def _anchored_mean(column: tuple) -> float:
    """``mean_reduce`` of one column of Python floats, with the same bits.

    The deviations are added left to right from the first one, as
    ``np.add.accumulate`` adds them, and a zero mean deviation returns the
    anchor itself.
    """
    v0 = column[0]
    acc = column[1] - v0
    for v in column[2:]:
        acc += v - v0
    acc /= len(column)
    return v0 if acc == 0.0 else v0 + acc


def axpy(x: ParamVector, a: float, y: ParamVector) -> ParamVector:
    """Return ``x + a * y`` without mutating the inputs."""
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not math.isfinite(a):
        raise ValueError("scalar must be finite")
    return x + a * y


def sq_norm(x: ParamVector) -> float:
    """Squared Euclidean norm of ``x``."""
    return float(np.dot(x, x))


def sq_norms(rows: np.ndarray) -> np.ndarray:
    """``sq_norm`` of each row of a 2-D array, bit for bit.

    A stacked ``matmul`` of 1 x d by d x 1 runs the same BLAS dot per row
    that ``np.dot`` runs; ``einsum`` and ``(rows * rows).sum(1)`` sum in
    other orders.
    """
    rows = np.ascontiguousarray(rows)
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1)


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right float sum of ``values``, as a ``+=`` loop computes it."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and its
# default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# Iterations whose seed words are derived together. A power of two, so a
# block never straddles 2**32 and all its iterations have one word count.
ITER_BLOCK = 128


def _words(value) -> list[int]:
    """``value`` in little-endian 32-bit words, as ``SeedSequence`` splits it.
    """
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {value}")
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """Constants of ``calls`` successive hash steps, as a uint32 column.

    Step ``k`` xors with entry ``k`` and multiplies by entry ``k + 1``.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# generate_state(4, uint64) hashes eight 32-bit words, cycling the pool
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_PICK = [k % _POOL for k in range(2 * _POOL)]


def _seed_block(
    seed: int, worker: int, epoch: int, first: int, purpose: int
) -> np.ndarray:
    """PCG64 seed words of iterations ``first .. first + ITER_BLOCK - 1``.

    Row ``k`` equals ``SeedSequence(entropy=seed, spawn_key=(worker, epoch,
    first + k, purpose)).generate_state(4, np.uint64)``. The entropy words
    ahead of the iteration are the same for every key, so numpy mixes them
    once, as the pool of ``SeedSequence(seed, spawn_key=(worker, epoch))``;
    from the iteration on, the pools of all keys are mixed together as one
    ``(4, ITER_BLOCK)`` uint32 array.
    """
    width = len(_words(first))  # the same for every iteration of the block
    if width == 1:
        iteration = [np.arange(first, first + ITER_BLOCK, dtype=np.uint32)]
    else:
        span = range(first, first + ITER_BLOCK)
        iteration = [
            np.array([t >> shift & _MASK32 for t in span], dtype=np.uint32)
            for shift in range(0, 32 * width, 32)
        ]
    trail = iteration + _words(purpose)
    # one hash step per entropy word and pool word, pool-into-pool included;
    # a spawn key pads the seed's words with zeros to the pool size
    lead = max(len(_words(seed)), _POOL) + len(_words(worker)) + len(_words(epoch))
    k = _POOL * lead
    consts = _hash_consts(_INIT_A, _MULT_A, k + _POOL * len(trail))
    mixed = np.random.SeedSequence(seed, spawn_key=(worker, epoch)).pool[:, None]
    for word in trail:
        h = (word ^ consts[k : k + _POOL]) * consts[k + 1 : k + _POOL + 1]
        h ^= h >> np.uint32(16)
        k += _POOL
        mixed = mixed * np.uint32(_MIX_L) - h * np.uint32(_MIX_R)
        mixed ^= mixed >> np.uint32(16)
    state = mixed[_STATE_PICK] ^ _STATE_CONSTS[:-1]
    state *= _STATE_CONSTS[1:]
    state ^= state >> np.uint32(16)
    # word pairs are (low, high), read as little-endian like SeedSequence
    words = np.ascontiguousarray(state.T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """PCG64 seed words derived ahead of time for one substream key."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds exactly the 4 uint64 words PCG64 asks for")
        return self.words


@dataclass(frozen=True)
class RngStream:
    """Factory for reproducible, statistically independent substreams.

    A substream is addressed by (worker, epoch, iteration, purpose) on top
    of the run seed. Identical keys always produce identical draw
    sequences; distinct keys produce independent ones. Draw sites consume
    values sequentially from their own generator, so no draw site can
    perturb another. A substream's ``bit_generator.seed_seq`` holds only its
    seed words, not a ``SeedSequence``, so the generator cannot ``spawn``.
    """

    seed: int
    # (worker, purpose) -> (epoch, first iteration, seed words): the last
    # block of keys derived for each slot
    _blocks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def substream(
        self, worker: int, epoch: int, iteration: int, purpose: int = DRAW_INNER
    ) -> np.random.Generator:
        iteration = operator.index(iteration)
        first = iteration - iteration % ITER_BLOCK
        slot = (worker, purpose)
        # entries are replaced whole, never changed: threads that race on a
        # slot at most derive the same block twice
        block = self._blocks.get(slot)
        if block is None or block[0] != epoch or block[1] != first:
            words = _seed_block(self.seed, worker, epoch, first, purpose)
            block = self._blocks[slot] = (epoch, first, words)
        words = block[2][iteration - first]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))
