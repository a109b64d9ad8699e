"""Deterministic vector arithmetic and keyed random substreams.

Every reduction over workers runs in a fixed worker-index order, so a run
is bit-identical across repetitions and across processes.
Randomness is counter-style: each draw site is keyed by
(seed, worker, epoch, iteration, purpose), which makes any single worker
replayable in isolation and keeps draws on distinct workers independent.

A key's draws are those of
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(worker, epoch,
iteration, purpose))))``: same seed words, same indices. This module owns
the whole scheme. ``SeedSequence``'s hash is fixed by NEP 19, so
``RngStream`` computes it itself, for ``ITER_BLOCK`` consecutive
iterations of one (worker, epoch, purpose) at a time, in one vectorised
numpy pass: a ``SeedBlock``, whose lanes are the iterations.
``substream`` returns a ``Substream``, a plain (block, lane) value, and
``Substream.indices(pool, size)`` turns the lane's PCG64 outputs into
indices by numpy's bounded rule (``_bounded``), as ``Generator.integers(0,
pool, size)`` does. A batch of at most ``SCALAR_DRAWS`` indices builds no
PCG64: the first one of its pool and size on a block derives every lane's
first ``LANE_OUTPUTS`` PCG64 outputs in one more pass, on uint64 limbs
(seeding as numpy's ``pcg64_set_seed``, XSL-RR output), and turns them
into a table of every lane's indices, kept on the ``SeedBlock``. A larger
batch, or a lane with a rejected word among its first ``size``, seeds one
PCG64 from the lane's words and draws on arrays, redrawing rejected words.

Tiny stacks skip numpy's per-call cost. ``mean_reduce`` stacks every
input once; a float64 stack of at most ``SCALAR_ENTRIES`` entries is then
reduced on Python floats, whose ``+ - * /`` round exactly as numpy's
elementwise ufuncs do, in numpy's order of summation, so both paths give
the same bits. ``problems`` runs the tail of its small-batch sigmoid pair
kernel the same way, after margins taken by BLAS gemv through
``ndarray.dot``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "ParamVector",
    "RngStream",
    "Substream",
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
    reduced on Python floats in the same order, with the same bits. Integer
    and bool stacks are averaged as float64, float32 ones on float32.
    """
    stack = np.asarray(vectors, order="C")
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError(f"mean_reduce needs N >= 1 vectors, got {stack.shape}")
    f64 = stack.dtype == np.float64
    if not f64 and stack.dtype.kind in "biu":
        stack, f64 = stack.astype(np.float64), True
    first = stack[0]
    if stack.shape[0] == 1:
        return first.copy()
    if stack.size > SCALAR_ENTRIES or not f64:
        acc = np.add.accumulate(stack[1:] - first, axis=0)[-1]
        acc /= stack.shape[0]
        # a zero accumulated deviation means the mean IS the anchor;
        # returning it verbatim keeps the identity bitwise (including
        # signed zeros)
        mean = first + acc
        np.copyto(mean, first, where=acc == 0.0)
        return mean
    # per column, the deviations from the first row added row by row, as
    # np.add.accumulate adds them (from 0.0: a zero sum of either sign
    # returns the anchor), and a zero mean deviation returns the anchor
    count = stack.shape[0]
    anchor, *rest = stack.tolist()
    mean = []
    for j, a in enumerate(anchor):
        acc = 0.0
        for row in rest:
            acc += row[j] - a
        acc /= count
        mean.append(a if acc == 0.0 else a + acc)
    return np.array(mean)


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


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """Constants of ``calls`` successive hash steps, as a read-only uint32
    column, computed once per word count.

    Step ``k`` xors with entry ``k`` and multiplies by entry ``k + 1``.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


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


# Raw outputs derived per lane by the lane pass: six 32-bit words.
LANE_OUTPUTS = 3

# Batches up to this size read a key's indices from its seed block's lane
# outputs, whose six words serve a lane without rejections
SCALAR_DRAWS = 2 * LANE_OUTPUTS

# a raw output is two 32-bit words, low word first
_LE64, _LE32, _WORD_BITS = np.dtype("<u8"), np.dtype("<u4"), np.uint64(32)

# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905). Limb
# arithmetic runs on uint64 arrays with uint64 operands only: NumPy 1.x
# promotes uint64 mixed with a signed integer to float64, and a uint64
# scalar warns on overflow where an array wraps.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_ONE, _TOP_BIT, _ROT_SHIFT, _ROT_MASK = (
    np.uint64(1), np.uint64(63), np.uint64(58), np.uint64(63)
)


def _u128_consts(rows: list[list[int]]) -> tuple[np.ndarray, ...]:
    """128-bit constants as uint64 arrays of shape ``(rows, cols, 1)``: high
    limb, low limb, and the low limb's low and high 32-bit halves."""
    hi = np.array([[v >> 64 for v in r] for r in rows], dtype=np.uint64)
    lo = np.array([[v % 2**64 for v in r] for r in rows], dtype=np.uint64)
    return tuple(c[..., None] for c in (hi, lo, lo & _LOW32, lo >> _HALF))


# pcg64_set_seed steps state 0 to inc, adds the seed s, and steps again; a
# raw output steps once more, then reads the state. So output j's state is
# s * M**(j+1) + inc * (1 + M + ... + M**(j+1)), mod 2**128: row 0 holds
# the seed's factors, row 1 the increment's.
_OUTPUT_MULTS = _u128_consts(
    [
        [pow(_PCG_MULT, j + 1, 2**128) for j in range(1, LANE_OUTPUTS + 1)],
        [
            sum(pow(_PCG_MULT, i, 2**128) for i in range(j + 2)) % 2**128
            for j in range(1, LANE_OUTPUTS + 1)
        ],
    ]
)


def _mul_u128(hi: np.ndarray, lo: np.ndarray, consts) -> tuple:
    """``(hi, lo) * c mod 2**128`` per entry, for constants ``c`` that
    broadcast against it.

    The low limbs' 128-bit product is taken in 32-bit halves, whose
    partial products fit a uint64.
    """
    c_hi, c_lo, c0, c1 = consts
    x0 = lo & _LOW32
    x1 = lo >> _HALF
    p01 = x0 * c1
    p10 = x1 * c0
    mid = x0 * c0
    mid >>= _HALF
    mid += p01 & _LOW32
    mid += p10 & _LOW32
    top = x1 * c1
    top += p01 >> _HALF
    top += p10 >> _HALF
    top += mid >> _HALF
    top += lo * c_hi
    top += hi * c_lo
    return top, lo * c_lo


def _pcg64_outputs(words: np.ndarray) -> np.ndarray:
    """First ``LANE_OUTPUTS`` raw outputs of PCG64 seeded by each row.

    Row ``k`` of the ``(rows, LANE_OUTPUTS)`` uint64 result equals
    ``PCG64(_SeedWords(words[k])).random_raw(LANE_OUTPUTS)``: numpy's
    ``pcg64_set_seed`` reads words 0-1 as the 128-bit state seed and words
    2-3 as the stream, high word first, so ``inc = (stream << 1) | 1``;
    each output is PCG's XSL-RR, ``rotr64(hi ^ lo, hi >> 58)``.
    """
    s_hi, s_lo, q_hi, q_lo = words.T
    # seed and increment as one (2, rows) number of two limbs
    hi = np.stack((s_hi, q_hi << _ONE))
    hi[1] |= q_lo >> _TOP_BIT
    lo = np.stack((s_lo, q_lo << _ONE))
    lo[1] |= _ONE
    (hi, add_hi), (lo, add_lo) = _mul_u128(
        hi[:, None], lo[:, None], _OUTPUT_MULTS
    )
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo  # the carry out of the low limb
    xored = hi ^ lo
    rot = hi >> _ROT_SHIFT
    out = xored >> rot
    out |= xored << ((np.uint64(64) - rot) & _ROT_MASK)
    return np.ascontiguousarray(out.T)


def _check_pool_size(pool: int) -> None:
    # indices are scaled 32-bit words; factories check before they draw
    if not 1 <= pool <= 2**32:
        raise ValueError(f"sample pool of {pool} outside 1 .. 2**32")


def _bounded(raw: np.ndarray, pool: int) -> tuple:
    """Numpy's bounded rule on the 32-bit words of raw outputs, low first.

    Word ``u`` gives index ``(u * pool) >> 32``, kept unless the product's
    low half is below ``(2**32 - pool) mod pool``. Returns the int64
    indices, one per word, and the mask of the words kept.
    """
    scaled = raw.astype(_LE64, copy=False).view(_LE32).astype(np.uint64)
    scaled *= np.uint64(pool)
    low = scaled.astype(_LE64, copy=False).view(_LE32)[..., ::2]
    kept = low >= (2**32 - pool) % pool
    scaled >>= _WORD_BITS
    return scaled.view(np.int64), kept


def _lane_rows(words: np.ndarray, pool: int, size: int) -> list:
    """Each lane's first ``size`` indices from its first ``LANE_OUTPUTS``
    outputs, or ``None`` where the bounded rule rejects one of its first
    ``size`` words."""
    indices, kept = _bounded(_pcg64_outputs(words), pool)
    table = indices[:, :size]
    table.flags.writeable = False  # its rows are shared by every caller
    rows = list(table)
    for lane in np.flatnonzero(~kept[:, :size].all(axis=1)):
        rows[lane] = None
    return rows


class SeedBlock:
    """The keys of one slot's ``ITER_BLOCK`` iterations, one lane each.

    ``words[lane]`` seeds iteration ``first + lane`` of ``epoch``.
    ``tables`` caches ``Substream.indices``' lane tables under ``(pool,
    size)``; a run draws one pool and size per slot. A block is never
    changed, only filled: threads that race on a table at most compute it
    twice.
    """

    __slots__ = ("epoch", "first", "words", "tables")

    def __init__(self, epoch: int, first: int, words: np.ndarray):
        self.epoch = epoch
        self.first = first
        self.words = words
        self.tables = {}


class Substream:
    """One key's substream: its ``SeedBlock`` and its lane in it.

    A plain value: ``indices`` is a pure function of the key, the pool and
    the size, so a handle can be read any number of times.
    """

    __slots__ = ("block", "lane")

    def __init__(self, block: SeedBlock, lane: int):
        self.block = block
        self.lane = lane

    def indices(self, pool: int, size: int) -> np.ndarray:
        """``size`` i.i.d. indices in ``0 .. pool - 1``, with replacement.

        Values and dtype of the key's ``Generator.integers(0, pool, size)``,
        by numpy's bounded rule (Lemire, arXiv:1805.10941; ``_bounded``). A
        batch of 1 to ``SCALAR_DRAWS`` indices is read from a read-only
        table of every lane of the block, made once per pool and size from
        the lanes' first outputs. A lane with a rejected word among its
        first ``size``, and a larger batch, draw on arrays from the key's
        PCG64, whose loop alone redraws rejected words.
        """
        size = int(size)
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        block = self.block
        if 0 < size <= SCALAR_DRAWS:
            key = (pool, size)
            rows = block.tables.get(key)
            if rows is None:
                _check_pool_size(pool)
                rows = _lane_rows(block.words, pool, size)
                block.tables[key] = rows
            row = rows[self.lane]
            if row is not None:
                return row
        _check_pool_size(pool)
        if size == 0:
            return np.empty(0, dtype=np.int64)
        bits = np.random.PCG64(_SeedWords(block.words[self.lane]))
        parts, need = [], size
        while need > 0:
            drawn, kept = _bounded(bits.random_raw((need + 1) // 2), pool)
            parts.append(drawn[kept])
            need -= parts[-1].shape[0]
        drawn = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return drawn[:size]


@dataclass(frozen=True)
class RngStream:
    """Factory for reproducible, statistically independent substreams.

    A substream is addressed by (worker, epoch, iteration, purpose) on top
    of the run seed. Identical keys always produce identical draws;
    distinct keys produce independent ones. A draw is a pure function of
    its key, so no draw site can perturb another.
    """

    seed: int
    # (worker, purpose) -> the last SeedBlock derived for each slot
    _blocks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def substream(
        self, worker: int, epoch: int, iteration: int, purpose: int = DRAW_INNER
    ) -> Substream:
        """The key's ``Substream``, a lane of the slot's current block.

        The slot ``(worker, purpose)`` keeps one block, derived whole by
        ``_seed_block`` when a key leaves it and then replaced, never
        changed: threads that race on a slot at most derive it twice.
        """
        iteration = operator.index(iteration)
        lane = iteration % ITER_BLOCK
        first = iteration - lane
        slot = (worker, purpose)
        block = self._blocks.get(slot)
        if block is None or block.epoch != epoch or block.first != first:
            words = _seed_block(self.seed, worker, epoch, first, purpose)
            block = self._blocks[slot] = SeedBlock(epoch, first, words)
        return Substream(block, lane)
