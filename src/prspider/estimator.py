"""Recursive variance-reduced gradient estimator and the averaging schedule.

The estimator tracks a direction ``v`` by adding, at each inner step, the
batch-mean difference of per-sample gradients between the current iterate
and the reference point ``x_prev``, the iterate before the last move. The
same batch is evaluated at both points: the variance cancellation depends
on the shared samples, and the cost, charged to the run's meter, is two
oracle accesses per sample. The caller holds ``v``, moves the iterate
along it, and passes the iterates from before and after the move.
"""

from __future__ import annotations

import numpy as np

from .numerics import ParamVector
from .problems import LocalObjective, Meter

__all__ = [
    "spider_update",
    "spider_update_with_samples",
    "is_averaging_step",
]


def spider_update_with_samples(
    v: ParamVector,
    x_prev: ParamVector,
    obj: LocalObjective,
    x_curr: ParamVector,
    indices,
    meter: Meter | None = None,
) -> ParamVector:
    """The direction after one recursion step on an explicit sample batch.

    Used directly by enumeration tests; ``spider_update`` draws the batch.
    """
    if len(indices) < 1:
        raise ValueError("batch must contain at least one sample")
    return v + obj.pair_difference_mean(x_curr, x_prev, indices, meter)


def spider_update(
    v: ParamVector,
    x_prev: ParamVector,
    obj: LocalObjective,
    x_curr: ParamVector,
    B: int,
    rng: np.random.Generator,
    meter: Meter | None = None,
) -> ParamVector:
    """The direction after one recursion step on a fresh i.i.d. batch of ``B``.

    Charges exactly ``2 * B`` oracle calls to the worker's row of ``meter``.
    """
    if B < 1:
        raise ValueError(f"batch size must be positive, got {B}")
    indices = obj.draw_indices(rng, B)
    return spider_update_with_samples(v, x_prev, obj, x_curr, indices, meter)


def is_averaging_step(t: int, I: int) -> bool:
    """Whether inner iteration ``t`` is a scheduled synchronization."""
    return t % I == 0
