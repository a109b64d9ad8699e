"""Recursive variance-reduced gradient estimator and the averaging schedule.

The estimator tracks a direction ``v`` by adding, at each inner step, the
batch-mean difference of per-sample gradients between the current and the
previous iterate. The same batch is evaluated at both points: the variance
cancellation depends on the shared samples, and the cost, charged to the
run's meter, is two oracle accesses per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParamVector
from .problems import LocalObjective, Meter

__all__ = [
    "EstimatorState",
    "spider_update",
    "spider_update_with_samples",
    "is_averaging_step",
]


@dataclass(frozen=True)
class EstimatorState:
    """Worker-local estimator: direction ``v`` and reference point ``x_prev``."""

    v: ParamVector
    x_prev: ParamVector


def spider_update_with_samples(
    state: EstimatorState,
    obj: LocalObjective,
    x_curr: ParamVector,
    indices,
    meter: Meter | None = None,
) -> EstimatorState:
    """Apply one recursion step using an explicit sample batch.

    Used directly by enumeration tests; ``spider_update`` draws the batch.
    """
    if len(indices) < 1:
        raise ValueError("batch must contain at least one sample")
    delta = obj.pair_difference_mean(x_curr, state.x_prev, indices, meter)
    return EstimatorState(v=state.v + delta, x_prev=x_curr)


def spider_update(
    state: EstimatorState,
    obj: LocalObjective,
    x_curr: ParamVector,
    B: int,
    rng: np.random.Generator,
    meter: Meter | None = None,
) -> EstimatorState:
    """One recursion step on a freshly drawn i.i.d. batch of size ``B``.

    Charges exactly ``2 * B`` oracle calls to the worker's row of
    ``meter`` and moves the reference point to ``x_curr``.
    """
    if B < 1:
        raise ValueError(f"batch size must be positive, got {B}")
    indices = obj.draw_indices(rng, B)
    return spider_update_with_samples(state, obj, x_curr, indices, meter)


def is_averaging_step(t: int, I: int) -> bool:
    """Whether inner iteration ``t`` is a scheduled synchronization."""
    return t % I == 0
