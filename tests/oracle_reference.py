"""One worker's analytic oracles, computed from its own data arrays alone.

The suites evaluate every worker at once through their family's stacked
evaluator (``suite.analytic``). These are the one-worker formulas, worker
by worker, that the stacked evaluators must reproduce bit for bit:

* quadratic: ``0.5 * ||x - mean||^2 + 0.5 * spread`` and ``x - mean``, with
  the center mean and the mean squared spread around it;
* sigmoid: the mean of ``phi(F x - b)`` and ``F^T phi'(F x - b) / n``, with
  each product one BLAS gemv over the worker's whole data, and ``phi`` and
  ``phi'`` saturated where ``t * t`` overflows.
"""

from __future__ import annotations

import numpy as np

from prspider.numerics import sq_norm
from prspider.problems import QuadraticObjective


def one_worker_oracles(obj, x):
    """(mean value, mean gradient) of one objective at ``x``."""
    if isinstance(obj, QuadraticObjective):
        mean = obj.centers.mean(axis=0)
        spread = float(np.mean(np.sum((obj.centers - mean) ** 2, axis=1)))
        return 0.5 * sq_norm(x - mean) + 0.5 * spread, x - mean
    t = obj.features @ x - obj.offsets
    t2 = t * t
    phi = t2 / (1.0 + t2)
    slopes = (t + t) / ((1.0 + t2) ** 2)
    # past |t| ~ 1.34e154, t * t overflows: phi saturates at 1.0 and
    # phi' at 0 with the sign of t, where the formulas give inf / inf
    big = np.isinf(t2)
    phi[big] = 1.0
    slopes[big] = np.copysign(0.0, t[big])
    value = float(np.mean(phi))
    return value, (obj.features.T @ slopes) / obj.features.shape[0]
