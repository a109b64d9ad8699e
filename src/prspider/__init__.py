"""Deterministic worker-server simulator for variance-reduced distributed SGD.

The package meters oracle calls and communication rounds exactly, keyed
randomness makes every run bit-reproducible, and analytic problem suites
supply free evaluation oracles for stationarity metrics.
"""

from .algorithms import (
    DivergedError,
    HyperParams,
    choose_params_finite,
    choose_params_online,
    draw_restart_direction,
    run_parallel_minibatch_sgd,
    run_parallel_restarted_sgd,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from .estimator import is_averaging_step, spider_update
from .harness import (
    CertificateError,
    MetricsRecord,
    MetricsTrace,
    RunHooks,
    WorkerState,
    evaluate_fos,
    first_hit,
    sync_round,
)
from .numerics import ParamVector, RngStream, axpy, mean_reduce, sq_norm
from .problems import (
    LocalObjective,
    Meter,
    ProblemSuite,
    QuadraticObjective,
    SigmoidObjective,
    UnsupportedOperationError,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "DivergedError",
    "HyperParams",
    "LocalObjective",
    "Meter",
    "MetricsRecord",
    "MetricsTrace",
    "ParamVector",
    "ProblemSuite",
    "QuadraticObjective",
    "RngStream",
    "RunHooks",
    "SigmoidObjective",
    "UnsupportedOperationError",
    "WorkerState",
    "axpy",
    "choose_params_finite",
    "choose_params_online",
    "draw_restart_direction",
    "evaluate_fos",
    "first_hit",
    "is_averaging_step",
    "make_nonconvex_suite",
    "make_quadratic_suite",
    "mean_reduce",
    "quadratic_suite_from_centers",
    "run_parallel_minibatch_sgd",
    "run_parallel_restarted_sgd",
    "run_pr_spider_finite",
    "run_pr_spider_online",
    "sigmoid_suite_from_params",
    "spider_update",
    "sq_norm",
    "sync_round",
]
