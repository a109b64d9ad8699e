"""Simulated worker-server fabric: workers, rounds, metrics, traces.

A worker is its objective and its vectors: the iterate ``x`` and, in
PR-SPIDER, the direction ``v`` and its reference point ``x_prev``. One
communication round is one synchronized exchange event, whatever rides
in it. The run's ``problems.Meter`` is its one cost ledger: ``sync_round``
counts each round and the d-vectors it ships there, beside the oracle
calls, and a ``MetricsTrace`` reads its totals from it. Metrics come from
the analytic suite oracles and charge neither oracle calls nor rounds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .numerics import ParamVector, mean_reduce, ordered_sum, sq_norm, sq_norms
from .problems import LocalObjective, Meter, ProblemSuite

__all__ = [
    "CertificateError",
    "WorkerState",
    "MetricsRecord",
    "MetricsTrace",
    "RunHooks",
    "sync_round",
    "evaluate_fos",
    "first_hit",
    "CSV_HEADER",
    "write_text_atomic",
]

PAYLOADS = ("iterates", "both", "gradients")

CSV_HEADER = "s,t,f_bar,grad_sq,consensus,fos,ifo_total,comm_rounds"


class CertificateError(RuntimeError):
    """The objective fell below the suite's certified optimum.

    The certificate is wrong, not the run. ``make_record`` raises it; the
    runner attaches the trace so far, with this ``outcome``, as ``trace``.
    """

    outcome = "below-optimum"
    trace = None


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    The temporary file is moved over ``path`` by ``os.replace`` once it is
    complete, so a reader sees the old file or the new one, never part of
    one, and a write that fails leaves the old file and no temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class WorkerState:
    """One worker: its objective and iterate ``x``.

    In PR-SPIDER it also holds its direction ``v`` and the reference point
    ``x_prev`` at which ``v`` was last updated; both stay ``None`` in the
    local-SGD baselines.
    """

    worker_id: int
    obj: LocalObjective
    x: ParamVector
    v: ParamVector | None = None
    x_prev: ParamVector | None = None


@dataclass(frozen=True)
class MetricsRecord:
    """Per-iteration metrics plus the cumulative cost counters."""

    s: int
    t: int
    f_bar: float
    grad_sq: float
    consensus: float
    fos: float
    ifo_total: int
    comm_rounds: int


@dataclass
class RunHooks:
    """Optional observation callbacks; must not mutate run state.

    ``on_record(s, t, workers)`` fires at each metrics point, and
    ``on_sync(s, t, payload, workers)`` once per counted round, after its
    broadcast, the initial gradient round included. ``workers`` are the
    run's ``WorkerState`` objects.
    """

    on_record: Callable | None = None
    on_sync: Callable | None = None


@dataclass
class MetricsTrace:
    """Ordered records, the run's cost ledger, and what reruns the run.

    ``ledger`` is the run's ``Meter``; the runner fills ``records`` and
    ``epoch_restart_residuals`` as it goes and sets ``outcome`` at its end.
    """

    config_echo: dict
    seed: int
    ledger: Meter
    records: list[MetricsRecord] = field(default_factory=list)
    outcome: str = "completed"  # | "diverged" | "below-optimum"
    epoch_restart_residuals: list[float] = field(default_factory=list)

    @property
    def ifo_total(self) -> int:
        return self.ledger.total

    @property
    def comm_rounds(self) -> int:
        return self.ledger.rounds

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.s},{r.t},{r.f_bar!r},{r.grad_sq!r},{r.consensus!r},"
                f"{r.fos!r},{r.ifo_total},{r.comm_rounds}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        write_text_atomic(path, self.to_csv())

    def sidecar(self) -> dict:
        """Reloadable config plus run results; run keys stay at top level."""
        doc = dict(self.config_echo)
        calls = self.ledger.breakdown()
        doc["result"] = {
            "outcome": self.outcome,
            "seed": self.seed,
            "comm_rounds": self.ledger.rounds,
            "bytes_equivalent": self.ledger.bytes_equivalent,
            "ifo_total": self.ifo_total,
            "ifo_breakdown": calls,
            # inner steps cost two oracle accesses per sample; the
            # B-normalized view counts them once
            "ifo_total_pair_normalized": calls["init"] + calls["refresh"]
            + calls["inner"] // 2,
            "records": len(self.records),
            "epoch_restart_residuals": list(self.epoch_restart_residuals),
        }
        return doc

    def write_sidecar(self, path) -> None:
        write_text_atomic(path, json.dumps(self.sidecar(), indent=2) + "\n")


def sync_round(
    workers: Sequence[WorkerState],
    payload: str,
    meter: Meter,
    gradients: Sequence[ParamVector] | None = None,
) -> None:
    """One synchronized worker->server->worker exchange.

    Averages the requested payload in worker-index order, broadcasts it
    over each worker's ``x`` and direction ``v``, and counts one round and
    its vectors on ``meter``. The ``gradients`` payload averages
    caller-supplied vectors into ``v`` (the epoch-restart exchange). The
    reference point ``x_prev`` is the runner's to move. Nothing is
    returned: the averages are read from the workers.
    """
    if not workers:
        raise ValueError("sync_round needs at least one worker")
    if payload not in PAYLOADS:
        raise ValueError(f"unknown payload {payload!r}")

    x_bar = None
    v_bar = None
    if payload in ("iterates", "both"):
        x_bar = mean_reduce([w.x for w in workers])
    if payload == "both":
        v_bar = mean_reduce([w.v for w in workers])
    if payload == "gradients":
        if gradients is None:
            raise ValueError("gradients payload needs the vectors to average")
        v_bar = mean_reduce(list(gradients))

    for w in workers:
        if x_bar is not None:
            w.x = x_bar.copy()
        if v_bar is not None:
            w.v = v_bar.copy()

    meter.rounds += 1
    meter.bytes_equivalent += 2 if payload == "both" else 1


def evaluate_fos(
    suite: ProblemSuite, workers: Sequence[WorkerState]
) -> tuple[float, float, float]:
    """(f(x_bar), ||grad f(x_bar)||^2, mean squared consensus deviation).

    Uses the analytic oracles only: no oracle charge, no round charge.
    """
    iterates = np.array([w.x for w in workers])
    x_bar = mean_reduce(iterates)
    grad_sq = sq_norm(suite.gradient(x_bar))
    # summed in worker order, as a loop of sq_norm(w.x - x_bar) sums it
    consensus = ordered_sum(sq_norms(iterates - x_bar)) / len(workers)
    return suite.value(x_bar), grad_sq, consensus


def make_record(
    s: int,
    t: int,
    suite: ProblemSuite,
    workers: Sequence[WorkerState],
    meter: Meter,
) -> MetricsRecord:
    f_bar, grad_sq, consensus = evaluate_fos(suite, workers)
    # opportunistic certificate: the advertised optimum is a true lower
    # bound wherever the run actually goes (NaN falls through to the
    # divergence check)
    slack = 1e-9 * max(1.0, abs(suite.optimum_value))
    if f_bar < suite.optimum_value - slack:
        raise CertificateError(
            f"objective {f_bar} below certified optimum {suite.optimum_value}"
        )
    return MetricsRecord(
        s=s,
        t=t,
        f_bar=f_bar,
        grad_sq=grad_sq,
        consensus=consensus,
        fos=grad_sq + consensus,
        ifo_total=meter.total,
        comm_rounds=meter.rounds,
    )


def first_hit(trace: MetricsTrace, eps: float) -> MetricsRecord | None:
    """Earliest record whose stationarity measure is at most ``eps``.

    ``eps = 0`` is allowed and generically returns ``None`` on stochastic
    runs (an exact zero is a measure-zero event).
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    for r in trace.records:
        if r.fos <= eps:
            return r
    return None
