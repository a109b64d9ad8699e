"""Simulated worker-server fabric: workers, rounds, metrics, traces.

A worker is its objective and its vectors: the iterate ``x`` and, in
PR-SPIDER, the direction ``v`` that each iteration moves ``x`` along and
then re-estimates. One communication round is one synchronized exchange
event, whatever rides in it. The run's ``problems.Meter`` is its one cost
ledger: ``sync_round`` counts each round and the d-vectors it ships there,
beside the oracle calls, and a ``MetricsTrace`` reads its totals from it.
Metrics come from the analytic suite oracles and charge neither oracle
calls nor rounds. ``make_record`` takes the workers' mean iterate, their
squared distances to it and the ledger's totals at a record point, so the
runner can make a chunk of records after one stacked pass of the analytic
oracles over their means, handing each record its row of the pass.

Every output file goes through ``open_atomic``: its writer streams into a
temporary file beside the target, row by row or JSON chunk by chunk, so a
write holds no copy of the file's text, and a finished file is moved into
place whole. A trace keeps its records as columns (``Records``): two
``array.array`` buffers of machine words, 64 bytes a record, and a read
builds the ``MetricsRecord`` it returns. The CSV writer and ``first_hit``
read the columns themselves.
"""

from __future__ import annotations

import json
import os
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TextIO

import numpy as np

from .numerics import ParamVector, mean_reduce, ordered_sum, sq_norm
from .problems import LocalObjective, Meter, ProblemSuite

__all__ = [
    "CertificateError",
    "WorkerState",
    "MetricsRecord",
    "Records",
    "MetricsTrace",
    "RunHooks",
    "sync_round",
    "evaluate_fos",
    "first_hit",
    "CSV_HEADER",
    "open_atomic",
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


@contextmanager
def open_atomic(path) -> Iterator[TextIO]:
    """A text file to write ``path`` through, opened beside it.

    The caller writes into the temporary file it yields; once the ``with``
    block ends, ``os.replace`` moves it over ``path``. A reader sees the old
    file or the new one, never part of one, and a write that fails leaves
    the old file and no temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class WorkerState:
    """One worker: its objective and iterate ``x``.

    In PR-SPIDER it also holds its direction ``v``, the one the next move
    takes; the runner estimates it after each move, from the iterates
    before and after it. It stays ``None`` in the local-SGD baselines.
    """

    worker_id: int
    obj: LocalObjective
    x: ParamVector
    v: ParamVector | None = None


@dataclass(frozen=True, slots=True)
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


class Records(Sequence):
    """A trace's records as columns: 64 bytes a record.

    The ``'q'`` buffer holds each record's ``s``, ``t``, ``ifo_total`` and
    ``comm_rounds`` in turn, the ``'d'`` buffer its ``f_bar``, ``grad_sq``,
    ``consensus`` and ``fos``. It reads as a list of ``MetricsRecord``
    does: by index, negative index, slice (a list) and in order, and each
    read builds the record it returns. ``append`` adds a record whole or,
    if a value does not fit its column, not at all.
    """

    __slots__ = ("_ints", "_floats")

    def __init__(self, records: Iterable[MetricsRecord] = ()):
        self._ints = array("q")
        self._floats = array("d")
        for record in records:
            self.append(record)

    def append(self, r: MetricsRecord) -> None:
        end = len(self._ints)
        try:
            self._ints.extend((r.s, r.t, r.ifo_total, r.comm_rounds))
            self._floats.extend((r.f_bar, r.grad_sq, r.consensus, r.fos))
        except BaseException:
            del self._ints[end:], self._floats[end:]
            raise

    def __len__(self) -> int:
        return len(self._ints) // 4

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        n = len(self)
        if not -n <= k < n:
            raise IndexError("record index out of range")
        i = 4 * (k % n)
        s, t, ifo_total, comm_rounds = self._ints[i : i + 4]
        return MetricsRecord(s, t, *self._floats[i : i + 4], ifo_total, comm_rounds)

    def __iter__(self) -> Iterator[MetricsRecord]:
        for row in self._rows():
            yield MetricsRecord(*row)

    def __repr__(self) -> str:
        return f"Records({list(self)!r})"

    def _rows(self) -> Iterator[tuple]:
        """Each record's values in ``MetricsRecord`` field order."""
        ints = iter(self._ints)
        floats = iter(self._floats)
        for (s, t, ifo, comm), values in zip(
            zip(ints, ints, ints, ints), zip(floats, floats, floats, floats)
        ):
            yield (s, t, *values, ifo, comm)


@dataclass
class RunHooks:
    """Optional observation callbacks; must not mutate run state.

    ``on_record(s, t, workers)`` fires at each metrics point, and
    ``on_sync(s, t, payload, workers)`` once per counted round, after its
    broadcast, the initial gradient round included. ``workers`` are the
    run's ``WorkerState`` objects. Records are made a chunk at a time, so
    both may fire past a record that fails the certificate: ``on_record``
    for up to chunk - 1 more records, before the run raises, and a chunk
    is at most ``problems.CHUNK_RECORDS`` = 16 records.
    """

    on_record: Callable | None = None
    on_sync: Callable | None = None


@dataclass
class MetricsTrace:
    """Ordered records, the run's cost ledger, and what reruns the run.

    ``ledger`` is the run's ``Meter``; the runner fills ``records`` and
    ``epoch_restart_residuals`` as it goes and sets ``outcome`` at its end.
    ``records`` is a ``Records``, 64 bytes a record; any iterable of
    ``MetricsRecord`` given for it is copied into one.
    """

    config_echo: dict
    seed: int
    ledger: Meter
    records: Records = field(default_factory=Records)
    outcome: str = "completed"  # | "diverged" | "below-optimum"
    epoch_restart_residuals: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.records, Records):
            self.records = Records(self.records)

    @property
    def ifo_total(self) -> int:
        return self.ledger.total

    @property
    def comm_rounds(self) -> int:
        return self.ledger.rounds

    def csv_lines(self) -> Iterator[str]:
        """The trace CSV, one line at a time, each ending in a newline."""
        yield CSV_HEADER + "\n"
        for s, t, f_bar, grad_sq, consensus, fos, ifo, comm in self.records._rows():
            yield (
                f"{s},{t},{f_bar!r},{grad_sq!r},{consensus!r},{fos!r},{ifo},{comm}\n"
            )

    def write_csv(self, path) -> None:
        with open_atomic(path) as fh:
            for line in self.csv_lines():
                fh.write(line)

    def sidecar(self) -> dict:
        """Reloadable config plus run results; run keys stay at top level.

        An explicit suite's data arrays are in it as the lists that reload
        them.
        """
        doc = self._document()
        if "problem" in doc:
            doc["problem"] = {
                key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in doc["problem"].items()
            }
        return doc

    def write_sidecar(self, path) -> None:
        """``sidecar()`` as JSON; data arrays are written a row at a time."""
        with open_atomic(path) as fh:
            json.dump(self._document(), fh, indent=2, default=_JsonRows.of)
            fh.write("\n")

    def _document(self) -> dict:
        """The sidecar, with an explicit suite's data arrays as arrays."""
        doc = dict(self.config_echo)
        calls = self.ledger.breakdown()
        # PR-SPIDER's inner steps cost two oracle accesses per sample and
        # the B-normalized view counts them once; a baseline step is single
        pairs = doc["algorithm"]["name"].startswith("pr-spider")
        doc["result"] = {
            "outcome": self.outcome,
            "seed": self.seed,
            "comm_rounds": self.ledger.rounds,
            "bytes_equivalent": self.ledger.bytes_equivalent,
            "ifo_total": self.ifo_total,
            "ifo_breakdown": calls,
            "ifo_total_pair_normalized": self.ifo_total
            - (calls["inner"] // 2 if pairs else 0),
            "records": len(self.records),
            "epoch_restart_residuals": list(self.epoch_restart_residuals),
        }
        return doc


class _JsonRows(list):
    """An array as the JSON list ``json.dump`` writes, a row at a time.

    The list's own storage stays empty: an encoder reads it through its
    length and its items, so no list of the whole array is built. A row of
    numbers is read as floats, the bytes ``tolist()`` gives, and a row of
    rows comes back to ``of``, the encoder's ``default``. ``json.dump``'s
    Python encoder reads a list that way; CPython's C encoder (``dumps``
    with no indent) does too, since it lists any list subclass by
    iterating it. ``tests/test_harness.py`` pins both.
    """

    def __init__(self, array: np.ndarray):
        super().__init__()
        self.array = array

    @classmethod
    def of(cls, value) -> _JsonRows:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        return cls(value)

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self) -> Iterator:
        if self.array.ndim == 1:
            return iter(self.array.tolist())
        return iter(self.array)


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
    caller-supplied vectors into ``v`` (the epoch-restart exchange). In
    PR-SPIDER an in-epoch round follows a move and the estimate after it,
    so it averages the iterates and the directions the next moves take.
    Nothing is returned: the averages are read from the workers.
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
    suite: ProblemSuite,
    x_bar: ParamVector,
    deviations: np.ndarray,
    *,
    values: np.ndarray | None = None,
    gradients: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """(f(x_bar), ||grad f(x_bar)||^2, mean squared consensus deviation).

    ``x_bar`` is the workers' mean iterate by ``mean_reduce`` and
    ``deviations`` their squared distances to it, ``sq_norms(iterates -
    x_bar)``, in worker order. ``values`` and ``gradients``, when given,
    are every worker's analytic value and gradient at ``x_bar``, a row of
    a stacked pass; otherwise the suite evaluates ``x_bar`` alone. Uses
    the analytic oracles only: no oracle charge, no round charge.
    """
    grad_sq = sq_norm(suite.gradient(x_bar, worker_gradients=gradients))
    # summed in worker order, as a loop of sq_norm(w.x - x_bar) sums it
    consensus = ordered_sum(deviations) / len(deviations)
    return suite.value(x_bar, worker_values=values), grad_sq, consensus


def make_record(
    s: int,
    t: int,
    suite: ProblemSuite,
    x_bar: ParamVector,
    deviations: np.ndarray,
    ifo_total: int,
    comm_rounds: int,
    *,
    values: np.ndarray | None = None,
    gradients: np.ndarray | None = None,
) -> MetricsRecord:
    """The record at ``(s, t)`` of workers with mean ``x_bar``.

    ``deviations`` are the workers' squared distances to ``x_bar``, and
    ``ifo_total`` and ``comm_rounds`` the ledger's totals at that point;
    ``values`` and ``gradients`` go to ``evaluate_fos``.
    """
    f_bar, grad_sq, consensus = evaluate_fos(
        suite, x_bar, deviations, values=values, gradients=gradients
    )
    # opportunistic certificate: the advertised optimum is a true lower
    # bound wherever the run actually goes. A NaN f_bar passes; the
    # divergence check reads only iterates and directions, so a record may
    # hold inf or NaN metrics at finite iterates
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
        ifo_total=ifo_total,
        comm_rounds=comm_rounds,
    )


def first_hit(trace: MetricsTrace, eps: float) -> MetricsRecord | None:
    """Earliest record whose stationarity measure is at most ``eps``.

    ``eps = 0`` is allowed and generically returns ``None`` on stochastic
    runs (an exact zero is a measure-zero event).
    """
    if not (eps >= 0.0):
        raise ValueError("eps must be nonnegative")
    records = trace.records
    for k, fos in enumerate(islice(records._floats, 3, None, 4)):
        if fos <= eps:
            return records[k]
    return None
