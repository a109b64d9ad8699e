"""In-memory span tracer that patches prspider's public calls from outside.

Each patched function records one span: id, parent id, name, start and
end (``perf_counter_ns``) and a work count (rows, vectors or bytes,
depending on the span). Functions are patched where they are looked up:
module-level names in the module that calls them, methods on their
classes. Nothing inside ``src`` changes, and with no tracer installed the
program runs untouched.

A span's self time is its duration minus the union of its children's
intervals; children overlap when the worker thread pool is on.
"""

from __future__ import annotations

import itertools
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

from prspider import algorithms, harness, numerics, problems

# span name -> per-layer metric prefix
LAYER = {
    "cli.build_suite": "cli.build_suite",
    "cli.resolve_algorithm": "cli.resolve_algorithm",
    "cli.run_one": "algorithms.runner",
    # the runner's own restart loop; its kernels are spans of their own
    "algorithms.draw_restart_direction": "algorithms.runner",
    "copy.deepcopy": "algorithms.deepcopy",
    "algorithms._map_workers": "algorithms.map_workers",
    "algorithms._check_finite": "algorithms.check_finite",
    "estimator.spider_update": "estimator.spider_update",
    "harness.sync_round": "harness.sync_round",
    "harness.make_record": "harness.make_record",
    "harness.write": "harness.write",
    "numerics.RngStream.substream": "numerics.substream",
    "numerics.mean_reduce": "numerics.mean_reduce",
    "numerics.axpy": "numerics.axpy",
    "problems.LocalObjective.draw_indices": "problems.draw_indices",
    "problems.LocalObjective.pair_difference_mean":
        "problems.pair_difference_mean",
    # full passes (finite) and batch means (online) are the two restart
    # oracles; each workload uses exactly one of them
    "problems.LocalObjective.full_gradient": "problems.restart_gradient",
    "problems.LocalObjective.batch_gradient_mean": "problems.restart_gradient",
    "problems.ProblemSuite.gradient": "problems.analytic",
    "problems.ProblemSuite.value": "problems.analytic",
}

KERNELS = ("problems.pair_difference_mean", "problems.restart_gradient")


def _rows_pair(args, kwargs):
    rows = 2 * len(args[3])
    return lambda result: rows


def _rows_batch(args, kwargs):
    rows = len(args[2])
    return lambda result: rows


def _rows_full(args, kwargs):
    rows = args[0].sample_count
    return lambda result: rows


def _vectors(args, kwargs):
    ledger = args[2]
    before = ledger.bytes_equivalent
    return lambda result: ledger.bytes_equivalent - before


class Span:
    """An open span; ``work`` may be set before it closes."""

    __slots__ = ("work",)

    def __init__(self):
        self.work = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1]
        stack.append(sid)
        rec = Span()
        start = time.perf_counter_ns()
        try:
            yield rec
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, rec.work))

    def _wrap(self, fn, name, work=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            finish = work(args, kwargs) if work else None
            amount = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if finish:
                    amount = finish(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, amount))

        return traced

    def _wrap_map_workers(self, fn):
        # spans opened inside pool threads take the dispatching span as
        # their parent, so their time is not counted as dispatch and wait
        local, stack_of = self._local, self._stack

        def dispatch(pool, step, workers):
            sid = stack_of()[-1]

            def step_in_span(w):
                saved = getattr(local, "stack", None)
                local.stack = [sid]
                try:
                    return step(w)
                finally:
                    local.stack = saved

            return fn(pool, step_in_span, workers)

        return self._wrap(dispatch, "algorithms._map_workers")

    @contextmanager
    def installed(self):
        """Patch the traced functions for the duration of the block."""
        targets = [
            (algorithms, "sync_round", "harness.sync_round", _vectors),
            (algorithms, "make_record", "harness.make_record", None),
            (algorithms, "spider_update", "estimator.spider_update", None),
            (algorithms, "axpy", "numerics.axpy", None),
            (algorithms, "draw_restart_direction",
             "algorithms.draw_restart_direction", None),
            (algorithms, "_check_finite", "algorithms._check_finite", None),
            (algorithms, "mean_reduce", "numerics.mean_reduce", None),
            (harness, "mean_reduce", "numerics.mean_reduce", None),
            (problems, "mean_reduce", "numerics.mean_reduce", None),
            (numerics.RngStream, "substream",
             "numerics.RngStream.substream", None),
            (problems.LocalObjective, "draw_indices",
             "problems.LocalObjective.draw_indices", None),
            (problems.LocalObjective, "pair_difference_mean",
             "problems.LocalObjective.pair_difference_mean", _rows_pair),
            (problems.LocalObjective, "full_gradient",
             "problems.LocalObjective.full_gradient", _rows_full),
            (problems.LocalObjective, "batch_gradient_mean",
             "problems.LocalObjective.batch_gradient_mean", _rows_batch),
            (problems.ProblemSuite, "gradient",
             "problems.ProblemSuite.gradient", None),
            (problems.ProblemSuite, "value",
             "problems.ProblemSuite.value", None),
        ]
        saved = []
        for owner, attr, name, work in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        saved.append((algorithms, "_map_workers", algorithms._map_workers))
        algorithms._map_workers = self._wrap_map_workers(
            algorithms._map_workers
        )
        # copy.deepcopy recurses through the copy module's own global, so
        # only the runner's reference to the module is swapped
        saved.append((algorithms, "copy", algorithms.copy))
        algorithms.copy = types.SimpleNamespace(
            deepcopy=self._wrap(algorithms.copy.deepcopy, "copy.deepcopy")
        )
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, dim: int) -> dict:
        """Per-layer calls, self time and work, aggregated over all spans.

        ``problems.bytes_computed`` is computed from shapes, not measured:
        each gathered sample row is read once (d float64) and its
        per-sample gradient row written once.
        """
        children = defaultdict(list)
        for sid, parent, _name, start, end, _work in self.spans:
            children[parent].append((start, end))
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        work = defaultdict(int)
        for sid, _parent, name, start, end, amount in self.spans:
            layer = LAYER[name]
            calls[layer] += 1
            self_ns[layer] += end - start - _covered(
                children.get(sid, ()), start, end
            )
            work[layer] += amount
        out = {}
        for layer in set(LAYER.values()):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        out["harness.sync_round.vectors"] = work["harness.sync_round"]
        out["harness.write.bytes"] = work["harness.write"]
        rows = sum(work[k] for k in KERNELS)
        kernel_s = sum(self_ns[k] for k in KERNELS) / 1e9
        out["problems.rows"] = rows
        out["problems.bytes_computed"] = 2 * rows * dim * 8
        out["problems.gbps_computed"] = (
            out["problems.bytes_computed"] / kernel_s / 1e9 if kernel_s else 0.0
        )
        return out

    def dump(self, path) -> None:
        """Write every span as CSV: id,parent,name,start_ns,end_ns,work."""
        lines = ["id,parent,name,start_ns,end_ns,work"]
        lines.extend(",".join(map(str, span)) for span in self.spans)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
