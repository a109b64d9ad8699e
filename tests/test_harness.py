import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from oracle_reference import one_worker_oracles

from prspider import cli, harness
from prspider.algorithms import HyperParams, run_pr_spider_finite
from prspider.harness import (
    CSV_HEADER,
    MetricsRecord,
    MetricsTrace,
    WorkerState,
    first_hit,
    make_record,
    sync_round,
)
from prspider.numerics import mean_reduce, sq_norm, sq_norms
from prspider.problems import (
    Meter,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
)


def make_workers(suite, xs, with_v=True):
    workers = []
    for i, obj in enumerate(suite.objectives):
        x = np.array(xs[i], dtype=np.float64)
        w = WorkerState(worker_id=i, obj=obj, x=x)
        if with_v:
            w.v = np.zeros_like(x)
        workers.append(w)
    return workers


def point(workers):
    """The workers' mean and squared deviations, as a record gets them."""
    iterates = np.array([w.x for w in workers])
    x_bar = mean_reduce(iterates)
    return x_bar, sq_norms(iterates - x_bar)


def record_at(suite, workers, ifo_total=0, comm_rounds=0, s=0, t=0):
    """The record of ``workers``, from its point's row of one analytic pass."""
    x_bar, deviations = point(workers)
    (values,), (gradients,) = suite.analytic.evaluate([x_bar])
    return make_record(
        s, t, suite, x_bar, deviations, ifo_total, comm_rounds,
        values=values, gradients=gradients,
    )


def fos(suite, workers):
    record = record_at(suite, workers)
    return record.f_bar, record.grad_sq, record.consensus


class TestSyncRound:
    def test_both_payload_counts_one_round_two_vectors(self):
        suite = make_quadratic_suite(N=2, n=2, d=2, heterogeneity=0, seed=0)
        workers = make_workers(suite, [[0.0, 0.0], [2.0, 2.0]])
        meter = Meter(2)
        assert sync_round(workers, "both", meter) is None
        assert meter.rounds == 1
        assert meter.bytes_equivalent == 2
        # a round charges no oracle call
        assert meter.total == 0
        for w in workers:
            assert np.array_equal(w.x, [1, 1])
            assert np.array_equal(w.v, [0, 0])

    def test_idempotent_average_is_bitwise_and_still_counted(self):
        suite = make_quadratic_suite(N=3, n=2, d=2, heterogeneity=0, seed=1)
        x = [0.1, 0.7]
        workers = make_workers(suite, [x, x, x])
        before = [w.x.tobytes() for w in workers]
        meter = Meter(3)
        sync_round(workers, "iterates", meter)
        assert meter.rounds == 1
        assert [w.x.tobytes() for w in workers] == before

    def test_single_worker_identity(self):
        suite = make_quadratic_suite(N=1, n=2, d=3, heterogeneity=0, seed=2)
        workers = make_workers(suite, [[1.0, 2.0, 3.0]])
        meter = Meter(1)
        sync_round(workers, "iterates", meter)
        assert np.array_equal(workers[0].x, [1, 2, 3])
        assert meter.rounds == 1

    def test_gradients_payload_sets_direction(self):
        suite = make_quadratic_suite(N=2, n=2, d=2, heterogeneity=0, seed=4)
        workers = make_workers(suite, [[0.0, 0.0], [0.0, 0.0]])
        meter = Meter(2)
        grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        sync_round(workers, "gradients", meter, gradients=grads)
        for w in workers:
            assert np.array_equal(w.v, [0.5, 0.5])
        assert meter.bytes_equivalent == 1

    def test_gradients_payload_requires_vectors(self):
        suite = make_quadratic_suite(N=1, n=2, d=2, heterogeneity=0, seed=5)
        workers = make_workers(suite, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            sync_round(workers, "gradients", Meter(1))

    def test_broadcast_copies_are_independent(self):
        suite = make_quadratic_suite(N=2, n=2, d=2, heterogeneity=0, seed=6)
        workers = make_workers(suite, [[0.0, 0.0], [2.0, 0.0]])
        sync_round(workers, "iterates", Meter(2))
        assert workers[0].x is not workers[1].x

    def test_unknown_payload(self):
        suite = make_quadratic_suite(N=1, n=2, d=2, heterogeneity=0, seed=7)
        workers = make_workers(suite, [[0.0, 0.0]])
        with pytest.raises(ValueError):
            sync_round(workers, "everything", Meter(1))


class TestEvaluateFos:
    def test_stationary_point_scores_zero(self):
        suite = quadratic_suite_from_centers(
            [[[1.0, 2.0]], [[1.0, 2.0]]], [0.0, 0.0]
        )
        workers = make_workers(suite, [[1.0, 2.0], [1.0, 2.0]], with_v=False)
        f_bar, grad_sq, consensus = fos(suite, workers)
        assert grad_sq + consensus <= 1e-12

    def test_consensus_from_split_workers(self):
        suite = make_quadratic_suite(N=2, n=2, d=1, heterogeneity=0, seed=8)
        workers = make_workers(suite, [[0.0], [2.0]], with_v=False)
        _, _, consensus = fos(suite, workers)
        assert consensus == pytest.approx(1.0, abs=1e-15)

    def test_single_worker_consensus_always_zero(self):
        suite = make_quadratic_suite(N=1, n=4, d=3, heterogeneity=0, seed=9)
        workers = make_workers(suite, [[0.3, -0.4, 0.5]], with_v=False)
        _, _, consensus = fos(suite, workers)
        assert consensus == 0.0

    def test_metrics_are_free(self):
        suite = make_quadratic_suite(N=2, n=8, d=2, heterogeneity=0.5, seed=10)
        workers = make_workers(suite, [[0.0, 0.0], [1.0, 1.0]], with_v=False)
        meter = Meter(2)
        record = record_at(suite, workers, meter.total, meter.rounds)
        assert record.ifo_total == meter.total == 0
        assert record.comm_rounds == meter.rounds == 0

    def test_a_record_takes_its_row(self):
        # the rows come from the caller's stacked pass; there is no default
        suite = make_quadratic_suite(N=2, n=4, d=2, heterogeneity=0.5, seed=10)
        workers = make_workers(suite, [[0.0, 0.0], [1.0, 1.0]], with_v=False)
        x_bar, deviations = point(workers)
        (values,), (gradients,) = suite.analytic.evaluate([x_bar])
        for rows in ({}, {"values": values}, {"gradients": gradients}):
            with pytest.raises(TypeError):
                make_record(0, 0, suite, x_bar, deviations, 0, 0, **rows)

    @pytest.mark.parametrize("N", [1, 3, 4])
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize(
        "make_suite", [make_quadratic_suite, make_nonconvex_suite]
    )
    def test_matches_per_worker_reference_bitwise(self, make_suite, N, d):
        # the stacked observer against one objective and one worker at a time
        suite = make_suite(N=N, n=16, d=d, heterogeneity=0.5, seed=11)
        rng = np.random.default_rng(N * 10 + d)
        workers = make_workers(suite, rng.normal(size=(N, d)), with_v=False)
        x_bar = mean_reduce([w.x for w in workers])
        f_bar = consensus = 0.0
        grads = []
        for obj, w in zip(suite.objectives, workers):
            value, grad = one_worker_oracles(obj, x_bar)
            f_bar += value
            grads.append(grad)
            consensus += sq_norm(w.x - x_bar)
        want = (f_bar / N, sq_norm(mean_reduce(grads)), consensus / N)
        got = fos(suite, workers)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def written_sidecar(trace, tmp_path):
    """The sidecar ``trace.write_sidecar`` writes, read back."""
    path = tmp_path / "trace.json"
    trace.write_sidecar(path)
    return json.loads(path.read_text())


def synthetic_trace(fos_values, echo=None):
    echo = echo or {"algorithm": {"name": "pr-spider-finite"}}
    trace = MetricsTrace(config_echo=echo, seed=0, ledger=Meter(1))
    for k, f in enumerate(fos_values):
        trace.records.append(MetricsRecord(
            s=0, t=k, f_bar=0.0, grad_sq=f, consensus=0.0, fos=f,
            ifo_total=10 * (k + 1), comm_rounds=k + 1,
        ))
    return trace


class TestFirstHit:
    def test_stationary_start_hits_first_record(self):
        trace = synthetic_trace([0.0, 0.0, 0.0])
        hit = first_hit(trace, 0.5)
        assert hit == trace.records[0]
        assert (hit.s, hit.t, hit.ifo_total) == (0, 0, 10)

    def test_eps_zero_generic_miss(self):
        trace = synthetic_trace([0.5, 0.25, 0.125])
        assert first_hit(trace, 0.0) is None
        with pytest.raises(ValueError):
            first_hit(trace, -1.0)
        with pytest.raises(ValueError):
            first_hit(trace, float("nan"))

    def test_never_reached_returns_none(self):
        trace = synthetic_trace([0.5, 0.4, 0.3])
        assert first_hit(trace, 1e-9) is None

    def test_harmonic_decay_hits_at_index_three(self):
        trace = synthetic_trace([1 / (k + 1) for k in range(10)])
        hit = first_hit(trace, 0.25)
        assert hit == trace.records[3]
        assert hit.t == 3
        assert hit.ifo_total == 40
        assert hit.comm_rounds == 4


def record(k, fos=0.5, **values):
    fields = dict(
        s=k // 4, t=k % 4, f_bar=k / 3, grad_sq=fos, consensus=0.0, fos=fos,
        ifo_total=10 * k, comm_rounds=k,
    )
    return MetricsRecord(**{**fields, **values})


class TestRecords:
    def test_reads_as_a_list_of_records(self):
        records = [record(k) for k in range(5)]
        trace = synthetic_trace([])
        assert len(trace.records) == 0 and not trace.records
        for r in records:
            trace.records.append(r)
        assert len(trace.records) == 5 and trace.records
        assert list(trace.records) == records
        assert [trace.records[k] for k in range(-5, 5)] == records + records
        assert trace.records[1:4] == records[1:4]
        assert trace.records[::-2] == records[::-2]
        assert trace.records[7:] == []
        for k in (5, -6):
            with pytest.raises(IndexError):
                trace.records[k]

    def test_a_value_that_does_not_fit_adds_nothing(self):
        trace = synthetic_trace([0.5, 0.25])
        before = list(trace.records)
        with pytest.raises(OverflowError):
            trace.records.append(record(2, comm_rounds=2**63))
        with pytest.raises(TypeError):
            trace.records.append(record(2, consensus="0.0"))
        assert len(trace.records) == 2
        trace.records.append(record(2))
        assert list(trace.records) == [*before, record(2)]

    def test_csv_bytes_of_signed_zero_infinities_nan_and_big_counts(self):
        trace = synthetic_trace([])
        trace.records.append(record(
            0, s=2**31, t=2**40, f_bar=-0.0, grad_sq=math.inf,
            consensus=math.nan, fos=-math.inf, ifo_total=2**62,
            comm_rounds=2**31 + 1,
        ))
        assert list(trace.csv_lines())[1] == (
            "2147483648,1099511627776,-0.0,inf,nan,-inf,"
            "4611686018427387904,2147483649\n"
        )
        assert math.copysign(1.0, trace.records[0].f_bar) == -1.0

    def test_first_hit_misses_or_hits_the_last_record(self):
        trace = synthetic_trace([0.5, 0.4, 0.3])
        assert first_hit(trace, 0.29) is None
        hit = first_hit(trace, 0.3)
        assert hit == trace.records[-1]
        assert (hit.t, hit.ifo_total) == (2, 30)

    def test_sidecar_counts_the_records(self, tmp_path):
        empty = written_sidecar(synthetic_trace([]), tmp_path)
        assert empty["result"]["records"] == 0
        trace = synthetic_trace([0.5, 0.4, 0.3])
        trace.records.append(record(3))
        assert written_sidecar(trace, tmp_path)["result"]["records"] == 4


class TestTraceSerialization:
    def test_record_invariants(self):
        suite = make_quadratic_suite(N=2, n=4, d=2, heterogeneity=0.2, seed=11)
        workers = make_workers(suite, [[0.0, 1.0], [1.0, 0.0]], with_v=False)
        meter = Meter(2)
        meter.charge(1, 7)
        meter.rounds = 5
        rec = record_at(suite, workers, meter.total, meter.rounds, s=2, t=3)
        assert rec.fos == rec.grad_sq + rec.consensus  # exact sum
        assert (rec.ifo_total, rec.comm_rounds) == (7, 5)

    def test_csv_round_trip_full_precision(self, tmp_path):
        values = [0.1, 1 / 3, 2.0 ** -40, 123456.789012345]
        trace = synthetic_trace(values)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert ",".join(header) == CSV_HEADER
        assert [float(row[5]) for row in rows] == values
        assert [int(row[6]) for row in rows] == [r.ifo_total for r in trace.records]

    def test_csv_bytes_deterministic(self, tmp_path):
        trace = synthetic_trace([0.3, 0.2, 0.1])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.write_csv(a)
        trace.write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_sidecar_reports_both_round_conventions(self, tmp_path):
        trace = synthetic_trace([0.5])
        trace.ledger = meter = Meter(2)
        for phase, calls in (("init", 100), ("inner", 60), ("refresh", 40)):
            meter.phase = phase
            meter.charge(0, calls - 10)
            meter.charge(1, 10)
        meter.rounds, meter.bytes_equivalent = 7, 12
        doc = written_sidecar(trace, tmp_path)
        assert doc["result"]["comm_rounds"] == trace.comm_rounds == 7
        assert doc["result"]["bytes_equivalent"] == 12
        assert doc["result"]["ifo_total"] == trace.ifo_total == 200
        assert doc["result"]["ifo_breakdown"] == {
            "init": 100, "inner": 60, "refresh": 40,
        }
        assert doc["result"]["ifo_total_pair_normalized"] == 170

    @pytest.mark.parametrize("name", ["par-sgd", "par-restarted-sgd"])
    def test_baseline_sidecar_has_no_pairs_to_normalize(self, name, tmp_path):
        # a baseline step is one oracle access per sample, so its
        # pair-normalized total is its total
        trace = synthetic_trace([0.5], {"algorithm": {"name": name}})
        trace.ledger = meter = Meter(2)
        meter.phase = "inner"
        meter.charge(0, 20)
        meter.charge(1, 20)
        result = written_sidecar(trace, tmp_path)["result"]
        assert result["ifo_breakdown"] == {"init": 0, "inner": 40, "refresh": 0}
        assert result["ifo_total_pair_normalized"] == result["ifo_total"] == 40


class _FailingFile:
    """A file whose write stores half the text, then fails as a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    WRITERS = {
        "csv": lambda trace, path: trace.write_csv(path),
        "sidecar": lambda trace, path: trace.write_sidecar(path),
        "summary": lambda trace, path: cli._write_csv(
            path, ["s", "fos"], [{"s": r.s, "fos": r.fos} for r in trace.records]
        ),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_write_keeps_old_file_and_no_temporary(
        self, tmp_path, monkeypatch, writer
    ):
        write = self.WRITERS[writer]
        path = tmp_path / "out"
        write(synthetic_trace([0.5]), path)
        before = path.read_bytes()
        real_open = open
        monkeypatch.setattr(
            harness, "open",
            lambda *args, **kw: _FailingFile(real_open(*args, **kw)),
            raising=False,
        )
        with pytest.raises(OSError, match="No space left"):
            write(synthetic_trace([0.3, 0.2, 0.1]), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_write_replaces_file_and_leaves_no_temporary(self, tmp_path, writer):
        write = self.WRITERS[writer]
        path = tmp_path / "out"
        path.write_text("old\n")
        write(synthetic_trace([0.3, 0.2, 0.1]), path)
        assert path.read_text() != "old\n"
        assert os.listdir(tmp_path) == ["out"]


class _FailingOnWrite:
    """A file whose ``fail_at``-th write fails as a full disk.

    The writes before it land in the file and are flushed; ``writes``
    counts every call, so a run with ``fail_at=None`` counts a writer's
    writes.
    """

    def __init__(self, fh, fail_at, writes):
        self.fh, self.fail_at, self.writes = fh, fail_at, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.writes.append(text)
        if len(self.writes) == self.fail_at:
            raise OSError(28, "No space left on device")
        self.fh.write(text)
        self.fh.flush()


def _peak_bytes(call) -> int:
    """The traced memory ``call()`` takes at its peak, above what it started at."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestStreamedWrites:
    @pytest.mark.parametrize("writer", sorted(TestAtomicWrites.WRITERS))
    def test_a_failure_at_any_write_keeps_old_file_and_no_temporary(
        self, tmp_path, monkeypatch, writer
    ):
        write = TestAtomicWrites.WRITERS[writer]
        path = tmp_path / "out"
        write(synthetic_trace([0.5]), path)
        before = path.read_bytes()
        real_open = open
        writes = []

        def use(fail_at):
            writes.clear()
            monkeypatch.setattr(
                harness, "open",
                lambda *args, **kw: _FailingOnWrite(
                    real_open(*args, **kw), fail_at, writes
                ),
                raising=False,
            )

        use(None)
        write(synthetic_trace([0.3, 0.2, 0.1]), tmp_path / "count")
        os.remove(tmp_path / "count")
        last = len(writes)
        assert last >= 4  # a header or opening and a line per record
        for fail_at in (1, 2, last):
            use(fail_at)
            with pytest.raises(OSError, match="No space left"):
                write(synthetic_trace([0.3, 0.2, 0.1]), path)
            assert len(writes) == fail_at
            assert path.read_bytes() == before
            assert os.listdir(tmp_path) == ["out"]

    def test_csv_file_is_its_lines(self, tmp_path):
        trace = synthetic_trace([0.3, 0.2, 0.1])
        trace.write_csv(tmp_path / "trace.csv")
        lines = list(trace.csv_lines())
        assert lines[0] == CSV_HEADER + "\n"
        assert (tmp_path / "trace.csv").read_text() == "".join(lines)

    def test_csv_write_holds_no_copy_of_the_file(self, tmp_path):
        rng = np.random.default_rng(0)
        trace = synthetic_trace(rng.random(20_000).tolist())
        path = tmp_path / "trace.csv"
        peak = _peak_bytes(lambda: trace.write_csv(path))
        assert path.stat().st_size > 1_000_000
        assert peak <= 256 * 1024

    def test_sidecar_write_holds_no_copy_of_the_file(self, tmp_path):
        # an explicit suite's sidecar echoes its whole dataset
        rng = np.random.default_rng(0)
        suite = quadratic_suite_from_centers(
            rng.normal(size=(2, 1024, 16)).tolist(), rng.normal(size=16).tolist()
        )
        hp = HyperParams(gamma=0.1, I=1, m=2, B=1, S=1, N=2)
        trace = run_pr_spider_finite(suite, hp, seed=0)
        path = tmp_path / "trace.json"
        peak = _peak_bytes(lambda: trace.write_sidecar(path))
        doc = json.loads(path.read_text())
        assert doc["problem"]["centers"] == suite.config["centers"].tolist()
        assert doc["result"]["records"] == len(trace.records)
        assert path.stat().st_size > 1_000_000
        assert peak < path.stat().st_size / 10

    def test_sidecar_bytes_are_those_of_its_lists(self, tmp_path):
        # data arrays go to the encoder as rows; both of CPython's json
        # encoders must write the bytes of the listed arrays
        rng = np.random.default_rng(1)
        suite = quadratic_suite_from_centers(
            rng.normal(size=(2, 3, 4)), rng.normal(size=4)
        )
        hp = HyperParams(gamma=0.1, I=1, m=2, B=1, S=1, N=2)
        trace = run_pr_spider_finite(suite, hp, seed=0)
        path = tmp_path / "trace.json"
        trace.write_sidecar(path)
        text = path.read_text()
        listed = json.loads(text)
        assert listed["problem"]["centers"] == suite.config["centers"].tolist()
        assert text == json.dumps(listed, indent=2) + "\n"
        compact = json.dumps(trace._document(), default=harness._JsonRows.of)
        assert compact == json.dumps(listed)

    def test_a_record_takes_at_most_80_bytes(self):
        trace = synthetic_trace([])

        def append():
            for k in range(20_000):
                trace.records.append(record(
                    k, fos=1.0 / (k + 1), ifo_total=1000 * k, comm_rounds=300 + k,
                ))

        peak = _peak_bytes(append)
        assert len(trace.records) == 20_000
        assert peak / 20_000 <= 80

    def test_records_have_no_instance_dict(self):
        record = synthetic_trace([0.5]).records[0]
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.fos = 0.0
