import os

import numpy as np
import pytest
from oracle_reference import one_worker_oracles

from prspider import cli, harness
from prspider.harness import (
    CSV_HEADER,
    MetricsRecord,
    MetricsTrace,
    WorkerState,
    evaluate_fos,
    first_hit,
    make_record,
    sync_round,
)
from prspider.numerics import mean_reduce, sq_norm
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
            w.v, w.x_prev = np.zeros_like(x), x
        workers.append(w)
    return workers


class TestSyncRound:
    def test_both_payload_counts_one_round_two_vectors(self):
        suite = make_quadratic_suite(N=2, n=2, d=2, heterogeneity=0, seed=0)
        workers = make_workers(suite, [[0.0, 0.0], [2.0, 2.0]])
        before = [w.x_prev for w in workers]
        meter = Meter(2)
        assert sync_round(workers, "both", meter) is None
        assert meter.rounds == 1
        assert meter.bytes_equivalent == 2
        # a round charges no oracle call
        assert meter.total == 0
        for w, x_prev in zip(workers, before):
            assert np.array_equal(w.x, [1, 1])
            assert np.array_equal(w.v, [0, 0])
            # moving the reference point is the runner's job
            assert w.x_prev is x_prev

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
        f_bar, grad_sq, consensus = evaluate_fos(suite, workers)
        assert grad_sq + consensus <= 1e-12

    def test_consensus_from_split_workers(self):
        suite = make_quadratic_suite(N=2, n=2, d=1, heterogeneity=0, seed=8)
        workers = make_workers(suite, [[0.0], [2.0]], with_v=False)
        _, _, consensus = evaluate_fos(suite, workers)
        assert consensus == pytest.approx(1.0, abs=1e-15)

    def test_single_worker_consensus_always_zero(self):
        suite = make_quadratic_suite(N=1, n=4, d=3, heterogeneity=0, seed=9)
        workers = make_workers(suite, [[0.3, -0.4, 0.5]], with_v=False)
        _, _, consensus = evaluate_fos(suite, workers)
        assert consensus == 0.0

    def test_metrics_are_free(self):
        suite = make_quadratic_suite(N=2, n=8, d=2, heterogeneity=0.5, seed=10)
        workers = make_workers(suite, [[0.0, 0.0], [1.0, 1.0]], with_v=False)
        meter = Meter(2)
        record = make_record(0, 0, suite, workers, meter)
        assert record.ifo_total == meter.total == 0
        assert record.comm_rounds == meter.rounds == 0

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
        got = evaluate_fos(suite, workers)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def synthetic_trace(fos_values, echo=None):
    records = [
        MetricsRecord(
            s=0, t=k, f_bar=0.0, grad_sq=f, consensus=0.0, fos=f,
            ifo_total=10 * (k + 1), comm_rounds=k + 1,
        )
        for k, f in enumerate(fos_values)
    ]
    return MetricsTrace(
        config_echo=echo or {}, seed=0, ledger=Meter(1), records=records
    )


class TestFirstHit:
    def test_stationary_start_hits_first_record(self):
        trace = synthetic_trace([0.0, 0.0, 0.0])
        hit = first_hit(trace, 0.5)
        assert hit is trace.records[0]
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
        assert hit is trace.records[3]
        assert hit.t == 3
        assert hit.ifo_total == 40
        assert hit.comm_rounds == 4


class TestTraceSerialization:
    def test_record_invariants(self):
        suite = make_quadratic_suite(N=2, n=4, d=2, heterogeneity=0.2, seed=11)
        workers = make_workers(suite, [[0.0, 1.0], [1.0, 0.0]], with_v=False)
        meter = Meter(2)
        meter.charge(1, 7)
        meter.rounds = 5
        rec = make_record(2, 3, suite, workers, meter)
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
        doc = trace.sidecar()
        assert doc["result"]["comm_rounds"] == trace.comm_rounds == 7
        assert doc["result"]["bytes_equivalent"] == 12
        assert doc["result"]["ifo_total"] == trace.ifo_total == 200
        assert doc["result"]["ifo_breakdown"] == {
            "init": 100, "inner": 60, "refresh": 40,
        }
        assert doc["result"]["ifo_total_pair_normalized"] == 170


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
