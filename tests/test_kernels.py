"""Blocked oracle kernels and the shared read-only data behind them."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prspider.algorithms import HyperParams, run_pr_spider_finite
from prspider.harness import RunHooks
from prspider import problems
from prspider.numerics import SCALAR_ENTRIES
from prspider.problems import (
    BLOCK_ROWS,
    QUAD_ROWS,
    LocalObjective,
    Meter,
    QuadraticObjective,
    SigmoidObjective,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_block_rows,
    sigmoid_suite_from_params,
)

METERED = ("batch_gradient_mean", "pair_difference_mean", "full_gradient")

# batch sizes at the block edges, plus a spread of others; 2 * QUAD_ROWS + 1
# ends in a lone row, which joins the block before it
BATCH_SIZES = st.one_of(
    st.sampled_from([
        1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
        QUAD_ROWS - 1, QUAD_ROWS, QUAD_ROWS + 1, 2 * QUAD_ROWS + 1,
    ]),
    st.integers(1, 3 * BLOCK_ROWS + 3),
)


def _wide(rng, shape):
    # magnitudes over 16 decades, so any change of summation order shows
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 7, 16]),
    n=st.integers(1, 3 * BLOCK_ROWS + 5),
    B=BATCH_SIZES,
    hit_center=st.booleans(),
)
def test_blocked_quadratic_kernels_match_row_formula_bitwise(
    seed, d, n, B, hit_center
):
    rng = np.random.default_rng(seed)
    centers = _wide(rng, (n, d))
    # zero coordinates against a -0.0 iterate give signed-zero rows
    centers[rng.random((n, d)) < 0.2] = 0.0
    idx = rng.integers(0, n, size=B)
    x_new, x_old = _wide(rng, d), _wide(rng, d)
    x_new[rng.random(d) < 0.3] = -0.0
    if hit_center:
        x_new = centers[idx[0]].copy()
        x_old[:] = centers[idx[-1]]
    obj = QuadraticObjective(0, centers)
    gathered = centers[idx]
    meter = Meter(1)

    pair = obj.pair_difference_mean(x_new, x_old, idx, meter)
    assert meter.total == 2 * B
    rows = (x_new[None, :] - gathered) - (x_old[None, :] - gathered)
    ref = rows.mean(axis=0)
    assert pair.tobytes() == ref.tobytes()

    batch = obj.batch_gradient_mean(x_new, idx, meter)
    assert meter.total == 3 * B
    ref = (x_new[None, :] - gathered).mean(axis=0)
    assert batch.tobytes() == ref.tobytes()

    full = obj.full_gradient(x_new, meter)
    assert meter.total == 3 * B + n
    ref = (x_new[None, :] - centers[np.arange(n)]).mean(axis=0)
    assert full.tobytes() == ref.tobytes()
    # a full gradient is the batch of every sample
    assert full.tobytes() == obj.batch_gradient_mean(x_new, np.arange(n)).tobytes()


def _quadratic_calls(obj, x_new, x_old, idx):
    # every metered quadratic oracle, by name
    return {
        "pair_difference_mean": lambda: obj.pair_difference_mean(x_new, x_old, idx),
        "batch_gradient_mean": lambda: obj.batch_gradient_mean(x_new, idx),
        "full_gradient": lambda: obj.full_gradient(x_new),
    }


def _warm_peak(call) -> int:
    """Traced bytes at the peak of a second ``call()``, above its start.

    tracemalloc sees numpy's allocations whatever the allocator does with
    them, so a bound on this holds on any malloc's thresholds.
    """
    call()
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


@pytest.mark.parametrize("oracle", METERED)
def test_warm_quadratic_kernels_allocate_no_blocks(oracle):
    # a warm call takes its block buffers from the thread's scratch; what
    # is left is the running sum and the result, 16 KiB each at d=2048
    rng = np.random.default_rng(0)
    d, n, B = 2048, 512, 256
    obj = QuadraticObjective(0, rng.normal(size=(n, d)))
    idx = rng.integers(0, n, size=B)
    call = _quadratic_calls(obj, rng.normal(size=d), rng.normal(size=d), idx)[oracle]
    assert _warm_peak(call) <= 64 * 1024


def test_warm_sigmoid_pair_kernel_allocates_no_blocks():
    # the gathered rows and both points' gradient rows, 528 KiB at
    # sigmoid-online-parallel's inner batch, come from the thread's
    # scratch; what is left is the margins, the slopes and the result
    rng = np.random.default_rng(0)
    d, n, B = 256, 512, 88
    obj = SigmoidObjective(
        0, rng.uniform(-1.0, 1.0, size=(n, d)) / 16, rng.uniform(-0.2, 0.2, size=n)
    )
    idx = rng.integers(0, n, size=B)
    x_new, x_old = rng.normal(size=d), rng.normal(size=d)

    def call():
        return obj.pair_difference_mean(x_new, x_old, idx)

    assert _warm_peak(call) <= 64 * 1024


def _in_fresh_thread(call):
    """``call()``'s result, computed in a new thread with empty scratch."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call()))
    thread.start()
    thread.join(timeout=120)
    assert out, "the call raised or did not finish"
    return out[0]


@pytest.mark.parametrize("dim", [1, 3, 4, 7, 256, 2048])
def test_scratch_buffers_start_on_a_64_byte_boundary(dim):
    # np.empty alone gives 16-byte alignment, so the offsets of a kernel's
    # buffers, and with them its speed, would follow the heap
    def addresses():
        seen = []
        for rows in (1, 2, 5, 16, 33, 3):
            for slot in ("first", "second"):
                buf = problems._scratch(slot, rows, dim)
                assert buf.shape == (rows, dim) and buf.flags.c_contiguous
                buf[...] = 1.0
                seen.append(buf.ctypes.data)
        return seen

    assert all(address % 64 == 0 for address in _in_fresh_thread(addresses))


def test_sigmoid_kernel_scratch_holds_one_block():
    # a batch of three blocks and a lone row, at any size of which a thread
    # keeps one block per slot (the mean buffer has its carry row too)
    d = 256
    height = sigmoid_block_rows(d)
    B = 3 * height + 1
    rng = np.random.default_rng(11)
    features = rng.uniform(-1.0, 1.0, size=(512, d)) / np.sqrt(d)
    offsets = rng.uniform(-0.2, 0.2, size=512)
    obj = SigmoidObjective(0, features, offsets)
    idx = rng.integers(0, 512, size=B)
    x_new, x_old = rng.normal(size=d), rng.normal(size=d)

    def calls():
        pair = obj.pair_difference_mean(x_new, x_old, idx)
        batch = obj.batch_gradient_mean(x_new, idx)
        buffers = problems._SCRATCH.buffers
        return pair, batch, {slot: buf.shape for slot, buf in buffers.items()}

    pair, batch, shapes = _in_fresh_thread(calls)
    assert shapes and all(rows <= height + 2 for rows, _ in shapes.values())
    # B * d is below 2**19, so the references' gemvs are not threaded
    ref = _sigmoid_pair_reference(features, offsets, x_new, x_old, idx)
    assert pair.tobytes() == ref.tobytes()
    ref = _sigmoid_row_mean(features, offsets, x_new, idx)
    assert batch.tobytes() == ref.tobytes()


def test_threads_calling_quadratic_kernels_match_serial_calls():
    # each thread its own data, points and batch, several blocks each, and
    # threads switching between almost every bytecode: a buffer shared by
    # two threads would mix their rows
    d, n = 64, 3 * QUAD_ROWS + 7
    cases = []
    for k in range(4):
        rng = np.random.default_rng(k)
        obj = QuadraticObjective(k, _wide(rng, (n, d)))
        idx = rng.integers(0, n, size=2 * QUAD_ROWS + 1 + 7 * k)
        calls = _quadratic_calls(obj, _wide(rng, d), _wide(rng, d), idx)
        serial = {name: call().tobytes() for name, call in calls.items()}
        cases.append((calls, serial))
    mismatches, finished = [], []
    start = threading.Barrier(len(cases))

    def work(calls, serial):
        start.wait()
        for _ in range(40):
            for name, call in calls.items():
                if call().tobytes() != serial[name]:
                    mismatches.append(name)
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=case) for case in cases]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == len(cases)
    assert mismatches == []


def _sigmoid_rows(features, offsets, x, idx):
    # the row formula: every per-sample gradient, one row each
    a = features[idx]
    t = a @ x - offsets[idx]
    return (2.0 * t / ((1.0 + t * t) ** 2))[:, None] * a


def _sigmoid_row_mean(features, offsets, x, idx):
    # the row-materialising formula: every per-sample gradient, then the mean
    return _sigmoid_rows(features, offsets, x, idx).mean(axis=0)


def _sigmoid_pair_reference(features, offsets, x_new, x_old, idx):
    # the two-gradient formula: every per-sample gradient at each point,
    # the row differences, then their mean
    return (
        _sigmoid_rows(features, offsets, x_new, idx)
        - _sigmoid_rows(features, offsets, x_old, idx)
    ).mean(axis=0)


def test_sigmoid_pair_kernel_matches_per_point_gradients():
    suite = make_nonconvex_suite(N=1, n=64, d=5, heterogeneity=0.5, seed=2)
    obj = suite.objectives[0]
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 64, size=BLOCK_ROWS + 9)
    x_new, x_old = rng.normal(size=5), rng.normal(size=5)
    ref = _sigmoid_pair_reference(obj.features, obj.offsets, x_new, x_old, idx)
    meter = Meter(1)
    got = obj.pair_difference_mean(x_new, x_old, idx, meter)
    assert got.tobytes() == ref.tobytes()
    assert meter.total == 2 * idx.size


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4, 7, 16, 256, 2048]),
    data=st.data(),
)
def test_sigmoid_pair_kernel_matches_two_gradient_formula_bitwise(seed, d, data):
    # block edges of the margins' gemv blocks too; B * d stays below 2**19
    height = sigmoid_block_rows(d)
    B = data.draw(st.one_of(
        BATCH_SIZES, st.sampled_from([height - 1, height, height + 1, 2 * height + 1])
    ))
    assert B * d < 2**19
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    features, offsets = _wide(rng, (n, d)), _wide(rng, n)
    # zero features against a -0.0 iterate give signed-zero products
    features[rng.random((n, d)) < 0.2] = 0.0
    x_new, x_old = _wide(rng, d), _wide(rng, d)
    x_new[rng.random(d) < 0.3] = -0.0
    x_old[rng.random(d) < 0.3] = -0.0
    idx = rng.integers(0, n, size=B)
    obj = SigmoidObjective(0, features, offsets)
    meter = Meter(1)

    got = obj.pair_difference_mean(x_new, x_old, idx, meter)
    assert meter.total == 2 * B
    ref = _sigmoid_pair_reference(features, offsets, x_new, x_old, idx)
    assert got.tobytes() == ref.tobytes()
    same = obj.pair_difference_mean(x_new, x_new.copy(), idx)
    assert same.tobytes() == np.zeros(d).tobytes()


def _sigmoid_pair_case(seed, B, d):
    # wide values with signed zeros, as in the hypothesis test above
    rng = np.random.default_rng(seed)
    n = 2 * B + 3
    features, offsets = _wide(rng, (n, d)), _wide(rng, n)
    features[rng.random((n, d)) < 0.2] = 0.0
    features[rng.random((n, d)) < 0.2] = -0.0
    x_new, x_old = _wide(rng, d), _wide(rng, d)
    x_new[rng.random(d) < 0.3] = -0.0
    x_old[rng.random(d) < 0.3] = -0.0
    return features, offsets, x_new, x_old, rng.integers(0, n, size=B)


def _assert_pair_kernel_matches(features, offsets, x_new, x_old, idx):
    obj = SigmoidObjective(0, features, offsets)
    got = obj.pair_difference_mean(x_new, x_old, idx)
    ref = _sigmoid_pair_reference(features, offsets, x_new, x_old, idx)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# (B, d) at and just past SCALAR_ENTRIES batch entries: at d >= 2 a batch of
# at most SCALAR_ENTRIES entries takes the pair kernel's Python-float tail
_PAIR_BOUND = sorted(
    {(SCALAR_ENTRIES // d + k, d) for d in (2, 4, 8) for k in (0, 1)}
    | {(1, SCALAR_ENTRIES), (1, SCALAR_ENTRIES + 1)}
)


@pytest.mark.parametrize("B, d", _PAIR_BOUND)
def test_sigmoid_pair_kernel_at_the_scalar_bound_matches_formula(B, d):
    for seed in range(40):
        _assert_pair_kernel_matches(*_sigmoid_pair_case(seed, B, d))


def test_sigmoid_pair_kernel_sums_signed_zero_products_from_zero():
    # column 2 gives (+p) * -0.0 - (-p) * -0.0 = -0.0 - 0.0 = -0.0, and
    # np.add.reduce over d >= 2 columns starts from +0.0: the mean is +0.0
    features = np.array([[1.0, 0.0, -0.0, 0.5]])
    x_new, x_old = np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])
    ref = _sigmoid_pair_reference(features, np.zeros(1), x_new, x_old, [0])
    assert ref.tobytes() == np.array([1.0, 0.0, 0.0, 0.5]).tobytes()
    _assert_pair_kernel_matches(features, np.zeros(1), x_new, x_old, [0])
    for seed in range(40):
        features, offsets, x_new, x_old, idx = _sigmoid_pair_case(seed, 1, 4)
        features[:, 1:3] = [0.0, -0.0]
        _assert_pair_kernel_matches(features, offsets, x_new, x_old, idx)


@pytest.mark.parametrize("B, d", [(1, 2), (8, 2), (3, 4), (2, 8)])
def test_tiny_sigmoid_restarts_stay_on_the_numpy_walker(B, d, monkeypatch):
    # only a pair leaves the walker for the Python-float tail: a batch
    # mean or full gradient of at most SCALAR_ENTRIES entries stays on it
    assert B * d <= SCALAR_ENTRIES

    class FloatTail(Exception):
        pass

    def float_tail(*args):
        raise FloatTail

    monkeypatch.setattr(problems, "_pair_mean_on_floats", float_tail)
    for seed in range(10):
        features, offsets, x, x_old, idx = _sigmoid_pair_case(seed, B, d)
        obj = SigmoidObjective(0, features, offsets)
        got = obj.batch_gradient_mean(x, idx)
        ref = _sigmoid_row_mean(features, offsets, x, idx)
        assert got.tobytes() == ref.tobytes()
        with pytest.raises(FloatTail):
            obj.pair_difference_mean(x, x_old, idx)
        # a full gradient over B samples has B * d entries too
        head, head_offsets = features[:B], offsets[:B]
        full = SigmoidObjective(0, head, head_offsets).full_gradient(x)
        ref = _sigmoid_row_mean(head, head_offsets, x, np.arange(B))
        assert full.tobytes() == ref.tobytes()


@pytest.mark.parametrize("B", [8, 9, SCALAR_ENTRIES])
def test_sigmoid_pair_kernel_sums_a_lone_column_as_numpy_does(B):
    # at d = 1 numpy sums 8 or more rows pairwise, not in order
    for seed in range(40):
        _assert_pair_kernel_matches(*_sigmoid_pair_case(seed, B, 1))


@pytest.mark.parametrize("B, d", [(1, 4), (2, 4), (4, 2), (2, 8)])
def test_sigmoid_pair_kernel_carries_non_finite_values(B, d):
    # inf and NaN in the data and the iterates: NaN where numpy gives NaN,
    # 0 where an overflowing slope vanishes, and no Python exception. A
    # margin near 1e100 has a finite square whose square overflows, which
    # ``** 2`` on a Python float raises as OverflowError
    specials = [np.inf, -np.inf, np.nan, 1e100, -1e100, 1e200]
    with np.errstate(all="ignore"):
        for seed in range(40):
            features, offsets, x_new, x_old, idx = _sigmoid_pair_case(seed, B, d)
            rng = np.random.default_rng(seed)
            for array in (features, offsets, x_new, x_old):
                flat = array.reshape(-1)
                hit = rng.random(flat.shape) < 0.15
                flat[hit] = rng.choice(specials, size=int(hit.sum()))
            _assert_pair_kernel_matches(features, offsets, x_new, x_old, idx)


# The sigmoid pair kernel at B=4099, d=256 (over 2**19 entries, so a whole
# batch's gemv is split across BLAS threads), and, on one thread, the
# two-gradient formula, as hex digests.
_PAIR_DIGESTS = """
import hashlib, sys
import numpy as np
from prspider.problems import SigmoidObjective
rng = np.random.default_rng(7)
d, count = 256, 4099
features = rng.uniform(-1.0, 1.0, size=(512, d)) / np.sqrt(d)
offsets = rng.uniform(-0.2, 0.2, size=512)
idx = rng.integers(0, 512, size=count)
x_new, x_old = rng.normal(size=d), rng.normal(size=d)
got = SigmoidObjective(0, features, offsets).pair_difference_mean(x_new, x_old, idx)
def rows(x):
    a = features[idx]
    t = a @ x - offsets[idx]
    return (2.0 * t / ((1.0 + t * t) ** 2))[:, None] * a
ref = (rows(x_new) - rows(x_old)).mean(axis=0)
print(hashlib.sha256(got.tobytes()).hexdigest(), hashlib.sha256(ref.tobytes()).hexdigest())
"""

# The analytic values and gradients of a sigmoid suite at N=2, n=4099, d=256
# (each worker's margin gemv over 2**19 entries), and, on one thread, the
# same formulas over one unblocked stacked matmul, as hex digests.
_ANALYTIC_DIGESTS = """
import hashlib
import numpy as np
from prspider.problems import sigmoid_suite_from_params
rng = np.random.default_rng(7)
N, n, d = 2, 4099, 256
features = rng.uniform(-1.0, 1.0, size=(N, n, d)) / np.sqrt(d)
offsets = rng.uniform(-0.2, 0.2, size=(N, n))
x = rng.normal(size=d)
analytic = sigmoid_suite_from_params(features, offsets, np.zeros(d)).analytic
got = np.concatenate([analytic.values(x), analytic.gradients(x).ravel()])
t = np.matmul(features, x) - offsets
t2 = t * t
values = np.add.reduce(t2 / (1.0 + t2), axis=1) / n
slopes = (t + t) / ((1.0 + t2) ** 2)
grads = np.matmul(features.transpose(0, 2, 1), slopes[:, :, None])[:, :, 0] / n
ref = np.concatenate([values, grads.ravel()])
print(hashlib.sha256(got.tobytes()).hexdigest(), hashlib.sha256(ref.tobytes()).hexdigest())
"""


def _blas_env(threads: str) -> dict:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(
        os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
    )


@pytest.mark.parametrize(
    "script", [_PAIR_DIGESTS, _ANALYTIC_DIGESTS], ids=["pair-kernel", "analytic"]
)
def test_sigmoid_pair_kernel_bits_do_not_depend_on_blas_threads(script):
    digests = {}
    for threads in ("1", "2"):
        digests[threads] = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=_blas_env(threads), check=True,
        ).stdout.split()
    kernel, reference = digests["1"]
    assert kernel == reference
    assert digests["2"][0] == kernel


def test_run_outputs_do_not_depend_on_blas_threads(tmp_path):
    # end to end: every margin gemv of this shape spans 2**19 entries
    config = {
        "problem": {
            "family": "sigmoid", "N": 2, "n": 4099, "d": 256,
            "heterogeneity": 0.5, "seed": 1,
        },
        "algorithm": {
            "name": "pr-spider-finite",
            "params": {"gamma": 0.05, "I": 2, "m": 16, "B": 2, "S": 3},
        },
        "run": {"seeds": [0, 1, 2]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "prspider", "run", str(cfg), "--out", str(out)],
            capture_output=True, env=_blas_env(threads), check=True,
        )
        digests[threads] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
        }
    assert len(digests["1"]) == 7  # three traces, three sidecars, the summary
    assert digests["2"] == digests["1"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from([1, 2, 3, 4, 7, 8, 16, 17, 256, 2048]),
    online=st.booleans(),
    data=st.data(),
)
def test_blocked_sigmoid_restart_gradients_match_row_formula_bitwise(
    seed, d, online, data
):
    # sizes at the block edges, a lone row past a block among them
    height = sigmoid_block_rows(d)
    sizes = st.one_of(
        st.sampled_from([1, height - 1, height, height + 1, 2 * height + 1]),
        st.integers(1, 3 * height + 3),
    )
    n, B = data.draw(sizes), data.draw(sizes)
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(n, d)) / np.sqrt(d)
    offsets = rng.uniform(-0.2, 0.2, size=n)
    x = rng.normal(size=d) * 10.0 ** rng.uniform(-2, 2)
    idx = rng.integers(0, n, size=B)
    obj = SigmoidObjective(0, features, offsets, online=online)
    meter = Meter(1)

    batch = obj.batch_gradient_mean(x, idx, meter)
    assert meter.total == B
    ref = _sigmoid_row_mean(features, offsets, x, idx)
    assert batch.tobytes() == ref.tobytes()
    if not online:
        full = obj.full_gradient(x, meter)
        assert meter.total == B + n
        ref = _sigmoid_row_mean(features, offsets, x, np.arange(n))
        assert full.tobytes() == ref.tobytes()
        # a full gradient is the batch of every sample
        assert full.tobytes() == obj.batch_gradient_mean(x, np.arange(n)).tobytes()


# The row formula over a large batch, in a process whose BLAS runs on one
# thread: a threaded gemv splits the rows at points that need not fall on
# its kernel's row groups, so its bits depend on the thread count, while
# each sigmoid block stays below the size at which BLAS starts threads.
_SINGLE_THREAD_REFERENCE = """
import sys
import numpy as np
d, count = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(d)
features = rng.uniform(-1.0, 1.0, size=(512, d)) / np.sqrt(d)
offsets = rng.uniform(-0.2, 0.2, size=512)
idx = rng.integers(0, 512, size=count)
x = rng.normal(size=d)
a = features[idx]
t = a @ x - offsets[idx]
ref = ((2.0 * t / ((1.0 + t * t) ** 2))[:, None] * a).mean(axis=0)
sys.stdout.write(ref.tobytes().hex())
"""


@pytest.mark.parametrize("d", [4, 256])
def test_blocked_sigmoid_restart_gradient_on_a_large_batch(d):
    # several blocks and a lone last row, at least 2**19 entries in all
    height = sigmoid_block_rows(d)
    count = max(3, 2**19 // (d * height)) * height + 1
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    ref = subprocess.run(
        [sys.executable, "-c", _SINGLE_THREAD_REFERENCE, str(d), str(count)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    rng = np.random.default_rng(d)
    features = rng.uniform(-1.0, 1.0, size=(512, d)) / np.sqrt(d)
    offsets = rng.uniform(-0.2, 0.2, size=512)
    idx = rng.integers(0, 512, size=count)
    x = rng.normal(size=d)
    obj = SigmoidObjective(0, features, offsets, online=True)
    assert obj.batch_gradient_mean(x, idx).tobytes().hex() == ref


def test_out_of_range_sample_index_raises():
    obj = QuadraticObjective(0, np.zeros((4, 3)))
    x = np.zeros(3)
    sig = SigmoidObjective(0, np.ones((4, 3)), np.zeros(4))
    # at 3 columns, 7 indices are past the sigmoid pair kernel's float tail
    for bad in ([0, 4], [-5], [0] * 6 + [4], [-5] + [0] * 6):
        with pytest.raises(IndexError):
            obj.pair_difference_mean(x, x, bad)
        with pytest.raises(IndexError):
            obj.batch_gradient_mean(x, bad)
        with pytest.raises(IndexError):
            sig.batch_gradient_mean(x, bad)
        with pytest.raises(IndexError):
            sig.pair_difference_mean(x, x, bad)
    # negative indices count from the end, as in ``centers[idx]``
    centers = np.arange(12.0).reshape(4, 3)
    obj = QuadraticObjective(0, centers)
    got = obj.batch_gradient_mean(x, [-1, 0])
    assert got.tobytes() == (x - centers[[-1, 0]]).mean(axis=0).tobytes()


def test_families_override_hooks_not_metered_oracles():
    # the metered methods own the charging, and tracers patch them on the
    # base class only; each family has one kernel hook, for the restart
    # and the pair alike
    for cls in (QuadraticObjective, SigmoidObjective):
        assert "_gradient_mean" in vars(cls)
        for name in METERED:
            assert name not in vars(cls)
            assert getattr(cls, name) is getattr(LocalObjective, name)
    classes = [c for c in vars(problems).values() if isinstance(c, type)]
    assert not any(hasattr(c, "_pair_difference_mean") for c in classes)


class TestSharedData:
    def _run(self, suite, seed, hooks=None):
        hp = HyperParams(
            gamma=0.1, I=2, m=6, B=BLOCK_ROWS + 3, S=2, N=suite.num_workers
        )
        return run_pr_spider_finite(suite, hp, seed, hooks=hooks)

    def test_run_shares_data_and_leaves_input_counters_alone(self):
        # a run works on the suite's own objectives and charges its oracle
        # calls to its own meter (TestSpiderFinite checks the objectives
        # come back unchanged)
        suite = make_quadratic_suite(N=3, n=80, d=4, heterogeneity=0.5, seed=1)
        seen = []

        def on_record(s, t, workers):
            seen.append([w.obj for w in workers])

        trace = self._run(suite, 0, hooks=RunHooks(on_record=on_record))
        for i, obj in enumerate(suite.objectives):
            assert all(objs[i] is obj for objs in seen)
        assert trace.ifo_total > 0

    def test_threaded_runs_match_serial_runs(self):
        suite = make_quadratic_suite(N=2, n=70, d=5, heterogeneity=0.5, seed=3)
        serial = [list(self._run(suite, seed).csv_lines()) for seed in range(4)]
        # more runs than cores, switching threads often, over one suite;
        # each thread's kernels use their own scratch, and B spans three
        # blocks of QUAD_ROWS
        assert BLOCK_ROWS + 3 > 2 * QUAD_ROWS
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(self._run, suite, seed) for seed in range(4)]
                threaded = [list(f.result(timeout=60).csv_lines()) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_threaded_sigmoid_runs_share_the_margins_cache(self):
        # B * d = 8 takes the pair kernel's Python-float tail and N * d = 16
        # mean_reduce's; every record reads the suite's results twice, and
        # the four runs share them: a run that finds another's chunk there
        # evaluates its point alone
        suite = make_nonconvex_suite(N=4, n=256, d=4, heterogeneity=0.5, seed=9)
        hp = HyperParams(gamma=0.02, I=4, m=32, B=2, S=2, N=4)

        def run(seed):
            return run_pr_spider_finite(suite, hp, seed)

        serial = [list(run(seed).csv_lines()) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, seed) for seed in range(4)]
                threaded = [list(f.result(timeout=60).csv_lines()) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        # one chunk's results, keyed by point bytes, in one dict replaced
        # whole: CPython 3.11 does not switch threads between two adjacent
        # attribute stores, so the runs above cannot show a cache that
        # keeps keys and results apart
        analytic = suite.analytic
        x = suite.initial_point
        found = analytic.evaluate(np.array([x, x + 1.0]))
        assert analytic._results is found
        assert list(found) == [x.tobytes(), (x + 1.0).tobytes()]
        values, grads = found[x.tobytes()]
        assert analytic.values(x.copy()) is values
        assert analytic.gradients(x.copy()) is grads
        t = np.matmul(analytic.features, x) - analytic.offsets
        phi = t * t / (t * t + 1.0)
        slopes = (t + t) / ((t * t + 1.0) * (t * t + 1.0))
        want = np.add.reduce(phi, axis=1) / phi.shape[1]
        assert values.tobytes() == want.tobytes()
        want = np.matmul(analytic._features_t, slopes[:, :, None])[:, :, 0]
        assert grads.tobytes() == (want / slopes.shape[1]).tobytes()
        for array in (values, grads):
            with pytest.raises(ValueError):
                array[0] = 1.0
        analytic.gradients(x + 2.0)
        assert list(analytic._results) == [(x + 2.0).tobytes()]
        assert list(found) == [x.tobytes(), (x + 1.0).tobytes()]

    def test_data_arrays_are_read_only(self):
        quad = make_quadratic_suite(N=1, n=4, d=2, heterogeneity=0.0, seed=0)
        sig = make_nonconvex_suite(N=1, n=4, d=2, heterogeneity=0.0, seed=0)
        arrays = [
            quad.objectives[0].centers,
            quad.analytic.center_means,
            quad.analytic.spread_sq,
            sig.objectives[0].features,
            sig.objectives[0].offsets,
        ]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_caller_array_stays_writable(self):
        centers = np.ones((4, 3))
        features, offsets = np.ones((4, 3)), np.zeros(4)
        quad = QuadraticObjective(0, centers)
        sig = SigmoidObjective(0, features, offsets)
        for mine, theirs in (
            (centers, quad.centers),
            (features, sig.features),
            (offsets, sig.offsets),
        ):
            assert np.shares_memory(mine, theirs)
            assert mine.flags.writeable
            mine[0] = 2.0

    def test_explicit_suites_copy_their_input_arrays(self):
        # writes through the caller's arrays after construction reach no
        # oracle, metered or analytic, and the config echo still holds
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(2, 5, 3))
        features = rng.uniform(-1.0, 1.0, size=(2, 5, 3))
        offsets = rng.uniform(-0.2, 0.2, size=(2, 5))
        start = rng.normal(size=3)
        suites = [
            (quadratic_suite_from_centers(centers, start), {"centers": centers}),
            (
                sigmoid_suite_from_params(features, offsets, start),
                {"features": features, "offsets": offsets},
            ),
        ]
        x, x_old = rng.normal(size=3), rng.normal(size=3)
        idx = np.array([0, 4, 2, 2])

        def oracles(suite):
            out = [suite.value(x), suite.gradient(x)]
            out += [suite.analytic.values(x), suite.analytic.gradients(x)]
            for obj in suite.objectives:
                out += [
                    obj.full_gradient(x),
                    obj.batch_gradient_mean(x, idx),
                    obj.pair_difference_mean(x, x_old, idx),
                ]
            return [np.asarray(v).tobytes() for v in out]

        for suite, inputs in suites:
            before = oracles(suite)
            for key, array in inputs.items():
                array += 3.0
                held = np.stack([getattr(obj, key) for obj in suite.objectives])
                assert held.tolist() == suite.config[key].tolist()
            assert oracles(suite) == before
