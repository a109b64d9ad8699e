import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prspider.numerics import (
    DRAW_INIT,
    DRAW_INNER,
    DRAW_RESTART,
    ITER_BLOCK,
    SCALAR_DRAWS,
    SCALAR_ENTRIES,
    RngStream,
    as_vector,
    axpy,
    mean_reduce,
    ordered_sum,
    sq_norm,
    sq_norms,
)
from prspider.problems import LocalObjective


def vecs(*rows):
    return [np.array(r, dtype=np.float64) for r in rows]


def accumulate_mean(stack):
    """``mean_reduce``'s numpy formula for an (N, d) stack, N >= 2."""
    first = stack[0]
    acc = np.add.accumulate(stack[1:] - first, axis=0)[-1]
    acc /= stack.shape[0]
    mean = first + acc
    np.copyto(mean, first, where=acc == 0.0)
    return mean


def loop_mean(vectors):
    """The anchored left-to-right mean, one vector at a time."""
    first = vectors[0]
    if len(vectors) == 1:
        return first.copy()
    acc = vectors[1] - first
    for v in vectors[2:]:
        acc += v - first
    acc /= len(vectors)
    return np.where(acc == 0.0, first, first + acc)


class TestMeanReduce:
    def test_symmetric_pair(self):
        assert np.array_equal(mean_reduce(vecs((1, 3), (3, 1))), [2, 2])

    def test_singleton_identity(self):
        v = np.array([5.0])
        out = mean_reduce([v])
        assert np.array_equal(out, v)
        assert out is not v  # always a fresh array

    def test_four_vector_hand_sum(self):
        # brute-force componentwise mean of the same list
        vectors = vecs((1, 0), (0, 1), (2, 2), (1, 1))
        expected = np.stack(vectors).sum(axis=0) / 4
        assert np.allclose(mean_reduce(vectors), expected, rtol=0, atol=1e-15)
        assert np.array_equal(mean_reduce(vectors), [1, 1])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            mean_reduce([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_reduce(vecs((1, 2), (1, 2, 3)))

    @given(
        st.integers(min_value=1, max_value=17),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_n_copies_bitwise_identity(self, n, data):
        v = np.array(data, dtype=np.float64)
        out = mean_reduce([v] * n)
        assert out.tobytes() == v.tobytes()

    def test_repeated_calls_bitwise_identical(self):
        rng = np.random.default_rng(0)
        vectors = [rng.normal(size=6) for _ in range(5)]
        a = mean_reduce(vectors)
        b = mean_reduce(vectors)
        assert a.tobytes() == b.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 17), st.integers(1, 8))
    def test_matches_the_left_to_right_loop(self, data, n, d):
        entry = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        )
        row = st.lists(entry, min_size=d, max_size=d)
        anchor = data.draw(row)
        # some rows repeat the anchor, so some or all deviations are zero
        rows = [anchor] + [
            anchor if data.draw(st.booleans()) else data.draw(row)
            for _ in range(n - 1)
        ]
        vectors = vecs(*rows)
        want = loop_mean(vectors).tobytes()
        assert mean_reduce(vectors).tobytes() == want
        assert mean_reduce(np.array(vectors)).tobytes() == want

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_seventeen_generic_rows_sum_in_order(self, d):
        # numpy sums eight or more entries of a lone column pairwise
        rng = np.random.default_rng(d)
        for _ in range(50):
            stack = rng.normal(size=(17, d)) * rng.uniform(1, 1e6, (17, 1))
            want = loop_mean(list(stack)).tobytes()
            assert mean_reduce(list(stack)).tobytes() == want
            assert mean_reduce(stack).tobytes() == want

    @pytest.mark.parametrize(
        "n, d",
        # N * d at SCALAR_ENTRIES (Python floats) and just past it (arrays)
        [(n, SCALAR_ENTRIES // n) for n in (2, 4, 8, 16)]
        + [(SCALAR_ENTRIES + 1, 1), (2, SCALAR_ENTRIES // 2 + 1)],
    )
    def test_scalar_bound_matches_the_numpy_formula(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
        with np.errstate(all="ignore"):
            for trial in range(60):
                stack = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8, 8, (n, d))
                # signed zeros everywhere; inf and NaN in every third trial
                pick = rng.random((n, d)) < (0.4 if trial % 3 else 0.2)
                choices = specials if trial % 3 == 0 else specials[:2]
                stack[pick] = rng.choice(choices, size=int(pick.sum()))
                # some rows repeat the anchor, so some deviations are zero
                stack[1:][rng.random(n - 1) < 0.3] = stack[0]
                want = accumulate_mean(stack).tobytes()
                assert mean_reduce(stack).tobytes() == want
                assert mean_reduce(list(stack)).tobytes() == want
            # other dtypes keep numpy's arithmetic
            narrow = stack.astype(np.float32)
            got = mean_reduce(narrow)
            assert got.tobytes() == accumulate_mean(narrow).tobytes()

    @pytest.mark.parametrize(
        "n, d",
        # N * d at SCALAR_ENTRIES (Python floats), just past it (arrays),
        # and one vector (a copy)
        [(2, SCALAR_ENTRIES // 2), (2, SCALAR_ENTRIES // 2 + 1), (1, 3)],
    )
    def test_integer_and_bool_stacks_average_as_floats(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        ints = rng.integers(-(2**40), 2**40, size=(n, d))
        bools = rng.random((n, d)) < 0.5
        for stack in (ints, ints.astype(np.int32), ints.astype(np.uint8), bools):
            want = mean_reduce(stack.astype(np.float64)).tobytes()
            got = mean_reduce(stack)
            assert got.dtype == np.float64
            assert got.tobytes() == want
            assert mean_reduce(stack.tolist()).tobytes() == want

    def test_ragged_list_and_3d_array_rejected(self):
        with pytest.raises(ValueError):
            mean_reduce([np.zeros(2), np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError):
            mean_reduce(np.zeros((3, 2, 2)))


class TestAxpy:
    def test_zero_step(self):
        out = axpy(np.array([1.0, 1.0]), 0.0, np.array([9.0, 9.0]))
        assert np.array_equal(out, [1, 1])

    def test_exact_cancellation(self):
        out = axpy(np.array([1.0, 2.0]), -0.5, np.array([2.0, 4.0]))
        assert np.array_equal(out, [0, 0])

    def test_hand_arithmetic(self):
        out = axpy(np.array([0.3, 0.7]), -0.1, np.array([1.0, -1.0]))
        assert np.allclose(out, [0.2, 0.8], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            axpy(np.zeros(2), 1.0, np.zeros(3))

    def test_non_finite_scalar(self):
        with pytest.raises(ValueError):
            axpy(np.zeros(2), float("nan"), np.zeros(2))

    def test_does_not_mutate_inputs(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        axpy(x, 2.0, y)
        assert np.array_equal(x, [1, 2]) and np.array_equal(y, [3, 4])


class TestSqNorm:
    def test_zero_vector(self):
        assert sq_norm(np.zeros(3)) == 0.0

    def test_pythagorean_pair(self):
        assert sq_norm(np.array([3.0, 4.0])) == 25.0

    def test_hand_sum_of_squares(self):
        assert sq_norm(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.14, rel=1e-14)


class TestAsVector:
    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])

    def test_dim_check(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)


class TestStackedReductions:
    def test_ordered_sum_is_the_loop_sum(self):
        # numpy sums eight or more values pairwise; a loop sums in order
        rng = np.random.default_rng(0)
        for size in (1, 7, 8, 12, 40):
            for _ in range(50):
                values = rng.uniform(0.0, 10.0, size=size)
                total = 0.0
                for v in values:
                    total += float(v)
                assert ordered_sum(values) == total

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 2048])
    def test_sq_norms_are_the_row_sq_norms(self, d):
        rows = np.random.default_rng(d).normal(size=(5, d))
        want = [sq_norm(r) for r in rows]
        assert sq_norms(rows).tolist() == want
        assert sq_norms(rows[:, ::-1]).tolist() == [
            sq_norm(r) for r in rows[:, ::-1]
        ]
        # a stack of rows keeps its leading axes, each row its own bits
        stack = np.stack([rows, rows[::-1] * 3.0])
        want = [want, [sq_norm(r) for r in rows[::-1] * 3.0]]
        assert sq_norms(stack).tolist() == want


def reference_generator(seed, key):
    # the key-to-generator map that RngStream reproduces, built the slow way
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


# raw 32-bit words, from the lane table and from the array path: they pin
# every seed word of the key
WORD_SIZES = (SCALAR_DRAWS, 2 * SCALAR_DRAWS)


def draws(handle):
    return [handle.indices(2**32, size).tolist() for size in WORD_SIZES]


def reference_draws(seed, key):
    return [
        reference_generator(seed, key).integers(0, 2**32, size).tolist()
        for size in WORD_SIZES
    ]


class TestRngStream:
    def test_same_key_same_sequence(self):
        s = RngStream(seed=42)
        a = draws(s.substream(1, 2, 3))
        b = draws(s.substream(1, 2, 3))
        assert a == b == reference_draws(42, (1, 2, 3, DRAW_INNER))

    def test_distinct_keys_differ(self):
        s = RngStream(seed=42)
        base = draws(s.substream(1, 2, 3))
        for key in [(0, 2, 3), (1, 0, 3), (1, 2, 0)]:
            other = draws(s.substream(*key))
            assert other == reference_draws(42, (*key, DRAW_INNER))
            assert other != base

    def test_purpose_tags_are_disjoint(self):
        s = RngStream(seed=7)
        a = s.substream(0, 0, 0, DRAW_INNER).indices(1000, 8)
        b = s.substream(0, 0, 0, DRAW_RESTART).indices(1000, 8)
        for got, purpose in [(a, DRAW_INNER), (b, DRAW_RESTART)]:
            want = reference_generator(7, (0, 0, 0, purpose)).integers(0, 1000, 8)
            assert got.tolist() == want.tolist()
        assert not np.array_equal(a, b)

    def test_single_worker_replayable_in_isolation(self):
        # draws for worker 3 do not depend on whether other workers drew
        s = RngStream(seed=5)
        for w in range(3):
            draws(s.substream(w, 0, 0))
        isolated = draws(RngStream(seed=5).substream(3, 0, 0))
        interleaved = draws(s.substream(3, 0, 0))
        assert isolated == interleaved == reference_draws(5, (3, 0, 0, 0))


SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 3]),
    st.integers(0, 2**130),
)
# iterations near block edges (and the 2**32 word edge), plus a spread
ITERATIONS = st.one_of(
    st.sampled_from(
        [0, 1, ITER_BLOCK - 1, ITER_BLOCK, ITER_BLOCK + 1, 2**32 - 1, 2**32]
    ),
    st.integers(0, 5 * ITER_BLOCK),
    st.integers(0, 2**70),
)
KEYS = st.tuples(
    st.integers(0, 9),
    st.one_of(st.integers(0, 70), st.just(2**33)),
    ITERATIONS,
    st.sampled_from([DRAW_INNER, DRAW_RESTART, DRAW_INIT, 2**40]),
)


class TestRngStreamPin:
    """``substream`` draws what the SeedSequence-keyed PCG64 draws."""

    @settings(max_examples=120, deadline=None)
    @given(seed=SEEDS, keys=st.lists(KEYS, min_size=1, max_size=12))
    def test_matches_seed_sequence_keying(self, seed, keys):
        # one stream serves every key in turn: forward and backward jumps in
        # the iteration, across block edges and between slots
        stream = RngStream(seed)
        for key in keys:
            assert draws(stream.substream(*key)) == reference_draws(seed, key)

    @settings(max_examples=30, deadline=None)
    @given(seed=SEEDS, worker=st.integers(0, 5), epoch=st.integers(0, 5))
    def test_jumps_within_one_slot(self, seed, worker, epoch):
        stream = RngStream(seed)
        block = ITER_BLOCK
        order = [block + 3, 2, block - 1, block, 0, 3 * block, 1]
        for t in order + order[::-1]:
            key = (worker, epoch, t, DRAW_INNER)
            assert draws(stream.substream(*key)) == reference_draws(seed, key)

    def test_same_key_twice_gives_fresh_equal_generators(self):
        stream = RngStream(0)
        a = stream.substream(1, 2, 3)
        b = stream.substream(1, 2, 3)
        assert a is not b
        assert draws(a) == draws(b) == reference_draws(0, (1, 2, 3, 0))

    def test_live_generators_drawn_interleaved(self):
        stream = RngStream(2**32)
        keys = [(0, 0, 5, 0), (0, 0, ITER_BLOCK + 5, 0), (1, 0, 5, 0)]
        # handles outlive their slot's block, which the next key replaces
        live = [stream.substream(*k) for k in keys]
        refs = [reference_generator(2**32, k).integers(0, 1000, 3) for k in keys]
        for _ in range(4):
            for handle, ref in zip(live, refs):
                assert handle.indices(1000, 3).tolist() == ref.tolist()

    def test_calls_from_a_thread_pool(self):
        stream = RngStream(12345)
        keys = [
            (w, e, t, p)
            for w in range(3)
            for e in range(2)
            for t in (0, 7, ITER_BLOCK - 1, ITER_BLOCK, 2 * ITER_BLOCK + 1)
            for p in (DRAW_INNER, DRAW_RESTART)
        ]

        def draw(key):
            # the tiny draw races on the block's lane table
            idx = _pool(300).draw_indices(stream.substream(*key), 2)
            return draws(stream.substream(*key)), idx.tolist()

        # more threads than cores, switching often, over one stream's cache
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(draw, keys * 3, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = [
            (reference_draws(12345, key),
             reference_generator(12345, key).integers(0, 300, 2).tolist())
            for key in keys
        ] * 3
        assert got == want

    @pytest.mark.parametrize("bad", [-1, 1.0])
    def test_rejects_non_integer_or_negative_keys(self, bad):
        with pytest.raises((ValueError, TypeError)):
            RngStream(bad).substream(0, 0, 0)
        with pytest.raises((ValueError, TypeError)):
            RngStream(0).substream(bad, 0, 0)
        stream = RngStream(0)
        stream.substream(0, 0, 0)  # a cached block must not excuse the key
        with pytest.raises((ValueError, TypeError)):
            stream.substream(0, 0, bad)


# pool sizes at numpy's special cases (1 and 2**32), powers of two (no
# rejection), and sizes whose rejection threshold is high (2**31 + 1 drops
# nearly half the words)
POOLS = [1, 2, 3, 255, 256, 300, 2**31 + 1, 2**32 - 1, 2**32]


def _pool(n):
    return LocalObjective(0, 1, None, n, smoothness=1.0)


class TestDrawIndices:
    """``Substream.indices`` draws what ``Generator.integers`` draws."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=SEEDS,
        key=KEYS,
        n=st.sampled_from(POOLS),
        size=st.one_of(st.sampled_from([1, 2, 3, 2493]), st.integers(1, 2493)),
    )
    def test_matches_generator_integers(self, seed, key, n, size):
        got = RngStream(seed).substream(*key).indices(n, size)
        want = reference_generator(seed, key).integers(0, n, size)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("n", POOLS)
    def test_small_sizes_on_both_paths(self, n):
        # every size the lane table serves, and the first the array path
        # does; every lane of a block and two of the next, with a second
        # pool drawn from the same blocks in between
        sizes = {0, 1, 2, 3, SCALAR_DRAWS - 1, SCALAR_DRAWS, SCALAR_DRAWS + 1}
        pools = (n, POOLS[POOLS.index(n) - 1])
        stream = RngStream(7)
        for size in sizes:
            for it in range(ITER_BLOCK + 2):
                for pool in pools:
                    got = stream.substream(1, 2, it).indices(pool, size)
                    want = reference_generator(7, (1, 2, it, 0)).integers(
                        0, pool, size
                    )
                    assert got.dtype == want.dtype == np.int64
                    assert got.tolist() == want.tolist()

    def test_rejected_first_word_is_redrawn(self):
        # at pool 2**31 + 1 about half the words fall below the rejection
        # bound; find a key whose very first word does
        n = 2**31 + 1
        bound = (2**32 - n) % n
        stream = RngStream(3)
        it = 0
        while True:
            raw = reference_generator(3, (0, 0, it, 0)).bit_generator.random_raw()
            if (raw & 0xFFFFFFFF) * n % 2**32 < bound:
                break
            it += 1
        # every lane of that key's block, whose lane table leaves out the
        # lanes with a rejected word
        first = it - it % ITER_BLOCK
        for size in range(1, SCALAR_DRAWS + 2):
            for t in range(first, first + ITER_BLOCK):
                got = stream.substream(0, 0, t).indices(n, size)
                want = reference_generator(3, (0, 0, t, 0)).integers(0, n, size)
                assert got.tolist() == want.tolist()

    def test_tiny_draws_build_no_generator(self, monkeypatch):
        # a whole block of draws of 1 .. SCALAR_DRAWS indices reads the
        # lane table; pools without rejections leave no lane short
        built = []

        class CountingPCG64(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        stream = RngStream(11)
        want = {
            (n, size, t): reference_generator(11, (0, 1, t, 0)).integers(
                0, n, size
            )
            for n in (1, 256, 2**32)
            for size in range(1, SCALAR_DRAWS + 1)
            for t in range(ITER_BLOCK)
        }
        key = (0, 1, 5, DRAW_INNER)
        larger = reference_generator(11, key).integers(0, 1000, SCALAR_DRAWS + 1)
        monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
        for (n, size, t), ref in want.items():
            got = stream.substream(0, 1, t).indices(n, size)
            assert got.tolist() == ref.tolist()
        assert built == []
        # one array-path draw builds exactly one PCG64
        got = stream.substream(*key).indices(1000, SCALAR_DRAWS + 1)
        assert len(built) == 1
        assert got.tolist() == larger.tolist()

    def test_rejected_lanes_take_the_array_path(self, monkeypatch):
        # at pool 2**31 + 1 about half the words fall below the rejection
        # bound: a lane with one among its first `size` words seeds one
        # PCG64, every other lane reads the lane table
        n = 2**31 + 1
        bound = (2**32 - n) % n
        built = []

        class CountingPCG64(np.random.PCG64):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        refs, rejected = {}, {}
        for t in range(ITER_BLOCK):
            raw = reference_generator(3, (0, 0, t, 0)).bit_generator.random_raw(
                SCALAR_DRAWS // 2
            )
            words = [
                w >> shift & 0xFFFFFFFF for w in raw.tolist() for shift in (0, 32)
            ]
            for size in range(1, SCALAR_DRAWS + 1):
                refs[t, size] = reference_generator(3, (0, 0, t, 0)).integers(
                    0, n, size
                )
                low = [w * n % 2**32 for w in words[:size]]
                rejected[t, size] = min(low) < bound
        # both kinds of lane occur at every size
        for size in range(1, SCALAR_DRAWS + 1):
            kinds = {rejected[t, size] for t in range(ITER_BLOCK)}
            assert kinds == {False, True}
        stream = RngStream(3)
        monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
        for (t, size), ref in refs.items():
            del built[:]
            got = stream.substream(0, 0, t).indices(n, size)
            assert got.tolist() == ref.tolist()
            assert len(built) == rejected[t, size]

    @pytest.mark.parametrize("size", [-1, -3])
    def test_negative_size_is_refused(self, size):
        with pytest.raises(ValueError, match="negative dimensions"):
            reference_generator(0, (0, 0, 0, 0)).integers(0, 5, size)
        with pytest.raises(ValueError, match="negative dimensions"):
            RngStream(0).substream(0, 0, 0).indices(5, size)

    @pytest.mark.parametrize("n", [0, 2**32 + 1])
    def test_pool_outside_the_32_bit_range_is_refused(self, n):
        with pytest.raises(ValueError, match="sample pool of"):
            _pool(n)
        for size in (1, SCALAR_DRAWS + 1):
            with pytest.raises(ValueError, match="sample pool of"):
                RngStream(0).substream(0, 0, 0).indices(n, size)
