import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wildriff import sampling
from wildriff.sampling import (
    BadSizeError,
    IndexOutOfRangeError,
    STRATEGIES,
    Subsample,
    membership_indicator,
    reservoir_sample,
    srswor,
    srswor_batch,
    srswor_each,
)


class TestSrsworBasics:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_full_set_forced(self, strategy):
        sub = srswor(5, 5, strategy, seed=3)
        assert list(sub.indices) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_invariants(self, strategy):
        sub = srswor(10, 3, strategy, seed=1)
        assert sub.m == 3
        assert len(set(sub.indices)) == 3
        assert all(0 <= i < 10 for i in sub.indices)
        assert np.all(np.diff(sub.indices) > 0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_deterministic(self, strategy):
        a = srswor(50, 7, strategy, seed=11)
        b = srswor(50, 7, strategy, seed=11)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bad_sizes(self, strategy):
        with pytest.raises(BadSizeError):
            srswor(5, 6, strategy, seed=0)
        with pytest.raises(BadSizeError):
            srswor(5, 0, strategy, seed=0)

    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           strategy=st.sampled_from(STRATEGIES), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_valid_subset(self, n, seed, strategy, data):
        m = data.draw(st.integers(1, n))
        sub = srswor(n, m, strategy, seed=seed)
        assert sub.m == m
        assert np.all(np.diff(sub.indices) > 0)
        assert 0 <= sub.indices[0] and sub.indices[-1] < n


class TestInclusionProbability:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_index_zero_frequency(self, strategy):
        n, m, draws = 10, 3, 100_000
        rows = srswor_batch(n, m, strategy, seed=5, count=draws)
        freq = np.mean(np.any(rows == 0, axis=1))
        assert abs(freq - m / n) <= 0.01  # 3-sigma band is ~0.0043


class TestExhaustiveUniformity:
    # Reduced-draw sweep across every (n, m) with n <= 7, m <= 3; the
    # million-draw version of the largest case lives in the acceptance suite.
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_all_small_cases(self, strategy):
        draws = 60_000
        for n in range(2, 8):
            for m in range(1, min(3, n) + 1):
                rows = srswor_batch(n, m, strategy, seed=n * 10 + m, count=draws)
                subsets = list(itertools.combinations(range(n), m))
                lookup = {s: i for i, s in enumerate(subsets)}
                counts = np.zeros(len(subsets))
                keys = [tuple(row) for row in rows]
                for key in keys:
                    counts[lookup[key]] += 1
                p = 1.0 / len(subsets)
                sigma = np.sqrt(draws * p * (1 - p))
                assert np.all(np.abs(counts - draws * p) <= 4.5 * sigma), (
                    f"{strategy} n={n} m={m}: worst deviation "
                    f"{np.max(np.abs(counts - draws * p)) / sigma:.2f} sigma")


class TestScalarBatchConsistency:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_scalar_is_valid(self, strategy):
        # Scalar draws follow the same kernels; check they stay in range and
        # vary with the seed.
        subs = {tuple(srswor(20, 4, strategy, seed=s).indices) for s in range(40)}
        assert len(subs) > 20

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n,m", [(10, 3), (100, 7), (1000, 40), (8000, 219)])
    def test_scalar_is_batch_of_one(self, strategy, n, m):
        # The module docstring's claim, reservoir's single-pass scalar path
        # included.
        for seed in range(3):
            np.testing.assert_array_equal(srswor(n, m, strategy, seed).indices,
                                          srswor_batch(n, m, strategy, seed, 1)[0])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_chunked_batch_rows_are_subsamples(self, strategy, monkeypatch):
        monkeypatch.setattr(sampling, "_BATCH_CHUNK", 3)
        rows = srswor_batch(50, 6, strategy, 5, 10)
        assert rows.shape == (10, 6)
        assert np.all(np.diff(rows, axis=1) > 0)   # sorted and distinct
        assert rows.min() >= 0 and rows.max() < 50
        assert len({tuple(row) for row in rows}) > 1


def per_step_permutation(n, m, count, rng):
    """Partial Fisher-Yates with one target draw per step: the reference."""
    arr = np.tile(np.arange(n, dtype=np.int64), (count, 1))
    rows = np.arange(count)
    for t in range(m):
        j = rng.integers(t, n, size=count)
        picked = arr[rows, j].copy()
        arr[rows, j] = arr[:, t]
        arr[:, t] = picked
    return np.sort(arr[:, :m], axis=1)


class TestPermutationKernel:
    @pytest.mark.parametrize("n,m,count", [(8000, 220, 1), (7, 3, 1000), (10, 3, 5000),
                                           (1, 1, 3)])
    def test_matches_per_step_draws(self, n, m, count):
        for seed in range(4):
            got = srswor_batch(n, m, "permutation", np.random.default_rng(seed), count)
            want = per_step_permutation(n, m, count, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)

    # SHA-256 of the int64 rows that swapping a chunk's draws in blocks
    # gave; (5000, 7, 40) spanned four blocks of swaps, (20000, 10, 100) 34.
    RECORDED = {
        (5000, 7, 40, 3): "cbc38e0e82e5b146890af3097ff951ebd6b7615a1c0e7cac772f47afa4955701",
        (20000, 10, 100, 0): "164e9869f77cfc049497f943f4d5c1d4abd97ab8166c4c9b38bf6189c36ff3cc",
        (500, 40, 333, 2): "17ef1990fddb206a50b8cca5a0490be52c832c5a38400e4b20a0f119cdc8719c",
    }

    @pytest.mark.parametrize("n,m,count,seed", sorted(RECORDED))
    def test_blocked_swaps_match_recorded_rows(self, n, m, count, seed):
        rows = srswor_batch(n, m, "permutation", seed, count)
        assert rows.dtype == np.int64 and rows.shape == (count, m)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == self.RECORDED[(n, m, count, seed)]

    def test_blocked_swaps_bound_memory(self):
        # 2,000 draws of 100 slots are 200,000 slots, about twelve chunks of
        # `_RESOLVE_ENTRIES`; resolving them at once peaked at 20.0 MB.
        # Beyond the drawn targets and the rows returned, only one chunk's
        # temporaries, about 11 arrays of a chunk's size, may be live.
        srswor_batch(50, 7, "permutation", 0, 4)   # numpy's one-time set-up
        count, m = 2000, 100
        tracemalloc.start()
        try:
            srswor_batch(2000, m, "permutation", 0, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * count * m + 12 * 8 * sampling._RESOLVE_ENTRIES


def swap_loop(n, targets):
    """The first m slots of each row's shuffle, swapped one Python int at a time."""
    out = []
    for row in targets.tolist():
        arr = list(range(n))
        for t, j in enumerate(row):
            arr[t], arr[j] = arr[j], arr[t]
        out.append(sorted(arr[:len(row)]))
    return np.array(out, dtype=np.int64).reshape(targets.shape)


class TestSwapResolver:
    @given(n=st.integers(1, 60), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_swap_loops(self, n, count, seed, data):
        m = data.draw(st.integers(1, n))
        # Targets equal to their step (a slot swapped with itself), drawn
        # on purpose: uniform draws rarely give many of them.
        fixed = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        rng = np.random.default_rng(seed)
        targets = rng.integers(np.arange(m)[:, None], n, size=(m, count)).T
        targets = np.where(fixed, np.arange(m), targets)
        want = swap_loop(n, targets)
        np.testing.assert_array_equal(sampling._resolve_swaps(targets, n), want)
        # Each seed's draw, alone and together: both resolve as the
        # per-step reference and the swap loop do.
        seeds = [seed + i for i in range(count)]
        each = srswor_each(n, m, seeds)
        for sub, s in zip(each, seeds):
            rng = sampling._as_rng(s, "permutation")
            row = srswor_batch(n, m, "permutation", s, 1)[0]
            np.testing.assert_array_equal(sub.indices, row)
            np.testing.assert_array_equal(
                row, per_step_permutation(n, m, 1, sampling._as_rng(s, "permutation"))[0])
            np.testing.assert_array_equal(
                row, swap_loop(n, rng.integers(np.arange(m)[:, None], n, size=(m, 1)).T)[0])
        batch = srswor_batch(n, m, "permutation", np.random.default_rng(seed), count)
        np.testing.assert_array_equal(
            batch, per_step_permutation(n, m, count, np.random.default_rng(seed)))
        np.testing.assert_array_equal(batch, swap_loop(n, np.random.default_rng(seed).integers(
            np.arange(m)[:, None], n, size=(m, count)).T))

    def test_each_is_srswor_per_seed(self):
        seeds = [3, np.random.default_rng(4), 5]
        got = srswor_each(8000, 220, seeds)
        want = [srswor(8000, 220, "permutation", s)
                for s in [3, np.random.default_rng(4), 5]]
        assert all(isinstance(sub, Subsample) and sub.n == 8000 for sub in got)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.indices, b.indices)

    def test_each_checks_sizes(self):
        with pytest.raises(BadSizeError):
            srswor_each(5, 6, [0])


class TestReservoirStream:
    def test_single_pass_each_item_read_once(self):
        reads = []

        def counting_stream(n):
            for i in range(n):
                reads.append(i)
                yield i

        out = reservoir_sample(counting_stream(100), 10, seed_or_rng=3)
        assert reads == list(range(100))
        assert len(out) == 10 and len(set(out)) == 10

    def test_working_memory_is_m(self):
        # The reservoir never holds more than m items.
        class Probe(list):
            max_len = 0

            def append(self, item):
                super().append(item)
                Probe.max_len = max(Probe.max_len, len(self))

        # Structural check: output length equals m even for a long stream.
        out = reservoir_sample(iter(range(10_000)), 5, seed_or_rng=1)
        assert len(out) == 5

    def test_stream_too_short(self):
        with pytest.raises(BadSizeError):
            reservoir_sample(iter(range(3)), 5, seed_or_rng=0)

    def test_uniform_over_stream(self):
        draws = 40_000
        rng = np.random.default_rng(9)
        counts = np.zeros(6)
        for _ in range(draws):
            for i in reservoir_sample(range(6), 2, seed_or_rng=rng):
                counts[i] += 1
        freq = counts / (2 * draws)
        assert np.all(np.abs(freq - 1 / 6) < 0.01)


class TestMembership:
    def test_member(self):
        sub = Subsample(indices=np.array([1, 3]), n=5)
        assert membership_indicator(sub, 3) == 1

    def test_non_member(self):
        sub = Subsample(indices=np.array([1, 3]), n=5)
        assert membership_indicator(sub, 0) == 0

    def test_cardinality(self):
        sub = srswor(12, 5, "hashset", seed=2)
        assert sum(membership_indicator(sub, i) for i in range(12)) == 5

    def test_out_of_range(self):
        sub = Subsample(indices=np.array([0]), n=3)
        with pytest.raises(IndexOutOfRangeError):
            membership_indicator(sub, 3)


class TestSubsampleValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(Exception):
            Subsample(indices=np.array([3, 1]), n=5)

    def test_duplicate_rejected(self):
        with pytest.raises(Exception):
            Subsample(indices=np.array([1, 1]), n=5)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            Subsample(indices=np.array([1, 7]), n=5)
