"""Deterministic RNG: stream stability, bounds, and spawn independence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drt import SplitMix64


class TestStream:
    def test_same_seed_same_stream(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]

    def test_different_seeds_diverge(self):
        a = SplitMix64(1)
        b = SplitMix64(2)
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]

    def test_outputs_fit_64_bits(self):
        rng = SplitMix64(7)
        for _ in range(1000):
            v = rng.next_u64()
            assert 0 <= v < (1 << 64)

    def test_reference_values_seed_zero(self):
        # first outputs of the standard 64-bit mixer stream for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(3)
        draws = [rng.uniform() for _ in range(5000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.02


class TestRandint:
    def test_range(self):
        rng = SplitMix64(11)
        for _ in range(2000):
            assert 0 <= rng.randint(7) < 7

    def test_covers_all_residues(self):
        rng = SplitMix64(5)
        seen = {rng.randint(5) for _ in range(500)}
        assert seen == {0, 1, 2, 3, 4}

    def test_n_one_always_zero(self):
        rng = SplitMix64(9)
        assert all(rng.randint(1) == 0 for _ in range(20))

    def test_rejects_nonpositive(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError):
            rng.randint(0)


class TestSampling:
    def test_sample_without_replacement_unique(self):
        rng = SplitMix64(17)
        for _ in range(50):
            picks = rng.sample_without_replacement(20, 8)
            assert len(picks) == 8
            assert len(set(picks.tolist())) == 8
            assert all(0 <= p < 20 for p in picks)

    def test_sample_full_population_is_permutation(self):
        rng = SplitMix64(23)
        picks = rng.sample_without_replacement(10, 10)
        assert sorted(picks.tolist()) == list(range(10))

    def test_bootstrap_indices_shape_and_range(self):
        rng = SplitMix64(31)
        idx = rng.bootstrap_indices(12, 30)
        assert idx.shape == (30,)
        assert idx.min() >= 0 and idx.max() < 12

    def test_bootstrap_repeats_with_same_seed(self):
        a = SplitMix64(4).bootstrap_indices(100, 100)
        b = SplitMix64(4).bootstrap_indices(100, 100)
        np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1),
           n=st.sampled_from([1, 2, 3, 1000, 2 ** 62 + 1, 2 ** 63 - 25]),
           draws=st.integers(0, 300))
    def test_bootstrap_equals_scalar_randint_stream(self, seed, n, draws):
        # n = 2**62 + 1 rejects about a quarter of the draws, so blocks are
        # refilled; n = 1 rejects only the output 2**64 - 1. Warnings are
        # errors here, so no uint64 overflow warning may escape
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        got = fast.bootstrap_indices(n, draws)
        want = [slow.randint(n) for _ in range(draws)]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert fast._state == slow._state
        assert fast.next_u64() == slow.next_u64()

    def test_bootstrap_skips_the_rejected_output(self):
        # find a stream whose next output is rejected for n = 2**62 + 1
        n = 2 ** 62 + 1
        limit = (2 ** 64 - 1) - (2 ** 64 - 1) % n
        seed = next(s for s in range(100) if SplitMix64(s).next_u64() >= limit)
        fast, slow = SplitMix64(seed), SplitMix64(seed)
        assert fast.bootstrap_indices(n, 1).tolist() == [slow.randint(n)]
        assert fast._state == slow._state


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = SplitMix64(8).spawn(3)
        b = SplitMix64(8).spawn(3)
        assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]

    def test_spawn_indices_give_distinct_streams(self):
        parent = SplitMix64(8)
        streams = [parent.spawn(i) for i in range(6)]
        heads = [tuple(s.next_u64() for _ in range(4)) for s in streams]
        assert len(set(heads)) == 6

    def test_spawn_does_not_disturb_parent(self):
        a = SplitMix64(12)
        b = SplitMix64(12)
        a.spawn(0)
        a.spawn(1)
        assert a.next_u64() == b.next_u64()
