"""Unit and statistical tests for the k-wise hash family."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch.hashing import (
    PRIME_61,
    KWiseHash,
    KWiseHashStack,
    mulmod_p61,
    random_kwise,
)


class TestConstruction:
    def test_requires_coefficients(self):
        with pytest.raises(ValueError):
            KWiseHash([], 10)

    def test_requires_positive_range(self):
        with pytest.raises(ValueError):
            KWiseHash([1], 0)

    def test_rejects_out_of_field_coefficient(self):
        with pytest.raises(ValueError):
            KWiseHash([PRIME_61], 10)

    def test_independence_property(self):
        hash_function = KWiseHash([1, 2, 3], 10)
        assert hash_function.independence == 3

    def test_space_words(self):
        assert KWiseHash([1, 2], 10).space_words() == 3

    def test_random_kwise_k_validation(self):
        with pytest.raises(ValueError):
            random_kwise(0, 10, random.Random(0))


class TestEvaluation:
    def test_constant_polynomial(self):
        hash_function = KWiseHash([7], 100)
        assert hash_function(0) == 7
        assert hash_function(12345) == 7

    def test_linear_polynomial(self):
        # h(x) = (2x + 3) mod p mod 10
        hash_function = KWiseHash([2, 3], 10)
        assert hash_function(5) == (2 * 5 + 3) % 10

    def test_output_in_range(self):
        rng = random.Random(1)
        hash_function = random_kwise(4, 17, rng)
        assert all(0 <= hash_function(x) < 17 for x in range(1000))

    def test_field_value_consistent_with_call(self):
        rng = random.Random(2)
        hash_function = random_kwise(3, 16, rng)
        for x in range(50):
            assert hash_function(x) == hash_function.field_value(x) % 16

    def test_deterministic(self):
        hash_function = KWiseHash([5, 6, 7], 97)
        assert [hash_function(x) for x in range(20)] == [
            hash_function(x) for x in range(20)
        ]

    @given(st.integers(0, 2**61 - 2))
    def test_never_out_of_range(self, x):
        hash_function = KWiseHash([1, 0], 13)
        assert 0 <= hash_function(x) < 13


class TestStatistics:
    def test_marginal_uniformity(self):
        """Each bucket receives ~1/range of inputs (chi-square style check)."""
        rng = random.Random(3)
        range_size = 8
        trials = 8000
        counts = Counter()
        hash_function = random_kwise(2, range_size, rng)
        for x in range(trials):
            counts[hash_function(x)] += 1
        expected = trials / range_size
        for bucket in range(range_size):
            assert abs(counts[bucket] - expected) < 0.25 * expected

    def test_pairwise_collision_rate(self):
        """Collision probability of a 2-wise family is ~1/range."""
        rng = random.Random(4)
        range_size = 64
        collisions = 0
        trials = 300
        for trial in range(trials):
            hash_function = random_kwise(2, range_size, rng)
            if hash_function(2 * trial) == hash_function(2 * trial + 1):
                collisions += 1
        # expected ~ trials/range = 4.7; allow generous slack
        assert collisions <= 20

    def test_different_draws_differ(self):
        rng = random.Random(5)
        first = random_kwise(2, 1000, rng)
        second = random_kwise(2, 1000, rng)
        assert any(first(x) != second(x) for x in range(100))


class TestBatchEvaluation:
    """The vectorized path must be bit-identical to the scalar one."""

    @given(
        st.integers(0, PRIME_61 - 1),
        st.integers(0, PRIME_61 - 1),
    )
    def test_mulmod_matches_python_bigints(self, a, b):
        got = mulmod_p61(np.uint64(a), np.uint64(b))
        assert int(got) == (a * b) % PRIME_61

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("range_size", [2, 7, 256, 10**9])
    def test_batch_matches_scalar(self, k, range_size):
        rng = random.Random(17)
        hash_function = random_kwise(k, range_size, rng)
        xs = (
            [rng.randrange(2**62) for _ in range(500)]
            + list(range(32))
            + [PRIME_61 - 1, PRIME_61, PRIME_61 + 1]
        )
        arr = np.array(xs, dtype=np.uint64)
        assert hash_function.batch(arr).tolist() == [hash_function(x) for x in xs]
        assert hash_function.field_batch(arr).tolist() == [
            hash_function.field_value(x) for x in xs
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batch_matches_scalar_on_signed_points(self, k):
        """Negative ``int64`` points hash as Python's ``x % p`` does, not
        as their ``uint64`` wrap-around."""
        rng = random.Random(19)
        hash_function = random_kwise(k, 97, rng)
        xs = (
            [rng.randrange(-(2**63), 2**63) for _ in range(300)]
            + list(range(-16, 16))
            + [-(2**63), 2**63 - 1, -PRIME_61, -PRIME_61 - 1]
        )
        arr = np.array(xs, dtype=np.int64)
        assert hash_function.batch(arr).tolist() == [hash_function(x) for x in xs]
        stack = KWiseHashStack([hash_function, hash_function])
        assert stack.batch_rows(arr)[1].tolist() == [hash_function(x) for x in xs]

    def test_empty_batch(self):
        hash_function = random_kwise(2, 16, random.Random(0))
        assert hash_function.batch(np.array([], dtype=np.uint64)).tolist() == []
