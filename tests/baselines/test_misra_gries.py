"""Tests for the Misra–Gries baseline, including its classical guarantee."""

import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.misra_gries import MisraGries
from repro.streams.edge import DELETE
from repro.streams.generators import GeneratorConfig, zipf_frequency_stream


class TestBasics:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            MisraGries(0)

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            MisraGries(2).update(0, 0)

    def test_rejects_deletions(self):
        with pytest.raises(ValueError):
            MisraGries(2).process_batch(
                np.array([0]), np.array([0]), np.array([DELETE])
            )

    def test_exact_when_few_items(self):
        summary = MisraGries(10)
        for item in [1, 1, 2, 3, 1]:
            summary.update(item)
        assert summary.estimate(1) == 3
        assert summary.estimate(2) == 1
        assert summary.estimate(4) == 0

    def test_decrement_step(self):
        summary = MisraGries(2)
        for item in [1, 1, 2, 3]:  # 3 evicts via decrement
            summary.update(item)
        assert summary.estimate(1) == 1
        assert summary.estimate(2) == 0
        assert summary.estimate(3) == 0

    def test_weighted_update(self):
        summary = MisraGries(4)
        summary.update(7, 5)
        assert summary.estimate(7) == 5

    def test_error_bound_value(self):
        summary = MisraGries(9)
        for item in range(20):
            summary.update(item % 4)
        assert summary.error_bound() == 20 / 10

    def test_space_proportional_to_counters(self):
        summary = MisraGries(5)
        for item in range(3):
            summary.update(item)
        assert summary.space_words() == 2 * 3 + 1

    def test_candidates_superset_of_heavy(self):
        summary = MisraGries(5)
        stream = [1] * 50 + [2] * 30 + list(range(10, 40))
        for item in stream:
            summary.update(item)
        candidate_items = {item for item, _ in summary.candidates(30)}
        assert 1 in candidate_items


class TestGuarantee:
    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=300),
        st.integers(1, 12),
    )
    def test_classical_error_guarantee(self, stream, k):
        """true - L/(k+1) <= estimate <= true, for every item."""
        summary = MisraGries(k)
        true = {}
        for item in stream:
            summary.update(item)
            true[item] = true.get(item, 0) + 1
        bound = len(stream) / (k + 1)
        for item, count in true.items():
            estimate = summary.estimate(item)
            assert estimate <= count
            assert estimate >= count - bound - 1e-9

    def test_heavy_hitter_survives(self):
        """Any item above L/(k+1) remains in the summary."""
        config = GeneratorConfig(n=50, m=3000, seed=1)
        stream = zipf_frequency_stream(config, n_records=3000, exponent=1.5)
        summary = MisraGries(20).process(stream)
        degrees = stream.final_degrees()
        for item, count in degrees.items():
            if count > len(stream) / 21:
                assert summary.estimate(item) > 0

    def test_space_independent_of_stream_length(self):
        rng = random.Random(2)
        summary = MisraGries(8)
        for _ in range(5000):
            summary.update(rng.randrange(1000))
        assert summary.space_words() <= 2 * 8 + 1
