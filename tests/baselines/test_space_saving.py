"""Tests for the SpaceSaving baseline."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.space_saving import SpaceSaving
from repro.streams.edge import DELETE


class TestBasics:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)

    def test_rejects_deletions(self):
        with pytest.raises(ValueError):
            SpaceSaving(2).process_batch(
                np.array([0]), np.array([0]), np.array([DELETE])
            )

    def test_exact_when_few_items(self):
        summary = SpaceSaving(10)
        for item in [1, 1, 2]:
            summary.update(item)
        assert summary.estimate(1) == 2
        assert summary.guaranteed_count(1) == 2

    def test_eviction_inherits_minimum(self):
        summary = SpaceSaving(2)
        for item in [1, 1, 1, 2, 3]:  # 3 evicts 2 (count 1), inherits 1
            summary.update(item)
        assert summary.estimate(3) == 2
        assert summary.guaranteed_count(3) == 1
        assert summary.estimate(2) == 0

    def test_counters_always_full_after_k_distinct(self):
        summary = SpaceSaving(3)
        for item in range(10):
            summary.update(item)
        assert len(summary._counters) == 3

    def test_candidates_by_threshold(self):
        summary = SpaceSaving(4)
        for item in [1] * 10 + [2] * 5 + [3]:
            summary.update(item)
        assert (1, 10) in summary.candidates(5)
        assert all(count >= 5 for _, count in summary.candidates(5))

    def test_space_words(self):
        summary = SpaceSaving(4)
        for item in range(10):
            summary.update(item)
        assert summary.space_words() == 3 * 4 + 1


class TestGuarantees:
    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=300),
        st.integers(1, 12),
    )
    def test_overestimate_bounded_by_min_counter(self, stream, k):
        """true <= estimate <= true + L/k for tracked items, and every
        item with count > L/k is tracked."""
        summary = SpaceSaving(k)
        true = {}
        for item in stream:
            summary.update(item)
            true[item] = true.get(item, 0) + 1
        bound = len(stream) / k
        for item, count in true.items():
            estimate = summary.estimate(item)
            if estimate:
                assert count <= estimate <= count + bound + 1e-9
            else:
                assert count <= bound + 1e-9

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=200))
    def test_guaranteed_count_is_sound(self, stream):
        summary = SpaceSaving(4)
        true = {}
        for item in stream:
            summary.update(item)
            true[item] = true.get(item, 0) + 1
        for item in true:
            assert summary.guaranteed_count(item) <= true[item]

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 19), min_size=1, max_size=200))
    def test_counter_sum_equals_stream_length(self, stream):
        """Invariant: the k counters always sum to the stream length
        (each update adds exactly 1 to the total)."""
        summary = SpaceSaving(5)
        for item in stream:
            summary.update(item)
        assert sum(summary._counters.values()) == len(stream)


class TestCloneAndMerge:
    @staticmethod
    def _loaded(k=8, seed=4, size=3000):
        summary = SpaceSaving(k)
        rng = np.random.default_rng(seed)
        items = rng.zipf(1.4, size=size) % 200
        summary.process_batch(items, items)
        return summary

    @pytest.mark.parametrize("wide", [False, True])
    def test_clone_pickles_like_deepcopy(self, wide):
        summary = self._loaded()
        if wide:
            summary._widen()
        assert pickle.dumps(summary.clone()) == pickle.dumps(
            copy.deepcopy(summary)
        )

    def test_ingesting_into_the_clone_leaves_the_original_alone(self):
        summary = self._loaded()
        estimates = {item: summary.estimate(item) for item in range(200)}
        state = pickle.dumps(summary)
        dup = summary.clone()
        items = np.arange(50, 150, dtype=np.int64)
        dup.process_batch(items, items)
        dup.update(7, 40)
        assert {item: summary.estimate(item) for item in range(200)} == (
            estimates
        )
        assert pickle.dumps(summary) == state

    def test_merge_leaves_both_operands_alone(self):
        left, right = self._loaded(seed=1), self._loaded(seed=2)
        before = pickle.dumps((left, right))
        merged = left.merge(right)
        assert pickle.dumps((left, right)) == before
        items = np.arange(20, dtype=np.int64)
        merged.process_batch(items, items)
        assert pickle.dumps((left, right)) == before
