"""Unit tests for exact counters and support tracking."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch.exact import DegreeCounter, ExactSupport
from repro.streams.columnar import group_slices


class TestDegreeCounter:
    def test_initial_degrees_zero(self):
        counter = DegreeCounter(5)
        assert all(counter.degree(a) == 0 for a in range(5))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DegreeCounter(0)

    @staticmethod
    def count(counter, ids):
        a = np.asarray(ids, dtype=np.int64)
        return counter.increment_batch(a, group_slices(a)).tolist()

    def test_batch_returns_running_count(self):
        counter = DegreeCounter(4)
        chunks = ([2, 0, 2, 2, 3, 0], [0, 2, 1, 0])
        running = [0] * 4
        for chunk in chunks:
            expected = []
            for vertex in chunk:
                running[vertex] += 1
                expected.append(running[vertex])
            assert self.count(counter, chunk) == expected
        assert [counter.degree(a) for a in range(4)] == running

    def test_out_of_range_vertex(self):
        counter = DegreeCounter(3)
        self.count(counter, [0, 1])
        for bad in ([0, 3, 1], [2, -1]):
            with pytest.raises(ValueError, match="out of range"):
                self.count(counter, bad)
            assert [counter.degree(a) for a in range(3)] == [1, 1, 0]
        with pytest.raises(ValueError):
            counter.degree(-1)

    def test_empty_chunk(self):
        counter = DegreeCounter(3)
        assert self.count(counter, []) == []
        assert counter.max_degree() == 0

    def test_single_vertex(self):
        counter = DegreeCounter(1)
        assert self.count(counter, [0, 0, 0]) == [1, 2, 3]
        assert self.count(counter, [0]) == [4]
        with pytest.raises(ValueError):
            self.count(counter, [1])
        assert counter.degree(0) == 4

    def test_max_degree(self):
        counter = DegreeCounter(4)
        self.count(counter, [3] * 7 + [1])
        assert counter.max_degree() == 7

    def test_space_is_n_words(self):
        assert DegreeCounter(100).space_words() == 100


class TestExactSupport:
    def test_empty(self):
        support = ExactSupport(10)
        assert support.support() == []
        assert support.support_size() == 0

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            ExactSupport(0)

    def test_insert_and_value(self):
        support = ExactSupport(10)
        support.update(3, 2)
        assert support.support() == [3]
        assert support.value(3) == 2
        assert 3 in support

    def test_zero_crossing_removes(self):
        support = ExactSupport(10)
        support.update(3, 2)
        support.update(3, -2)
        assert 3 not in support
        assert support.value(3) == 0

    def test_out_of_range(self):
        support = ExactSupport(10)
        with pytest.raises(ValueError):
            support.update(10, 1)

    @pytest.mark.parametrize(
        "duplicate", (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    )
    def test_copies_keep_the_support_read_only(self, duplicate):
        support = ExactSupport(10)
        support.update_batch(np.array([4, 1, 4]), np.array([1, 1, 1]))
        assert support.support() == [1, 4]
        restored = duplicate(support)
        assert dict(restored.items()) == {1: 1, 4: 2}
        with pytest.raises(ValueError):
            restored.support_array()[0] = 7

    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(-3, 3).filter(bool)),
            max_size=50,
        )
    )
    def test_matches_dict_replay(self, updates):
        support = ExactSupport(20)
        reference = {}
        for index, delta in updates:
            support.update(index, delta)
            reference[index] = reference.get(index, 0) + delta
            if reference[index] == 0:
                del reference[index]
        assert support.support() == sorted(reference)
        assert dict(support.items()) == reference
