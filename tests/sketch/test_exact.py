"""Unit tests for exact counters and support tracking."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch.exact import (
    DegreeCounter,
    ExactSupport,
    bincount_sum_int64,
    net_updates,
)
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
        "duplicate",
        (
            copy.deepcopy,
            lambda x: pickle.loads(pickle.dumps(x)),
            lambda x: x.clone(),
        ),
        ids=("deepcopy", "pickle", "clone"),
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

    def test_clone_is_independent(self):
        support = ExactSupport(10)
        support.update_batch(np.array([4, 1]), np.array([1, 1]))
        support.update(7, 2)  # still pending when cloned
        dup = support.clone()
        support.update_batch(np.array([4, 9]), np.array([-1, 3]))
        dup.update(1, -1)
        assert dict(support.items()) == {1: 1, 7: 2, 9: 3}
        assert dict(dup.items()) == {4: 1, 7: 2}


def _reference_net(coords, deltas):
    """The netting pass every caller used to repeat: np.unique plus an
    int64 scatter-add (wrapping like any int64 sum)."""
    unique, inverse = np.unique(coords, return_inverse=True)
    totals = np.zeros(len(unique), dtype=np.int64)
    np.add.at(totals, inverse, deltas)
    live = totals != 0
    return unique[live], totals[live]


BIG = 1 << 53


class TestNetUpdates:
    @pytest.mark.parametrize("dim", (8, 1 << 20), ids=("dense", "sparse"))
    @pytest.mark.parametrize(
        "coords, deltas",
        (
            ([], []),
            ([3, 5, 3, 5], [1, 2, -1, -2]),  # full cancellation
            ([0, 7, 7, 2], [4, -1, 1, -4]),
            ([6, 6, 1, 1, 1], [BIG, BIG, BIG - 1, 1, -(BIG + 5)]),
            ([2, 2, 4], [(1 << 62), (1 << 62), -(1 << 63)]),  # wraps
            ([5] * 9, [(1 << 61) + 3] * 9),
        ),
        ids=("empty", "cancel", "mixed", "limb-bound", "wrap", "beyond"),
    )
    def test_matches_the_unique_reference(self, dim, coords, deltas):
        coords = np.array(coords, dtype=np.int64)
        deltas = np.array(deltas, dtype=np.int64)
        if dim > 8:
            coords = coords * 131_071  # spread over the large vector
        got, expected = net_updates(coords, deltas, dim), _reference_net(coords, deltas)
        for column, reference in zip(got, expected):
            assert column.dtype == np.int64
            assert np.array_equal(column, reference)

    @pytest.mark.parametrize("dim", (1 << 12, 1 << 20))
    def test_maximal_id_and_random_columns(self, dim):
        rng = np.random.default_rng(dim)
        coords = rng.integers(0, dim, size=5000)
        coords[:3] = dim - 1
        deltas = rng.choice(np.array([-2, -1, 1, 3]), size=5000)
        deltas[:3] = 1
        got = net_updates(coords, deltas, dim)
        expected = _reference_net(coords, deltas)
        assert expected[0][-1] == dim - 1
        for column, reference in zip(got, expected):
            assert np.array_equal(column, reference)

    def test_limb_path_spans_bincount_slices(self):
        # More than 2^20 contributions with values past the 2^53 bound
        # take the limb split in several slices.
        size = (1 << 20) + 7
        addr = np.arange(size, dtype=np.int64) % 3
        values = np.full(size, BIG + 1, dtype=np.int64)
        values[::2] = -(BIG - 3)
        expected = np.zeros(3, dtype=np.int64)
        np.add.at(expected, addr, values)
        assert np.array_equal(bincount_sum_int64(addr, values, 3), expected)
