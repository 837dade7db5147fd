"""Unit tests for the Neighbourhood result type and its verifier."""

import pickle

import numpy as np
import pytest

from repro.core.neighbourhood import (
    AlgorithmFailed,
    Neighbourhood,
    verify_neighbourhood,
)
from repro.streams.edge import Edge
from repro.streams.stream import stream_from_edges


class TestNeighbourhood:
    def test_size(self):
        assert Neighbourhood.of(0, [1, 2, 3]).size == 3

    def test_of_deduplicates(self):
        assert Neighbourhood.of(0, [1, 1, 2]).size == 2

    def test_empty_witnesses_default(self):
        assert Neighbourhood(5).size == 0

    def test_meets_threshold(self):
        neighbourhood = Neighbourhood.of(0, range(10))
        assert neighbourhood.meets_threshold(d=20, alpha=2)
        assert neighbourhood.meets_threshold(d=10, alpha=1)
        assert not neighbourhood.meets_threshold(d=21, alpha=2)

    def test_meets_threshold_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            Neighbourhood.of(0, [1]).meets_threshold(1, 0)

    def test_frozen_and_hashable(self):
        a = Neighbourhood.of(0, [1, 2])
        b = Neighbourhood.of(0, [2, 1])
        assert a == b
        assert len({a, b}) == 1

    def test_array_witnesses_are_kept_compact_and_compare_as_sets(self):
        compact = Neighbourhood.of(3, np.array([9, 1, 9, 4], dtype=np.int64))
        plain = Neighbourhood.of(3, [4, 1, 9])
        assert compact._witnesses.tolist() == [1, 4, 9]
        assert compact.size == 3 and compact.witnesses == frozenset({1, 4, 9})
        assert compact == plain and hash(compact) == hash(plain)
        assert repr(compact) == repr(plain)
        restored = pickle.loads(pickle.dumps(compact))
        assert restored == plain
        with pytest.raises(ValueError):
            restored._witnesses[0] = 2
        with pytest.raises(AttributeError):
            compact.vertex = 4

    def test_str_previews_witnesses(self):
        text = str(Neighbourhood.of(3, range(20)))
        assert "a=3" in text and "|S|=20" in text and "..." in text


class TestVerify:
    def setup_method(self):
        self.stream = stream_from_edges(
            [Edge(0, b) for b in range(10)] + [Edge(1, 0)], 5, 20
        )

    def test_accepts_valid_output(self):
        verify_neighbourhood(Neighbourhood.of(0, range(5)), self.stream, d=10, alpha=2)

    def test_rejects_fake_witness(self):
        with pytest.raises(AssertionError, match="non-neighbours"):
            verify_neighbourhood(
                Neighbourhood.of(0, [0, 1, 15]), self.stream, d=6, alpha=2
            )

    def test_rejects_undersized_neighbourhood(self):
        with pytest.raises(AssertionError, match="below threshold"):
            verify_neighbourhood(
                Neighbourhood.of(0, [0, 1]), self.stream, d=10, alpha=2
            )

    def test_rejects_wrong_vertex_witnesses(self):
        with pytest.raises(AssertionError, match="non-neighbours"):
            verify_neighbourhood(
                Neighbourhood.of(1, [0, 1]), self.stream, d=2, alpha=1
            )

    def test_algorithm_failed_is_runtime_error(self):
        assert issubclass(AlgorithmFailed, RuntimeError)
