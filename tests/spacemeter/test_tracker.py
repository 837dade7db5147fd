"""Tests for the peak-space tracker."""

import pytest

from repro.core.insertion_only import InsertionOnlyFEwW
from repro.spacemeter.tracker import SpaceTracker
from repro.streams.edge import Edge
from repro.streams.generators import GeneratorConfig, planted_star_graph
from repro.streams.stream import stream_from_edges


class FakeAlgorithm:
    """Deterministic space profile: grows by 2 words per update."""

    def __init__(self):
        self._words = 10

    def process_batch(self, a, b, sign=None):
        self._words += 2 * len(a)

    def space_words(self):
        return self._words


def one_edge_stream(count):
    return stream_from_edges([Edge(0, b) for b in range(count)], 4, count)


class TestTracker:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SpaceTracker(FakeAlgorithm(), sample_every=0)

    def test_initial_sample(self):
        tracker = SpaceTracker(FakeAlgorithm())
        assert tracker.trace == [(0, 10)]
        assert tracker.peak_words == 10

    def test_peak_tracks_growth(self):
        tracker = SpaceTracker(FakeAlgorithm())
        tracker.process(one_edge_stream(5))
        assert tracker.peak_words == 10 + 2 * 5
        assert tracker.updates_seen == 5
        assert tracker.final_words() == 20

    def test_sampling_interval_thins_trace(self):
        dense = SpaceTracker(FakeAlgorithm(), sample_every=1)
        sparse = SpaceTracker(FakeAlgorithm(), sample_every=4)
        dense.process(one_edge_stream(8))
        sparse.process(one_edge_stream(8))
        assert len(dense.trace) > len(sparse.trace)
        # but the peak is identical because 8 % 4 == 0 samples the end
        assert dense.peak_words == sparse.peak_words

    def test_final_sample_taken_even_off_cadence(self):
        tracker = SpaceTracker(FakeAlgorithm(), sample_every=4)
        tracker.process(one_edge_stream(6))  # 6 % 4 != 0
        assert tracker.trace[-1] == (6, 10 + 12)
        assert tracker.peak_words == 22

    def test_with_real_algorithm(self):
        """Algorithm 2's space is monotone during an insertion-only
        stream, so peak == final."""
        config = GeneratorConfig(n=64, m=256, seed=1)
        stream = planted_star_graph(config, star_degree=32, background_degree=3)
        algorithm = InsertionOnlyFEwW(64, 32, 2, seed=2)
        tracker = SpaceTracker(algorithm, sample_every=16).process(stream)
        assert tracker.peak_words == tracker.final_words()
        assert tracker.peak_words >= 64  # at least the degree table

    def test_trace_positions_increasing(self):
        tracker = SpaceTracker(FakeAlgorithm(), sample_every=3)
        tracker.process(one_edge_stream(10))
        positions = [position for position, _ in tracker.trace]
        assert positions == sorted(positions)
