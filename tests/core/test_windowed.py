"""Tests for the tumbling-window FEwW extension."""

import numpy as np
import pytest

from repro.core.neighbourhood import AlgorithmFailed
from repro.core.windowed import TumblingWindowFEwW
from repro.streams.edge import DELETE, Edge
from repro.streams.stream import EdgeStream, stream_from_edges


def star_burst(vertex, degree, b_offset):
    """One vertex's burst of `degree` edges (distinct witnesses)."""
    return [Edge(vertex, b_offset + j) for j in range(degree)]


class TestBasics:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TumblingWindowFEwW(10, 5, 1, 0)

    def test_rejects_deletions(self):
        windowed = TumblingWindowFEwW(10, 2, 1, 4)
        with pytest.raises(ValueError):
            windowed.process_batch(np.array([0]), np.array([0]), np.array([DELETE]))

    def test_latest_before_any_window_raises(self):
        with pytest.raises(AlgorithmFailed):
            TumblingWindowFEwW(10, 2, 1, 4).latest()


class TestWindowing:
    def test_windows_close_at_boundaries(self):
        edges = star_burst(0, 12, 0)
        stream = stream_from_edges(edges, 10, 100)
        windowed = TumblingWindowFEwW(10, 4, 1, window=4, seed=0).process(stream)
        assert len(windowed.completed_windows()) == 3
        for index, window in enumerate(windowed.completed_windows()):
            assert window.window_index == index
            assert window.end_update == (index + 1) * 4

    def test_per_window_heavy_item_changes(self):
        """Different vertices dominate different windows; each window's
        answer reflects only its own updates."""
        edges = (
            star_burst(0, 10, 0)
            + star_burst(1, 10, 100)
            + star_burst(2, 10, 200)
        )
        stream = stream_from_edges(edges, 10, 300)
        windowed = TumblingWindowFEwW(10, 10, 1, window=10, seed=1).process(stream)
        winners = [
            window.neighbourhood.vertex
            for window in windowed.completed_windows()
            if window.found
        ]
        assert winners == [0, 1, 2]

    def test_window_without_heavy_item_reports_none(self):
        edges = [Edge(a, a) for a in range(8)]  # all degree 1
        stream = stream_from_edges(edges, 10, 10)
        windowed = TumblingWindowFEwW(10, 5, 1, window=4, seed=2).process(stream)
        assert all(not window.found for window in windowed.completed_windows())

    def test_flush_closes_partial_window(self):
        edges = star_burst(0, 6, 0)
        stream = stream_from_edges(edges, 10, 10)
        windowed = TumblingWindowFEwW(10, 2, 1, window=4, seed=3).process(stream)
        assert len(windowed.completed_windows()) == 1
        windowed.flush()
        assert len(windowed.completed_windows()) == 2
        assert windowed.completed_windows()[-1].end_update == 6

    def test_flush_on_exact_boundary_is_noop_window(self):
        edges = star_burst(0, 4, 0)
        stream = stream_from_edges(edges, 10, 10)
        windowed = TumblingWindowFEwW(10, 2, 1, window=4, seed=4).process(stream)
        count = len(windowed.completed_windows())
        windowed.flush()
        assert len(windowed.completed_windows()) == count

    def test_latest_returns_most_recent(self):
        edges = star_burst(0, 8, 0) + star_burst(1, 8, 50)
        stream = stream_from_edges(edges, 10, 100)
        windowed = TumblingWindowFEwW(10, 8, 1, window=8, seed=5).process(stream)
        assert windowed.latest().neighbourhood.vertex == 1

    def test_witnesses_come_from_own_window(self):
        edges = star_burst(0, 8, 0) + star_burst(0, 8, 50)
        stream = stream_from_edges(edges, 10, 100)
        windowed = TumblingWindowFEwW(10, 8, 1, window=8, seed=6).process(stream)
        first, second = windowed.completed_windows()
        assert first.neighbourhood.witnesses <= set(range(8))
        assert second.neighbourhood.witnesses <= set(range(50, 58))

    def test_space_bounded_by_single_instance_plus_answer(self):
        edges = star_burst(0, 40, 0)
        stream = stream_from_edges(edges, 10, 100)
        windowed = TumblingWindowFEwW(10, 10, 2, window=10, seed=7).process(stream)
        assert windowed.space_words() > 0
