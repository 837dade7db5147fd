"""Tests for the naive witness baselines."""

import numpy as np
import pytest

from repro.baselines.naive import FirstKWitnessCollector, FullStorage
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import DELETE, Edge, StreamItem
from repro.streams.generators import GeneratorConfig, planted_star_graph
from repro.streams.stream import EdgeStream, stream_from_edges


class TestFullStorage:
    def test_exact_answer(self):
        config = GeneratorConfig(n=20, m=100, seed=0)
        stream = planted_star_graph(config, star_degree=30, background_degree=3)
        result = FullStorage(20, 100).process(stream).result(d=30)
        assert result.vertex == 0
        assert result.size == 30

    def test_handles_deletions(self):
        items = [
            StreamItem(Edge(0, 0)),
            StreamItem(Edge(0, 1)),
            StreamItem(Edge(0, 0), DELETE),
        ]
        storage = FullStorage(4, 4).process(EdgeStream(items, 4, 4))
        result = storage.result(d=1)
        assert result.witnesses == {1}

    def test_raises_when_promise_violated(self):
        storage = FullStorage(4, 4).process(stream_from_edges([Edge(0, 0)], 4, 4))
        with pytest.raises(AlgorithmFailed):
            storage.result(d=5)

    @pytest.mark.parametrize("a, b", [(0, 5), (9, 1), (-1, 0), (0, -1)])
    def test_out_of_range_edge_rejected_before_buffering(self, a, b):
        """The flat key ``a*m + b`` aliases: (0, 5) in a 4x4 store would
        be filed as edge (1, 1), and vertex 9 stored in a 4-vertex one."""
        storage = FullStorage(4, 4)
        with pytest.raises(ValueError, match="out of range for \\(4, 4\\)|non-negative"):
            storage.process_batch(np.array([1, a]), np.array([2, b]))
        assert storage.finalize()._neighbours == {}

    def test_space_proportional_to_edges(self):
        config = GeneratorConfig(n=20, m=100, seed=1)
        stream = planted_star_graph(config, star_degree=30, background_degree=3)
        storage = FullStorage(20, 100).process(stream)
        n_edges = len(stream.final_edges())
        assert storage.space_words() >= 2 * n_edges


class TestFirstKWitnessCollector:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            FirstKWitnessCollector(10, 0)

    def test_rejects_deletions(self):
        collector = FirstKWitnessCollector(4, 2)
        with pytest.raises(ValueError):
            collector.process_batch(np.array([0]), np.array([0]), np.array([DELETE]))

    def test_collects_first_k(self):
        collector = FirstKWitnessCollector(4, 3).process(
            stream_from_edges([Edge(0, b) for b in range(10)], 4, 10)
        )
        result = collector.result(d=9, alpha=3)
        assert result.vertex == 0
        assert result.witnesses == {0, 1, 2}

    def test_correct_when_k_reaches_threshold(self):
        config = GeneratorConfig(n=20, m=100, seed=2)
        stream = planted_star_graph(config, star_degree=30, background_degree=3)
        collector = FirstKWitnessCollector(20, 15).process(stream)
        result = collector.result(d=30, alpha=2)
        assert result.vertex == 0
        assert result.size >= 15

    def test_fails_when_k_too_small(self):
        collector = FirstKWitnessCollector(4, 2).process(
            stream_from_edges([Edge(0, b) for b in range(10)], 4, 10)
        )
        with pytest.raises(AlgorithmFailed):
            collector.result(d=10, alpha=1)

    def test_empty_stream_raises(self):
        with pytest.raises(AlgorithmFailed):
            FirstKWitnessCollector(4, 2).result(d=1)

    def test_space_scales_with_active_vertices(self):
        """Every touched vertex pays ~k words: the factor-n overhead the
        paper's sampling avoids."""
        edges = [Edge(a, b) for a in range(50) for b in range(5)]
        collector = FirstKWitnessCollector(100, 5).process(
            stream_from_edges(edges, 100, 5)
        )
        assert collector.space_words() >= 50 * (2 + 2 * 5) - 10
