"""Tests for Algorithm 3 (insertion-deletion FEwW): Theorem 5.4."""

import math
import random

import numpy as np
import pytest

from repro.core.insertion_deletion import (
    InsertionDeletionFEwW,
    SamplingStrategy,
    edge_sampler_count,
    samplers_per_vertex,
    vertex_sample_size,
    x_parameter,
)
from repro.core.neighbourhood import AlgorithmFailed, verify_neighbourhood
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.generators import (
    GeneratorConfig,
    deletion_churn_stream,
    planted_star_graph,
    random_bipartite_graph,
)
from repro.streams.stream import EdgeStream


class TestParameters:
    def test_x_parameter_crossover(self):
        """x = n/alpha below sqrt(n), sqrt(n) above."""
        n = 100
        assert x_parameter(n, 2) == 50
        assert x_parameter(n, 10) == 10
        assert x_parameter(n, 20) == 10  # sqrt(100) = 10 takes over
        assert x_parameter(n, 50) == 10

    def test_vertex_sample_size_caps_at_n(self):
        assert vertex_sample_size(50, 2) == 50

    def test_sampler_counts_positive(self):
        assert samplers_per_vertex(100, 10, 2) > 0
        assert edge_sampler_count(100, 200, 10, 2) > 0

    def test_scale_shrinks_counts(self):
        full = edge_sampler_count(100, 200, 10, 2, scale=1.0)
        tiny = edge_sampler_count(100, 200, 10, 2, scale=0.01)
        assert tiny < full

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InsertionDeletionFEwW(10, 10, 5, 0.5)
        with pytest.raises(ValueError):
            InsertionDeletionFEwW(10, 10, 0, 2)

    def test_rejects_out_of_range_edge(self):
        algorithm = InsertionDeletionFEwW(4, 4, 1, 1, seed=0, scale=0.05)
        with pytest.raises(ValueError):
            algorithm.process_batch(np.array([4]), np.array([0]))


class TestCorrectness:
    def test_planted_star_insert_only_input(self):
        config = GeneratorConfig(n=48, m=96, seed=1)
        stream = planted_star_graph(config, star_degree=24, background_degree=2)
        algorithm = InsertionDeletionFEwW(48, 96, 24, 2, seed=2, scale=0.3)
        algorithm.process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 24, 2)
        assert result.vertex == 0

    def test_deletion_churn(self):
        """The separating workload: all noise is deleted, only the star
        survives — a reservoir would be poisoned, ℓ₀-samplers are not."""
        config = GeneratorConfig(n=32, m=64, seed=3)
        stream = deletion_churn_stream(config, star_degree=16, churn_edges=200)
        algorithm = InsertionDeletionFEwW(32, 64, 16, 2, seed=4, scale=0.3)
        algorithm.process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 16, 2)
        assert result.vertex == 0

    def test_witnesses_exclude_deleted_edges(self):
        config = GeneratorConfig(n=16, m=32, seed=5)
        stream = deletion_churn_stream(config, star_degree=8, churn_edges=80)
        algorithm = InsertionDeletionFEwW(16, 32, 8, 1, seed=6, scale=0.4)
        algorithm.process(stream)
        result = algorithm.result()
        assert result.witnesses <= stream.neighbours_of(result.vertex)

    def test_dense_graph_vertex_strategy_alone(self):
        """Lemma 5.2's regime: many heavy vertices -> vertex sampling
        alone succeeds."""
        config = GeneratorConfig(n=24, m=48, seed=7)
        # every vertex heavy: dense random graph
        stream = random_bipartite_graph(config, n_edges=24 * 24)
        d = min(stream.final_degrees().values())
        algorithm = InsertionDeletionFEwW(
            24, 48, d, 2, seed=8, strategy=SamplingStrategy.VERTEX, scale=0.4
        )
        algorithm.process(stream)
        assert algorithm.successful

    def test_sparse_graph_edge_strategy_alone(self):
        """Lemma 5.3's regime: a single heavy vertex owning most edges ->
        edge sampling alone succeeds."""
        config = GeneratorConfig(n=32, m=64, seed=9)
        stream = planted_star_graph(config, star_degree=30, background_degree=1)
        algorithm = InsertionDeletionFEwW(
            32, 64, 30, 2, seed=10, strategy=SamplingStrategy.EDGE, scale=0.4
        )
        algorithm.process(stream)
        result = algorithm.result()
        assert result.vertex == 0

    def test_success_probability_high(self):
        config = GeneratorConfig(n=32, m=64, seed=11)
        stream = deletion_churn_stream(config, star_degree=16, churn_edges=100)
        failures = 0
        trials = 40
        for seed in range(trials):
            algorithm = InsertionDeletionFEwW(32, 64, 16, 2, seed=seed, scale=0.3)
            algorithm.process(stream)
            failures += not algorithm.successful
        assert failures <= 2

    def test_empty_graph_fails(self):
        algorithm = InsertionDeletionFEwW(8, 8, 2, 1, seed=0, scale=0.2)
        algorithm.process(EdgeStream([], 8, 8))
        with pytest.raises(AlgorithmFailed):
            algorithm.result()

    def test_result_memoised(self):
        """Sampler queries are randomised; repeated result() must agree."""
        config = GeneratorConfig(n=16, m=32, seed=12)
        stream = planted_star_graph(config, star_degree=8, background_degree=1)
        algorithm = InsertionDeletionFEwW(16, 32, 8, 2, seed=13, scale=0.4)
        algorithm.process(stream)
        assert algorithm.result() == algorithm.result()

    def test_exact_sampler_mode_small_instance(self):
        """End-to-end with real ℓ₀-sampler sketches (slow path)."""
        items = [StreamItem(Edge(0, b), INSERT) for b in range(6)]
        items += [StreamItem(Edge(1, 0), INSERT), StreamItem(Edge(1, 0), DELETE)]
        stream = EdgeStream(items, 4, 8)
        algorithm = InsertionDeletionFEwW(
            4, 8, 6, 2, seed=14, scale=0.05, sampler_mode="exact"
        )
        algorithm.process(stream)
        result = algorithm.result()
        assert result.vertex == 0
        assert result.witnesses <= set(range(6))


class TestSpace:
    def test_breakdown_components(self):
        algorithm = InsertionDeletionFEwW(16, 32, 4, 2, seed=0, scale=0.2)
        components = algorithm.space_breakdown().components
        assert "vertex-sampling l0 banks" in components
        assert "edge-sampling l0 bank" in components
        assert algorithm.space_words() > 0

    def test_strategy_restriction_drops_component(self):
        vertex_only = InsertionDeletionFEwW(
            16, 32, 4, 2, seed=0, strategy=SamplingStrategy.VERTEX, scale=0.2
        )
        assert "edge-sampling l0 bank" not in vertex_only.space_breakdown().components
        edge_only = InsertionDeletionFEwW(
            16, 32, 4, 2, seed=0, strategy=SamplingStrategy.EDGE, scale=0.2
        )
        assert "vertex-sampling l0 banks" not in edge_only.space_breakdown().components

    def test_space_decreases_with_alpha_squared(self):
        """Theorem 5.4: for alpha <= sqrt(n), space ~ dn/alpha^2."""
        words = [
            InsertionDeletionFEwW(64, 64, 8, alpha, seed=0, scale=0.2).space_words()
            for alpha in (1, 2, 4)
        ]
        assert words[0] > words[1] > words[2]
        # roughly quadratic: doubling alpha cuts space by ~3-4x
        assert words[0] / words[1] > 2.0

    def test_threshold_uses_ceiling(self):
        algorithm = InsertionDeletionFEwW(16, 16, 7, 2, seed=0, scale=0.2)
        assert algorithm.threshold == math.ceil(7 / 2) == 4
