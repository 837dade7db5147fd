"""Tests for Algorithm 1 (Deg-Res-Sampling): reservoir semantics,
witness collection, uniformity, and the Lemma 3.1 success bound."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import DELETE, Edge
from repro.streams.generators import GeneratorConfig, planted_star_graph
from repro.streams.stream import stream_from_edges
from repro.theory.bounds import deg_res_success_lower_bound


def algorithm1(n, d1, d2, s, seed):
    """The standalone Algorithm 1: one run over its own degree table."""
    return SharedDegreeRuns(n, [DegResSampling(d1, d2, s, seed)])


def run_on_edges(edges, n=50, m=200, d1=1, d2=5, s=10, seed=0):
    algorithm = algorithm1(n, d1, d2, s, seed)
    algorithm.process(stream_from_edges(edges, n, m))
    return algorithm


def candidates(algorithm):
    (run,) = algorithm.runs
    return run.candidates()


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DegResSampling(0, 1, 1, 0)
        with pytest.raises(ValueError):
            DegResSampling(1, 0, 1, 0)
        with pytest.raises(ValueError):
            DegResSampling(1, 1, 0, 0)
        with pytest.raises(ValueError):
            SharedDegreeRuns(10, [])

    def test_rejects_deletions(self):
        algorithm = algorithm1(10, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            algorithm.process_batch(np.array([0]), np.array([0]), np.array([DELETE]))


class TestCollectionSemantics:
    def test_vertex_enters_reservoir_at_threshold(self):
        """A vertex becomes a candidate the moment its degree hits d1,
        and the triggering edge itself is collected."""
        algorithm = run_on_edges([Edge(0, b) for b in range(5)], d1=3, d2=10, s=5)
        stored = candidates(algorithm)
        assert len(stored) == 1
        # degree 5, d1=3: collects edges 3rd..5th = min(d2, deg-d1+1) = 3
        assert stored[0].size == 3
        assert stored[0].witnesses == {2, 3, 4}

    def test_collection_caps_at_d2(self):
        algorithm = run_on_edges([Edge(0, b) for b in range(20)], d1=1, d2=4, s=5)
        assert candidates(algorithm)[0].size == 4

    def test_below_threshold_vertex_never_stored(self):
        algorithm = run_on_edges([Edge(0, 0), Edge(0, 1)], d1=3, d2=2, s=5)
        assert candidates(algorithm) == []

    def test_small_candidate_set_kept_entirely(self):
        """With fewer than s candidates the reservoir holds all of them
        (the deterministic case of Lemma 3.1)."""
        edges = []
        for a in range(4):
            edges.extend(Edge(a, a * 10 + j) for j in range(6))
        algorithm = run_on_edges(edges, d1=2, d2=5, s=10)
        assert len(candidates(algorithm)) == 4
        assert algorithm.successful

    def test_success_and_result(self):
        algorithm = run_on_edges([Edge(0, b) for b in range(10)], d1=1, d2=5, s=3)
        assert algorithm.successful
        result = algorithm.result()
        assert result.vertex == 0
        assert result.size == 5

    def test_result_raises_on_failure(self):
        algorithm = run_on_edges([Edge(0, 0)], d1=1, d2=5, s=3)
        assert not algorithm.successful
        with pytest.raises(AlgorithmFailed):
            algorithm.result()

    def test_eviction_discards_witnesses(self):
        """With reservoir size 1 and many candidates, evicted vertices'
        edges must not linger (line 12 of Algorithm 1)."""
        edges = []
        for a in range(30):
            edges.extend(Edge(a, a * 10 + j) for j in range(3))
        algorithm = run_on_edges(edges, n=50, m=500, d1=1, d2=10, s=1, seed=3)
        assert len(candidates(algorithm)) == 1

    def test_witnesses_are_true_neighbours(self):
        config = GeneratorConfig(n=40, m=300, seed=5)
        stream = planted_star_graph(config, star_degree=50, background_degree=4)
        algorithm = algorithm1(40, 1, 10, 20, 1)
        algorithm.process(stream)
        for candidate in candidates(algorithm):
            assert candidate.witnesses <= stream.neighbours_of(candidate.vertex)

    def test_space_accounts_reservoir_and_edges(self):
        algorithm = run_on_edges([Edge(0, b) for b in range(10)], d1=1, d2=5, s=3)
        breakdown = algorithm.space_breakdown()
        assert breakdown.components["run0 reservoir ids"] == 1
        assert breakdown.components["run0 collected edges"] == 2 * 5
        assert breakdown.components["degree counts"] == 50
        assert algorithm.space_words() == breakdown.total_words()

    def test_run_excludes_degree_table(self):
        run = DegResSampling(1, 5, 3, 0)
        assert "degree counts" not in run.space_breakdown().components


class TestReservoirUniformity:
    def test_sampled_vertex_distribution_uniform(self):
        """Over many runs, each degree->=d1 vertex lands in a size-1
        reservoir with roughly equal frequency (reservoir invariant)."""
        n_candidates = 12
        edges = []
        for a in range(n_candidates):
            edges.extend(Edge(a, a * 10 + j) for j in range(2))
        counts = Counter()
        trials = 1800
        for seed in range(trials):
            algorithm = run_on_edges(
                edges, n=20, m=200, d1=2, d2=1, s=1, seed=seed
            )
            (candidate,) = candidates(algorithm)
            counts[candidate.vertex] += 1
        expected = trials / n_candidates
        for a in range(n_candidates):
            assert abs(counts[a] - expected) < 0.35 * expected

    def test_uniform_regardless_of_arrival_order(self):
        """Vertices crossing the threshold late are not disadvantaged."""
        first_block = [Edge(a, a * 10 + j) for a in range(6) for j in range(2)]
        late_block = [Edge(a, a * 10 + j) for a in range(6, 12) for j in range(2)]
        counts = Counter()
        trials = 1500
        for seed in range(trials):
            algorithm = run_on_edges(
                first_block + late_block, n=20, m=200, d1=2, d2=1, s=1, seed=seed
            )
            (candidate,) = candidates(algorithm)
            counts[candidate.vertex] += 1
        early = sum(counts[a] for a in range(6))
        late = sum(counts[a] for a in range(6, 12))
        assert abs(early - late) < 0.2 * trials


class TestLemma31Bound:
    def test_success_rate_meets_lemma_bound(self):
        """Planted instance with n1 candidates and n2 heavy vertices:
        empirical success rate >= the Lemma 3.1 lower bound (within
        sampling noise)."""
        n1, n2, s = 20, 4, 5
        d1, d2 = 2, 3
        edges = []
        for a in range(n1):
            # first n2 vertices get degree d1+d2-1 = 4; rest degree d1 = 2
            degree = d1 + d2 - 1 if a < n2 else d1
            edges.extend(Edge(a, a * 10 + j) for j in range(degree))
        rng = random.Random(99)
        shuffled = list(edges)
        successes = 0
        trials = 300
        for seed in range(trials):
            rng.shuffle(shuffled)
            algorithm = run_on_edges(
                shuffled, n=30, m=300, d1=d1, d2=d2, s=s, seed=seed
            )
            successes += algorithm.successful
        bound = deg_res_success_lower_bound(n1, n2, s)
        assert bound > 0.5  # the instance is meaningful
        assert successes / trials >= bound - 0.08
