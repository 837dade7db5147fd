"""Tests for the top-k FEwW extension."""

import pytest

from repro.core.neighbourhood import AlgorithmFailed
from repro.core.topk import TopKFEwW
from repro.streams.edge import Edge
from repro.streams.stream import stream_from_edges
from repro.streams.generators import GeneratorConfig
import random


def multi_star_stream(star_degrees, n=100, m=5000, seed=0):
    """Plant len(star_degrees) stars with the given degrees plus noise."""
    rng = random.Random(seed)
    edges = []
    b = 0
    for vertex, degree in enumerate(star_degrees):
        for _ in range(degree):
            edges.append(Edge(vertex, b))
            b += 1
    for vertex in range(len(star_degrees), min(n, len(star_degrees) + 30)):
        for _ in range(3):
            edges.append(Edge(vertex, b))
            b += 1
    rng.shuffle(edges)
    return stream_from_edges(edges, n, m)


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            TopKFEwW(10, 5, 1, 0)

    def test_parameter_passthrough(self):
        algorithm = TopKFEwW(50, 20, 2, 3, seed=0)
        assert (algorithm.n, algorithm.d, algorithm.alpha) == (50, 20, 2)
        assert algorithm.threshold == 10


class TestResults:
    def test_finds_all_planted_stars(self):
        degrees = [60, 55, 50]
        stream = multi_star_stream(degrees, seed=1)
        algorithm = TopKFEwW(100, 50, 2, 3, seed=2).process(stream)
        results = algorithm.results()
        assert {result.vertex for result in results} == {0, 1, 2}

    def test_results_sorted_by_size(self):
        stream = multi_star_stream([60, 55, 50], seed=3)
        algorithm = TopKFEwW(100, 50, 2, 3, seed=4).process(stream)
        sizes = [result.size for result in algorithm.results()]
        assert sizes == sorted(sizes, reverse=True)

    def test_k_caps_output(self):
        stream = multi_star_stream([60, 55, 50, 52], seed=5)
        algorithm = TopKFEwW(100, 50, 2, 2, seed=6).process(stream)
        assert len(algorithm.results()) == 2

    def test_every_result_meets_threshold(self):
        stream = multi_star_stream([60, 55, 50], seed=7)
        algorithm = TopKFEwW(100, 50, 2, 3, seed=8).process(stream)
        for result in algorithm.results():
            assert result.size >= algorithm.threshold

    def test_witnesses_genuine(self):
        stream = multi_star_stream([60, 55], seed=9)
        algorithm = TopKFEwW(100, 55, 2, 2, seed=10).process(stream)
        for result in algorithm.results():
            assert result.witnesses <= stream.neighbours_of(result.vertex)

    def test_distinct_vertices(self):
        stream = multi_star_stream([60, 55, 50], seed=11)
        algorithm = TopKFEwW(100, 50, 2, 3, seed=12).process(stream)
        vertices = [result.vertex for result in algorithm.results()]
        assert len(vertices) == len(set(vertices))

    def test_empty_stream_raises(self):
        algorithm = TopKFEwW(10, 5, 1, 2, seed=0)
        algorithm.process(stream_from_edges([], 10, 10))
        with pytest.raises(AlgorithmFailed):
            algorithm.results()

    def test_union_success_rate(self):
        """Each planted star is reported in almost every trial
        (guarantee: 1 - k/n per the extension's analysis)."""
        degrees = [64, 60, 56]
        misses = 0
        trials = 30
        for seed in range(trials):
            stream = multi_star_stream(degrees, seed=100 + seed)
            algorithm = TopKFEwW(100, 56, 2, 3, seed=seed).process(stream)
            found = {result.vertex for result in algorithm.results()}
            misses += len({0, 1, 2} - found)
        assert misses <= 3

    def test_reservoir_capacity_grows_with_k(self):
        stream = multi_star_stream([60, 55], seed=13)
        small = TopKFEwW(100, 50, 2, 1, seed=14).process(stream)
        large = TopKFEwW(100, 50, 2, 8, seed=14).process(stream)
        assert large._inner.s == 8 * small._inner.s
        # retained space can only grow with capacity (here the candidate
        # set is small enough that both hold everything)
        assert large.space_words() >= small.space_words()


class TestShardSeedDerivation:
    """split() hands each shard the inner Algorithm 2 split: seed words
    of its own per shard, spawned deterministically from the seed."""

    @staticmethod
    def seeds(shard):
        return [run.state().seed for run in shard._inner.runs]

    def test_shards_draw_independent_coins(self):
        parent = TopKFEwW(64, 20, 2, 3, seed=11)
        shards = parent.split(3)
        flat = [seed for shard in shards for seed in self.seeds(shard)]
        assert len(set(flat)) == len(flat)
        assert not set(flat) & set(self.seeds(parent))
        assert all(shard.k == 3 and shard._inner is not parent._inner for shard in shards)

    def test_derivation_is_deterministic(self):
        first = TopKFEwW(64, 20, 2, 3, seed=11).split(2)
        second = TopKFEwW(64, 20, 2, 3, seed=11).split(2)
        assert [self.seeds(s) for s in first] == [self.seeds(s) for s in second]

    def test_split_after_processing_is_refused(self):
        algorithm = TopKFEwW(100, 50, 2, 1, seed=3).process(multi_star_stream([60], seed=2))
        with pytest.raises(RuntimeError, match="before processing"):
            algorithm.split(2)
