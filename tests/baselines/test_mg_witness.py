"""Tests for the Misra–Gries-with-witnesses strawman, including the
witness-loss failure mode it exists to demonstrate."""

import numpy as np
import pytest

from repro.baselines.mg_witness import MisraGriesWithWitnesses
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import DELETE, Edge, StreamItem
from repro.streams.stream import EdgeStream, stream_from_edges


def items_for(pairs):
    return [StreamItem(Edge(a, b)) for a, b in pairs]


def stream_of(pairs):
    return EdgeStream(items_for(pairs), 16, 16)


class TestBasics:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MisraGriesWithWitnesses(0, 1)
        with pytest.raises(ValueError):
            MisraGriesWithWitnesses(1, 0)

    def test_rejects_deletions(self):
        summary = MisraGriesWithWitnesses(2, 4)
        with pytest.raises(ValueError):
            summary.process_batch(np.array([0]), np.array([0]), np.array([DELETE]))

    def test_collects_witnesses_when_uncontended(self):
        summary = MisraGriesWithWitnesses(4, 10).process(
            stream_of([(0, 5), (0, 6), (0, 7)])
        )
        assert summary.estimate(0) == 3
        assert summary.witnesses_of(0) == [5, 6, 7]
        result = summary.result(d=3)
        assert result.vertex == 0
        assert result.witnesses == {5, 6, 7}

    def test_witness_cap(self):
        summary = MisraGriesWithWitnesses(4, 2).process(
            stream_of([(0, b) for b in range(5)])
        )
        assert summary.estimate(0) == 5
        assert summary.witnesses_of(0) == [0, 1]

    def test_result_raises_when_insufficient(self):
        summary = MisraGriesWithWitnesses(4, 10).process(stream_of([(0, 0)]))
        with pytest.raises(AlgorithmFailed):
            summary.result(d=5)

    def test_space_words(self):
        summary = MisraGriesWithWitnesses(4, 10).process(
            stream_of([(0, 1), (0, 2), (1, 3)])
        )
        assert summary.space_words() == 2 * 2 + 2 * 3


class TestWitnessLossFailureMode:
    @staticmethod
    def spread_out_stream(n_bursts=30, noise_per_burst=12, n=400, m=4000):
        """The heavy item appears once per burst, drowned in fresh noise
        between appearances: MG evicts it (losing its witnesses) again
        and again."""
        pairs = []
        b = 0
        noise_vertex = 1
        for burst in range(n_bursts):
            pairs.append((0, b)); b += 1
            for _ in range(noise_per_burst):
                pairs.append((noise_vertex, b))
                noise_vertex = 1 + (noise_vertex % (n - 1))
                b += 1
        return EdgeStream(items_for(pairs), n, m), n_bursts

    def test_heavy_item_witnesses_lost_to_decrements(self):
        stream, true_degree = self.spread_out_stream()
        summary = MisraGriesWithWitnesses(4, true_degree).process(stream)
        # The frequency estimate may survive within MG's error bound, but
        # the witness list was repeatedly reset by evictions.
        assert len(summary.witnesses_of(0)) < true_degree / 2
        assert summary.witnesses_lost > 0

    def test_algorithm2_succeeds_on_same_stream(self):
        """The paper's algorithm keeps the witnesses the strawman loses."""
        stream, true_degree = self.spread_out_stream()
        algorithm = InsertionOnlyFEwW(stream.n, true_degree, 2, seed=1)
        algorithm.process(stream)
        result = algorithm.result()
        assert result.vertex == 0
        assert result.size >= true_degree / 2

    def test_no_loss_when_item_never_evicted(self):
        edges = [Edge(0, b) for b in range(20)]
        stream = stream_from_edges(edges, 10, 50)
        summary = MisraGriesWithWitnesses(2, 20).process(stream)
        assert summary.witnesses_lost == 0
        assert len(summary.witnesses_of(0)) == 20
