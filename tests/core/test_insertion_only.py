"""Tests for Algorithm 2 (insertion-only FEwW): Theorem 3.2's guarantees."""

import math

import numpy as np
import pytest

from repro.core.insertion_only import InsertionOnlyFEwW, reservoir_size
from repro.core.neighbourhood import AlgorithmFailed, verify_neighbourhood
from repro.streams.edge import DELETE
from repro.streams.generators import (
    GeneratorConfig,
    adversarial_interleaved_stream,
    degree_cascade_graph,
    planted_star_graph,
    zipf_frequency_stream,
)
from repro.streams.stream import stream_from_edges


class TestConstruction:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            InsertionOnlyFEwW(10, 5, 0)

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            InsertionOnlyFEwW(10, 0, 1)

    def test_reservoir_size_formula(self):
        assert reservoir_size(100, 1) == math.ceil(math.log(100) * 100)
        assert reservoir_size(100, 2) == math.ceil(math.log(100) * 10)
        assert reservoir_size(1, 3) == 1

    def test_alpha_parallel_runs(self):
        algorithm = InsertionOnlyFEwW(100, 40, 4, seed=0)
        assert len(algorithm.runs) == 4

    def test_thresholds_are_geometric(self):
        algorithm = InsertionOnlyFEwW(100, 40, 4, seed=0)
        assert [run.d1 for run in algorithm.runs] == [1, 10, 20, 30]

    def test_threshold_chain_invariant(self):
        """d1_{i+1} >= d1_i + d2 - 1 for non-divisible d/alpha too —
        the inequality Theorem 3.2's counting argument needs."""
        for n, d, alpha in [(50, 7, 3), (100, 10, 4), (64, 13, 5), (30, 9, 2)]:
            algorithm = InsertionOnlyFEwW(n, d, alpha, seed=0)
            d2 = algorithm.d2
            thresholds = [run.d1 for run in algorithm.runs]
            for lower, upper in zip(thresholds, thresholds[1:]):
                assert upper >= lower + d2 - 1 or lower == 1

    def test_rejects_deletions(self):
        algorithm = InsertionOnlyFEwW(10, 2, 1, seed=0)
        with pytest.raises(ValueError):
            algorithm.process_batch(np.array([0]), np.array([0]), np.array([DELETE]))

    def test_reservoir_override(self):
        algorithm = InsertionOnlyFEwW(100, 10, 2, seed=0, reservoir_override=3)
        assert algorithm.s == 3
        assert all(run.s == 3 for run in algorithm.runs)


class TestCorrectness:
    def test_planted_star(self):
        config = GeneratorConfig(n=300, m=600, seed=1)
        stream = planted_star_graph(config, star_degree=120, background_degree=6)
        algorithm = InsertionOnlyFEwW(300, 120, 2, seed=2).process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 120, 2)
        assert result.vertex == 0

    def test_alpha_one_exact_recovery(self):
        """alpha=1 must report a full-degree neighbourhood."""
        config = GeneratorConfig(n=60, m=200, seed=3)
        stream = planted_star_graph(config, star_degree=50, background_degree=2)
        algorithm = InsertionOnlyFEwW(60, 50, 1, seed=4).process(stream)
        result = algorithm.result()
        assert result.size >= 50

    def test_degree_cascade(self):
        """The ratio-adversarial profile from the Theorem 3.2 analysis."""
        config = GeneratorConfig(n=400, m=400, seed=5)
        stream = degree_cascade_graph(config, d=60, alpha=3)
        algorithm = InsertionOnlyFEwW(400, 60, 3, seed=6).process(stream)
        verify_neighbourhood(algorithm.result(), stream, 60, 3)

    def test_adversarial_arrival_order(self):
        """Heavy vertex arrives after the reservoir fills with decoys."""
        config = GeneratorConfig(n=40, m=2000, seed=7)
        stream = adversarial_interleaved_stream(
            config, star_degree=60, n_decoys=30, decoy_degree=20
        )
        algorithm = InsertionOnlyFEwW(40, 60, 2, seed=8).process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 60, 2)

    def test_zipf_stream(self):
        config = GeneratorConfig(n=100, m=4000, seed=9)
        stream = zipf_frequency_stream(config, n_records=4000, exponent=1.3)
        d = stream.max_degree()
        algorithm = InsertionOnlyFEwW(100, d, 2, seed=10).process(stream)
        verify_neighbourhood(algorithm.result(), stream, d, 2)

    def test_success_probability_meets_theorem(self):
        """Theorem 3.2: success w.p. >= 1 - 1/n.  Run many trials on a
        planted instance; failures must be rare."""
        config = GeneratorConfig(n=64, m=256, seed=11)
        stream = planted_star_graph(config, star_degree=32, background_degree=4)
        failures = 0
        trials = 120
        for seed in range(trials):
            algorithm = InsertionOnlyFEwW(64, 32, 2, seed=seed).process(stream)
            failures += not algorithm.successful
        # theorem allows 1/n = 1.6% failures; tolerate noise up to 6%
        assert failures / trials < 0.06

    def test_result_meets_ceiling_threshold(self):
        """Non-divisible d/alpha: output must still reach ceil(d/alpha)."""
        config = GeneratorConfig(n=50, m=200, seed=12)
        stream = planted_star_graph(config, star_degree=25, background_degree=2)
        algorithm = InsertionOnlyFEwW(50, 25, 4, seed=13).process(stream)
        result = algorithm.result()
        assert result.size >= math.ceil(25 / 4) == 7

    def test_failure_raises(self):
        """Empty stream cannot produce a neighbourhood."""
        algorithm = InsertionOnlyFEwW(10, 5, 2, seed=0)
        algorithm.process(stream_from_edges([], 10, 10))
        with pytest.raises(AlgorithmFailed):
            algorithm.result()
        assert not algorithm.successful
        assert algorithm.successful_runs() == []

    def test_witnesses_never_fake(self):
        """Soundness: even on failure-prone parameters, any reported
        witness is a real neighbour."""
        config = GeneratorConfig(n=30, m=100, seed=14)
        stream = planted_star_graph(config, star_degree=20, background_degree=5)
        for seed in range(20):
            algorithm = InsertionOnlyFEwW(
                30, 20, 2, seed=seed, reservoir_override=2
            ).process(stream)
            for run in algorithm.runs:
                for candidate in run.candidates():
                    assert candidate.witnesses <= stream.neighbours_of(
                        candidate.vertex
                    )

    def test_current_degree_tracking(self):
        algorithm = InsertionOnlyFEwW(10, 2, 1, seed=0)
        algorithm.process_batch(np.array([3]), np.array([0]))
        algorithm.process_batch(np.array([3]), np.array([1]))
        assert algorithm.current_degree(3) == 2
        assert algorithm.current_degree(0) == 0


class TestSpace:
    def test_degree_table_charged_once(self):
        algorithm = InsertionOnlyFEwW(100, 10, 4, seed=0)
        breakdown = algorithm.space_breakdown()
        assert breakdown.components["degree counts"] == 100
        assert sum(
            1 for label in breakdown.components if "degree" in label
        ) == 1

    def test_space_bounded_by_reservoir_capacity(self):
        """Each run stores at most s ids and s*d2 edges."""
        config = GeneratorConfig(n=200, m=800, seed=15)
        stream = planted_star_graph(config, star_degree=80, background_degree=8)
        algorithm = InsertionOnlyFEwW(200, 80, 2, seed=16).process(stream)
        cap = algorithm.n + algorithm.alpha * (
            algorithm.s + 2 * algorithm.s * algorithm.d2 + 1
        )
        assert algorithm.space_words() <= cap

    def test_space_decreases_with_alpha(self):
        """Higher alpha -> smaller reservoirs & witness sets: the
        headline trade-off of Theorem 3.2 (for fixed n, d)."""
        config = GeneratorConfig(n=256, m=1024, seed=17)
        stream = planted_star_graph(config, star_degree=128, background_degree=4)
        words = []
        for alpha in (1, 2, 4):
            algorithm = InsertionOnlyFEwW(256, 128, alpha, seed=18).process(stream)
            words.append(algorithm.space_words())
        assert words[0] > words[1] > words[2]


class TestShardSeedDerivation:
    """split() derives independent per-shard RNG streams (SeedSequence
    spawn) instead of replicating the parent's coins."""

    @staticmethod
    def draws(algorithm, run_index=0, count=2000):
        return [algorithm.runs[run_index]._rng.random() for _ in range(count)]

    def test_shard_streams_pairwise_uncorrelated(self):
        import numpy as np

        shards = InsertionOnlyFEwW(64, 8, 2, seed=11).split(4)
        sequences = [np.array(self.draws(shard)) for shard in shards]
        for i in range(len(sequences)):
            for j in range(i + 1, len(sequences)):
                assert not np.array_equal(sequences[i], sequences[j]), (
                    f"shards {i} and {j} replicate the same coin stream"
                )
                correlation = abs(float(np.corrcoef(sequences[i], sequences[j])[0, 1]))
                assert correlation < 0.1, (
                    f"shards {i}/{j} correlate at {correlation:.3f}"
                )

    def test_runs_within_a_shard_are_distinct(self):
        import numpy as np

        shard = InsertionOnlyFEwW(64, 8, 3, seed=11).split(2)[0]
        streams = [
            np.array([run._rng.random() for _ in range(500)])
            for run in shard.runs
        ]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not np.array_equal(streams[i], streams[j])

    def test_derivation_is_deterministic(self):
        first = InsertionOnlyFEwW(64, 8, 2, seed=11).split(3)
        second = InsertionOnlyFEwW(64, 8, 2, seed=11).split(3)
        for mine, theirs in zip(first, second):
            assert self.draws(mine, count=100) == self.draws(theirs, count=100)

    def test_different_master_seeds_derive_different_shards(self):
        one = InsertionOnlyFEwW(64, 8, 2, seed=1).split(2)[0]
        other = InsertionOnlyFEwW(64, 8, 2, seed=2).split(2)[0]
        assert self.draws(one, count=100) != self.draws(other, count=100)

    def test_negative_seed_is_valid(self):
        shards = InsertionOnlyFEwW(64, 8, 2, seed=-5).split(2)
        assert len(shards) == 2
