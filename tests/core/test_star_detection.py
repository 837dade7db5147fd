"""Tests for the Star Detection wrapper (Lemma 3.3, Corollaries 3.4/5.5)."""

import math

import numpy as np
import pytest

from repro.core.neighbourhood import AlgorithmFailed
from repro.core.star_detection import StarDetection, degree_guesses
from repro.streams.generators import social_network_stream
from repro.streams.adapters import bipartite_double_cover


class TestDegreeGuesses:
    def test_covers_range(self):
        guesses = degree_guesses(1000, 0.5)
        assert guesses[0] == 1
        assert guesses[-1] >= 1000

    def test_geometric_spacing(self):
        """Every possible Delta has a guess within factor (1+eps) below."""
        eps = 0.5
        guesses = degree_guesses(500, eps)
        for delta in range(1, 501):
            best = max(g for g in guesses if g <= delta)
            assert delta / best <= (1 + eps) * 2  # integer floor slack

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            degree_guesses(10, 0)

    def test_finer_eps_gives_more_guesses(self):
        assert len(degree_guesses(1000, 0.1)) > len(degree_guesses(1000, 1.0))


class TestConstruction:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            StarDetection(10, 2, model="two-pass")

    def test_one_run_per_guess(self):
        detector = StarDetection(100, 2, eps=0.5, seed=0)
        assert len(detector._rungs) == len(detector.guesses)
        assert len(detector._shared.runs) == 2 * len(detector.guesses)

    def test_approximation_ratio(self):
        detector = StarDetection(100, 4, eps=0.5, seed=0)
        assert detector.approximation_ratio() == 1.5 * 4

    @pytest.mark.parametrize("model", StarDetection.MODELS)
    def test_out_of_range_endpoints_rejected_before_counting(self, model):
        """Both models reject an endpoint outside the n-vertex double
        cover, in a chunk and alone, and stay splittable afterwards."""
        detector = StarDetection(8, alpha=1, eps=0.5, model=model, seed=1)
        with pytest.raises(ValueError, match="out of range"):
            detector.process_batch(
                np.full(8, 1), np.arange(99, 107, dtype=np.int64)
            )
        with pytest.raises(ValueError, match="out of range"):
            detector.process_batch(np.array([1]), np.array([8]))
        assert len(detector.split(2)) == 2


class TestInsertionOnlyModel:
    def test_finds_influencer(self):
        edges, n_users = social_network_stream(
            n_users=150, n_followers=40, n_background=150, seed=1
        )
        detector = StarDetection(n_users, alpha=2, eps=0.5, seed=2)
        detector.process_undirected(edges)
        result = detector.result()
        assert result.vertex == 0

    def test_approximation_guarantee(self):
        """Output size >= Delta / ((1+eps) * alpha)."""
        edges, n_users = social_network_stream(
            n_users=150, n_followers=40, n_background=150, seed=3
        )
        stream = bipartite_double_cover(edges, n_users)
        delta = stream.max_degree()
        detector = StarDetection(n_users, alpha=2, eps=0.5, seed=4)
        detector.process(stream)
        result = detector.result()
        assert result.size >= delta / detector.approximation_ratio()

    def test_witnesses_are_real_neighbours(self):
        edges, n_users = social_network_stream(
            n_users=100, n_followers=25, n_background=80, seed=5
        )
        stream = bipartite_double_cover(edges, n_users)
        detector = StarDetection(n_users, alpha=2, eps=0.5, seed=6)
        detector.process(stream)
        result = detector.result()
        assert result.neighbourhood.witnesses <= stream.neighbours_of(result.vertex)

    def test_winning_guess_at_most_max_degree(self):
        edges, n_users = social_network_stream(
            n_users=100, n_followers=30, n_background=60, seed=7
        )
        stream = bipartite_double_cover(edges, n_users)
        detector = StarDetection(n_users, alpha=2, eps=0.5, seed=8)
        detector.process(stream)
        result = detector.result()
        # a guess can only succeed if enough witnesses exist
        assert result.size >= math.ceil(result.winning_guess / (2 * detector.alpha))

    def test_empty_graph_raises(self):
        detector = StarDetection(10, 1, seed=0)
        detector.process_undirected([])
        with pytest.raises(AlgorithmFailed):
            detector.result()

    def test_semi_streaming_corollary_parameters(self):
        """Corollary 3.4: alpha = log n gives an O(log n)-approximation."""
        n_users = 128
        alpha = round(math.log2(n_users))
        edges, _ = social_network_stream(
            n_users=n_users, n_followers=60, n_background=100, seed=9
        )
        stream = bipartite_double_cover(edges, n_users)
        detector = StarDetection(n_users, alpha=alpha, eps=0.5, seed=10)
        detector.process(stream)
        result = detector.result()
        assert result.size >= stream.max_degree() / detector.approximation_ratio()


class TestInsertionDeletionModel:
    def test_finds_influencer_with_deletions(self):
        """Friendships form and dissolve; final influencer still found
        (Corollary 5.5's model)."""
        edges, n_users = social_network_stream(
            n_users=48, n_followers=16, n_background=40, seed=11
        )
        # dissolve every background friendship (those not touching 0)
        background = [(u, v) for u, v in edges if 0 not in (u, v)]
        all_edges = edges + background
        signs = [1] * len(edges) + [-1] * len(background)
        detector = StarDetection(
            n_users, alpha=2, eps=1.0, model="insertion-deletion",
            seed=12, scale=0.15,
        )
        detector.process_undirected(all_edges, signs)
        result = detector.result()
        assert result.vertex == 0
        assert result.size >= 16 / detector.approximation_ratio()

    def test_space_breakdown_nonempty(self):
        detector = StarDetection(
            16, alpha=2, eps=1.0, model="insertion-deletion", seed=0, scale=0.1
        )
        assert detector.space_words() > 0


class TestShardSeedDerivation:
    """Insertion-only split() gives every shard's runs their own seed
    words (SeedSequence spawn), as Algorithm 2's split() does."""

    @staticmethod
    def seeds(detector):
        return [run.state().seed for run in detector._shared.runs]

    def test_shards_draw_independent_coins(self):
        parent = StarDetection(64, 2, eps=1.0, seed=11)
        shards = parent.split(3)
        seeds = [self.seeds(shard) for shard in shards]
        flat = [seed for shard in seeds for seed in shard]
        assert len(set(flat)) == len(flat)
        assert not set(flat) & set(self.seeds(parent))

    def test_derivation_is_deterministic(self):
        first = StarDetection(64, 2, eps=1.0, seed=11).split(2)
        second = StarDetection(64, 2, eps=1.0, seed=11).split(2)
        assert [self.seeds(s) for s in first] == [self.seeds(s) for s in second]

    def test_different_master_seeds_derive_different_shards(self):
        one = StarDetection(64, 2, eps=1.0, seed=1).split(2)[0]
        other = StarDetection(64, 2, eps=1.0, seed=2).split(2)[0]
        assert self.seeds(one) != self.seeds(other)

    def test_turnstile_shards_keep_the_rung_seeds(self):
        # Algorithm 3 merges only same-seed sketches.
        parent = StarDetection(16, 2, eps=1.0, model="insertion-deletion", seed=4, scale=0.1)
        shards = parent.split(2)
        for (_, mine), (_, theirs) in zip(shards[0]._rungs, shards[1]._rungs):
            assert np.array_equal(mine._vertex_ids, theirs._vertex_ids)
        shards[0].merge(shards[1])
