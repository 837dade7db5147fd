"""Probabilistic guarantees tested with principled statistics.

These tests restate the key randomised claims using the helpers in
:mod:`repro.theory.stats` — chi-square for uniformity, binomial tails
for success probabilities — instead of hand-picked tolerances, at a
significance level of 1e-4 (false-failure once per ~10⁴ CI runs).
"""

import random
from collections import Counter

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.sketch.l0 import L0Sampler
from repro.streams.edge import Edge
from repro.streams.generators import GeneratorConfig, planted_star_graph
from repro.streams.stream import stream_from_edges
from repro.theory.bounds import deg_res_success_lower_bound
from repro.theory.stats import binomial_tail_bound, chi_square_uniformity_pvalue

SIGNIFICANCE = 1e-4


class TestReservoirUniformityChiSquare:
    def test_final_reservoir_uniform_over_candidates(self):
        """Reservoir invariant, chi-square version: with s=1, the
        resident is uniform over the 10 candidates."""
        n_candidates = 10
        edges = []
        for a in range(n_candidates):
            edges.extend(Edge(a, a * 10 + j) for j in range(2))
        stream = stream_from_edges(edges, 20, 200)
        counts = Counter()
        for seed in range(2000):
            (run,) = SharedDegreeRuns(
                20, [DegResSampling(2, 1, 1, seed)]
            ).process(stream).runs
            (candidate,) = run.candidates()
            counts[candidate.vertex] += 1
        histogram = [counts[a] for a in range(n_candidates)]
        assert chi_square_uniformity_pvalue(histogram) > SIGNIFICANCE


class TestL0UniformityChiSquare:
    def test_sample_uniform_over_support(self):
        support = list(range(0, 48, 6))  # 8 elements
        counts = Counter()
        master = random.Random(1)
        for _ in range(800):
            sampler = L0Sampler(64, 0.02, random.Random(master.getrandbits(64)))
            for index in support:
                sampler.update(index, 1)
            counts[sampler.sample()] += 1
        histogram = [counts[index] for index in support]
        answered = 800 - counts[None]
        assert sum(histogram) == answered  # every answer is in the support
        # H0: each sampler answers with probability >= 1 - delta.
        assert binomial_tail_bound(answered, 800, 1 - 0.02) > SIGNIFICANCE
        assert chi_square_uniformity_pvalue(histogram) > SIGNIFICANCE


class TestSuccessProbabilityBinomial:
    def test_theorem32_success_rate_not_refuted(self):
        """H0: success prob >= 1 - 1/n.  The observed failure count must
        not refute H0 at the 1e-4 level."""
        n = 64
        config = GeneratorConfig(n=n, m=256, seed=2)
        stream = planted_star_graph(config, star_degree=32, background_degree=4)
        trials, successes = 200, 0
        for seed in range(200):
            algorithm = InsertionOnlyFEwW(n, 32, 2, seed=seed).process(stream)
            successes += algorithm.successful
        assert binomial_tail_bound(successes, trials, 1 - 1 / n) > SIGNIFICANCE

    def test_lemma31_bound_not_refuted(self):
        """H0: success prob >= Lemma 3.1's closed form."""
        n1, n2, s, d1, d2 = 20, 4, 5, 2, 3
        edges = []
        for a in range(n1):
            degree = d1 + d2 - 1 if a < n2 else d1
            edges.extend(Edge(a, a * 10 + j) for j in range(degree))
        stream = stream_from_edges(edges, 30, 300)
        trials, successes = 400, 0
        for seed in range(trials):
            algorithm = SharedDegreeRuns(
                30, [DegResSampling(d1, d2, s, seed)]
            )
            algorithm.process(stream)
            successes += algorithm.successful
        claimed = deg_res_success_lower_bound(n1, n2, s)
        assert binomial_tail_bound(successes, trials, claimed) > SIGNIFICANCE
