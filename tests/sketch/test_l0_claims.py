"""The exact ℓ₀-sampler against its contract, with principled statistics.

A sampler fails with probability at most δ and otherwise answers a
(near-)uniform live coordinate.  Every seed is fixed; the checks are
one-sided binomial tails and chi-square tests at a significance of
1e-3, so they could only trip on a real change of behaviour.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.neighbourhood import verify_neighbourhood
from repro.sketch.l0 import (
    REPETITION_SUCCESS,
    L0Sampler,
    L0SamplerBank,
    l0_sampler_space_words,
)
from repro.streams.generators import GeneratorConfig, planted_star_graph
from repro.theory.stats import binomial_tail_bound, chi_square_uniformity_pvalue

SIGNIFICANCE = 1e-3
DIM = 1 << 18
DELTA = 0.05
SAMPLERS = 2000


def _support_stream(size, churned, seed):
    """``(indices, deltas, live)``: ``size`` live coordinates; a churned
    stream inserts ``2 * size`` and deletes half of them again."""
    rng = np.random.default_rng(seed)
    inserted = 2 * size if churned else size
    coords = rng.choice(DIM, size=inserted, replace=False).astype(np.int64)
    dead = coords[size:]
    indices = np.concatenate([coords, dead])
    deltas = np.concatenate(
        [np.ones(inserted, np.int64), -np.ones(len(dead), np.int64)]
    )
    order = rng.permutation(len(indices))
    return indices[order], deltas[order], coords[:size]


def _answers(delta, size, churned, seed):
    indices, deltas, live = _support_stream(size, churned, seed)
    bank = L0SamplerBank(DIM, SAMPLERS, delta, random.Random(seed), mode="exact")
    for chunk in np.array_split(np.arange(len(indices)), 3):
        bank.update_batch(indices[chunk], deltas[chunk])
    return bank.sample_column(), live


@pytest.mark.parametrize("churned", (False, True), ids=("inserts", "churn"))
@pytest.mark.parametrize("size", (1, 2, 8, 2000))
def test_failures_liveness_and_uniformity(size, churned):
    column, live = _answers(DELTA, size, churned, seed=size + 7 * churned)
    answered = column[column >= 0]
    # H0: every sampler answers with probability >= 1 - delta.
    assert binomial_tail_bound(len(answered), SAMPLERS, 1 - DELTA) > SIGNIFICANCE
    assert np.isin(answered, live).all()
    if size > 1:
        counts = Counter(answered.tolist())
        histogram = [counts[coordinate] for coordinate in live.tolist()]
        assert chi_square_uniformity_pvalue(histogram) > SIGNIFICANCE


@pytest.mark.parametrize("size", (2, 8, 2000))
def test_one_repetition_succeeds_at_least_at_the_assumed_rate(size):
    # At delta >= 1/2 a sampler is a single repetition, so its answer
    # rate is the per-repetition success rate the repetition count
    # assumes: 2/3 at two live coordinates, about 0.72 beyond.
    bank = L0SamplerBank(DIM, 1, 0.6, random.Random(0), mode="exact")
    assert bank.n_reps == 1
    column, _ = _answers(0.6, size, churned=True, seed=size)
    answered = int((column >= 0).sum())
    assert binomial_tail_bound(answered, SAMPLERS, REPETITION_SUCCESS) > 0.5
    assert answered > 0.6 * SAMPLERS


#: Words of the sampler this one replaced (nested levels, each an
#: s-sparse recovery of hashed rows) at dim 2**18.
PREVIOUS_WORDS = {0.05: 9_640, 4.3e-22: 686_002}


@pytest.mark.parametrize("delta", sorted(PREVIOUS_WORDS))
def test_space_at_most_a_twentieth_of_the_previous_sampler(delta):
    sampler = L0Sampler(DIM, delta, random.Random(1))
    words = sampler.space_words()
    assert words <= PREVIOUS_WORDS[delta] / 20
    # Within a small constant of the cited O(log² dim · log 1/δ) bits.
    assert words / l0_sampler_space_words(DIM, delta) < 12
    assert sampler.n_reps == math.ceil(math.log(delta) / math.log(1 - REPETITION_SUCCESS))


def test_exact_algorithm3_returns_a_verified_neighbourhood():
    n, m, d, alpha = 8, 64, 24, 2
    stream = planted_star_graph(
        GeneratorConfig(n=n, m=m, seed=4), star_degree=d, star_vertex=3,
        background_degree=4,
    )
    algorithm = InsertionDeletionFEwW(
        n, m, d, alpha, seed=6, scale=0.2, sampler_mode="exact"
    ).process(stream)
    answer = algorithm.result()
    verify_neighbourhood(answer, stream, d, alpha)
    assert answer.vertex == 3
