"""Algorithms 1 and 2 against the paper's claims, with principled statistics.

Every seed is fixed; the checks are one-sided binomial tails and
chi-square tests at a significance of 1e-3, so they could only trip on
a real change of behaviour:

* Lemma 3.1: with at most ``n1`` vertices of degree >= ``d1`` and at
  least ``n2`` of degree >= ``d1 + d2 - 1``, one run of
  ``Deg-Res-Sampling(d1, d2, s)`` succeeds with probability at least
  ``1 - (1 - s/n1)^n2``, whatever the arrival order;
* residency: the candidates left in the reservoir are a uniform
  ``s``-subset of all candidates, so every candidate ordinal is resident
  equally often (an off-by-one in the candidate count skews this);
* Theorem 3.2: on a planted star Algorithm 2 answers, with probability
  at least ``1 - 1/n``, a neighbourhood of ``ceil(d/α)`` verified
  witnesses.
"""

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.theory.bounds import deg_res_success_lower_bound
from repro.theory.stats import binomial_tail_bound, chi_square_uniformity_pvalue

SIGNIFICANCE = 1e-3


def _degree_columns(degrees, order, rng):
    """Columns giving vertex ``i`` degree ``degrees[i]`` (distinct
    witnesses ``1000 * i + j``), in the requested arrival order:
    ``"shuffled"``, or ``"heavy_first"`` / ``"heavy_last"``, which play
    the heaviest vertices' edges before / after everyone else's."""
    a = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    b = 1000 * a + (np.arange(len(a)) - np.repeat(np.cumsum(degrees) - degrees, degrees))
    permutation = rng.permutation(len(a))
    if order != "shuffled":
        heavy = np.asarray(degrees)[a[permutation]] > min(degrees)
        first = heavy if order == "heavy_first" else ~heavy
        permutation = np.concatenate([permutation[first], permutation[~first]])
    return a[permutation], b[permutation]


@pytest.mark.parametrize("order", ("shuffled", "heavy_first", "heavy_last"))
def test_lemma_3_1_success_rate(order):
    n1, n2, s, d1, d2 = 24, 3, 4, 3, 4
    degrees = [d1 + d2 - 1] * n2 + [d1] * (n1 - n2)
    bound = deg_res_success_lower_bound(n1, n2, s)
    assert 0.4 < bound < 0.9  # neither trivial nor certain
    rng = np.random.default_rng(31)
    trials, successes = 600, 0
    for trial in range(trials):
        a, b = _degree_columns(degrees, order, rng)
        algorithm = SharedDegreeRuns(n1, [DegResSampling(d1, d2, s, trial)])
        algorithm.process_batch(a, b)
        successes += algorithm.successful
    # H0: the run succeeds with probability >= the lemma's bound.
    assert binomial_tail_bound(successes, trials, bound) > SIGNIFICANCE


@pytest.mark.parametrize("chunk", (1, 5, None))
def test_resident_ordinals_are_uniform(chunk):
    # Twelve vertices cross d1 = 2 in a fixed order (ordinal i is
    # vertex order[i]); a reservoir of 3 keeps each with probability 1/4.
    k, s, trials = 12, 3, 1500
    order = np.random.default_rng(5).permutation(k)
    a = np.repeat(order, 2).astype(np.int64)
    b = np.arange(2 * k, dtype=np.int64)
    ordinal_of = {int(vertex): i for i, vertex in enumerate(order)}
    counts = Counter()
    step = chunk or len(a)
    for trial in range(trials):
        algorithm = SharedDegreeRuns(k, [DegResSampling(2, 1, s, 7 + trial)])
        for lo in range(0, len(a), step):
            algorithm.process_batch(a[lo : lo + step], b[lo : lo + step])
        (run,) = algorithm.runs
        for neighbourhood in run.candidates():
            counts[ordinal_of[neighbourhood.vertex]] += 1
    assert sum(counts.values()) == s * trials
    histogram = [counts[i] for i in range(k)]
    assert chi_square_uniformity_pvalue(histogram) > SIGNIFICANCE


def _planted_star(n, d, rng):
    """Vertex 0 of degree ``d``; every other vertex degree ``d // 4``."""
    degrees = [d] + [d // 4] * (n - 1)
    return _degree_columns(degrees, "shuffled", rng)


@pytest.mark.parametrize("alpha", (1, 2, 4))
def test_theorem_3_2_planted_star(alpha):
    n, d, trials = 64, 40, 150
    rng = np.random.default_rng(alpha)
    need = math.ceil(d / alpha)
    answered = 0
    for trial in range(trials):
        a, b = _planted_star(n, d, rng)
        algorithm = InsertionOnlyFEwW(n, d, alpha, seed=1000 * alpha + trial)
        for lo in range(0, len(a), 97):
            algorithm.process_batch(a[lo : lo + 97], b[lo : lo + 97])
        answer = algorithm.finalize()
        if answer is None:
            continue
        neighbours = set(b[a == answer.vertex].tolist())
        assert answer.witnesses <= neighbours
        assert answer.size >= need
        answered += 1
    # H0: Algorithm 2 answers with probability >= 1 - 1/n.
    assert binomial_tail_bound(answered, trials, 1 - 1 / n) > SIGNIFICANCE
