"""Algorithm 3's answer path pinned to a frozen dict-of-sets reference.

The answer path groups every bank's draw column with array ops (flat
index ``a*m + b``, distinct edges, a count per vertex).  The reference
below is the grouping it replaced: ``Edge`` objects and a dict of sets,
fed the same draw columns from a same-seed twin.  Twins fed the same
stream must give the same witnesses per vertex, the same ``result()``
under the documented tie-break (most distinct witnesses, ties to the
smallest vertex id), and leave the draw generators in the same state.
``_reference_draws`` freezes the fast bank's draw order: one
``random(count)`` failure mask, then one ``integers`` call over the
sorted live support it is handed — vertex ``a``'s slice of the one
support (minus ``a*m``), or the whole support for the edge bank.
"""

import random

import numpy as np
import pytest

from repro.core.insertion_deletion import (
    InsertionDeletionFEwW,
    SamplingStrategy,
    vertex_sample_size,
)
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.sketch.l0 import FastL0Bank
from repro.streams.edge import Edge

N, M, D, ALPHA = 64, 256, 96, 2


def _reference_draws(bank, support):
    if not support:
        return [None] * bank.count
    failed = bank.generator().random(bank.count) < bank.delta
    picks = bank.generator().integers(0, len(support), size=bank.count)
    return [
        None if fail else support[pick]
        for fail, pick in zip(failed.tolist(), picks.tolist())
    ]


def _banks(algorithm):
    banks = list(algorithm._vertex_banks.values())
    if algorithm._edge_bank is not None:
        banks.append(algorithm._edge_bank)
    return banks


def _edge_support(algorithm):
    """A read's arguments: the one support fast banks draw from (none
    in exact mode)."""
    if algorithm._support is None:
        return ()
    return (algorithm._support.support_array(),)


def _vertex_support(algorithm, a):
    """Vertex ``a``'s witnesses: its slice of the one support, minus ``a*m``."""
    if algorithm._support is None:
        return ()
    (support,) = _edge_support(algorithm)
    m = algorithm.m
    return (support[(support >= a * m) & (support < (a + 1) * m)] - a * m,)


def _legacy_collected(algorithm):
    """Query the banks in the algorithm's order, group with a dict of sets."""
    collected = {}
    for a, bank in algorithm._vertex_banks.items():
        draws = bank.sample_all(*_vertex_support(algorithm, a))
        witnesses = {b for b in draws if b is not None}
        if witnesses:
            collected.setdefault(a, set()).update(witnesses)
    if algorithm._edge_bank is not None:
        for flat in algorithm._edge_bank.sample_all(*_edge_support(algorithm)):
            if flat is None:
                continue
            edge = Edge.from_flat_index(flat, algorithm.m)
            collected.setdefault(edge.a, set()).add(edge.b)
    return collected


def _legacy_result(algorithm, collected):
    best_vertex, best_witnesses = None, set()
    for vertex, witnesses in sorted(collected.items()):
        if len(witnesses) >= algorithm.threshold and len(witnesses) > len(
            best_witnesses
        ):
            best_vertex, best_witnesses = vertex, witnesses
    if best_vertex is None:
        return None
    return Neighbourhood.of(best_vertex, best_witnesses)


def _churn_columns(seed, star_vertex=5, background=3000):
    """Background inserts, a star, then every background edge deleted."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, N, size=background)
    b = rng.integers(0, M, size=background)
    star_b = rng.choice(M, size=D, replace=False)
    cols_a = np.concatenate([a, np.full(D, star_vertex), a])
    cols_b = np.concatenate([b, star_b, b])
    sign = np.concatenate(
        [np.ones(background + D, np.int64), -np.ones(background, np.int64)]
    )
    return cols_a, cols_b, sign


def _twins(strategy, scale=0.05, seed=3, mode="fast"):
    return [
        InsertionDeletionFEwW(
            N, M, D, ALPHA, seed=seed, strategy=strategy, scale=scale,
            sampler_mode=mode,
        )
        for _ in range(2)
    ]


def _feed(algorithm, columns, chunk=512):
    a, b, sign = columns
    for start in range(0, len(a), chunk):
        stop = start + chunk
        algorithm.process_batch(a[start:stop], b[start:stop], sign[start:stop])


def _draw_states(algorithm):
    return [
        bank.generator().bit_generator.state
        for bank in _banks(algorithm)
        if isinstance(bank, FastL0Bank)
    ]


def _assert_same_answers(current, reference):
    expected = _legacy_collected(reference)
    got = current._collected()
    assert got == expected
    assert _draw_states(current) == _draw_states(reference)
    assert current.finalize() == _legacy_result(reference, expected)
    assert current.successful == (_legacy_result(reference, expected) is not None)
    return got


@pytest.mark.parametrize("strategy", list(SamplingStrategy))
def test_strategies_match_reference(strategy):
    current, reference = _twins(strategy)
    columns = _churn_columns(1)
    _feed(current, columns)
    _feed(reference, columns)
    got = _assert_same_answers(current, reference)
    assert got
    answer = current.result()
    assert answer.vertex == 5 and len(answer.witnesses) >= current.threshold


def test_exact_mode_goes_through_the_same_grouping():
    n, m, d = 8, 32, 6
    twins = [
        InsertionDeletionFEwW(n, m, d, ALPHA, seed=2, scale=0.2,
                              sampler_mode="exact")
        for _ in range(2)
    ]
    a = np.array([3] * d + [1, 6], dtype=np.int64)
    b = np.array(list(range(d)) + [7, 9], dtype=np.int64)
    for algorithm in twins:
        algorithm.process_batch(a, b)
    current, reference = twins
    got = _assert_same_answers(current, reference)
    assert got and set(got) <= {1, 3, 6}
    for vertex, witnesses in got.items():
        assert witnesses <= set(b[a == vertex].tolist())


def test_partial_vertex_sample_reports_unsampled_vertices():
    scale = 0.01
    assert vertex_sample_size(N, ALPHA, scale) < N
    current, reference = _twins(SamplingStrategy.BOTH, scale=scale, seed=9)
    columns = _churn_columns(2, background=3000)
    a, b, sign = columns
    # Keep the background live so the edge bank samples every vertex.
    columns = (a[: 3000 + D], b[: 3000 + D], sign[: 3000 + D])
    _feed(current, columns)
    _feed(reference, columns)
    got = _assert_same_answers(current, reference)
    outside = set(got) - set(current._vertex_banks)
    assert outside


@pytest.mark.parametrize("strategy", list(SamplingStrategy))
def test_empty_support(strategy):
    current, reference = _twins(strategy)
    a, b, sign = _churn_columns(3)
    # Insert the background, then delete all of it: nothing stays live.
    keep = np.concatenate([np.arange(3000), np.arange(3000 + D, 6000 + D)])
    columns = (a[keep], b[keep], sign[keep])
    _feed(current, columns)
    _feed(reference, columns)
    assert _assert_same_answers(current, reference) == {}
    assert not current.successful
    with pytest.raises(AlgorithmFailed):
        current.result()


def test_split_merge_round_trip():
    columns = _churn_columns(4)
    half = len(columns[0]) // 2
    merged = []
    for _ in range(2):
        root = InsertionDeletionFEwW(N, M, D, ALPHA, seed=11, scale=0.05)
        left, right = root.split(2)
        _feed(left, tuple(column[:half] for column in columns))
        _feed(right, tuple(column[half:] for column in columns))
        merged.append(left.merge(right))
    current, reference = merged
    got = _assert_same_answers(current, reference)
    single = InsertionDeletionFEwW(N, M, D, ALPHA, seed=11, scale=0.05)
    _feed(single, columns)
    assert single._collected() == got
    assert single.finalize() == current.finalize()


def test_ties_go_to_the_smallest_vertex_id():
    # Vertices 3 and 1 each keep three live edges; vertex 3 arrives
    # first.  The edge bank samples every live edge, so both reach the
    # threshold with equal sets and the smaller id must win.
    n, m, d = 4, 8, 3
    algorithm = InsertionDeletionFEwW(
        n, m, d, 1, seed=5, strategy=SamplingStrategy.EDGE, scale=4.0
    )
    assert algorithm._edge_bank.count >= 200
    algorithm.process_batch(
        np.array([3, 3, 3, 1, 1, 1, 2], dtype=np.int64),
        np.array([0, 4, 6, 1, 2, 7, 5], dtype=np.int64),
        np.array([1, 1, 1, 1, 1, 1, 1], dtype=np.int64),
    )
    collected = algorithm._collected()
    assert collected[3] == {0, 4, 6} and collected[1] == {1, 2, 7}
    answer = algorithm.result()
    assert answer.vertex == 1 and answer.witnesses == frozenset({1, 2, 7})
    assert algorithm.result() == answer  # memoised


def test_fast_bank_draws_match_reference_with_failures():
    # A large delta makes the failure branch fire, so the draw order of
    # mask-then-integers is exercised on both outcomes.
    banks = [
        FastL0Bank(1000, 400, 0.3, random.Random(21))
        for _ in range(2)
    ]
    support = np.arange(0, 1000, 7)
    for _ in range(3):
        got = banks[0].sample_all(support)
        assert got == _reference_draws(banks[1], support.tolist())
        assert None in got and any(s is not None for s in got)
    assert (
        banks[0].generator().bit_generator.state
        == banks[1].generator().bit_generator.state
    )
