"""Algorithm 3's answer path pinned to a frozen per-item reference.

``_legacy_sample_all`` and ``_legacy_collected`` below are the
fast-bank draw loop and the ``Edge``-object grouping the answer path
used before it went object-free.  Twin instances fed the same stream
must give the same witness dict, the same vertex insertion order (which
decides ``result()`` ties), the same ``result()``, and leave the draw
RNGs in the same state.
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
from repro.sketch.l0 import L0SamplerBank
from repro.streams.edge import Edge

N, M, D, ALPHA = 64, 256, 96, 2


def _legacy_sample_all(bank):
    support = bank._support.support()
    if not support:
        return [None] * bank.count
    results = []
    for _ in range(bank.count):
        if bank._draw_rng.random() < bank.delta:
            results.append(None)
        else:
            results.append(bank._draw_rng.choice(support))
    return results


def _legacy_collected(algorithm):
    collected = {}
    for a, bank in algorithm._vertex_banks.items():
        witnesses = {b for b in _legacy_sample_all(bank) if b is not None}
        if witnesses:
            collected.setdefault(a, set()).update(witnesses)
    if algorithm._edge_bank is not None:
        for flat in _legacy_sample_all(algorithm._edge_bank):
            if flat is None:
                continue
            edge = Edge.from_flat_index(flat, algorithm.m)
            collected.setdefault(edge.a, set()).add(edge.b)
    return collected


def _legacy_result(algorithm, collected):
    best_vertex, best_witnesses = None, set()
    for vertex, witnesses in collected.items():
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


def _twins(strategy, scale=0.05, seed=3):
    return [
        InsertionDeletionFEwW(
            N, M, D, ALPHA, seed=seed, strategy=strategy, scale=scale
        )
        for _ in range(2)
    ]


def _feed(algorithm, columns, chunk=512):
    a, b, sign = columns
    for start in range(0, len(a), chunk):
        stop = start + chunk
        algorithm.process_batch(a[start:stop], b[start:stop], sign[start:stop])


def _draw_states(algorithm):
    banks = list(algorithm._vertex_banks.values())
    if algorithm._edge_bank is not None:
        banks.append(algorithm._edge_bank)
    return [bank._draw_rng.getstate() for bank in banks]


def _assert_same_answers(current, reference):
    expected = _legacy_collected(reference)
    got = current._collected()
    assert got == expected
    assert list(got) == list(expected)
    assert _draw_states(current) == _draw_states(reference)
    assert current.finalize() == _legacy_result(reference, expected)
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
    assert list(single._collected()) == list(got)


def test_fast_bank_draws_match_reference_with_failures():
    # A large delta makes the failure branch fire, so the RNG order of
    # draw-then-choice is exercised on both outcomes.
    banks = [
        L0SamplerBank(1000, 400, 0.3, random.Random(21), mode="fast")
        for _ in range(2)
    ]
    for bank in banks:
        bank.update_batch(np.arange(0, 1000, 7), np.ones(143, dtype=np.int64))
    for _ in range(3):
        got = banks[0].sample_all()
        assert got == _legacy_sample_all(banks[1])
        assert None in got and any(s is not None for s in got)
    assert banks[0]._draw_rng.getstate() == banks[1]._draw_rng.getstate()
