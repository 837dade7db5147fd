"""Frozen-reference equivalence for the exact-bank kernel and decode.

The exact-mode :class:`L0SamplerBank` buffers update columns, nets them
across chunks, and absorbs them with one kernel pass over the stacked
``(sampler, repetition, level)`` cell planes; a read finds each
repetition's deepest non-empty cell with one argmax and classifies it
with one vectorized 1-sparse check.

These tests pin both against *frozen elementary semantics* embedded
below — per-item, per-cell Python-int arithmetic — not against the
current code paths, so a future "optimisation" that silently changes
results cannot pass by being compared to itself.

* Bank ingest: bit-identical weight/dot/fingerprint planes under any
  chunking, netting, or scalar/batch interleaving.
* Deferred buffering: every read path (sample_all / merge / pickle /
  deepcopy) consolidates first, and copies are independent of their
  original.
* Decode: the same answers as a cell-by-cell scan of each repetition.
"""

from __future__ import annotations

import copy
import pickle
import random
from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.sketch.hashing import PRIME_61
from repro.sketch.l0 import L0Sampler, L0SamplerBank

DIM = 64
COUNT = 3
DELTA = 0.1
SEED = 71


def make_bank(seed: int = SEED) -> L0SamplerBank:
    return L0SamplerBank(DIM, COUNT, DELTA, random.Random(seed), mode="exact")


def signed_stream(
    seed: int = 5, length: int = 400
) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, DIM, size=length).astype(np.int64)
    deltas = rng.choice([-3, -2, -1, 1, 2, 3], size=length).astype(np.int64)
    return indices, deltas


# ----------------------------------------------------------------------
# Frozen reference semantics (elementary Python-int arithmetic).
# ----------------------------------------------------------------------


def reference_level(bank: L0SamplerBank, sampler: int, rep: int, index: int) -> int:
    """Deepest level of ``index``: trailing zeros of the pairwise level
    hash ``(a x + b) mod p`` reduced to ``L`` bits, capped at ``L - 1``."""
    a = int(bank._level_a[sampler, rep])
    b = int(bank._level_b[sampler, rep])
    value = ((a * index + b) % PRIME_61) % (1 << bank.n_levels)
    level = 0
    while level + 1 < bank.n_levels and value % (1 << (level + 1)) == 0:
        level += 1
    return level


def reference_planes(
    bank: L0SamplerBank, indices: np.ndarray, deltas: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The planes an item-at-a-time fan-out would produce: per item, per
    sampler, per repetition, one 1-sparse cell update at its deepest
    level."""
    planes = []
    for sampler in range(bank.count):
        shape = (bank.n_reps, bank.n_levels)
        weight = np.zeros(shape, dtype=np.int64)
        dot = np.zeros(shape, dtype=np.int64)
        fingerprint = np.zeros(shape, dtype=np.uint64)
        z = int(bank._z[sampler])
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            for rep in range(bank.n_reps):
                level = reference_level(bank, sampler, rep, index)
                weight[rep, level] += delta
                dot[rep, level] += index * delta
                fingerprint[rep, level] = (
                    int(fingerprint[rep, level]) + delta * pow(z, index, PRIME_61)
                ) % PRIME_61
        planes.append((weight, dot, fingerprint))
    return planes


def reference_sample(bank: L0SamplerBank, sampler: int) -> Optional[int]:
    """First repetition whose deepest non-empty cell is 1-sparse."""
    z = int(bank._z[sampler])
    for rep in range(bank.n_reps):
        for level in range(bank.n_levels - 1, -1, -1):
            w = int(bank._weight[sampler, rep, level])
            dt = int(bank._dot[sampler, rep, level])
            fp = int(bank._fingerprint[sampler, rep, level])
            if w == 0 and dt == 0 and fp == 0:
                continue
            if w != 0 and dt % w == 0 and 0 <= dt // w < bank.dim:
                if (w * pow(z, dt // w, PRIME_61)) % PRIME_61 == fp:
                    return dt // w
            break
    return None


def assert_matches_reference(bank: L0SamplerBank, planes) -> None:
    bank._flush_updates()
    for sampler, (weight, dot, fingerprint) in enumerate(planes):
        np.testing.assert_array_equal(bank._weight[sampler], weight)
        np.testing.assert_array_equal(bank._dot[sampler], dot)
        np.testing.assert_array_equal(bank._fingerprint[sampler], fingerprint)
    assert bank.sample_all() == [
        reference_sample(bank, sampler) for sampler in range(bank.count)
    ]


# ----------------------------------------------------------------------
# Bank ingest.
# ----------------------------------------------------------------------


class TestFusedBankIngest:
    def test_batch_ingest_matches_frozen_item_fanout(self):
        indices, deltas = signed_stream()
        expected = reference_planes(make_bank(), indices, deltas)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        assert_matches_reference(bank, expected)
        scalar = make_bank()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            scalar.update(index, delta)
        assert bank.sample_all() == scalar.sample_all()

    @pytest.mark.parametrize("chunks", (1, 3, 7, 59))
    def test_any_chunking_is_bit_identical(self, chunks):
        indices, deltas = signed_stream(seed=11)
        expected = reference_planes(make_bank(), indices, deltas)
        bank = make_bank()
        for part_i, part_d in zip(
            np.array_split(indices, chunks), np.array_split(deltas, chunks)
        ):
            bank.update_batch(part_i, part_d)
        assert_matches_reference(bank, expected)

    def test_prenetted_and_scalar_interleaving(self):
        indices, deltas = signed_stream(seed=13)
        expected = reference_planes(make_bank(), indices, deltas)
        bank = make_bank()
        # scalar head, netted middle, raw batch tail — all interleaved
        # with the deferred buffer.
        for index, delta in zip(indices[:50].tolist(), deltas[:50].tolist()):
            bank.update(index, delta)
        unique, inverse = np.unique(indices[50:200], return_inverse=True)
        net = np.zeros(len(unique), dtype=np.int64)
        np.add.at(net, inverse, deltas[50:200])
        live = net != 0
        bank.update_batch(unique[live], net[live], netted=True)
        bank.update_batch(indices[200:], deltas[200:])
        assert_matches_reference(bank, expected)

    def test_cancelling_updates_leave_empty_bank(self):
        indices, deltas = signed_stream(seed=17)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        bank.update_batch(indices, -deltas)
        assert bank.sample_all() == [None] * COUNT
        assert not bank._weight.any()
        assert not bank._fingerprint.any()

    def test_out_of_range_raises_before_buffering(self):
        bank = make_bank()
        with pytest.raises(ValueError, match="out of range"):
            bank.update_batch(
                np.array([0, DIM], dtype=np.int64),
                np.array([1, 1], dtype=np.int64),
            )
        assert not bank._pending


class TestDeferredConsolidation:
    def test_reads_flush_pending(self):
        indices, deltas = signed_stream(seed=19)
        for read in (
            lambda bank: bank.sample_all(),
            lambda bank: bank.merge(make_bank()),
            lambda bank: pickle.dumps(bank),
            lambda bank: copy.deepcopy(bank),
        ):
            bank = make_bank()
            bank.update_batch(indices, deltas)
            assert bank._pending
            read(bank)
            assert not bank._pending

    def test_merge_matches_single_pass(self):
        indices, deltas = signed_stream(seed=23)
        expected = reference_planes(make_bank(), indices, deltas)
        left, right = make_bank(), make_bank()
        left.update_batch(indices[:170], deltas[:170])
        right.update_batch(indices[170:], deltas[170:])
        merged = left.merge(right)
        assert_matches_reference(merged, expected)

    def test_merge_rejects_other_seeds(self):
        with pytest.raises(ValueError, match="level hashes"):
            make_bank().merge(make_bank(seed=SEED + 1))

    @pytest.mark.parametrize(
        "round_trip",
        (
            copy.deepcopy,
            lambda bank: pickle.loads(pickle.dumps(bank)),
            lambda bank: bank.clone(),
        ),
        ids=("deepcopy", "pickle", "clone"),
    )
    def test_copies_are_independent(self, round_trip):
        indices, deltas = signed_stream(seed=29)
        expected = reference_planes(make_bank(), indices, deltas)
        bank = make_bank()
        bank.update_batch(indices[:100], deltas[:100])
        dup = round_trip(bank)
        assert dup is not bank
        assert not np.shares_memory(dup._weight, bank._weight)
        assert not np.shares_memory(dup._fingerprint, bank._fingerprint)
        # the copy keeps ingesting through both paths and stays exact,
        # while the original keeps its own state
        before = bank.sample_all()
        dup.update_batch(indices[100:300], deltas[100:300])
        for index, delta in zip(indices[300:].tolist(), deltas[300:].tolist()):
            dup.update(index, delta)
        assert_matches_reference(dup, expected)
        assert bank.sample_all() == before
        assert_matches_reference(
            bank, reference_planes(make_bank(), indices[:100], deltas[:100])
        )


# ----------------------------------------------------------------------
# Vectorized decode.
# ----------------------------------------------------------------------


class TestVectorizedDecode:
    @pytest.mark.parametrize("support", (0, 1, 2, 3, 9, 30))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_frozen_cell_scan(self, support, seed):
        rng = np.random.default_rng(100 * support + seed)
        bank = L0SamplerBank(DIM, 12, DELTA, random.Random(seed), mode="exact")
        indices = rng.choice(DIM, size=support, replace=False).astype(np.int64)
        deltas = rng.choice([-5, -1, 1, 2, 7], size=support).astype(np.int64)
        bank.update_batch(indices, deltas)
        answers = bank.sample_all()
        assert answers == [reference_sample(bank, s) for s in range(bank.count)]
        assert set(answers) - {None} <= set(indices.tolist())

    def test_negative_weights_and_cancellation(self):
        sampler = L0Sampler(DIM, DELTA, random.Random(9))
        sampler.update(3, -7)
        sampler.update(60, 2)
        sampler.update(60, -2)  # cancels back to zero
        assert sampler.sample() == 3

    def test_reads_follow_updates(self):
        indices, deltas = signed_stream(seed=37, length=80)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        assert any(sample is not None for sample in bank.sample_all())
        bank.update_batch(indices, -deltas)
        assert bank.sample_all() == [None] * COUNT
        sampler = L0Sampler(DIM, DELTA, random.Random(8))
        sampler.update(7, 1)
        assert sampler.sample() == 7
        sampler.update(7, -1)
        assert sampler.sample() is None
