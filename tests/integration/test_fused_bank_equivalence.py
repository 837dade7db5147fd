"""Frozen-legacy equivalence for the fused exact-bank ingest and the
vectorized, memoized decode.

The exact-mode :class:`L0SamplerBank` no longer fans a batch out sampler
by sampler: update columns are buffered, netted across chunks, and
absorbed by one bank-wide fused kernel over the stacked ``(sampler,
level, row, bucket)`` accumulator planes.  Separately,
:class:`SSparseRecovery.decode` replaced its per-cell Python loop with a
vectorized classification plus a dirty-flag memo (and
:class:`L0Sampler.sample` memoizes on top).

These tests pin both against *frozen copies of the legacy semantics*
embedded below — the elementary per-item / per-cell Python-int
arithmetic — not against the current code paths, so a future
"optimisation" that silently changes results cannot pass by being
compared to itself.

* Bank ingest: bit-identical weight/dot/fingerprint planes and samples
  under any chunking, netting, or scalar/batch interleaving.
* Deferred buffering: every read path (sample_all / merge /
  space_words / pickle / deepcopy) consolidates first, and copies
  preserve the sampler-into-bank plane aliasing.
* Decode: bit-identical recovered sets (including insertion order and
  the peeling fallback) and collision verdicts; the memo never outlives
  a mutation and hands out independent dicts.
"""

from __future__ import annotations

import copy
import pickle
import random
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.sketch.hashing import PRIME_61
from repro.sketch.l0 import L0Sampler, L0SamplerBank
from repro.sketch.ssparse import SSparseRecovery

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
# Frozen legacy semantics (verbatim pre-fusion arithmetic).
# ----------------------------------------------------------------------


def legacy_bank_planes(
    bank: L0SamplerBank, indices: np.ndarray, deltas: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The planes an item-at-a-time fan-out would produce.

    Per item, per sampler: walk the nested subsampling levels with the
    sampler's own level hash, and for every surviving level update each
    row's cell with elementary Python-int arithmetic — the exact
    semantics of a grid of 1-sparse cells.
    """
    planes = []
    for sampler in bank._samplers:
        n_levels = sampler.n_levels
        n_rows = sampler._n_rows
        n_buckets = sampler._n_buckets
        weight = np.zeros((n_levels, n_rows, n_buckets), dtype=np.int64)
        dot = np.zeros((n_levels, n_rows, n_buckets), dtype=np.int64)
        fingerprint = np.zeros((n_levels, n_rows, n_buckets), dtype=np.uint64)
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            value = sampler._level_hash(index)
            deepest = 0
            while deepest + 1 < n_levels and value % (1 << (deepest + 1)) == 0:
                deepest += 1
            for level in range(deepest + 1):
                for row, hash_function in enumerate(sampler._row_hashes[level]):
                    bucket = hash_function(index)
                    weight[level, row, bucket] += delta
                    dot[level, row, bucket] += index * delta
                    base = sampler._z  # one base per sampler
                    fingerprint[level, row, bucket] = (
                        int(fingerprint[level, row, bucket])
                        + delta * pow(base, index, PRIME_61)
                    ) % PRIME_61
        planes.append((weight, dot, fingerprint))
    return planes


def legacy_decode(recovery: SSparseRecovery) -> Optional[Dict[int, int]]:
    """Frozen copy of the pre-vectorization per-cell decode + peeling."""
    dim = recovery.dim
    weight = recovery._weight.reshape(-1)
    dot = recovery._dot.reshape(-1)
    fingerprint = recovery._fingerprint.reshape(-1)
    bases = [recovery._z] * len(weight)  # one base per structure

    def classify(w: int, dt: int, fp: int, base: int):
        if w == 0 and dt == 0 and fp == 0:
            return ("zero", None, None)
        if w != 0 and dt % w == 0:
            index = dt // w
            if 0 <= index < dim:
                if (w * pow(base, index, PRIME_61)) % PRIME_61 == fp:
                    return ("one", index, w)
        return ("collision", None, None)

    recovered: Dict[int, int] = {}
    saw_collision = False
    for cell in range(len(weight)):
        state, index, value = classify(
            int(weight[cell]), int(dot[cell]),
            int(fingerprint[cell]), int(bases[cell]),
        )
        if state == "one":
            recovered[index] = value
        elif state == "collision":
            saw_collision = True
    if not saw_collision:
        return recovered

    w = weight.copy()
    dt = dot.copy()
    fp = fingerprint.copy()

    def rescan():
        for cell in range(len(w)):
            yield classify(
                int(w[cell]), int(dt[cell]), int(fp[cell]), int(bases[cell])
            )

    result = dict(recovered)
    frontier = list(recovered.items())
    while frontier:
        index, value = frontier.pop()
        for row, hash_function in enumerate(recovery._hashes):
            cell = row * recovery.n_buckets + hash_function(index)
            w[cell] -= value
            dt[cell] -= index * value
            fp[cell] = (
                int(fp[cell]) - value * pow(int(bases[cell]), index, PRIME_61)
            ) % PRIME_61
        for state, peeled_index, peeled_value in rescan():
            if state == "one" and peeled_index not in result:
                result[peeled_index] = peeled_value
                frontier.append((peeled_index, peeled_value))
    for state, peeled_index, peeled_value in rescan():
        if state == "collision":
            return None
        if state == "one" and peeled_index not in result:
            result[peeled_index] = peeled_value
    return result


def legacy_sample(sampler: L0Sampler) -> Optional[int]:
    """Frozen copy of the pre-memo deepest-first level scan."""
    for level in range(sampler.n_levels - 1, -1, -1):
        decoded = legacy_decode(sampler._recovery(level))
        if decoded is None:
            continue
        if decoded:
            return min(decoded, key=sampler._tiebreak)
    return None


def assert_matches_legacy(bank: L0SamplerBank, legacy_planes) -> None:
    bank._flush_updates()
    for sampler, (weight, dot, fingerprint) in zip(bank._samplers, legacy_planes):
        np.testing.assert_array_equal(sampler._weight, weight)
        np.testing.assert_array_equal(sampler._dot, dot)
        np.testing.assert_array_equal(sampler._fingerprint, fingerprint)


# ----------------------------------------------------------------------
# Fused bank ingest.
# ----------------------------------------------------------------------


class TestFusedBankIngest:
    def test_batch_ingest_matches_frozen_item_fanout(self):
        indices, deltas = signed_stream()
        legacy = legacy_bank_planes(make_bank(), indices, deltas)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        assert_matches_legacy(bank, legacy)
        scalar = make_bank()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            scalar.update(index, delta)
        assert bank.sample_all() == scalar.sample_all()

    @pytest.mark.parametrize("chunks", (1, 3, 7, 59))
    def test_any_chunking_is_bit_identical(self, chunks):
        indices, deltas = signed_stream(seed=11)
        legacy = legacy_bank_planes(make_bank(), indices, deltas)
        bank = make_bank()
        for part_i, part_d in zip(
            np.array_split(indices, chunks), np.array_split(deltas, chunks)
        ):
            bank.update_batch(part_i, part_d)
        assert_matches_legacy(bank, legacy)

    def test_prenetted_and_scalar_interleaving(self):
        indices, deltas = signed_stream(seed=13)
        legacy = legacy_bank_planes(make_bank(), indices, deltas)
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
        assert_matches_legacy(bank, legacy)

    def test_cancelling_updates_leave_empty_bank(self):
        indices, deltas = signed_stream(seed=17)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        bank.update_batch(indices, -deltas)
        assert bank.sample_all() == [None] * COUNT
        for sampler in bank._samplers:
            assert not sampler._weight.any()
            assert not sampler._fingerprint.any()

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
            lambda bank: bank.space_words(),
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
        legacy = legacy_bank_planes(make_bank(), indices, deltas)
        left, right = make_bank(), make_bank()
        left.update_batch(indices[:170], deltas[:170])
        right.update_batch(indices[170:], deltas[170:])
        merged = left.merge(right)
        assert_matches_legacy(merged, legacy)

    @pytest.mark.parametrize(
        "round_trip",
        (copy.deepcopy, lambda bank: pickle.loads(pickle.dumps(bank))),
        ids=("deepcopy", "pickle"),
    )
    def test_copies_preserve_plane_aliasing(self, round_trip):
        indices, deltas = signed_stream(seed=29)
        legacy = legacy_bank_planes(make_bank(), indices, deltas)
        bank = make_bank()
        bank.update_batch(indices[:100], deltas[:100])
        dup = round_trip(bank)
        assert dup is not bank
        for sampler, original in zip(dup._samplers, bank._samplers):
            assert sampler is not original
            # every sampler's planes must still be views into the
            # copy's own stacked bank accumulators
            assert np.shares_memory(sampler._weight, dup._bank_weight)
            assert np.shares_memory(sampler._fingerprint, dup._bank_fingerprint)
            assert not np.shares_memory(sampler._weight, bank._bank_weight)
        # the copy keeps ingesting through both paths and stays exact
        dup.update_batch(indices[100:300], deltas[100:300])
        for index, delta in zip(indices[300:].tolist(), deltas[300:].tolist()):
            dup.update(index, delta)
        assert_matches_legacy(dup, legacy)


# ----------------------------------------------------------------------
# Vectorized, memoized decode.
# ----------------------------------------------------------------------


def make_recovery(seed: int, s: int = 4) -> SSparseRecovery:
    return SSparseRecovery(DIM, s, 0.05, random.Random(seed))


class TestVectorizedDecode:
    @pytest.mark.parametrize("support", (0, 1, 3, 4, 9, 30))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_frozen_cell_loop(self, support, seed):
        rng = np.random.default_rng(100 * support + seed)
        recovery = make_recovery(seed)
        indices = rng.choice(DIM, size=support, replace=False).astype(np.int64)
        deltas = rng.choice([-5, -1, 1, 2, 7], size=support).astype(np.int64)
        recovery.update_batch(indices, deltas)
        expected = legacy_decode(recovery)
        actual = recovery.decode()
        if expected is None:
            assert actual is None
        else:
            # same mapping AND same insertion order (callers iterate)
            assert list(actual.items()) == list(expected.items())

    def test_negative_weights_and_cancellation(self):
        recovery = make_recovery(9)
        recovery.update(3, -7)
        recovery.update(60, 2)
        recovery.update(60, -2)  # cancels back to zero
        assert list(recovery.decode().items()) == list(
            legacy_decode(recovery).items()
        )
        assert recovery.decode() == {3: -7}

    def test_memo_serves_until_dirtied(self):
        recovery = make_recovery(4)
        recovery.update_batch(
            np.array([5, 9], dtype=np.int64), np.array([1, 4], dtype=np.int64)
        )
        first = recovery.decode()
        assert recovery.decode() == first
        # callers own their dict: mutating it must not poison the memo
        first[99] = 99
        assert 99 not in recovery.decode()
        # a mutation invalidates: cancel everything, decode goes empty
        recovery.update_batch(
            np.array([5, 9], dtype=np.int64),
            np.array([-1, -4], dtype=np.int64),
        )
        assert recovery.decode() == {}

    def test_merge_invalidates_memo(self):
        left, right = make_recovery(6), make_recovery(6)
        left.update(10, 3)
        right.update(11, 5)
        assert left.decode() == {10: 3}
        left.merge(right)
        assert left.decode() == {10: 3, 11: 5}


class TestMemoizedSample:
    def test_matches_frozen_scan_and_serves_memo(self):
        indices, deltas = signed_stream(seed=31, length=120)
        sampler = L0Sampler(DIM, DELTA, random.Random(3))
        sampler.update_batch(indices, deltas)
        expected = legacy_sample(sampler)
        assert sampler.sample() == expected
        assert sampler.sample() == expected  # memo path

    def test_update_and_bank_kernel_invalidate(self):
        indices, deltas = signed_stream(seed=37, length=80)
        bank = make_bank()
        bank.update_batch(indices, deltas)
        before = bank.sample_all()
        assert any(sample is not None for sample in before)
        # cancelling through the fused kernel must drop every memo
        bank.update_batch(indices, -deltas)
        assert bank.sample_all() == [None] * COUNT
        # ...and the scalar path must too
        sampler = L0Sampler(DIM, DELTA, random.Random(8))
        sampler.update(7, 1)
        assert sampler.sample() == 7
        sampler.update(7, -1)
        assert sampler.sample() is None
