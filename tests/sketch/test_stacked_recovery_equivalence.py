"""Bit-identity of the stacked recovery kernels against cell grids.

:class:`~repro.sketch.ssparse.SSparseRecovery` and
:class:`~repro.sketch.l0.L0Sampler` absorb batches through fused NumPy
accumulator planes (one scatter per plane across all rows — and, for the
sampler, all levels).  The frozen reference is the structure they
replaced: a grid of :class:`~repro.sketch.onesparse.OneSparseCell`
objects updated one ``(row, item)`` pair at a time.  The legacy grids
are embedded here with the exact RNG draw order of the stacked
structures (row hashes first, then the one fingerprint base every cell
of a structure shares), so same-seed instances share every hash and
base and any accumulator divergence is a real equivalence break.
"""

import math
import random

import numpy as np
import pytest

from repro.sketch.hashing import PRIME_61, random_kwise
from repro.sketch.l0 import L0Sampler, L0SamplerBank
from repro.sketch.onesparse import OneSparseCell
from repro.sketch.ssparse import SSparseRecovery, _decode_cell

DIM = 600
SEED = 41


class _LegacySSparse:
    """The pre-stacking s-sparse recovery: one OneSparseCell per bucket.

    Reproduces ``SSparseRecovery.__init__``'s randomness consumption
    exactly: ``n_rows`` pairwise-independent row hashes first, then the
    one fingerprint base every cell shares (``draw_base=False`` leaves
    the draw to an enclosing sampler, which calls :meth:`set_base`).
    """

    def __init__(self, dim, s, delta, rng, draw_base=True):
        self.dim = dim
        self.s = s
        self.n_buckets = 2 * s
        self.n_rows = max(1, math.ceil(math.log2(max(s, 2) / delta)))
        self._hashes = [
            random_kwise(2, self.n_buckets, rng) for _ in range(self.n_rows)
        ]
        # The cells' own base draws come from a throwaway generator and
        # are overwritten by the shared base.
        placeholder = random.Random(0)
        self._cells = [
            [OneSparseCell(dim, placeholder) for _ in range(self.n_buckets)]
            for _ in range(self.n_rows)
        ]
        if draw_base:
            self.set_base(rng.randrange(2, PRIME_61))

    def set_base(self, base):
        for row in self._cells:
            for cell in row:
                cell._r = base

    def update(self, index, delta):
        for row, hash_function in enumerate(self._hashes):
            self._cells[row][hash_function(index)].update(index, delta)


class _LegacyL0Sampler:
    """The pre-stacking ℓ₀-sampler: per-level legacy recovery grids.

    Randomness order matches ``L0Sampler.__init__``: level hash, then
    tiebreak hash, then the per-level row hashes in level order, then
    the one fingerprint base shared by every level.
    """

    def __init__(self, dim, delta, rng):
        self.dim = dim
        self.n_levels = max(1, math.ceil(math.log2(dim)) + 1)
        sparsity = max(2, math.ceil(math.log2(2.0 / delta)))
        self._level_hash = random_kwise(2, 1 << self.n_levels, rng)
        self._tiebreak = random_kwise(2, 1 << 61, rng)
        self._recoveries = [
            _LegacySSparse(
                dim, sparsity, delta / (2 * self.n_levels), rng, draw_base=False
            )
            for _ in range(self.n_levels)
        ]
        base = rng.randrange(2, PRIME_61)
        for grid in self._recoveries:
            grid.set_base(base)

    def _level_of(self, index):
        value = self._level_hash(index)
        level = 0
        while level + 1 < self.n_levels and value % (1 << (level + 1)) == 0:
            level += 1
        return level

    def update(self, index, delta):
        for level in range(self._level_of(index) + 1):
            self._recoveries[level].update(index, delta)


def _signed_stream(seed=17, size=400, dim=DIM, magnitudes=(1,)):
    """Random signed updates with some coordinates cancelling to zero."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, dim, size=size).astype(np.int64)
    deltas = rng.choice(magnitudes, size=size).astype(np.int64) * np.where(
        rng.random(size) < 0.5, 1, -1
    ).astype(np.int64)
    # Force exact cancellations: every update in the last fifth undoes
    # an earlier one.
    tail = size // 5
    indices[-tail:] = indices[:tail]
    deltas[-tail:] = -deltas[:tail]
    return indices, deltas


def _assert_recovery_matches_grid(recovery, grid):
    """Stacked planes vs the legacy cell grid, accumulator by accumulator."""
    for row in range(grid.n_rows):
        for bucket, cell in enumerate(grid._cells[row]):
            assert int(recovery._weight[row, bucket]) == cell._weight
            assert int(recovery._dot[row, bucket]) == cell._dot
            assert int(recovery._fingerprint[row, bucket]) == cell._fingerprint
            assert recovery._z == cell._r


class TestStackedSSparse:
    S = 4
    DELTA = 0.1

    def _pair(self):
        current = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        legacy = _LegacySSparse(DIM, self.S, self.DELTA, random.Random(SEED))
        return current, legacy

    def test_same_seed_shares_hashes_and_bases(self):
        current, legacy = self._pair()
        assert current.n_rows == legacy.n_rows
        assert current.n_buckets == legacy.n_buckets
        for mine, theirs in zip(current._hashes, legacy._hashes):
            assert mine.coefficients == theirs.coefficients
        _assert_recovery_matches_grid(current, legacy)

    @pytest.mark.parametrize("chunk", (1, 53, 400))
    @pytest.mark.parametrize("magnitudes", ((1,), (1, 3, 7)))
    def test_batch_planes_match_per_item_cells(self, chunk, magnitudes):
        current, legacy = self._pair()
        indices, deltas = _signed_stream(magnitudes=magnitudes)
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            legacy.update(index, delta)
        for lo in range(0, len(indices), chunk):
            current.update_batch(
                indices[lo : lo + chunk], deltas[lo : lo + chunk]
            )
        _assert_recovery_matches_grid(current, legacy)

    def test_scalar_update_matches_batch(self):
        by_item = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        by_batch = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        indices, deltas = _signed_stream()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            by_item.update(index, delta)
        by_batch.update_batch(indices, deltas)
        assert np.array_equal(by_item._weight, by_batch._weight)
        assert np.array_equal(by_item._dot, by_batch._dot)
        assert np.array_equal(by_item._fingerprint, by_batch._fingerprint)

    def test_per_cell_decode_matches_onesparse_cell(self):
        current, legacy = self._pair()
        indices, deltas = _signed_stream()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            legacy.update(index, delta)
        current.update_batch(indices, deltas)
        for row in range(legacy.n_rows):
            for bucket, cell in enumerate(legacy._cells[row]):
                assert (
                    _decode_cell(
                        int(current._weight[row, bucket]),
                        int(current._dot[row, bucket]),
                        int(current._fingerprint[row, bucket]),
                        current._z,
                        DIM,
                    )
                    == cell.decode()
                )

    def test_decode_recovers_exact_net_support(self):
        current = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        truth = {3: 2, 77: -1, 400: 5}
        updates = [(3, 1), (77, -1), (400, 5), (3, 1), (9, 4), (9, -4)]
        current.update_batch(
            np.array([i for i, _ in updates], dtype=np.int64),
            np.array([d for _, d in updates], dtype=np.int64),
        )
        assert current.decode() == truth

    def test_merge_matches_single_pass(self):
        left = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        right = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        single = SSparseRecovery(DIM, self.S, self.DELTA, random.Random(SEED))
        indices, deltas = _signed_stream()
        half = len(indices) // 2
        left.update_batch(indices[:half], deltas[:half])
        right.update_batch(indices[half:], deltas[half:])
        single.update_batch(indices, deltas)
        merged = left.merge(right)
        assert np.array_equal(merged._weight, single._weight)
        assert np.array_equal(merged._dot, single._dot)
        assert np.array_equal(merged._fingerprint, single._fingerprint)
        assert merged.decode() == single.decode()

    def test_space_words_matches_cell_grid_accounting(self):
        # 3 words per cell (a OneSparseCell's words less its base) plus
        # the one shared base.
        current, legacy = self._pair()
        grid_words = sum(
            cell.space_words() - 1 for row in legacy._cells for cell in row
        ) + sum(h.space_words() for h in legacy._hashes)
        assert current.space_words() == grid_words + 1
        assert current.space_words() == (
            3 * current.n_rows * current.n_buckets
            + 1
            + sum(h.space_words() for h in current._hashes)
        )


class TestStackedL0Sampler:
    DELTA = 0.1

    def _pair(self):
        current = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        legacy = _LegacyL0Sampler(DIM, self.DELTA, random.Random(SEED))
        return current, legacy

    def test_same_seed_shares_every_hash(self):
        current, legacy = self._pair()
        assert current.n_levels == legacy.n_levels
        assert (
            current._level_hash.coefficients == legacy._level_hash.coefficients
        )
        assert current._tiebreak.coefficients == legacy._tiebreak.coefficients
        for level, grid in enumerate(legacy._recoveries):
            for mine, theirs in zip(current._row_hashes[level], grid._hashes):
                assert mine.coefficients == theirs.coefficients

    def test_level_assignment_matches_legacy(self):
        current, legacy = self._pair()
        indices = np.arange(DIM, dtype=np.int64)
        levels = current._levels_of_batch(indices)
        for index in range(DIM):
            assert int(levels[index]) == legacy._level_of(index)

    @pytest.mark.parametrize("magnitudes", ((1,), (1, 3, 7)))
    def test_batch_planes_match_per_item_cell_grids(self, magnitudes):
        current, legacy = self._pair()
        indices, deltas = _signed_stream(magnitudes=magnitudes)
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            legacy.update(index, delta)
        current.update_batch(indices, deltas)
        for level, grid in enumerate(legacy._recoveries):
            _assert_recovery_matches_grid(current._recovery(level), grid)

    def test_item_path_matches_batch_path(self):
        by_item = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        by_batch = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        indices, deltas = _signed_stream()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            by_item.update(index, delta)
        by_batch.update_batch(indices, deltas)
        assert np.array_equal(by_item._weight, by_batch._weight)
        assert np.array_equal(by_item._dot, by_batch._dot)
        assert np.array_equal(by_item._fingerprint, by_batch._fingerprint)
        assert by_item.sample() == by_batch.sample()

    def test_sample_draws_from_true_support(self):
        sampler = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        indices, deltas = _signed_stream()
        sampler.update_batch(indices, deltas)
        net = {}
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            net[index] = net.get(index, 0) + delta
        support = {index for index, value in net.items() if value}
        sampled = sampler.sample()
        assert sampled is not None
        assert sampled in support

    def test_merge_matches_single_pass(self):
        left = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        right = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        single = L0Sampler(DIM, self.DELTA, random.Random(SEED))
        indices, deltas = _signed_stream()
        half = len(indices) // 2
        left.update_batch(indices[:half], deltas[:half])
        right.update_batch(indices[half:], deltas[half:])
        single.update_batch(indices, deltas)
        merged = left.merge(right)
        assert np.array_equal(merged._weight, single._weight)
        assert np.array_equal(merged._dot, single._dot)
        assert np.array_equal(merged._fingerprint, single._fingerprint)
        assert merged.sample() == single.sample()

    def test_space_words_matches_legacy_accounting(self):
        current, legacy = self._pair()
        # 3 words per cell (a OneSparseCell's words less its base) plus
        # the one base every level shares.
        grid_words = sum(
            cell.space_words() - 1
            for grid in legacy._recoveries
            for row in grid._cells
            for cell in row
        ) + 1
        hash_words = sum(
            h.space_words()
            for grid in legacy._recoveries
            for h in grid._hashes
        )
        expected = (
            grid_words
            + hash_words
            + legacy._level_hash.space_words()
            + legacy._tiebreak.space_words()
        )
        assert current.space_words() == expected


class TestExactBankFusion:
    COUNT = 3
    DELTA = 0.1

    def _bank(self):
        return L0SamplerBank(
            DIM, self.COUNT, self.DELTA, random.Random(SEED), mode="exact"
        )

    def test_fused_batch_matches_per_item_fanout(self):
        by_item = self._bank()
        by_batch = self._bank()
        indices, deltas = _signed_stream()
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            by_item.update(index, delta)
        by_batch.update_batch(indices, deltas)
        by_batch._flush_updates()  # batch ingest is deferred until a read
        for mine, theirs in zip(by_item._samplers, by_batch._samplers):
            assert np.array_equal(mine._weight, theirs._weight)
            assert np.array_equal(mine._dot, theirs._dot)
            assert np.array_equal(mine._fingerprint, theirs._fingerprint)
        assert by_item.sample_all() == by_batch.sample_all()

    def test_prenetted_path_matches_unnetted(self):
        netted = self._bank()
        unnetted = self._bank()
        indices, deltas = _signed_stream()
        unnetted.update_batch(indices, deltas)
        unique, inverse = np.unique(indices, return_inverse=True)
        net = np.zeros(len(unique), dtype=np.int64)
        np.add.at(net, inverse, deltas)
        live = net != 0
        netted.update_batch(unique[live], net[live], netted=True)
        netted._flush_updates()
        unnetted._flush_updates()
        for mine, theirs in zip(netted._samplers, unnetted._samplers):
            assert np.array_equal(mine._weight, theirs._weight)
            assert np.array_equal(mine._fingerprint, theirs._fingerprint)

    def test_merge_matches_single_pass(self):
        left, right, single = self._bank(), self._bank(), self._bank()
        indices, deltas = _signed_stream()
        half = len(indices) // 2
        left.update_batch(indices[:half], deltas[:half])
        right.update_batch(indices[half:], deltas[half:])
        single.update_batch(indices, deltas)
        merged = left.merge(right)
        assert merged.sample_all() == single.sample_all()
