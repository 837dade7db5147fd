"""ℓ₀-sampler behaviour at the huge sparse dimensions Algorithm 3 uses.

Algorithm 3 runs samplers over the flattened edge vector of dimension
``n * m``; for realistic parameters that is far beyond anything dense.
These tests pin down that the structures are truly update-sparse: cost
and correctness depend on the support, never on the dimension.
"""

import random

import numpy as np

from repro.sketch.l0 import L0Sampler, L0SamplerBank, l0_sampler_space_words
from repro.sketch.onesparse import CellState, OneSparseCell

HUGE = 1 << 40


class TestHugeDimensions:
    def test_one_sparse_cell_at_huge_dim(self):
        cell = OneSparseCell(HUGE, random.Random(0))
        index = HUGE - 7
        cell.update(index, 3)
        result = cell.decode()
        assert result.state is CellState.ONE_SPARSE
        assert (result.index, result.value) == (index, 3)

    def test_l0_sampler_at_huge_dim(self):
        sampler = L0Sampler(HUGE, 0.05, random.Random(2))
        support = {123, HUGE // 3, HUGE - 42}
        for coordinate in support:
            sampler.update(coordinate, 1)
        assert sampler.sample() in support

    def test_l0_sampler_cancellation_at_huge_dim(self):
        sampler = L0Sampler(HUGE, 0.05, random.Random(3))
        sampler.update(HUGE - 1, 1)
        sampler.update(5, 1)
        sampler.update(HUGE - 1, -1)
        assert sampler.sample() == 5

    def test_exact_bank_at_huge_dim(self):
        coordinates = np.array([1, HUGE // 2, HUGE - 1], dtype=np.int64)
        whole = L0SamplerBank(HUGE, 8, 0.05, random.Random(6), mode="exact")
        left = L0SamplerBank(HUGE, 8, 0.05, random.Random(6), mode="exact")
        right = L0SamplerBank(HUGE, 8, 0.05, random.Random(6), mode="exact")
        whole.update_batch(coordinates, np.ones(3, dtype=np.int64))
        left.update_batch(coordinates[:1], np.ones(1, dtype=np.int64))
        right.update_batch(coordinates[1:], np.ones(2, dtype=np.int64))
        answers = whole.sample_all()
        assert left.merge(right).sample_all() == answers
        assert all(answer in set(coordinates.tolist()) for answer in answers)

    def test_space_formula_log_squared_growth(self):
        """Paper accounting: quadrupling log(dim) -> ~16x the words."""
        small = l0_sampler_space_words(1 << 10, 0.01)
        large = l0_sampler_space_words(1 << 40, 0.01)
        ratio = large / small
        assert 10 < ratio < 20  # (40/10)^2 = 16

    def test_structure_size_independent_of_dim(self):
        """Actual retained words depend on levels (log dim), not dim."""
        small = L0Sampler(1 << 20, 0.05, random.Random(4)).space_words()
        large = L0Sampler(1 << 40, 0.05, random.Random(5)).space_words()
        assert large < 3 * small
