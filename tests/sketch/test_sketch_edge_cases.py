"""Focused edge-case tests for the sketching substrate: level nesting,
simulated-failure plumbing, and update-column validation."""

import random

import numpy as np
import pytest

from repro.sketch.exact import ExactSupport
from repro.sketch.l0 import FastL0Bank, L0Sampler, L0SamplerBank


class TestLevelNesting:
    def test_levels_are_nested(self):
        """Every index has one deepest level per repetition, inside the
        level range — the nesting that makes the geometric search sound."""
        sampler = L0Sampler(1 << 16, 0.05, random.Random(0))
        levels = sampler._levels(np.arange(0, 1 << 16, 997, dtype=np.int64))
        assert levels.shape[:2] == (1, sampler.n_reps)
        assert ((levels >= 0) & (levels < sampler.n_levels)).all()

    def test_level_distribution_geometric(self):
        """~half the indices sit at level 0, a quarter at level 1, ..."""
        sampler = L0Sampler(1 << 12, 0.05, random.Random(1))
        total = 4000
        levels = sampler._levels(np.arange(total, dtype=np.int64))
        for rep in range(sampler.n_reps):
            counts = np.bincount(levels[0, rep], minlength=2)
            assert 0.35 * total < counts[0] < 0.65 * total
            assert 0.15 * total < counts[1] < 0.40 * total


class TestBankFailureSimulation:
    def test_fast_bank_simulates_failures_at_rate_delta(self):
        """With a large delta, the fast bank returns None at roughly
        that rate — the failure accounting Algorithm 3 relies on."""
        bank = FastL0Bank(16, 4000, 0.3, random.Random(2))
        outcomes = bank.sample_all(np.array([5], dtype=np.int64))
        failures = sum(1 for outcome in outcomes if outcome is None)
        assert 0.2 < failures / len(outcomes) < 0.4
        assert all(outcome == 5 for outcome in outcomes if outcome is not None)

    def test_exact_bank_count_zero(self):
        bank = L0SamplerBank(16, 0, 0.1, random.Random(3))
        bank.update(1, 1)
        assert bank.sample_all() == []
        assert bank.space_words() == 0


def _exact_bank():
    return L0SamplerBank(16, 3, 0.1, random.Random(4))


class TestMismatchedColumns:
    """Every batch entry point names both lengths when its update
    columns differ, instead of buffering or broadcasting them."""

    @pytest.mark.parametrize(
        "make",
        (
            lambda: ExactSupport(10),
            _exact_bank,
            lambda: L0Sampler(16, 0.1, random.Random(6)),
        ),
        ids=("exact-support", "exact-bank", "l0-sampler"),
    )
    @pytest.mark.parametrize(
        "indices, deltas", (([1, 2], [1]), ([3], [1, 5]), ([3, 9, 12], [1]))
    )
    def test_update_batch_rejects_mismatched_lengths(self, make, indices, deltas):
        structure = make()
        with pytest.raises(
            ValueError,
            match=f"{len(indices)} indices, {len(deltas)} deltas",
        ):
            structure.update_batch(
                np.array(indices, dtype=np.int64), np.array(deltas, dtype=np.int64)
            )
