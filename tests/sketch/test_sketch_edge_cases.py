"""Focused edge-case tests for the sketching substrate: level nesting,
peeling soundness, simulated-failure plumbing, and update-column
validation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.exact import ExactSupport
from repro.sketch.l0 import L0Sampler, L0SamplerBank
from repro.sketch.ssparse import SSparseRecovery


class TestLevelNesting:
    def test_levels_are_nested(self):
        """An index surviving level l survives every level below it —
        the nesting that makes the geometric search sound."""
        sampler = L0Sampler(1 << 16, 0.05, random.Random(0))
        for index in range(0, 1 << 16, 997):
            level = sampler._level_of(index)
            assert 0 <= level < sampler.n_levels

    def test_level_distribution_geometric(self):
        """~half the indices sit at level 0, a quarter at level 1, ..."""
        sampler = L0Sampler(1 << 12, 0.05, random.Random(1))
        counts = {}
        total = 4000
        for index in range(total):
            level = sampler._level_of(index)
            counts[level] = counts.get(level, 0) + 1
        assert 0.35 * total < counts.get(0, 0) < 0.65 * total
        assert 0.15 * total < counts.get(1, 0) < 0.40 * total


class TestPeelingSoundness:
    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 39), min_size=3, max_size=12, unique=True),
        st.integers(0, 20),
    )
    def test_decode_is_all_or_nothing(self, support, seed):
        """With s below the true sparsity, decode must return either
        None or the *exact* support — never a silently partial answer."""
        recovery = SSparseRecovery(40, 2, 0.05, random.Random(seed))
        for index in support:
            recovery.update(index, 1)
        decoded = recovery.decode()
        if decoded is not None:
            assert decoded == {index: 1 for index in support}

    def test_peeling_resolves_a_resolvable_collision(self):
        """Across seeds, some 3-coordinate inserts into an s=2 structure
        need peeling and still decode exactly."""
        resolved = 0
        for seed in range(40):
            recovery = SSparseRecovery(64, 2, 0.2, random.Random(seed))
            for index in (3, 17, 41):
                recovery.update(index, 2)
            decoded = recovery.decode()
            if decoded is not None:
                assert decoded == {3: 2, 17: 2, 41: 2}
                resolved += 1
        assert resolved > 0  # peeling genuinely fires and succeeds


class TestBankFailureSimulation:
    def test_fast_bank_simulates_failures_at_rate_delta(self):
        """With a large delta, the fast bank returns None at roughly
        that rate — the failure accounting Algorithm 3 relies on."""
        bank = L0SamplerBank(16, 4000, 0.3, random.Random(2), mode="fast")
        bank.update(5, 1)
        outcomes = bank.sample_all()
        failures = sum(1 for outcome in outcomes if outcome is None)
        assert 0.2 < failures / len(outcomes) < 0.4
        assert all(outcome == 5 for outcome in outcomes if outcome is not None)

    def test_exact_bank_count_zero(self):
        bank = L0SamplerBank(16, 0, 0.1, random.Random(3), mode="exact")
        bank.update(1, 1)
        assert bank.sample_all() == []
        assert bank.space_words() == 0


def _exact_bank():
    return L0SamplerBank(16, 3, 0.1, random.Random(4), mode="exact")


def _fast_bank():
    return L0SamplerBank(16, 3, 0.1, random.Random(4), mode="fast")


class TestMismatchedColumns:
    """Every batch entry point names both lengths when its update
    columns differ, instead of buffering or broadcasting them."""

    @pytest.mark.parametrize(
        "make",
        (
            lambda: ExactSupport(10),
            _exact_bank,
            _fast_bank,
            lambda: SSparseRecovery(16, 2, 0.1, random.Random(5)),
            lambda: L0Sampler(16, 0.1, random.Random(6)),
        ),
        ids=("exact-support", "exact-bank", "fast-bank", "ssparse", "l0-sampler"),
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
