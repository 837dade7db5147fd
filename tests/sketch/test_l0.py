"""Unit and statistical tests for the ℓ₀-sampler and the sampler bank.

Every seed is fixed, so the statistical checks cannot flake.
"""

import copy
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.sketch.hashing import PRIME_61
from repro.sketch.l0 import (
    L0EdgeBank,
    L0Sampler,
    L0SamplerBank,
    l0_sampler_space_words,
)
from repro.sketch.ssparse import SSparseRecovery


class TestL0SamplerBasics:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            L0Sampler(0, 0.1, random.Random(0))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            L0Sampler(10, 0.0, random.Random(0))

    def test_empty_vector_samples_none(self):
        sampler = L0Sampler(64, 0.05, random.Random(1))
        assert sampler.sample() is None

    def test_singleton_support(self):
        sampler = L0Sampler(64, 0.05, random.Random(2))
        sampler.update(42, 1)
        assert sampler.sample() == 42

    def test_sample_in_support(self):
        rng = random.Random(3)
        sampler = L0Sampler(128, 0.05, rng)
        support = {3, 17, 99, 120}
        for index in support:
            sampler.update(index, 1)
        assert sampler.sample() in support

    def test_survives_cancellation(self):
        """The defining ℓ₀ property: deleted coordinates never sampled."""
        rng = random.Random(4)
        sampler = L0Sampler(128, 0.05, rng)
        for index in range(100):
            sampler.update(index, 1)
        for index in range(99):
            sampler.update(index, -1)
        assert sampler.sample() == 99

    def test_full_cancellation_returns_none(self):
        sampler = L0Sampler(32, 0.05, random.Random(5))
        for index in range(20):
            sampler.update(index, 1)
            sampler.update(index, -1)
        assert sampler.sample() is None

    def test_space_words_positive_and_static(self):
        sampler = L0Sampler(256, 0.05, random.Random(6))
        before = sampler.space_words()
        for index in range(50):
            sampler.update(index, 1)
        assert sampler.space_words() == before > 0


class TestL0SamplerUniformity:
    def test_approximately_uniform_over_support(self):
        """Across independent samplers, each support element is sampled
        with frequency close to 1/|support|."""
        support = list(range(0, 60, 6))  # 10 elements
        counts = Counter()
        trials = 400
        master = random.Random(7)
        for _ in range(trials):
            sampler = L0Sampler(64, 0.05, random.Random(master.getrandbits(64)))
            for index in support:
                sampler.update(index, 1)
            outcome = sampler.sample()
            assert outcome in support
            counts[outcome] += 1
        expected = trials / len(support)
        for index in support:
            assert counts[index] > 0.3 * expected
            assert counts[index] < 2.5 * expected


class TestPaperSpaceFormula:
    def test_grows_with_dim(self):
        assert l0_sampler_space_words(2**20, 0.01) > l0_sampler_space_words(
            2**10, 0.01
        )

    def test_grows_with_confidence(self):
        assert l0_sampler_space_words(1024, 1e-9) > l0_sampler_space_words(
            1024, 0.1
        )

    def test_minimum_one_word(self):
        assert l0_sampler_space_words(1, 0.5) >= 1


class TestBankModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            L0SamplerBank(10, 2, 0.1, random.Random(0), mode="magic")

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            L0SamplerBank(10, -1, 0.1, random.Random(0))

    def test_exact_mode_samples_from_support(self):
        bank = L0SamplerBank(64, 8, 0.05, random.Random(1), mode="exact")
        support = {5, 10, 15}
        for index in support:
            bank.update(index, 1)
        for outcome in bank.sample_all():
            assert outcome is None or outcome in support

    def test_fast_mode_samples_from_support(self):
        bank = L0SamplerBank(64, 50, 0.05, random.Random(2), mode="fast")
        support = {5, 10, 15}
        for index in support:
            bank.update(index, 1)
        outcomes = bank.sample_all()
        assert len(outcomes) == 50
        assert all(outcome in support for outcome in outcomes if outcome is not None)

    def test_fast_mode_empty_support(self):
        bank = L0SamplerBank(64, 5, 0.05, random.Random(3), mode="fast")
        assert bank.sample_all() == [None] * 5

    @pytest.mark.parametrize("mode", ("fast", "exact"))
    def test_respects_deletions(self, mode):
        bank = L0SamplerBank(64, 30, 0.05, random.Random(4), mode=mode)
        bank.update(1, 1)
        bank.update(2, 1)
        bank.update(1, -1)
        outcomes = [outcome for outcome in bank.sample_all() if outcome is not None]
        assert outcomes and all(outcome == 2 for outcome in outcomes)

    def test_mode_distributions_agree(self):
        """Exact and fast banks draw from the same distribution: compare
        per-element frequencies over many draws on a fixed support."""
        support = list(range(0, 40, 8))  # 5 elements
        exact_counts, fast_counts = Counter(), Counter()
        master = random.Random(5)
        trials = 60
        for _ in range(trials):
            seed = master.getrandbits(64)
            exact = L0SamplerBank(64, 5, 0.05, random.Random(seed), mode="exact")
            fast = L0SamplerBank(64, 5, 0.05, random.Random(seed + 1), mode="fast")
            for index in support:
                exact.update(index, 1)
                fast.update(index, 1)
            exact_counts.update(o for o in exact.sample_all() if o is not None)
            fast_counts.update(o for o in fast.sample_all() if o is not None)
        total_exact = sum(exact_counts.values())
        total_fast = sum(fast_counts.values())
        for index in support:
            exact_freq = exact_counts[index] / total_exact
            fast_freq = fast_counts[index] / total_fast
            assert abs(exact_freq - fast_freq) < 0.12

    def test_fast_space_uses_paper_formula(self):
        bank = L0SamplerBank(1024, 7, 0.01, random.Random(6), mode="fast")
        assert bank.space_words() == 7 * l0_sampler_space_words(1024, 0.01)

    def test_exact_space_sums_real_structures(self):
        bank = L0SamplerBank(64, 3, 0.05, random.Random(7), mode="exact")
        assert bank.space_words() == sum(
            sampler.space_words() for sampler in bank._samplers
        )


def _churn(dim, live, dead, seed):
    """Insert ``live + dead`` coordinates, then delete the ``dead`` ones."""
    rng = np.random.default_rng(seed)
    coords = rng.choice(dim, size=live + dead, replace=False).astype(np.int64)
    indices = np.concatenate([coords, coords[live:]])
    deltas = np.concatenate(
        [np.ones(live + dead, np.int64), -np.ones(dead, np.int64)]
    )
    return indices, deltas, set(coords[:live].tolist())


class TestFastBankDraws:
    def test_every_draw_is_in_the_live_support(self):
        indices, deltas, live = _churn(1 << 18, 300, 700, seed=1)
        bank = L0SamplerBank(1 << 18, 5000, 0.05, random.Random(9), mode="fast")
        for chunk in np.array_split(np.arange(len(indices)), 7):
            bank.update_batch(indices[chunk], deltas[chunk])
        for _ in range(3):
            column = bank.sample_column()
            drawn = set(column[column >= 0].tolist())
            assert drawn <= live
            assert len(drawn) > 0.9 * len(live)

    def test_failure_count_is_binomial(self):
        count, delta = 20_000, 0.3
        bank = L0SamplerBank(100, count, delta, random.Random(10), mode="fast")
        bank.update_batch(np.arange(0, 100, 3), np.ones(34, np.int64))
        failures = sum(sample is None for sample in bank.sample_all())
        mean = count * delta
        sigma = math.sqrt(count * delta * (1 - delta))
        assert abs(failures - mean) <= 5 * sigma

    def test_draws_are_uniform_over_the_support(self):
        support = np.arange(0, 1000, 20, dtype=np.int64)  # 50 coordinates
        bank = L0SamplerBank(1000, 50_000, 0.01, random.Random(11), mode="fast")
        bank.update_batch(support, np.full(50, 2, np.int64))
        column = bank.sample_column()
        draws = column[column >= 0]
        observed = np.bincount(np.searchsorted(support, draws), minlength=50)
        assert observed.sum() == len(draws)
        expected = len(draws) / 50
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 85.35  # χ²(49 dof) at p = 0.001

    @pytest.mark.parametrize("mode, count", (("fast", 3000), ("exact", 6)))
    def test_distinct_samples_consume_the_column_draws(self, mode, count):
        indices, deltas, _ = _churn(1 << 12, 150, 50, seed=23)
        twins = [
            L0SamplerBank(1 << 12, count, 0.2, random.Random(24), mode=mode)
            for _ in range(2)
        ]
        for bank in twins:
            bank.update_batch(indices, deltas)
        for _ in range(2):
            column = twins[1].sample_column()
            expected = np.unique(column[column >= 0])
            assert np.array_equal(twins[0].distinct_samples(), expected)
        if mode == "fast":
            states = [bank._draw_rng.bit_generator.state for bank in twins]
            assert states[0] == states[1]
        empty = L0SamplerBank(64, count, 0.2, random.Random(25), mode=mode)
        assert len(empty.distinct_samples()) == 0

    @pytest.mark.parametrize("mode, count", (("fast", 400), ("exact", 6)))
    def test_split_merge_and_pickle_reproduce_single_pass_draws(self, mode, count):
        dim = 1 << 12
        indices, deltas, _ = _churn(dim, 200, 300, seed=12)
        half = len(indices) // 2

        def fresh():
            return L0SamplerBank(dim, count, 0.05, random.Random(13), mode=mode)

        single = fresh()
        single.update_batch(indices, deltas)
        root = fresh()
        left, right = copy.deepcopy(root), copy.deepcopy(root)
        left.update_batch(indices[:half], deltas[:half])
        right.update_batch(indices[half:], deltas[half:])
        merged = left.merge(right)
        resumed = fresh()
        resumed.update_batch(indices[:half], deltas[:half])
        resumed = pickle.loads(pickle.dumps(resumed))
        resumed.update_batch(indices[half:], deltas[half:])
        for _ in range(2):  # consecutive reads stay in step
            expected = single.sample_all()
            assert merged.sample_all() == expected
            assert resumed.sample_all() == expected


def _colliding_pair(hashes, dim, start):
    """Indices ``i, j`` of equal parity landing in one bucket in every row."""
    for j in range(start + 2, dim, 2):
        if all(h(start) == h(j) for h in hashes):
            return start, j
    raise AssertionError("no colliding pair")


class TestSharedBaseFingerprint:
    def test_crafted_collision_is_rejected_by_the_fingerprint(self):
        # Two unit coordinates sharing every cell: each cell reads
        # weight 2 and dot i + j, so dot / weight = (i + j) / 2 is an
        # in-range integer, and only the fingerprint can reject it.
        recovery = SSparseRecovery(4096, 1, 0.45, random.Random(14))
        i, j = _colliding_pair(recovery._hashes, 4096, 100)
        recovery.update(i, 1)
        recovery.update(j, 1)
        assert (recovery._weight == 2).sum() == recovery.n_rows
        assert recovery.decode() is None
        batched = SSparseRecovery(4096, 1, 0.45, random.Random(14))
        batched.update_batch(np.array([i, j]), np.array([1, 1]))
        assert batched.decode() is None

    def test_crafted_collision_cell_in_a_sampler(self):
        # A sampler's level has too many rows for a natural all-row
        # collision, so write one collision cell by hand: what i and j
        # leave in a cell they share, under the sampler's one base.
        sampler = L0Sampler(4096, 0.05, random.Random(15))
        i, j = 100, 302
        level, row, bucket = 3, 2, 5
        sampler._weight[level, row, bucket] = 2
        sampler._dot[level, row, bucket] = i + j
        sampler._fingerprint[level, row, bucket] = (
            pow(sampler._z, i, PRIME_61) + pow(sampler._z, j, PRIME_61)
        ) % PRIME_61
        assert sampler._recovery(level).decode() is None
        # The same cell holding (i + j) / 2 alone decodes.
        sampler._fingerprint[level, row, bucket] = (
            2 * pow(sampler._z, (i + j) // 2, PRIME_61)
        ) % PRIME_61
        assert sampler._recovery(level).decode() == {(i + j) // 2: 2}

    @pytest.mark.parametrize("dim", (64, 1 << 18))
    def test_full_cancellation_samples_none(self, dim):
        indices, deltas, _ = _churn(dim, 0, 40, seed=16)
        bank = L0SamplerBank(dim, 4, 0.05, random.Random(17), mode="exact")
        bank.update_batch(indices, deltas)
        assert bank.sample_all() == [None] * 4
        assert not bank._bank_fingerprint.any()

    def test_dim_one(self):
        bank = L0SamplerBank(1, 4, 0.05, random.Random(18), mode="exact")
        bank.update_batch(np.array([0, 0]), np.array([1, 2]))
        assert bank.sample_all() == [0] * 4

    def test_one_by_one_edge_space(self):
        bank = L0EdgeBank(1, 1, 4, mode="exact", seed=19)
        bank.process_batch(np.array([0]), np.array([0]))
        assert bank.sample_edges() == [(0, 0)] * 4
        algorithm = InsertionDeletionFEwW(1, 1, 1, 1, seed=19, sampler_mode="exact")
        algorithm.process_batch(np.array([0]), np.array([0]))
        answer = algorithm.result()
        assert (answer.vertex, answer.witnesses) == (0, frozenset({0}))

    def test_maximal_id_at_dim_2_40(self):
        dim = 1 << 40
        bank = L0SamplerBank(dim, 3, 0.05, random.Random(20), mode="exact")
        assert all(s._table.shape == (5, 256) for s in bank._samplers)
        bank.update_batch(np.array([dim - 1, 5]), np.array([1, 1]))
        bank.update_batch(np.array([5]), np.array([-1]))
        assert bank.sample_all() == [dim - 1] * 3
        scalar = L0SamplerBank(dim, 3, 0.05, random.Random(20), mode="exact")
        scalar.update(dim - 1, 1)
        assert np.array_equal(scalar._bank_fingerprint, bank._bank_fingerprint)


def _resident_array_bytes(root):
    """``nbytes`` summed over the distinct non-view arrays reachable
    from ``root`` (a view counts through the array that owns it)."""
    owners, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            owners[id(obj)] = obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__") else ())
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return sum(owners.values())


def test_exact_bank_resident_bytes_within_2x_of_accounted():
    dim = 1 << 18
    bank = L0SamplerBank(dim, 8, 0.05, random.Random(21), mode="exact")
    rng = np.random.default_rng(22)
    bank.update_batch(
        rng.choice(dim, size=4000, replace=False).astype(np.int64),
        np.ones(4000, np.int64),
    )
    assert all(sample is not None for sample in bank.sample_all())
    accounted = 8 * bank.space_words()
    assert _resident_array_bytes(bank) <= 2 * accounted
