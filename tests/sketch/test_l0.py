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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.star_detection import StarDetection
from repro.pipeline import Pipeline
from repro.sketch.exact import ExactSupport
from repro.sketch.hashing import PRIME_61
from repro.sketch.l0 import (
    FastL0Bank,
    L0EdgeBank,
    L0Sampler,
    L0SamplerBank,
    bank_class,
    l0_sampler_space_words,
)


def _edge_bank(dim, count, delta, seed, mode):
    """A bank fed through the engine adapter over a 1 × dim edge vector:
    flat index ``0 * dim + b`` is the coordinate ``b`` itself, and the
    adapter owns a fast bank's support."""
    return L0EdgeBank(1, dim, count, delta=delta, seed=seed, mode=mode)


def _feed(edge_bank, indices, deltas):
    indices = np.asarray(indices, dtype=np.int64)
    edge_bank.process_batch(
        np.zeros(len(indices), dtype=np.int64), indices,
        np.asarray(deltas, dtype=np.int64),
    )


def _fed_bank(dim, count, delta, seed, mode, indices, deltas):
    """``(bank, read_args)``: a fast bank draws from the support its
    owner tracks; an exact bank holds the vector itself (no argument)."""
    bank = bank_class(mode)(dim, count, delta, random.Random(seed))
    if mode == "exact":
        bank.update_batch(indices, deltas)
        return bank, ()
    support = ExactSupport(dim)
    support.update_batch(indices, deltas)
    return bank, (support.support_array(),)


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


def _planes(sampler):
    sampler._flush_updates()
    return sampler._weight, sampler._dot, sampler._fingerprint


@st.composite
def sparse_vectors(draw):
    """Vectors of support size <= 6 over dimension 100."""
    support = draw(
        st.lists(st.integers(0, 99), min_size=0, max_size=6, unique=True)
    )
    values = [draw(st.integers(-5, 5).filter(lambda v: v != 0)) for _ in support]
    return dict(zip(support, values))


class TestExactSamplerRecovery:
    """The exact sampler recovers a coordinate from one 1-sparse cell per
    repetition; these pin the recovery on signed, churned and dense
    vectors."""

    def test_rejects_out_of_range_index(self):
        sampler = L0Sampler(10, 0.05, random.Random(0))
        with pytest.raises(ValueError, match="out of range"):
            sampler.update(10, 1)
        with pytest.raises(ValueError, match="out of range"):
            sampler.update(-1, 1)

    def test_repetitions_follow_the_failure_bound(self):
        """R = ceil(ln delta / ln(1/2)): more confidence, more words."""
        loose = L0Sampler(256, 0.2, random.Random(1))
        tight = L0Sampler(256, 0.001, random.Random(1))
        assert (loose.n_reps, tight.n_reps) == (3, 10)
        assert tight.space_words() > loose.space_words()

    def test_negative_values_recovered(self):
        sampler = L0Sampler(64, 0.05, random.Random(2))
        sampler.update(3, -5)
        assert sampler.sample() == 3
        sampler.update(9, 2)
        assert sampler.sample() in {3, 9}

    def test_sample_does_not_mutate(self):
        sampler = L0Sampler(64, 0.05, random.Random(3))
        for index in (1, 2, 3):
            sampler.update(index, 1)
        before = [plane.copy() for plane in _planes(sampler)]
        first = sampler.sample()
        assert sampler.sample() == first in {1, 2, 3}
        for plane, kept in zip(_planes(sampler), before):
            assert np.array_equal(plane, kept)

    def test_dense_vector_still_samples(self):
        """Unlike s-sparse recovery, an l0 read never needs the whole
        support to be sparse: a 60-coordinate vector still samples."""
        support = set(range(0, 120, 2))
        answers = []
        for seed in range(20):
            sampler = L0Sampler(128, 0.05, random.Random(seed))
            sampler.update_batch(
                np.array(sorted(support), dtype=np.int64),
                np.ones(len(support), dtype=np.int64),
            )
            answers.append(sampler.sample())
        assert all(answer in support for answer in answers if answer is not None)
        assert sum(answer is None for answer in answers) <= 3

    def test_item_path_matches_batch_path(self):
        indices = np.array([5, 40, 5, 77, 12, 40], dtype=np.int64)
        deltas = np.array([2, 1, -2, 3, -1, -1], dtype=np.int64)
        items = L0Sampler(128, 0.05, random.Random(4))
        batch = L0Sampler(128, 0.05, random.Random(4))
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            items.update(index, delta)
        batch.update_batch(indices, deltas)
        for left, right in zip(_planes(items), _planes(batch)):
            assert np.array_equal(left, right)
        assert items.sample() == batch.sample() in {77, 12}

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(5)
        indices = rng.integers(0, 256, size=400)
        deltas = rng.choice(np.array([-1, 1, 2]), size=400)
        whole = L0Sampler(256, 0.05, random.Random(6))
        left = L0Sampler(256, 0.05, random.Random(6))
        right = L0Sampler(256, 0.05, random.Random(6))
        whole.update_batch(indices, deltas)
        left.update_batch(indices[:150], deltas[:150])
        right.update_batch(indices[150:], deltas[150:])
        merged = left.merge(right)
        for got, expected in zip(_planes(merged), _planes(whole)):
            assert np.array_equal(got, expected)
        assert merged.sample() == whole.sample()

    @settings(max_examples=100)
    @given(sparse_vectors(), st.integers(0, 5))
    def test_samples_from_any_turnstile_vector(self, vector, seed):
        sampler = L0Sampler(100, 0.001, random.Random(seed))
        for index, value in vector.items():
            # split each value into two updates to exercise the turnstile
            sampler.update(index, value - 1)
            sampler.update(index, 1)
        answer = sampler.sample()
        if not vector:
            assert answer is None
        else:
            assert answer is None or answer in vector

    @settings(max_examples=50)
    @given(st.permutations(list(range(8))), st.integers(0, 3))
    def test_update_order_irrelevant(self, order, seed):
        baseline = L0Sampler(50, 0.01, random.Random(seed))
        shuffled = L0Sampler(50, 0.01, random.Random(seed))
        for index in range(8):
            baseline.update(index, index + 1)
        for index in order:
            shuffled.update(index, index + 1)
        for left, right in zip(_planes(baseline), _planes(shuffled)):
            assert np.array_equal(left, right)
        assert baseline.sample() == shuffled.sample()


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


def _spec_l0_bank(mode):
    spec = {
        "source": {"kind": "generator", "generator": "churn", "params": {"n": 8}},
        "processors": [
            {"name": "l0-bank", "params": {"n": 4, "m": 4, "count": 2, "mode": mode}}
        ],
    }
    return Pipeline.from_dict(spec).build_processors()


class TestBankModes:
    @pytest.mark.parametrize(
        "build",
        (
            lambda mode: L0EdgeBank(4, 4, 2, mode=mode),
            _spec_l0_bank,
            lambda mode: InsertionDeletionFEwW(4, 4, 2, 2, sampler_mode=mode),
            lambda mode: StarDetection(
                8, 2, model="insertion-deletion", sampler_mode=mode
            ),
        ),
        ids=("l0-bank", "l0-bank-spec", "insertion-deletion", "star-detection"),
    )
    def test_rejects_unknown_mode(self, build):
        with pytest.raises(ValueError, match=r"\('exact', 'fast'\), got 'magic'"):
            build("magic")

    @pytest.mark.parametrize("bank", (L0SamplerBank, FastL0Bank))
    def test_rejects_negative_count(self, bank):
        with pytest.raises(ValueError):
            bank(10, -1, 0.1, random.Random(0))

    def test_exact_mode_samples_from_support(self):
        bank = L0SamplerBank(64, 8, 0.05, random.Random(1))
        support = {5, 10, 15}
        for index in support:
            bank.update(index, 1)
        for outcome in bank.sample_all():
            assert outcome is None or outcome in support

    def test_fast_mode_samples_from_support(self):
        bank = FastL0Bank(64, 50, 0.05, random.Random(2))
        support = {5, 10, 15}
        outcomes = bank.sample_all(np.array(sorted(support), dtype=np.int64))
        assert len(outcomes) == 50
        assert all(outcome in support for outcome in outcomes if outcome is not None)

    def test_fast_mode_empty_support(self):
        bank = FastL0Bank(64, 5, 0.05, random.Random(3))
        assert bank.sample_all(np.zeros(0, dtype=np.int64)) == [None] * 5

    @pytest.mark.parametrize("mode", ("fast", "exact"))
    def test_respects_deletions(self, mode):
        bank = _edge_bank(64, 30, 0.05, 4, mode)
        _feed(bank, [1, 2, 1], [1, 1, -1])
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
            exact = _edge_bank(64, 5, 0.05, seed, "exact")
            fast = _edge_bank(64, 5, 0.05, seed + 1, "fast")
            for bank in (exact, fast):
                _feed(bank, support, np.ones(len(support)))
            exact_counts.update(o for o in exact.sample_all() if o is not None)
            fast_counts.update(o for o in fast.sample_all() if o is not None)
        total_exact = sum(exact_counts.values())
        total_fast = sum(fast_counts.values())
        for index in support:
            exact_freq = exact_counts[index] / total_exact
            fast_freq = fast_counts[index] / total_fast
            assert abs(exact_freq - fast_freq) < 0.12

    def test_fast_space_uses_paper_formula(self):
        bank = FastL0Bank(1024, 7, 0.01, random.Random(6))
        assert bank.space_words() == 7 * l0_sampler_space_words(1024, 0.01)

    def test_exact_space_sums_real_structures(self):
        bank = L0SamplerBank(64, 3, 0.05, random.Random(7))
        single = L0Sampler(64, 0.05, random.Random(7))
        assert bank.space_words() == 3 * single.space_words()
        assert single.space_words() == single.n_reps * (3 * single.n_levels + 2) + 1


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
        support = ExactSupport(1 << 18)
        for chunk in np.array_split(np.arange(len(indices)), 7):
            support.update_batch(indices[chunk], deltas[chunk])
        bank = FastL0Bank(1 << 18, 5000, 0.05, random.Random(9))
        for _ in range(3):
            column = bank.sample_column(support.support_array())
            drawn = set(column[column >= 0].tolist())
            assert drawn <= live
            assert len(drawn) > 0.9 * len(live)

    def test_failure_count_is_binomial(self):
        count, delta = 20_000, 0.3
        bank = FastL0Bank(100, count, delta, random.Random(10))
        failures = sum(
            sample is None for sample in bank.sample_all(np.arange(0, 100, 3))
        )
        mean = count * delta
        sigma = math.sqrt(count * delta * (1 - delta))
        assert abs(failures - mean) <= 5 * sigma

    def test_draws_are_uniform_over_the_support(self):
        support = np.arange(0, 1000, 20, dtype=np.int64)  # 50 coordinates
        bank = FastL0Bank(1000, 50_000, 0.01, random.Random(11))
        column = bank.sample_column(support)
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
            _fed_bank(1 << 12, count, 0.2, 24, mode, indices, deltas)
            for _ in range(2)
        ]
        (bank, support), (twin, _) = twins
        for _ in range(2):
            column = twin.sample_column(*support)
            expected = np.unique(column[column >= 0])
            assert np.array_equal(bank.distinct_samples(*support), expected)
        if mode == "fast":
            assert (
                bank.generator().bit_generator.state
                == twin.generator().bit_generator.state
            )
        empty, nothing = _fed_bank(64, count, 0.2, 25, mode, [], [])
        assert len(empty.distinct_samples(*nothing)) == 0

    @pytest.mark.parametrize("mode, count", (("fast", 400), ("exact", 6)))
    def test_split_merge_and_pickle_reproduce_single_pass_draws(self, mode, count):
        dim = 1 << 12
        indices, deltas, _ = _churn(dim, 200, 300, seed=12)
        half = len(indices) // 2

        def fresh():
            return _edge_bank(dim, count, 0.05, 13, mode)

        single = fresh()
        _feed(single, indices, deltas)
        left, right = fresh().split(2)
        _feed(left, indices[:half], deltas[:half])
        _feed(right, indices[half:], deltas[half:])
        merged = left.merge(right)
        resumed = fresh()
        _feed(resumed, indices[:half], deltas[:half])
        resumed = pickle.loads(pickle.dumps(resumed))
        _feed(resumed, indices[half:], deltas[half:])
        copied = copy.deepcopy(fresh())
        _feed(copied, indices, deltas)
        for _ in range(2):  # consecutive reads stay in step
            expected = single.sample_all()
            assert merged.sample_all() == expected
            assert resumed.sample_all() == expected
            assert copied.sample_all() == expected


def _colliding_pair(bank, dim):
    """Indices ``i < j`` of equal parity sharing their deepest level in
    every repetition of a one-sampler bank."""
    levels = bank._levels(np.arange(dim, dtype=np.int64))[0]
    for i in range(dim):
        same = (levels == levels[:, i : i + 1]).all(axis=0)
        same[: i + 1] = False
        same[(i + 1) % 2 :: 2] = False
        if same.any():
            return i, int(np.flatnonzero(same)[0])
    raise AssertionError("no colliding pair")


class TestSharedBaseFingerprint:
    def test_crafted_collision_is_rejected_by_the_fingerprint(self):
        # Two unit coordinates sharing the deepest cell of every
        # repetition: each such cell reads weight 2 and dot i + j, so
        # dot / weight = (i + j) / 2 is an in-range integer, and only
        # the fingerprint can reject it.
        sampler = L0Sampler(4096, 0.05, random.Random(14))
        i, j = _colliding_pair(sampler, 4096)
        sampler.update(i, 1)
        sampler.update(j, 1)
        sampler._flush_updates()
        assert (sampler._weight == 2).sum() == sampler.n_reps
        assert sampler.sample() is None
        batched = L0Sampler(4096, 0.05, random.Random(14))
        batched.update_batch(np.array([i, j]), np.array([1, 1]))
        assert batched.sample() is None

    def test_crafted_collision_cell_in_a_sampler(self):
        # Write one collision cell by hand: what i and j leave in a cell
        # they share, under the sampler's one base.
        sampler = bank = L0Sampler(4096, 0.05, random.Random(15))
        z = int(bank._z[0])
        i, j = 100, 302
        rep, level = 2, 3
        bank._weight[0, rep, level] = 2
        bank._dot[0, rep, level] = i + j
        bank._fingerprint[0, rep, level] = (
            pow(z, i, PRIME_61) + pow(z, j, PRIME_61)
        ) % PRIME_61
        assert sampler.sample() is None
        # The same cell holding (i + j) / 2 alone decodes.
        bank._fingerprint[0, rep, level] = (
            2 * pow(z, (i + j) // 2, PRIME_61)
        ) % PRIME_61
        assert sampler.sample() == (i + j) // 2

    @pytest.mark.parametrize("dim", (64, 1 << 18))
    def test_full_cancellation_samples_none(self, dim):
        indices, deltas, _ = _churn(dim, 0, 40, seed=16)
        bank = L0SamplerBank(dim, 4, 0.05, random.Random(17))
        bank.update_batch(indices, deltas)
        assert bank.sample_all() == [None] * 4
        assert not bank._fingerprint.any()

    def test_dim_one(self):
        bank = L0SamplerBank(1, 4, 0.05, random.Random(18))
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
        bank = L0SamplerBank(dim, 3, 0.05, random.Random(20))
        assert bank._table.shape == (5, 256, 3)
        bank.update_batch(np.array([dim - 1, 5]), np.array([1, 1]))
        bank.update_batch(np.array([5]), np.array([-1]))
        assert bank.sample_all() == [dim - 1] * 3
        scalar = L0SamplerBank(dim, 3, 0.05, random.Random(20))
        scalar.update(dim - 1, 1)
        scalar._flush_updates()
        assert np.array_equal(scalar._fingerprint, bank._fingerprint)


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
    bank = L0SamplerBank(dim, 8, 0.05, random.Random(21))
    rng = np.random.default_rng(22)
    bank.update_batch(
        rng.choice(dim, size=4000, replace=False).astype(np.int64),
        np.ones(4000, np.int64),
    )
    assert all(sample is not None for sample in bank.sample_all())
    accounted = 8 * bank.space_words()
    assert _resident_array_bytes(bank) <= 2 * accounted


def test_fast_bank_pickles_its_consolidated_support():
    """A pickled fast bank carries the netted support, not the raw
    update columns buffered since the last read."""
    bank = L0EdgeBank(64, 64, 8, seed=3)
    rng = np.random.default_rng(4)
    size = 200_000
    bank.process_batch(
        rng.integers(0, 64, size=size),
        rng.integers(0, 64, size=size),
        np.ones(size, dtype=np.int64),
    )
    unread = pickle.dumps(bank)
    restored = pickle.loads(unread)
    assert restored.sample_all() == bank.sample_all()
    assert len(unread) <= 2 * len(pickle.dumps(bank))
