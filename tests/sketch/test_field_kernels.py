"""GF(2^61 - 1) array kernels and the windowed fingerprint power tables.

Pins :func:`mulmod_p61` and :func:`_fold61` to Python-int arithmetic
(random arrays, limb boundaries, broadcasting, read-only operands), and
the per-base power tables to ``pow(z, exponent, p)`` entry by entry, the
table-fed batch kernels to the scalar ``pow()`` paths plane by plane,
and the tables to their size.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.hashing import (
    PRIME_61,
    KWiseHash,
    _fold61,
    degree1_field,
    mulmod_p61,
)
from repro.sketch.l0 import L0Sampler, L0SamplerBank
from repro.sketch.onesparse import (
    build_power_table,
    power_table_shape,
    table_powers,
)

P = PRIME_61
U64_MAX = (1 << 64) - 1
LIMB_BOUNDARIES = [0, 1, 1 << 30, (1 << 31) - 1, 1 << 31, 1 << 60, P - 2, P - 1]

field_elements = st.integers(min_value=0, max_value=P - 1)


def _u64(values):
    return np.array(values, dtype=np.uint64)


def _expected_products(a, b):
    return [(x * y) % P for x, y in zip(a, b)]


class TestMulmod:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(field_elements, field_elements), max_size=64))
    def test_arrays_match_python_ints(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        got = mulmod_p61(_u64(a), _u64(b))
        assert got.dtype == np.uint64
        assert got.tolist() == _expected_products(a, b)

    def test_limb_boundaries(self):
        a = [x for x in LIMB_BOUNDARIES for _ in LIMB_BOUNDARIES]
        b = [y for _ in LIMB_BOUNDARIES for y in LIMB_BOUNDARIES]
        assert mulmod_p61(_u64(a), _u64(b)).tolist() == _expected_products(a, b)

    def test_broadcast_column_by_row(self):
        rng = random.Random(1)
        column = LIMB_BOUNDARIES + [rng.randrange(P) for _ in range(5)]
        row = LIMB_BOUNDARIES + [rng.randrange(P) for _ in range(9)]
        got = mulmod_p61(_u64(column)[:, np.newaxis], _u64(row)[np.newaxis, :])
        assert got.shape == (len(column), len(row))
        assert got.tolist() == [[(x * y) % P for y in row] for x in column]

    def test_read_only_operands_come_back_unmodified(self):
        row = _u64(LIMB_BOUNDARIES)
        snapshot = row.copy()
        scalar = np.broadcast_to(np.uint64(P - 1), (3, len(LIMB_BOUNDARIES)))
        assert not scalar.flags.writeable
        got = mulmod_p61(scalar, row)
        assert got.tolist() == [
            [((P - 1) * y) % P for y in LIMB_BOUNDARIES]
        ] * 3
        assert np.array_equal(row, snapshot)
        assert (scalar == np.uint64(P - 1)).all()
        column = np.broadcast_to(_u64(LIMB_BOUNDARIES)[:, np.newaxis], (8, 2))
        got = mulmod_p61(column, column)
        assert got[:, 0].tolist() == [(x * x) % P for x in LIMB_BOUNDARIES]
        assert column[:, 1].tolist() == LIMB_BOUNDARIES

    def test_numpy_scalars(self):
        got = mulmod_p61(np.uint64(P - 1), np.uint64(P - 2))
        assert int(got) == ((P - 1) * (P - 2)) % P


class TestFold:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=U64_MAX), max_size=64))
    def test_full_uint64_range(self, values):
        assert _fold61(_u64(values)).tolist() == [v % P for v in values]

    def test_extremes(self):
        values = [0, 1, P - 1, P, P + 1, 2 * P, 1 << 61, 1 << 63,
                  (1 << 63) + (1 << 32), U64_MAX - 1, U64_MAX]
        assert _fold61(_u64(values)).tolist() == [v % P for v in values]


class TestDegree1Field:
    """Both paths of the ℓ₀ kernels' row-hash evaluation equal the
    scalar hash: points below 2³¹, and any point once one reaches it."""

    @pytest.mark.parametrize(
        "points",
        (
            [0, 1, 2, 12345, (1 << 31) - 1],
            [0, 1, (1 << 31) - 1, 1 << 31, (1 << 40) - 1, P - 1],
        ),
        ids=("below-2^31", "any"),
    )
    def test_matches_kwise_field_value(self, points):
        rng = random.Random(3)
        pairs = [(a, b) for a in LIMB_BOUNDARIES for b in (0, 1, P - 1)]
        pairs += [(rng.randrange(P), rng.randrange(P)) for _ in range(40)]
        a = _u64([x for x, _ in pairs])[np.newaxis, :]
        b = _u64([y for _, y in pairs])[np.newaxis, :]
        x = np.array(points, dtype=np.int64)[:, np.newaxis]
        got = degree1_field(a, b, x)
        assert got.tolist() == [
            [KWiseHash([ca, cb], 7).field_value(point) for ca, cb in pairs]
            for point in points
        ]


POWER_TABLE_DIMS = [
    1, 2, 3, 64, 65, 4096, 1 << 16, 1 << 18, (1 << 18) + 1, 1 << 40,
]


class TestPowerTables:
    @pytest.mark.parametrize("dim", POWER_TABLE_DIMS)
    def test_every_entry_is_the_window_power(self, dim):
        rng = random.Random(dim)
        n_windows, size = power_table_shape(dim)
        width = size.bit_length() - 1
        for z in (2, P - 1, rng.randrange(2, P)):
            table = build_power_table(z, dim)
            assert table.shape == (n_windows, size)
            for w in range(n_windows):
                assert table[w].tolist() == [
                    pow(z, v << (w * width), P) for v in range(size)
                ]

    @pytest.mark.parametrize("dim", POWER_TABLE_DIMS)
    def test_window_rule(self, dim):
        bits = max(dim - 1, 1).bit_length()
        n_windows, size = power_table_shape(dim)
        assert n_windows == -(-bits // 8)
        width = size.bit_length() - 1
        assert width * n_windows >= bits
        assert (width - 1) * n_windows < bits

    @pytest.mark.parametrize("dim", POWER_TABLE_DIMS)
    def test_gathered_products_match_pow(self, dim):
        rng = random.Random(7)
        bases = [rng.randrange(2, P) for _ in range(4)]
        indices = np.array(
            sorted({0, dim - 1, dim // 2} | {rng.randrange(dim) for _ in range(20)}),
            dtype=np.int64,
        )
        expected = [[pow(z, int(i), P) for z in bases] for i in indices]
        # One table per base, and the bank's stacking on a trailing axis.
        for column, z in enumerate(bases):
            got = table_powers(build_power_table(z, dim), indices)
            assert got.tolist() == [row[column] for row in expected]
        stacked = np.stack([build_power_table(z, dim) for z in bases], axis=-1)
        vectorized = build_power_table(np.array(bases, dtype=np.uint64), dim)
        assert np.array_equal(vectorized, stacked)
        cells = np.arange(len(bases), dtype=np.int64)[np.newaxis, :]
        got = table_powers(stacked, indices[:, np.newaxis], cells)
        assert got.tolist() == expected

    def test_dim_2_40_takes_five_windows(self):
        assert power_table_shape(1 << 40) == (5, 256)
        assert build_power_table(3, 1 << 40).nbytes == 5 * 256 * 8


DIM = 1 << 18


def _signed_stream(seed, length=6000):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, DIM, size=length)
    indices[:3] = [0, DIM - 1, 1 << 12]
    deltas = rng.choice(np.array([-2, -1, 1, 3]), size=length)
    return indices.astype(np.int64), deltas.astype(np.int64)


class TestTablesAgainstPythonPow:
    """The table-fed kernel lands, in every cell, the fingerprint sum
    Python's ``pow()`` gives item by item."""

    @staticmethod
    def _python_fingerprints(bank, indices, deltas):
        levels = bank._levels(indices)
        expected = np.zeros(bank._fingerprint.shape, dtype=object)
        for s in range(bank.count):
            z = int(bank._z[s])
            terms = [d * pow(z, x, P) for x, d in zip(indices.tolist(), deltas.tolist())]
            for r in range(bank.n_reps):
                for level, term in zip(levels[s, r].tolist(), terms):
                    expected[s, r, level] = (expected[s, r, level] + term) % P
        return expected.astype(np.uint64)

    def test_sampler_planes(self):
        indices, deltas = _signed_stream(11)
        sampler = L0Sampler(DIM, 0.05, random.Random(5))
        sampler.update_batch(indices, deltas)
        bank = sampler._bank
        bank._flush_updates()
        assert np.array_equal(
            bank._fingerprint, self._python_fingerprints(bank, indices, deltas)
        )
        scalar = L0Sampler(DIM, 0.05, random.Random(5))
        for index, delta in zip(indices.tolist(), deltas.tolist()):
            scalar.update(index, delta)
        assert scalar.sample() == sampler.sample()

    def test_exact_bank_planes(self):
        indices, deltas = _signed_stream(12, length=2000)
        fused = L0SamplerBank(DIM, 3, 0.05, random.Random(6), mode="exact")
        fused.update_batch(indices, deltas)
        fused._flush_updates()
        assert np.array_equal(
            fused._fingerprint, self._python_fingerprints(fused, indices, deltas)
        )

    def test_sampler_table_is_three_windows_of_64(self):
        bank = L0Sampler(DIM, 0.05, random.Random(8))._bank
        table = bank._table[..., 0]
        assert table.shape == (3, 64)
        assert table.nbytes == 3 * 64 * 8  # 1.5 KB per sampler
        assert np.array_equal(table, build_power_table(int(bank._z[0]), DIM))
