"""GF(2^61 - 1) array kernels and the windowed fingerprint power tables.

Pins :func:`mulmod_p61` and :func:`_fold61` to Python-int arithmetic
(random arrays, limb boundaries, broadcasting, read-only operands), and
the power tables to ``pow(r, exponent, p)`` entry by entry, to the
square-and-multiply fallback plane by plane, and to their size.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import ssparse
from repro.sketch.hashing import PRIME_61, _fold61, mulmod_p61
from repro.sketch.l0 import L0Sampler, L0SamplerBank
from repro.sketch.ssparse import (
    build_power_tables,
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


POWER_TABLE_DIMS = [1, 2, 3, 64, 65, 4096, 1 << 16, 1 << 18, (1 << 18) + 1]


class TestPowerTables:
    @pytest.mark.parametrize("dim", POWER_TABLE_DIMS)
    def test_every_entry_is_the_window_power(self, dim):
        rng = random.Random(dim)
        r = _u64([2, P - 1, rng.randrange(2, P)])
        tables = build_power_tables(r, dim)
        n_windows, size = power_table_shape(dim)
        assert tables.shape == (n_windows, size, len(r))
        width = size.bit_length() - 1
        for w in range(n_windows):
            for v in range(size):
                assert tables[w, v].tolist() == [
                    pow(int(base), v << (w * width), P) for base in r
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
        r = _u64([rng.randrange(2, P) for _ in range(4)])
        tables = build_power_tables(r, dim)
        indices = np.array(
            sorted({0, dim - 1, dim // 2} | {rng.randrange(dim) for _ in range(20)}),
            dtype=np.int64,
        )
        cells = np.arange(len(r), dtype=np.int64)[np.newaxis, :]
        got = table_powers(tables, indices[:, np.newaxis], cells)
        assert got.tolist() == [
            [pow(int(base), int(i), P) for base in r] for i in indices
        ]

    def test_cap_declines_oversized_tables(self, monkeypatch):
        monkeypatch.setattr(ssparse, "POWER_TABLE_MAX_ENTRIES", 3 * 64 * 10 - 1)
        assert build_power_tables(_u64([3] * 10), 1 << 18) is None
        monkeypatch.setattr(ssparse, "POWER_TABLE_MAX_ENTRIES", 3 * 64 * 10)
        assert build_power_tables(_u64([3] * 10), 1 << 18) is not None


DIM = 1 << 18


def _signed_stream(seed, length=6000):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, DIM, size=length)
    indices[:3] = [0, DIM - 1, 1 << 12]
    deltas = rng.choice(np.array([-2, -1, 1, 3]), size=length)
    return indices.astype(np.int64), deltas.astype(np.int64)


class TestTablesAgainstFallback:
    """The tables are a pure cache: the powmod chain lands the same planes."""

    def test_sampler_planes(self, monkeypatch):
        indices, deltas = _signed_stream(11)
        tabled = L0Sampler(DIM, 0.05, random.Random(5))
        tabled.update_batch(indices, deltas)
        assert tabled._power_tables is not None
        monkeypatch.setattr(ssparse, "POWER_TABLE_MAX_ENTRIES", 0)
        chained = L0Sampler(DIM, 0.05, random.Random(5))
        chained.update_batch(indices, deltas)
        assert chained._power_tables is None
        assert np.array_equal(tabled._fingerprint, chained._fingerprint)
        assert np.array_equal(tabled._weight, chained._weight)
        assert np.array_equal(tabled._dot, chained._dot)
        assert tabled.sample() == chained.sample()

    def test_exact_bank_planes(self, monkeypatch):
        indices, deltas = _signed_stream(12)
        tabled = L0SamplerBank(DIM, 3, 0.05, random.Random(6), mode="exact")
        tabled.update_batch(indices, deltas)
        tabled_samples = tabled.sample_all()
        assert all(s._power_tables is not None for s in tabled._samplers)
        monkeypatch.setattr(ssparse, "POWER_TABLE_MAX_ENTRIES", 0)
        chained = L0SamplerBank(DIM, 3, 0.05, random.Random(6), mode="exact")
        chained.update_batch(indices, deltas)
        assert chained.sample_all() == tabled_samples
        assert all(s._power_tables is None for s in chained._samplers)
        assert np.array_equal(tabled._bank_fingerprint, chained._bank_fingerprint)
        assert np.array_equal(tabled._bank_weight, chained._bank_weight)
        assert np.array_equal(tabled._bank_dot, chained._bank_dot)

    def test_sampler_tables_are_a_quarter_of_full_width(self):
        sampler = L0Sampler(DIM, 0.05, random.Random(8))
        cells = sampler._r.size
        tables = sampler._ensure_power_tables()
        assert tables.shape == (3, 64) + sampler._r.shape
        assert tables.size == 3 * 64 * cells == (3 * 256 * cells) // 4
