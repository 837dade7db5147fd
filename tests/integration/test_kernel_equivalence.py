"""Frozen-legacy equivalence for the fused sketch kernels.

The fused kernels (stacked-hash CountSketch/CountMin scatter, the
array-backed SpaceSaving store, Algorithm 3's netting pass) replaced
per-row / per-item Python loops.  These tests pin the new kernels
against *frozen copies of the legacy semantics* embedded below — not
against the current scalar paths alone — so a future "optimisation"
that silently changes results cannot pass by being compared to itself.

* CountSketch / CountMin: bit-identical tables and estimates.
* Algorithm 3: insert-only ``sign=None`` chunks answer like one
  update per chunk.
* SpaceSaving: guarantee-identical *and* state-identical — same
  estimates, same overestimate bounds, same eviction tie-break order
  (the legacy ``min()`` evicts the first minimal counter in tracking
  order; the fused composite-key argmin must agree exactly).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.baselines.count_min import CountMinSketch
from repro.baselines.count_sketch import CountSketch
from repro.baselines.space_saving import SpaceSaving
from repro.core.insertion_deletion import InsertionDeletionFEwW


# ----------------------------------------------------------------------
# Frozen legacy kernels (verbatim semantics of the pre-fusion code).
# ----------------------------------------------------------------------


def legacy_count_sketch_table(sketch: CountSketch, chunks) -> np.ndarray:
    """The table the legacy per-row loop would produce for ``chunks``.

    Frozen copy of the old ``update_batch``: one ``batch`` hash
    evaluation and one ``np.add.at`` per row, per chunk.
    """
    table = np.zeros((sketch.rows, sketch.width), dtype=np.int64)
    for items, deltas in chunks:
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        for row_index in range(sketch.rows):
            buckets = sketch._bucket_hashes[row_index].batch(items)
            signs = 2 * sketch._sign_hashes[row_index].batch(items) - 1
            np.add.at(table[row_index], buckets, signs * deltas)
    return table


def legacy_count_sketch_estimate(sketch: CountSketch, item: int) -> int:
    """Frozen copy of the old median-of-rows point query."""
    values = []
    for row_index in range(sketch.rows):
        bucket = sketch._bucket_hashes[row_index](item)
        sign = 1 if sketch._sign_hashes[row_index](item) == 1 else -1
        values.append(sign * int(sketch._table[row_index, bucket]))
    return round(statistics.median(values))


def legacy_count_min_table(sketch: CountMinSketch, chunks) -> np.ndarray:
    """The table the legacy per-row CountMin loop would produce."""
    table = np.zeros((sketch.rows, sketch.width), dtype=np.int64)
    for items, deltas in chunks:
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        for row_index, hash_function in enumerate(sketch._hashes):
            np.add.at(table[row_index], hash_function.batch(items), deltas)
    return table


def legacy_count_min_estimate(sketch: CountMinSketch, item: int) -> int:
    """Frozen copy of the old min-over-cells point query."""
    return int(
        min(
            sketch._table[row_index, hash_function(item)]
            for row_index, hash_function in enumerate(sketch._hashes)
        )
    )


class LegacySpaceSaving:
    """Frozen copy of the dict-backed SpaceSaving (pre array store).

    Eviction: ``min()`` over the counter dict keyed by value — the
    *first* minimal counter in insertion (= tracking) order wins ties.
    Batch ingestion: one ``np.unique`` pass applied as weighted scalar
    updates in order of first appearance.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self._counters: Dict[int, int] = {}
        self._overestimates: Dict[int, int] = {}
        self._length = 0

    def update(self, item: int, weight: int = 1) -> None:
        self._length += weight
        if item in self._counters:
            self._counters[item] += weight
            return
        if len(self._counters) < self.k:
            self._counters[item] = weight
            self._overestimates[item] = 0
            return
        victim = min(self._counters, key=self._counters.__getitem__)
        inherited = self._counters.pop(victim)
        self._overestimates.pop(victim, None)
        self._counters[item] = inherited + weight
        self._overestimates[item] = inherited

    def process_batch(self, a, b=None, sign=None) -> None:
        items, first_positions, counts = np.unique(
            np.asarray(a, dtype=np.int64),
            return_index=True,
            return_counts=True,
        )
        appearance = np.argsort(first_positions, kind="stable")
        for slot in appearance.tolist():
            self.update(int(items[slot]), int(counts[slot]))

    def estimate(self, item: int) -> int:
        return self._counters.get(item, 0)

    def guaranteed_count(self, item: int) -> int:
        if item not in self._counters:
            return 0
        return self._counters[item] - self._overestimates.get(item, 0)

    def candidates(self, threshold: int) -> List[Tuple[int, int]]:
        return sorted(
            (item, count)
            for item, count in self._counters.items()
            if count >= threshold
        )


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------


def turnstile_chunks(seed: int, n_items: int = 300, chunks: int = 6,
                     chunk_len: int = 2048):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(chunks):
        items = rng.integers(0, n_items, chunk_len).astype(np.int64)
        deltas = rng.choice(
            np.array([-2, -1, 1, 1, 2], dtype=np.int64), chunk_len
        )
        out.append((items, deltas))
    return out


def zipf_items(seed: int, n_items: int, length: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = 1.0 / ranks ** 1.3
    return rng.choice(
        n_items, size=length, p=weights / weights.sum()
    ).astype(np.int64)


#: Injective id maps that move a workload's narrow ids onto each
#: grouping path of :func:`repro.streams.columnar.group_slices`: the
#: 16-bit radix sort (``narrow``), the composite-key sort (ids shifted
#: past 2^16, negative ids) and the stable-argsort fallback (ids near
#: 2^62 spread 2^50 apart, whose composite keys overflow ``int64``).
ID_MAPS = {
    "narrow": lambda ids: ids,
    "past-2^16": lambda ids: ids + (1 << 16),
    "negative": lambda ids: -1 - 3 * ids,
    "near-2^62": lambda ids: (1 << 62) + ids * (1 << 50),
}


# ----------------------------------------------------------------------
# CountSketch / CountMin: bit identity.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rows", [4, 5])
def test_count_sketch_fused_kernel_bit_identical(rows):
    chunks = turnstile_chunks(seed=11)
    sketch = CountSketch(128, rows=rows, seed=7)
    for items, deltas in chunks:
        sketch.update_batch(items, deltas)
    assert np.array_equal(
        sketch._table, legacy_count_sketch_table(sketch, chunks)
    )
    queries = list(range(0, 300, 7))
    fused = sketch.estimate_batch(np.array(queries, dtype=np.int64))
    for query, value in zip(queries, fused.tolist()):
        assert value == legacy_count_sketch_estimate(sketch, query)
        assert sketch.estimate(query) == value


@pytest.mark.parametrize("id_map", ID_MAPS.values(), ids=ID_MAPS.keys())
def test_count_sketch_scalar_and_batch_agree(id_map):
    chunks = [
        (id_map(items), deltas)
        for items, deltas in turnstile_chunks(seed=23, chunks=2, chunk_len=512)
    ]
    batched = CountSketch(64, rows=5, seed=3)
    scalar = CountSketch(64, rows=5, seed=3)
    for items, deltas in chunks:
        batched.update_batch(items, deltas)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
    assert np.array_equal(batched._table, scalar._table)


def test_count_min_fused_kernel_bit_identical():
    chunks = turnstile_chunks(seed=29)
    sketch = CountMinSketch(0.05, 0.05, seed=13)
    for items, deltas in chunks:
        sketch.update_batch(items, deltas)
    assert np.array_equal(
        sketch._table, legacy_count_min_table(sketch, chunks)
    )
    queries = np.arange(0, 300, 5, dtype=np.int64)
    fused = sketch.estimate_batch(queries)
    for query, value in zip(queries.tolist(), fused.tolist()):
        assert value == legacy_count_min_estimate(sketch, query)
        assert sketch.estimate(query) == value


@pytest.mark.parametrize("id_map", ID_MAPS.values(), ids=ID_MAPS.keys())
def test_count_min_scalar_and_batch_agree(id_map):
    chunks = [
        (id_map(items), deltas)
        for items, deltas in turnstile_chunks(seed=31, chunks=2, chunk_len=512)
    ]
    batched = CountMinSketch(0.05, 0.05, seed=5)
    scalar = CountMinSketch(0.05, 0.05, seed=5)
    for items, deltas in chunks:
        batched.update_batch(items, deltas)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
    assert np.array_equal(batched._table, scalar._table)


def test_count_sketch_merge_preserves_fused_kernel():
    """Merged sketches must keep working fused stacks (split + merge)."""
    chunks = turnstile_chunks(seed=37, chunks=4, chunk_len=1024)
    single = CountSketch(64, rows=5, seed=11)
    shards = CountSketch(64, rows=5, seed=11).split(2)
    for index, (items, deltas) in enumerate(chunks):
        single.update_batch(items, deltas)
        shards[index % 2].update_batch(items, deltas)
    merged = shards[0].merge(shards[1])
    assert np.array_equal(merged._table, single._table)
    probe = np.arange(0, 100, dtype=np.int64)
    assert np.array_equal(
        merged.estimate_batch(probe), single.estimate_batch(probe)
    )


# ----------------------------------------------------------------------
# SpaceSaving: guarantee identity against the frozen dict legacy.
# ----------------------------------------------------------------------


def assert_space_saving_identical(new: SpaceSaving, old: LegacySpaceSaving,
                                  n_items: int):
    """Full state identity: values, overestimate bounds, and order.

    Comparing ``list(items())`` (not just the dict contents) pins the
    eviction tie-break order — the counter dicts enumerate in tracking
    order on both sides.
    """
    assert list(new._counters.items()) == list(old._counters.items())
    assert list(new._overestimates.items()) == list(
        old._overestimates.items()
    )
    assert new._length == old._length
    for item in range(n_items):
        assert new.estimate(item) == old.estimate(item)
        assert new.guaranteed_count(item) == old.guaranteed_count(item)
    for threshold in (1, 5, 50):
        assert new.candidates(threshold) == old.candidates(threshold)


def test_space_saving_scalar_updates_match_legacy():
    new, old = SpaceSaving(16), LegacySpaceSaving(16)
    items = zipf_items(seed=41, n_items=200, length=4000)
    weights = (np.random.default_rng(42).integers(1, 4, 4000)).astype(np.int64)
    for item, weight in zip(items.tolist(), weights.tolist()):
        new.update(item, weight)
        old.update(item, weight)
    assert_space_saving_identical(new, old, 200)


@pytest.mark.parametrize("id_map", ID_MAPS.values(), ids=ID_MAPS.keys())
def test_space_saving_batch_matches_legacy_batch(id_map):
    new, old = SpaceSaving(24), LegacySpaceSaving(24)
    items = id_map(zipf_items(seed=43, n_items=400, length=20000))
    for start in range(0, len(items), 4096):
        chunk = items[start:start + 4096]
        new.process_batch(chunk, chunk)
        old.process_batch(chunk)
    assert_space_saving_identical(new, old, 400)


def test_space_saving_eviction_tie_break_order():
    """All-distinct unit weights force maximal eviction with constant
    ties — the case where tie-break order is the entire answer."""
    new, old = SpaceSaving(4), LegacySpaceSaving(4)
    for item in range(64):
        new.update(item)
        old.update(item)
    assert_space_saving_identical(new, old, 64)
    # And through the batch path, chunk boundaries mid-cascade.
    new2, old2 = SpaceSaving(4), LegacySpaceSaving(4)
    stream = np.arange(64, dtype=np.int64)
    for start in range(0, 64, 10):
        chunk = stream[start:start + 10]
        new2.process_batch(chunk, chunk)
        old2.process_batch(chunk)
    assert_space_saving_identical(new2, old2, 64)


def test_space_saving_interleaved_scalar_and_batch():
    new, old = SpaceSaving(8), LegacySpaceSaving(8)
    items = zipf_items(seed=47, n_items=100, length=3000)
    cursor = 0
    for step, size in enumerate([500, 1, 700, 3, 900]):
        chunk = items[cursor:cursor + size]
        cursor += size
        if step % 2 == 0:
            new.process_batch(chunk, chunk)
            old.process_batch(chunk)
        else:
            for item in chunk.tolist():
                new.update(item)
                old.update(item)
    assert_space_saving_identical(new, old, 100)


# ----------------------------------------------------------------------
# Algorithm 3: the cached insert-signs path.
# ----------------------------------------------------------------------


def test_alg3_insert_only_chunks_match_chunk_size_one():
    """sign=None chunks (the cached insert-signs path) stay identical."""
    n, m = 32, 40
    rng = np.random.default_rng(59)
    a = rng.integers(0, n, 3000).astype(np.int64)
    b = rng.integers(0, m, 3000).astype(np.int64)
    batched = InsertionDeletionFEwW(n, m, 6, 2, seed=21, scale=0.2)
    scalar = InsertionDeletionFEwW(n, m, 6, 2, seed=21, scale=0.2)
    for start in range(0, len(a), 512):
        stop = start + 512
        batched.process_batch(a[start:stop], b[start:stop], None)
    for index in range(len(a)):
        scalar.process_batch(a[index : index + 1], b[index : index + 1], None)
    assert batched.result() == scalar.result()
