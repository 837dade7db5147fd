"""CountSketch (Charikar, Chen, Farach-Colton 2002) — references [14, 15].

A ``rows x width`` grid with a bucket hash and a ±1 sign hash per row.
Point queries return the *median* over rows of the signed cell values —
an unbiased estimator with error ``O(L2-norm / sqrt(width))`` per row,
boosted by the median.  Supports turnstile updates.
"""

from __future__ import annotations

import copy
import random
from typing import List, Optional

import numpy as np

from repro.sketch.hashing import KWiseHash, KWiseHashStack, random_kwise
from repro.engine.protocol import BatchIngest
from repro.streams.columnar import group_slices
from repro.streams.edge import insert_signs


class CountSketch(BatchIngest):
    """Turnstile frequency sketch with unbiased point queries.

    Args:
        width: buckets per row.
        rows: number of rows (median boosting); odd values recommended.
        seed: hash seed.
    """

    #: Linear sketch: same-seed shards merge bit-identically for any
    #: stream split (see :mod:`repro.engine.protocol`).
    shard_routing = "any"
    #: Only same-seed twins merge: windows seed every bucket alike.
    merge_needs_equal_seeds = True

    def __init__(self, width: int, rows: int = 5, seed: int | None = None) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        self.width = width
        self.rows = rows
        rng = random.Random(seed)
        self._bucket_hashes: List[KWiseHash] = [
            random_kwise(2, width, rng) for _ in range(rows)
        ]
        self._sign_hashes: List[KWiseHash] = [
            random_kwise(2, 2, rng) for _ in range(rows)
        ]
        self._table = np.zeros((rows, width), dtype=np.int64)
        self._build_stacks()

    def _build_stacks(self) -> None:
        """(Re)build the fused-kernel hash stacks from the per-row hashes.

        Buckets and signs for all rows come from one broadcast Horner
        evaluation each; ``_row_offsets`` turns per-row buckets into flat
        indices of the C-contiguous table for a single scatter-add.
        """
        self._bucket_stack = KWiseHashStack(self._bucket_hashes)
        self._sign_stack = KWiseHashStack(self._sign_hashes)
        self._row_offsets = (
            np.arange(self.rows, dtype=np.int64)[:, np.newaxis] * self.width
        )

    def _sign(self, row: int, item: int) -> int:
        return 1 if self._sign_hashes[row](item) == 1 else -1

    def update(self, item: int, delta: int = 1) -> None:
        """Apply ``count[item] += delta``."""
        for row_index in range(self.rows):
            bucket = self._bucket_hashes[row_index](item)
            self._table[row_index, bucket] += self._sign(row_index, item) * delta

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a column of signed updates with one fused kernel.

        Deltas are first netted per distinct item with one
        :func:`~repro.streams.columnar.group_slices` grouping and an
        ``np.add.reduceat`` over the grouped deltas (cells are commutative
        ``int64`` sums, so netting cannot change the final table), the
        distinct items are hashed for *all* rows in one stacked Horner
        evaluation, and the ``rows x unique`` signed contributions are
        scattered with a single flat ``np.add.at``.  Bit-identical to
        calling :meth:`update` item by item.
        """
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if len(items) == 0:
            return
        order, starts, _ = group_slices(items)
        unique = items[order[starts]]
        net = np.add.reduceat(deltas[order], starts)
        buckets = self._bucket_stack.batch_rows(unique)
        signs = 2 * self._sign_stack.batch_rows(unique) - 1
        np.add.at(
            self._table.reshape(-1),
            (buckets + self._row_offsets).reshape(-1),
            (signs * net[np.newaxis, :]).reshape(-1),
        )

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Column adapter: A-vertices are the items, signs the deltas."""
        a = np.ascontiguousarray(a, dtype=np.int64)
        if sign is None:
            sign = insert_signs(len(a))
        self.update_batch(a, sign)

    def finalize(self) -> "CountSketch":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        sketch stays queryable, so finalize returns the sketch itself."""
        return self

    def estimate(self, item: int) -> int:
        """Median-of-rows point query (unbiased, can under- or overshoot)."""
        return int(self.estimate_batch(np.array([item], dtype=np.int64))[0])

    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`estimate` over a column of items.

        All rows' buckets and signs come from the stacked hash kernel;
        the per-item median over rows is taken with one sort along the
        row axis.  For odd ``rows`` the median is the exact middle
        ``int64``; for even ``rows`` the two middle values are averaged
        and rounded exactly as ``round(statistics.median(...))`` does.
        """
        items = np.asarray(items, dtype=np.int64)
        if len(items) == 0:
            return np.zeros(0, dtype=np.int64)
        buckets = self._bucket_stack.batch_rows(items)
        signs = 2 * self._sign_stack.batch_rows(items) - 1
        values = np.sort(signs * self._table[np.arange(self.rows)[:, None], buckets], axis=0)
        mid = self.rows // 2
        if self.rows % 2:
            return values[mid].astype(np.int64)
        low, high = values[mid - 1], values[mid]
        return np.array(
            [round((int(l) + int(h)) / 2) for l, h in zip(low, high)],
            dtype=np.int64,
        )

    def shares_hashes_with(self, other: "CountSketch") -> bool:
        """True when both sketches use identical bucket and sign hashes
        (a precondition for merging)."""
        if (self.width, self.rows) != (other.width, other.rows):
            return False
        return all(
            mine.coefficients == theirs.coefficients
            for mine, theirs in zip(
                self._bucket_hashes + self._sign_hashes,
                other._bucket_hashes + other._sign_hashes,
            )
        )

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Cell-wise sum of two sketches over disjoint sub-streams.

        Valid only when both sketches were built with the same seed
        (identical bucket and sign hashes); the table is linear, so
        sharded-then-merged equals single-pass cell for cell.
        """
        if not isinstance(other, CountSketch):
            raise ValueError(
                f"cannot merge CountSketch with {type(other).__name__}"
            )
        if not self.shares_hashes_with(other):
            raise ValueError(
                "sketches use different hash functions; construct both "
                "with the same seed to merge"
            )
        merged = CountSketch.__new__(CountSketch)
        merged.width = self.width
        merged.rows = self.rows
        merged._bucket_hashes = self._bucket_hashes
        merged._sign_hashes = self._sign_hashes
        merged._table = self._table + other._table
        merged._bucket_stack = self._bucket_stack
        merged._sign_stack = self._sign_stack
        merged._row_offsets = self._row_offsets
        return merged

    def split(self, n_shards: int) -> List["CountSketch"]:
        """``n_shards`` zeroed same-hash shard sketches (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._table.any():
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        """All counters plus two hashes per row."""
        hash_words = sum(h.space_words() for h in self._bucket_hashes) + sum(
            h.space_words() for h in self._sign_hashes
        )
        return self.rows * self.width + hash_words
