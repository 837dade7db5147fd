"""Count-Min sketch (Cormode, Muthukrishnan 2005) — reference [17].

A ``rows x width`` grid of counters with one pairwise-independent hash
per row.  Point queries return the minimum over the item's cells:
an overestimate by at most ``e * L / width`` with probability
``1 - e^{-rows}``.  Unlike Misra–Gries / SpaceSaving this sketch
supports deletions (strict turnstile).
"""

from __future__ import annotations

import copy
import math
import random
from typing import List, Optional

import numpy as np

from repro.sketch.hashing import KWiseHash, KWiseHashStack, random_kwise
from repro.engine.protocol import BatchIngest
from repro.streams.columnar import group_slices
from repro.streams.edge import insert_signs


class CountMinSketch(BatchIngest):
    """Turnstile frequency sketch.

    Args:
        epsilon: additive error factor (error <= ``e * L * epsilon``).
        delta: failure probability per query.
        seed: hash seed.
    """

    #: Linear sketch: same-seed shards merge bit-identically for any
    #: stream split (see :mod:`repro.engine.protocol`).
    shard_routing = "any"
    #: Only same-seed twins merge: windows seed every bucket alike.
    merge_needs_equal_seeds = True

    def __init__(self, epsilon: float, delta: float, seed: int | None = None) -> None:
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.width = math.ceil(math.e / epsilon)
        self.rows = math.ceil(math.log(1.0 / delta))
        rng = random.Random(seed)
        self._hashes: List[KWiseHash] = [
            random_kwise(2, self.width, rng) for _ in range(self.rows)
        ]
        self._table = np.zeros((self.rows, self.width), dtype=np.int64)
        self._build_stack()

    def _build_stack(self) -> None:
        """(Re)build the fused-kernel hash stack from the per-row hashes."""
        self._hash_stack = KWiseHashStack(self._hashes)
        self._row_offsets = (
            np.arange(self.rows, dtype=np.int64)[:, np.newaxis] * self.width
        )

    def update(self, item: int, delta: int = 1) -> None:
        """Apply ``count[item] += delta`` (negative deltas allowed)."""
        for row_index, hash_function in enumerate(self._hashes):
            self._table[row_index, hash_function(item)] += delta

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a column of signed updates with one fused kernel.

        Deltas are netted per distinct item with one
        :func:`~repro.streams.columnar.group_slices` grouping and an
        ``np.add.reduceat`` over the grouped deltas (counter cells are
        commutative ``int64`` sums, so netting cannot change the final
        table), the distinct items are hashed for *all* rows in one
        stacked Horner evaluation, and the ``rows x unique``
        contributions land with a single flat ``np.add.at``.
        Bit-identical to calling :meth:`update` item by item.
        """
        items = np.asarray(items, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if len(items) == 0:
            return
        order, starts, _ = group_slices(items)
        unique = items[order[starts]]
        net = np.add.reduceat(deltas[order], starts)
        buckets = self._hash_stack.batch_rows(unique)
        np.add.at(
            self._table.reshape(-1),
            (buckets + self._row_offsets).reshape(-1),
            np.broadcast_to(net[np.newaxis, :], buckets.shape).reshape(-1),
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

    def finalize(self) -> "CountMinSketch":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        sketch stays queryable, so finalize returns the sketch itself."""
        return self

    def estimate(self, item: int) -> int:
        """Point query: min over the item's cells (overestimates)."""
        return int(self.estimate_batch(np.array([item], dtype=np.int64))[0])

    def estimate_batch(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`estimate` over a column of items.

        All rows' buckets come from the stacked hash kernel; the
        per-item minimum is one reduction along the row axis.
        """
        items = np.asarray(items, dtype=np.int64)
        if len(items) == 0:
            return np.zeros(0, dtype=np.int64)
        buckets = self._hash_stack.batch_rows(items)
        return self._table[np.arange(self.rows)[:, None], buckets].min(axis=0)

    def shares_hashes_with(self, other: "CountMinSketch") -> bool:
        """True when both sketches use identical hash functions (a
        precondition for merging)."""
        if (self.width, self.rows) != (other.width, other.rows):
            return False
        return all(
            mine.coefficients == theirs.coefficients
            for mine, theirs in zip(self._hashes, other._hashes)
        )

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Cell-wise sum of two sketches over disjoint sub-streams.

        Valid only when both sketches were built with the same seed
        (identical hash functions); the merged sketch answers queries
        for the concatenated stream with the usual guarantee.  The
        table is linear, so sharded-then-merged equals single-pass cell
        for cell.
        """
        if not isinstance(other, CountMinSketch):
            raise ValueError(
                f"cannot merge CountMinSketch with {type(other).__name__}"
            )
        if not self.shares_hashes_with(other):
            raise ValueError(
                "sketches use different hash functions; construct both "
                "with the same seed to merge"
            )
        merged = CountMinSketch.__new__(CountMinSketch)
        merged.width = self.width
        merged.rows = self.rows
        merged._hashes = self._hashes
        merged._table = self._table + other._table
        merged._hash_stack = self._hash_stack
        merged._row_offsets = self._row_offsets
        return merged

    def split(self, n_shards: int) -> List["CountMinSketch"]:
        """``n_shards`` zeroed same-hash shard sketches (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._table.any():
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        """All counters plus one hash per row."""
        return self.rows * self.width + sum(h.space_words() for h in self._hashes)
