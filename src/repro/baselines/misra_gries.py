"""Misra–Gries frequent elements (1982) — the paper's reference [37].

With ``k`` counters over a stream of length ``L``, every item's estimate
satisfies ``true - L/(k+1) <= estimate <= true``; in particular every
item of frequency above ``L/(k+1)`` survives in the summary.  Space is
``O(k)`` words — proportional to ``m/d`` when tuned for threshold ``d``
over a length-``m`` stream, the inverse behaviour §1.3 contrasts with
FEwW.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.protocol import BatchIngest


def fold_counters(combined: Dict[int, int], k: int) -> Dict[int, int]:
    """The mergeable-summaries ``k``-limit (Agarwal et al.): when more
    than ``k`` counters survive a key-wise addition, subtract the
    (k+1)-st largest count from all and drop the non-positive ones.

    Shared by Misra-Gries batch ingestion, :meth:`MisraGries.merge`,
    and the witness-carrying heuristic's merge — one copy of the subtle
    cutoff rule.
    """
    if len(combined) > k:
        cutoff = sorted(combined.values(), reverse=True)[k]
        combined = {
            item: count - cutoff
            for item, count in combined.items()
            if count > cutoff
        }
    return combined


class MisraGries(BatchIngest):
    """Deterministic frequent-elements summary with ``k`` counters.

    Args:
        k: number of counters; guarantees error at most ``L / (k+1)``
            on a length-``L`` stream.
    """

    #: Counter summaries are classically mergeable for any stream split
    #: (see :mod:`repro.engine.protocol`).
    shard_routing = "any"
    DELETIONS_REJECTED = "Misra-Gries supports insertion-only streams"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._counters: Dict[int, int] = {}
        self._length = 0

    def update(self, item: int, weight: int = 1) -> None:
        """Process ``weight`` occurrences of ``item``."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._length += weight
        self._apply(item, weight)

    def _apply(self, item: int, weight: int) -> None:
        """Counter maintenance without length accounting (recursive for
        weights that span a decrement round)."""
        if item in self._counters:
            self._counters[item] += weight
            return
        if len(self._counters) < self.k:
            self._counters[item] = weight
            return
        # Decrement-all step; weights > 1 handled by repeated decrement.
        decrement = min(weight, min(self._counters.values()))
        survivors = {}
        for key, count in self._counters.items():
            if count > decrement:
                survivors[key] = count - decrement
        self._counters = survivors
        leftover = weight - decrement
        if leftover > 0:
            self._apply(item, leftover)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Chunk-accumulate-then-merge batch ingestion.

        Exact chunk frequencies are computed with one ``np.unique`` pass
        (an error-free summary of the chunk) and folded into the running
        counters with the mergeable-summaries construction — add
        key-wise, then subtract the (k+1)-st largest count if more than
        ``k`` survive.  The result is a valid Misra-Gries summary of
        everything seen (undercount at most ``L/(k+1)``), though counter
        values may differ from the scalar :meth:`update` decrement
        schedule, which is arrival-order dependent.

        Unlike SpaceSaving and the sketches, this summary keeps
        ``np.unique(return_counts=True)`` rather than
        :func:`~repro.streams.columnar.group_slices`: it needs neither
        first positions nor an inverse, and a plain sort of the chunk is
        cheaper than any stable grouping.
        """
        self.check_batch(a, b, sign)
        if len(a) == 0:
            return
        items, counts = np.unique(np.asarray(a, dtype=np.int64), return_counts=True)
        combined: Dict[int, int] = dict(self._counters)
        for item, count in zip(items.tolist(), counts.tolist()):
            combined[item] = combined.get(item, 0) + count
        self._counters = self._fold(combined)
        self._length += len(a)

    def _fold(self, combined: Dict[int, int]) -> Dict[int, int]:
        """Apply :func:`fold_counters` with this summary's ``k``."""
        return fold_counters(combined, self.k)

    def finalize(self) -> "MisraGries":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        summary stays queryable, so finalize returns the summary itself."""
        return self

    def estimate(self, item: int) -> int:
        """Lower-bound frequency estimate (0 if not tracked)."""
        return self._counters.get(item, 0)

    def error_bound(self) -> float:
        """Maximum undercount: ``L / (k+1)``."""
        return self._length / (self.k + 1)

    def candidates(self, threshold: int) -> List[Tuple[int, int]]:
        """Items whose true count may reach ``threshold``, with estimates.

        Includes every item whose estimate plus the error bound reaches
        the threshold — a superset of the true heavy hitters.
        """
        bound = self.error_bound()
        return sorted(
            (item, count)
            for item, count in self._counters.items()
            if count + bound >= threshold
        )

    def merge(self, other: "MisraGries") -> "MisraGries":
        """Combine two summaries of disjoint sub-streams (mergeability).

        Counters are added key-wise; if more than ``k`` survive, the
        (k+1)-st largest count is subtracted from all (the standard
        mergeable-summaries construction), preserving the
        ``error <= L_total / (k+1)`` guarantee for the concatenated
        stream.  Both summaries must have the same ``k``.
        """
        if not isinstance(other, MisraGries):
            raise ValueError(
                f"cannot merge MisraGries with {type(other).__name__}"
            )
        if self.k != other.k:
            raise ValueError(f"cannot merge k={self.k} with k={other.k}")
        combined: Dict[int, int] = dict(self._counters)
        for item, count in other._counters.items():
            combined[item] = combined.get(item, 0) + count
        merged = MisraGries(self.k)
        merged._counters = self._fold(combined)
        merged._length = self._length + other._length
        return merged

    def split(self, n_shards: int) -> List["MisraGries"]:
        """``n_shards`` empty same-``k`` shard summaries (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._length:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        """Two words per counter (item id + count) plus the length."""
        return 2 * len(self._counters) + 1
