"""SpaceSaving (Metwally, Agrawal, El Abbadi 2005) — references [35, 36].

Maintains ``k`` (item, count) pairs; an unseen item replaces the
current minimum, inheriting its count plus one.  Every estimate
overcounts by at most the minimum counter, which is at most ``L / k``.

The counter store is array-backed: per-slot NumPy columns for values,
overestimates, and tracking-order stamps, plus item↔slot maps.  Eviction
is an ``np.argmin`` over a fused ``value * 2^20 + stamp`` key column, so
the victim is the minimum-valued counter with the *oldest* stamp — the
same item the classic dict implementation's ``min()`` scan returned
(dict insertion order is tracking order, and ``min`` keeps the first
minimum it sees).  When total weight approaches the fused key's value
capacity the summary switches to a wide eviction path over the separate
value/stamp columns; semantics are identical either way.
"""

from __future__ import annotations

import copy
import heapq
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.protocol import BatchIngest
from repro.streams.columnar import group_slices

#: Stamps occupy the low bits of the fused eviction key.
_STAMP_MOD = 1 << 20

#: Counter values below this fit in the fused key's high bits with slack
#: (``VALUE_CAP * STAMP_MOD == 2^62 < 2^63``).  No counter can exceed the
#: total processed weight, so ``_length`` is checked against this cap.
_VALUE_CAP = 1 << 42


class SpaceSaving(BatchIngest):
    """Frequent-elements summary with ``k`` always-full counters.

    Args:
        k: number of counters; overestimate error is at most ``L/k``.
    """

    #: Counter summaries are classically mergeable for any stream split
    #: (see :mod:`repro.engine.protocol`).
    shard_routing = "any"
    DELETIONS_REJECTED = "SpaceSaving supports insertion-only streams"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._values = np.zeros(k, dtype=np.int64)
        #: per-slot upper bound on the overcount (the evicted count).
        self._overs = np.zeros(k, dtype=np.int64)
        #: tracking-order stamps: lower stamp == started tracking earlier.
        self._stamps = np.zeros(k, dtype=np.int64)
        #: fused ``value * _STAMP_MOD + stamp`` eviction keys.
        self._keys = np.zeros(k, dtype=np.int64)
        self._slot_items: List[int] = []
        self._slots: Dict[int, int] = {}
        self._size = 0
        self._next_stamp = 0
        self._wide = False
        self._length = 0

    @property
    def _counters(self) -> Dict[int, int]:
        """Tracked counts as a dict in tracking order (oldest first).

        Reconstructed view of the array store; matches the dict the
        classic implementation maintained (insertion order = tracking
        order).  For reading only — mutations do not write back.
        """
        items, values, _ = self._tracked()
        return dict(zip(items, values))

    @property
    def _overestimates(self) -> Dict[int, int]:
        """Per-item overcount bounds in tracking order (read-only view)."""
        items, _, overs = self._tracked()
        return dict(zip(items, overs))

    def _tracked(self) -> Tuple[List[int], List[int], List[int]]:
        """(items, values, overestimates) in tracking order — one
        argsort over the stamps, shared by all three columns."""
        order = np.argsort(self._stamps[: self._size], kind="stable")
        slot_items = self._slot_items
        return (
            [slot_items[slot] for slot in order.tolist()],
            self._values[order].tolist(),
            self._overs[order].tolist(),
        )

    def _take_stamp(self) -> int:
        """Next tracking-order stamp, renumbering when the fused-key
        stamp field would overflow (wide mode has no stamp limit)."""
        if not self._wide and self._next_stamp >= _STAMP_MOD:
            self._renumber_stamps()
        stamp = self._next_stamp
        self._next_stamp += 1
        return stamp

    def _renumber_stamps(self) -> None:
        """Compact stamps to ``0..size-1`` preserving tracking order."""
        size = self._size
        order = np.argsort(self._stamps[:size], kind="stable")
        ranks = np.empty(size, dtype=np.int64)
        ranks[order] = np.arange(size, dtype=np.int64)
        self._stamps[:size] = ranks
        self._keys[:size] = self._values[:size] * _STAMP_MOD + ranks
        self._next_stamp = size

    def _widen(self) -> None:
        """Abandon fused keys; evict via the value/stamp columns instead."""
        self._wide = True

    def update(self, item: int, weight: int = 1) -> None:
        """Process ``weight`` occurrences of ``item``."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        self._length += weight
        if not self._wide and self._length >= _VALUE_CAP:
            self._widen()
        self._apply(item, weight)

    def _apply(self, item: int, weight: int) -> None:
        """Counter maintenance without length accounting or validation."""
        slot = self._slots.get(item)
        if slot is not None:
            self._values[slot] += weight
            if not self._wide:
                self._keys[slot] += weight * _STAMP_MOD
            return
        if self._size < self.k:
            slot = self._size
            self._size += 1
            self._slot_items.append(item)
            self._slots[item] = slot
            stamp = self._take_stamp()
            self._values[slot] = weight
            self._overs[slot] = 0
            self._stamps[slot] = stamp
            if not self._wide:
                self._keys[slot] = weight * _STAMP_MOD + stamp
            return
        if self._wide:
            minimum = self._values.min()
            candidates = np.flatnonzero(self._values == minimum)
            if len(candidates) == 1:
                slot = int(candidates[0])
            else:
                slot = int(candidates[np.argmin(self._stamps[candidates])])
        else:
            slot = int(np.argmin(self._keys))
        inherited = int(self._values[slot])
        del self._slots[self._slot_items[slot]]
        self._slot_items[slot] = item
        self._slots[item] = slot
        stamp = self._take_stamp()
        value = inherited + weight
        self._values[slot] = value
        self._overs[slot] = inherited
        self._stamps[slot] = stamp
        if not self._wide:
            self._keys[slot] = value * _STAMP_MOD + stamp

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Weighted batch ingestion.

        The chunk is grouped once by
        :func:`~repro.streams.columnar.group_slices`: each distinct
        item's first position is ``order[starts]`` and its count
        ``ends - starts``.  The items are then applied as weighted
        updates in order of first appearance (one argsort over distinct
        positions) — straight into the array store through the heap
        cascade of :meth:`_batch_apply`, with no public ``update`` call
        per distinct item.  This matches scalar :meth:`update` calls
        exactly when the chunk is grouped by item, and in general
        preserves SpaceSaving's invariants (estimates upper-bound true
        counts, the minimum counter bounds the overestimate) while the
        per-counter values may differ from a fully interleaved arrival
        order.
        """
        self.check_batch(a, b, sign)
        if len(a) == 0:
            return
        a = np.ascontiguousarray(a, dtype=np.int64)
        order, starts, ends = group_slices(a)
        first_positions = order[starts]
        appearance = np.argsort(first_positions)
        self._length += len(a)
        if not self._wide and self._length >= _VALUE_CAP:
            self._widen()
        pairs = zip(
            a[first_positions[appearance]].tolist(),
            (ends - starts)[appearance].tolist(),
        )
        if self._wide or len(starts) >= _STAMP_MOD - self.k:
            apply = self._apply
            for item, weight in pairs:
                apply(item, weight)
        else:
            self._batch_apply(pairs, len(starts))

    def _batch_apply(self, pairs: Iterable[Tuple[int, int]], distinct: int) -> None:
        """Sequential weighted updates at batch speed (non-wide mode).

        Fused keys order exactly by ``(value, stamp)``, so the eviction
        cascade runs on a lazy-invalidation ``heapq`` of plain-int keys —
        no per-item NumPy scalar ops — and the victim of every pop is the
        same counter the column ``argmin`` (and the classic dict ``min``
        scan) would pick.  Stale heap entries are recognised because keys
        embed unique stamps: a key missing from ``key_slot`` was
        superseded.  The NumPy columns are written back once at the end;
        the result is identical to applying the updates one by one.
        """
        if self._next_stamp + distinct >= _STAMP_MOD:
            self._renumber_stamps()
        size = self._size
        keys = self._keys[:size].tolist()
        overs = self._overs[:size].tolist()
        heap = keys.copy()
        heapq.heapify(heap)
        key_slot = {key: slot for slot, key in enumerate(keys)}
        slots = self._slots
        slot_items = self._slot_items
        k = self.k
        next_stamp = self._next_stamp
        push = heapq.heappush
        pop = heapq.heappop
        for item, weight in pairs:
            slot = slots.get(item)
            if slot is not None:
                old_key = keys[slot]
                new_key = old_key + weight * _STAMP_MOD
                keys[slot] = new_key
                del key_slot[old_key]
                key_slot[new_key] = slot
                push(heap, new_key)
                continue
            if len(keys) < k:
                slot = len(keys)
                key = weight * _STAMP_MOD + next_stamp
                next_stamp += 1
                keys.append(key)
                overs.append(0)
                slot_items.append(item)
                slots[item] = slot
                key_slot[key] = slot
                push(heap, key)
                continue
            while True:
                key = pop(heap)
                slot = key_slot.get(key)
                if slot is not None:
                    break
            inherited = key // _STAMP_MOD
            del key_slot[key]
            del slots[slot_items[slot]]
            slot_items[slot] = item
            slots[item] = slot
            new_key = (inherited + weight) * _STAMP_MOD + next_stamp
            next_stamp += 1
            keys[slot] = new_key
            overs[slot] = inherited
            key_slot[new_key] = slot
            push(heap, new_key)
        self._next_stamp = next_stamp
        size = len(keys)
        self._size = size
        fused = np.array(keys, dtype=np.int64)
        self._keys[:size] = fused
        self._values[:size] = fused // _STAMP_MOD
        self._stamps[:size] = fused % _STAMP_MOD
        self._overs[:size] = overs

    def finalize(self) -> "SpaceSaving":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        summary stays queryable, so finalize returns the summary itself."""
        return self

    def estimate(self, item: int) -> int:
        """Upper-bound frequency estimate (0 if not tracked)."""
        slot = self._slots.get(item)
        return int(self._values[slot]) if slot is not None else 0

    def guaranteed_count(self, item: int) -> int:
        """Certified lower bound: estimate minus the inherited overcount."""
        slot = self._slots.get(item)
        if slot is None:
            return 0
        return int(self._values[slot] - self._overs[slot])

    def candidates(self, threshold: int) -> List[Tuple[int, int]]:
        """Tracked items whose estimate reaches ``threshold``."""
        return sorted(
            (self._slot_items[slot], int(self._values[slot]))
            for slot in range(self._size)
            if self._values[slot] >= threshold
        )

    def _load(
        self, items: List[int], values: List[int], overs: List[int], length: int
    ) -> None:
        """Populate an empty summary column by column, stamping items in
        list order (used by :meth:`merge`)."""
        size = len(items)
        self._size = size
        self._slot_items = list(items)
        self._slots = dict(zip(items, range(size)))
        self._values[:size] = values
        self._overs[:size] = overs
        self._stamps[:size] = np.arange(size, dtype=np.int64)
        self._next_stamp = size
        self._length = length
        if length >= _VALUE_CAP:
            self._widen()
        else:
            self._keys[:size] = (
                self._values[:size] * _STAMP_MOD + self._stamps[:size]
            )

    def clone(self) -> "SpaceSaving":
        """An independent duplicate built from array and container
        copies — equal to ``copy.deepcopy`` without the graph walk (the
        window fold clones its seed bucket on every probe)."""
        dup = object.__new__(SpaceSaving)
        dup.k = self.k
        dup._values = self._values.copy()
        dup._overs = self._overs.copy()
        dup._stamps = self._stamps.copy()
        dup._keys = self._keys.copy()
        dup._slot_items = list(self._slot_items)
        dup._slots = dict(self._slots)
        dup._size = self._size
        dup._next_stamp = self._next_stamp
        dup._wide = self._wide
        dup._length = self._length
        return dup

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Combine two summaries of disjoint sub-streams (mergeability).

        The classical mergeable-summaries construction (Agarwal et al.):
        each item's merged estimate adds its per-summary estimates, where
        an item untracked by a full summary contributes that summary's
        minimum counter (an upper bound on its true count there); then
        only the ``k`` largest merged counters are kept.  The merged
        summary still brackets every item's true count:
        ``true <= estimate <= true + L_total / k``.  Both summaries must
        have the same ``k``.  Neither operand is modified; the result is
        a new summary.
        """
        if not isinstance(other, SpaceSaving):
            raise ValueError(
                f"cannot merge SpaceSaving with {type(other).__name__}"
            )
        if self.k != other.k:
            raise ValueError(f"cannot merge k={self.k} with k={other.k}")
        mine_items, mine_values, mine_overs = self._tracked()
        their_items, their_values, their_overs = other._tracked()
        mine = dict(zip(mine_items, zip(mine_values, mine_overs)))
        theirs = dict(zip(their_items, zip(their_values, their_overs)))
        # A summary that never filled up tracks every item it saw, so an
        # untracked item's true count there is 0, not the minimum counter.
        floor_self = min(mine_values) if len(mine) >= self.k else 0
        floor_other = min(their_values) if len(theirs) >= other.k else 0
        combined: Dict[int, int] = {}
        overestimates: Dict[int, int] = {}
        # The union's set order decides ties below, so it is kept as is.
        for item in set(mine) | set(theirs):
            pair = mine.get(item)
            if pair is None:
                estimate, certified = floor_self, 0
            else:
                estimate, certified = pair[0], pair[0] - pair[1]
            pair = theirs.get(item)
            if pair is None:
                estimate += floor_other
            else:
                estimate += pair[0]
                certified += pair[0] - pair[1]
            combined[item] = estimate
            overestimates[item] = estimate - certified
        if len(combined) > self.k:
            items = sorted(combined, key=combined.__getitem__, reverse=True)[
                : self.k
            ]
        else:
            items = list(combined)
        merged = SpaceSaving(self.k)
        merged._load(
            items,
            [combined[item] for item in items],
            [overestimates[item] for item in items],
            self._length + other._length,
        )
        return merged

    def split(self, n_shards: int) -> List["SpaceSaving"]:
        """``n_shards`` empty same-``k`` shard summaries (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._length:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        """Three words per counter (item, count, overestimate) + length."""
        return 3 * self._size + 1
