"""A natural-but-flawed heuristic: Misra–Gries with witness lists.

The obvious way to retrofit witnesses onto a classical FE summary is to
attach a witness list to every Misra–Gries counter.  This fails in a
specific, instructive way: the decrement step discards counters — and
with them *all* collected witnesses — so an item that is evicted and
later re-admitted restarts its witness list from scratch.  On streams
where the heavy item's occurrences are spread out (so it gets evicted
between bursts), the heuristic's witness count can stay arbitrarily far
below the true frequency, even though the plain Misra–Gries frequency
estimate is fine.

The paper's Algorithm 2 avoids this by decoupling *membership* (the
degree-triggered reservoir, which is never reset by other items'
arrivals, only by explicit random eviction) from *counting*.  Benchmark
E13 quantifies the gap; :class:`MisraGriesWithWitnesses` exists to make
the comparison honest rather than against a strawman nobody would
write.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.misra_gries import fold_counters
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.spacemeter import edge_words, vertex_words


class MisraGriesWithWitnesses(BatchIngest):
    """Misra–Gries counters, each carrying up to ``max_witnesses``.

    Args:
        k: number of counters (the classical summary size).
        max_witnesses: cap on stored witnesses per tracked item; caps the
            space at ``O(k * max_witnesses)`` words.
    """

    #: The counters merge like Misra-Gries for any stream split; the
    #: witness lists stay best-effort either way (that is the point of
    #: this heuristic).
    shard_routing = "any"
    DELETIONS_REJECTED = "Misra-Gries supports insertion-only streams"

    def __init__(self, k: int, max_witnesses: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if max_witnesses < 1:
            raise ValueError(f"max_witnesses must be >= 1, got {max_witnesses}")
        self.k = k
        self.max_witnesses = max_witnesses
        self._counters: Dict[int, int] = {}
        self._witnesses: Dict[int, List[int]] = {}
        #: diagnostic: how many witnesses were discarded by decrements
        self.witnesses_lost = 0

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Engine entry point; sequential under the hood.

        The decrement-all step couples every counter to every arrival,
        so unlike the paper's reservoir there is no order-free collapse
        of a chunk — the batch path just replays the chunk in order
        (identical at every chunk size by construction).  The
        heuristic exists for honesty benchmarks, not throughput.
        """
        self.check_batch(a, b, sign)
        # repro: allow-scalar-loop decrement-all couples every counter
        # to every arrival; no order-free collapse exists (see docstring)
        for a_item, b_item in zip(a.tolist(), b.tolist()):
            self._arrival(a_item, b_item)

    def _arrival(self, a: int, b: int) -> None:
        if a in self._counters:
            self._counters[a] += 1
            stored = self._witnesses[a]
            if len(stored) < self.max_witnesses:
                stored.append(b)
            return
        if len(self._counters) < self.k:
            self._counters[a] = 1
            self._witnesses[a] = [b]
            return
        # Decrement-all: every counter drops by one; zeroed counters are
        # evicted together with their entire witness lists.
        survivors_counts: Dict[int, int] = {}
        survivors_witnesses: Dict[int, List[int]] = {}
        for key, count in self._counters.items():
            if count > 1:
                survivors_counts[key] = count - 1
                survivors_witnesses[key] = self._witnesses[key]
            else:
                self.witnesses_lost += len(self._witnesses[key])
        self._counters = survivors_counts
        self._witnesses = survivors_witnesses

    def finalize(self) -> "MisraGriesWithWitnesses":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        summary stays queryable, so finalize returns the summary itself."""
        return self

    def merge(self, other: "MisraGriesWithWitnesses") -> "MisraGriesWithWitnesses":
        """Misra-Gries merge of the counters, best-effort witness union.

        Counters are added key-wise and folded with the standard
        mergeable-summaries cutoff; surviving items keep the union of
        both witness lists (duplicates removed, clipped to
        ``max_witnesses``), and evicted items' witnesses are counted as
        lost — the same failure mode the per-item decrement exhibits.
        """
        if not isinstance(other, MisraGriesWithWitnesses):
            raise ValueError(
                f"cannot merge MisraGriesWithWitnesses with "
                f"{type(other).__name__}"
            )
        if (self.k, self.max_witnesses) != (other.k, other.max_witnesses):
            raise ValueError(
                f"cannot merge (k={self.k}, max_witnesses="
                f"{self.max_witnesses}) with (k={other.k}, "
                f"max_witnesses={other.max_witnesses})"
            )
        combined: Dict[int, int] = dict(self._counters)
        for item, count in other._counters.items():
            combined[item] = combined.get(item, 0) + count
        combined = fold_counters(combined, self.k)
        witnesses: Dict[int, List[int]] = {}
        lost = self.witnesses_lost + other.witnesses_lost
        for item in set(self._witnesses) | set(other._witnesses):
            stored = list(self._witnesses.get(item, []))
            seen = set(stored)
            extra = [
                witness
                for witness in other._witnesses.get(item, [])
                if witness not in seen
            ]
            stored.extend(extra)
            if item in combined:
                witnesses[item] = stored[: self.max_witnesses]
                lost += len(stored) - len(witnesses[item])
            else:
                lost += len(stored)
        self._counters = combined
        self._witnesses = witnesses
        self.witnesses_lost = lost
        return self

    def split(self, n_shards: int) -> List["MisraGriesWithWitnesses"]:
        """``n_shards`` empty same-config shard summaries (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._counters:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def estimate(self, item: int) -> int:
        """Classical Misra–Gries frequency lower bound."""
        return self._counters.get(item, 0)

    def witnesses_of(self, item: int) -> List[int]:
        """Witnesses currently attached to ``item`` (possibly truncated
        by an earlier eviction)."""
        return list(self._witnesses.get(item, []))

    def result(self, d: int, alpha: float = 1.0) -> Neighbourhood:
        """Best-effort FEwW answer: the tracked item with the most
        witnesses, if it reaches ``d / alpha``.

        Raises:
            AlgorithmFailed: when no tracked item carries enough
            witnesses — the failure mode benchmark E13 measures.
        """
        best_item, best = None, []
        for item, stored in self._witnesses.items():
            if len(stored) > len(best):
                best_item, best = item, stored
        if best_item is None or len(best) < d / alpha:
            raise AlgorithmFailed(
                f"witness lists hold at most {len(best)} < {d}/{alpha} "
                f"entries ({self.witnesses_lost} witnesses were lost to "
                f"decrements)"
            )
        return Neighbourhood.of(best_item, best)

    def space_words(self) -> int:
        stored = sum(len(witnesses) for witnesses in self._witnesses.values())
        return 2 * vertex_words(len(self._counters)) + edge_words(stored)
