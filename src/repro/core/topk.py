"""Extension: top-k frequent elements with witnesses.

The paper outputs a *single* neighbourhood.  Applications often want
several: the k most-updated database rows with their users, the k
DoS victims with their sources.  This extension reuses Algorithm 2's
machinery with the reservoir scaled by ``k`` (so each of up to ``k``
heavy vertices is retained with the same per-vertex probability the
single-output analysis gives), then reports every stored neighbourhood
that reaches the ``d/α`` threshold, largest first.

Guarantee inherited from Theorem 3.2: any vertex of degree ≥ d is
reported with probability ≥ 1 − 1/n individually; the union over k
planted heavy vertices holds with probability ≥ 1 − k/n.  This is an
extension of the paper's results, not a claim made in it — benchmark
E14 measures it.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional

import numpy as np

from repro.core.insertion_only import InsertionOnlyFEwW, reservoir_size
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.spacemeter import SpaceBreakdown


class TopKFEwW(BatchIngest):
    """Report up to ``k`` vertices of degree ≥ d, each with witnesses.

    Args:
        n: number of A-vertices.
        d: degree threshold.
        alpha: approximation factor (each output has ≥ ceil(d/α) witnesses).
        k: maximum number of neighbourhoods to report.
        seed: RNG seed.
    """

    #: Thin wrapper over Algorithm 2, which shards by vertex hash (see
    #: repro.engine.protocol).
    shard_routing = "vertex"
    #: Declared, although check_batch delegates, so a pipeline rejects
    #: a deletion-bearing source before the first chunk.
    DELETIONS_REJECTED = InsertionOnlyFEwW.DELETIONS_REJECTED

    def __init__(self, n: int, d: int, alpha: int, k: int,
                 seed: int | None = None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._inner = InsertionOnlyFEwW(
            n, d, alpha, seed=seed,
            reservoir_override=k * reservoir_size(n, alpha),
        )
        self.threshold = math.ceil(d / alpha)

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def d(self) -> int:
        return self._inner.d

    @property
    def alpha(self) -> int:
        return self._inner.alpha

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """The inner Algorithm 2's input checks."""
        self._inner.check_batch(a, b, sign)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Engine entry point: one column chunk into the scaled reservoir."""
        self._inner.process_batch(a, b, sign)

    def merge(self, other: "TopKFEwW") -> "TopKFEwW":
        """Merge the scaled inner Algorithm 2 states (vertex routing).

        :meth:`results` already deduplicates candidate neighbourhoods by
        vertex, so the union of shard reservoirs ranks exactly like a
        single-core reservoir holding the same candidates.
        """
        if not isinstance(other, TopKFEwW):
            raise ValueError(
                f"cannot merge TopKFEwW with {type(other).__name__}"
            )
        if self.k != other.k:
            raise ValueError(f"cannot merge k={self.k} with k={other.k}")
        self._inner.merge(other._inner)
        return self

    def split(self, n_shards: int) -> List["TopKFEwW"]:
        """``n_shards`` empty shard wrappers (sharded runs), whose inner
        Algorithm 2 shards draw from seed words of their own."""
        shards = []
        for inner in self._inner.split(n_shards):
            shard = copy.copy(self)
            shard._inner = inner
            shards.append(shard)
        return shards

    def results(self) -> List[Neighbourhood]:
        """Up to ``k`` distinct-vertex neighbourhoods of size ≥ ceil(d/α),
        largest first.

        Raises:
            AlgorithmFailed: when no stored neighbourhood reaches the
            threshold.
        """
        by_vertex: dict[int, Neighbourhood] = {}
        for run in self._inner.runs:
            for candidate in run.candidates(self.threshold):
                current = by_vertex.get(candidate.vertex)
                if current is None or candidate.size > current.size:
                    by_vertex[candidate.vertex] = candidate
        ranked = sorted(by_vertex.values(), key=lambda nb: -nb.size)
        if not ranked:
            raise AlgorithmFailed(
                f"no neighbourhood reached size {self.threshold}"
            )
        return ranked[: self.k]

    def finalize(self) -> List[Neighbourhood]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        ranked neighbourhoods, or ``[]`` instead of raising on failure."""
        try:
            return self.results()
        except AlgorithmFailed:
            return []

    def space_breakdown(self) -> SpaceBreakdown:
        return self._inner.space_breakdown()

    def space_words(self) -> int:
        return self._inner.space_words()
