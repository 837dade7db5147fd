"""Naive witness baselines.

Two trivial ways to solve FEwW, bracketing the paper's algorithms:

* :class:`FullStorage` stores *every* edge — always correct, space
  ``Θ(|E|)``, the upper bracket benchmarks compare against;
* :class:`FirstKWitnessCollector` keeps the first ``k`` witnesses of
  every A-vertex — correct whenever ``k >= d/α`` but space ``Θ(n k)``,
  showing that witness collection without sampling pays a factor ``n``.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.spacemeter import edge_words, vertex_words
from repro.streams.columnar import group_slices
from repro.streams.edge import check_edge_range


class FullStorage(BatchIngest):
    """Store the whole graph; answer any FEwW query exactly.

    Batch updates are *deferred*: :meth:`process_batch` only copies the
    column chunk onto a pending list, and the materialised
    neighbour-set dictionary is (re)built lazily on first read — an
    edge's final membership is decided by its **last** update, so one
    last-update-wins collapse over the whole pending backlog lands on
    exactly the state eager per-chunk application would have reached.
    That moves the ``np.unique`` plus per-vertex Python set work off
    the per-chunk hot path (it now runs once per query/merge instead of
    once per chunk) and lets it operate on globally sorted distinct
    edges, where the group boundaries fall out of the sort for free.
    """

    #: An edge's final membership depends on its whole update history,
    #: so shards must own vertices outright (see repro.engine.protocol).
    shard_routing = "vertex"

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m
        self._store: Dict[int, Set[int]] = {}
        #: Unflushed (a, b, sign-or-None) column chunks, arrival order.
        self._pending: List[
            tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
        ] = []

    @property
    def _neighbours(self) -> Dict[int, Set[int]]:
        """The materialised vertex -> witness-set map (flushes first)."""
        self._flush()
        return self._store

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """Reject a chunk with an endpoint outside ``[0, n) x [0, m)``:
        the flat key ``a*m + b`` would file it under the wrong vertex."""
        check_edge_range(a, b, self.n, self.m)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Buffer a column chunk of signed updates (deferred netting).

        Both endpoints are range-checked first (:meth:`check_batch`).  The
        columns are copied (chunk buffers may be recycled by the caller)
        and applied on the next read through :meth:`_flush`; final state
        is identical at every chunk size.
        """
        if len(a) == 0:
            return
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        self.check_batch(a, b, sign)
        self._pending.append(
            (a, b, None if sign is None else np.array(sign, dtype=np.int64))
        )

    def _flush(self) -> None:
        """Collapse the pending backlog into the neighbour sets.

        One ``np.unique`` over the concatenated flat edge keys (scanned
        in reverse so the first hit per edge is its last update) yields
        the distinct edges in ascending order — vertex groups are then
        contiguous runs, no argsort needed — and each edge contributes
        a single add/discard decided by its final sign.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        if len(pending) == 1:
            a, b, sign = pending[0]
        else:
            a = np.concatenate([chunk[0] for chunk in pending])
            b = np.concatenate([chunk[1] for chunk in pending])
            if all(chunk[2] is None for chunk in pending):
                sign = None
            else:
                sign = np.concatenate(
                    [
                        np.ones(len(chunk[0]), dtype=np.int64)
                        if chunk[2] is None
                        else chunk[2]
                        for chunk in pending
                    ]
                )
        flat = a * self.m + b
        reversed_unique, reversed_first = np.unique(flat[::-1], return_index=True)
        vertices = reversed_unique // self.m
        witnesses_col = reversed_unique % self.m
        cuts = np.flatnonzero(vertices[1:] != vertices[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(vertices)]))
        if sign is None:
            # Insertion-only backlog: every distinct edge is present.
            for group_start, group_end in zip(starts.tolist(), ends.tolist()):
                self._store.setdefault(
                    int(vertices[group_start]), set()
                ).update(witnesses_col[group_start:group_end].tolist())
            return
        last_positions = len(flat) - 1 - reversed_first
        final_sign = sign[last_positions]
        for group_start, group_end in zip(starts.tolist(), ends.tolist()):
            witnesses = self._store.setdefault(
                int(vertices[group_start]), set()
            )
            inserts = final_sign[group_start:group_end] > 0
            group_witnesses = witnesses_col[group_start:group_end]
            witnesses.update(group_witnesses[inserts].tolist())
            witnesses.difference_update(group_witnesses[~inserts].tolist())

    def result(self, d: int, alpha: float = 1.0) -> Neighbourhood:
        """The maximum-degree vertex with all its witnesses.

        Raises:
            AlgorithmFailed: if no vertex meets ``d / alpha`` (the
            promise was violated).
        """
        best_vertex, best = None, set()
        for vertex, witnesses in self._neighbours.items():
            if len(witnesses) > len(best):
                best_vertex, best = vertex, witnesses
        if best_vertex is None or len(best) < d / alpha:
            raise AlgorithmFailed(f"no vertex of degree >= {d}/{alpha}")
        return Neighbourhood.of(best_vertex, best)

    def finalize(self) -> "FullStorage":
        """Engine hook (:class:`repro.engine.StreamProcessor`):
        materialises the pending backlog, then returns the store —
        still queryable, now fully caught up."""
        self._flush()
        return self

    def merge(self, other: "FullStorage") -> "FullStorage":
        """Union of two stores over vertex-disjoint sub-streams.

        Under vertex routing every A-vertex's updates live in exactly
        one shard, so the union of the per-shard neighbour sets is the
        exact final graph (bit-identical to a single pass).
        """
        if not isinstance(other, FullStorage):
            raise ValueError(
                f"cannot merge FullStorage with {type(other).__name__}"
            )
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"cannot merge FullStorage over ({self.n},{self.m}) with "
                f"({other.n},{other.m})"
            )
        self._flush()
        other._flush()
        for vertex, witnesses in other._store.items():
            self._store.setdefault(vertex, set()).update(witnesses)
        return self

    def split(self, n_shards: int) -> List["FullStorage"]:
        """``n_shards`` empty same-dimension shard stores (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._store or self._pending:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        self._flush()
        stored = sum(len(witnesses) for witnesses in self._store.values())
        return vertex_words(len(self._store)) + edge_words(stored)


class FirstKWitnessCollector(BatchIngest):
    """Keep the first ``k`` witnesses of every A-vertex (insertion-only).

    Correct for FEwW whenever ``k >= ceil(d / alpha)``, but stores up to
    ``n * k`` witnesses — the "no sampling" strawman whose space the
    benchmarks compare to Algorithm 2's ``n^{1/α} d`` term.
    """

    #: First-k witnesses are a per-vertex prefix of arrival order, so
    #: shards must own vertices outright (see repro.engine.protocol).
    shard_routing = "vertex"
    DELETIONS_REJECTED = "FirstKWitnessCollector supports insertion-only streams"

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n = n
        self.k = k
        self._witnesses: Dict[int, List[int]] = {}
        self._degrees: Dict[int, int] = {}

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Apply a column chunk of insertions."""
        self.check_batch(a, b, sign)
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        if len(a) == 0:
            return
        order, starts, ends = group_slices(a)
        for group_start, group_end in zip(starts.tolist(), ends.tolist()):
            vertex = int(a[order[group_start]])
            count = group_end - group_start
            self._degrees[vertex] = self._degrees.get(vertex, 0) + count
            stored = self._witnesses.setdefault(vertex, [])
            room = self.k - len(stored)
            if room > 0:
                take = order[group_start : min(group_end, group_start + room)]
                stored.extend(b[take].tolist())

    def result(self, d: int, alpha: float = 1.0) -> Neighbourhood:
        """Highest-degree vertex with its stored witnesses.

        Raises:
            AlgorithmFailed: when the stored witnesses fall short of
            ``d / alpha`` (possible when ``k`` was set too small).
        """
        if not self._degrees:
            raise AlgorithmFailed("empty stream")
        best_vertex = max(self._degrees, key=self._degrees.__getitem__)
        witnesses = self._witnesses.get(best_vertex, [])
        if len(witnesses) < d / alpha:
            raise AlgorithmFailed(
                f"stored only {len(witnesses)} witnesses < {d}/{alpha}"
            )
        return Neighbourhood.of(best_vertex, witnesses)

    def finalize(self) -> "FirstKWitnessCollector":
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        collector stays queryable, so finalize returns itself."""
        return self

    def merge(self, other: "FirstKWitnessCollector") -> "FirstKWitnessCollector":
        """Union of two collectors over vertex-disjoint sub-streams.

        Under vertex routing each vertex's first-``k`` prefix is
        computed entirely inside its owning shard, so the union is
        bit-identical to a single pass.  If a vertex somehow occurs in
        both operands (non-vertex-routed use), degrees are summed and
        the witness lists are concatenated with duplicates removed, then
        clipped to ``k`` — the CoreDiag-style dedup-at-merge rule.
        """
        if not isinstance(other, FirstKWitnessCollector):
            raise ValueError(
                f"cannot merge FirstKWitnessCollector with "
                f"{type(other).__name__}"
            )
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"cannot merge collector (n={self.n}, k={self.k}) with "
                f"(n={other.n}, k={other.k})"
            )
        for vertex, degree in other._degrees.items():
            self._degrees[vertex] = self._degrees.get(vertex, 0) + degree
        for vertex, witnesses in other._witnesses.items():
            stored = self._witnesses.setdefault(vertex, [])
            seen = set(stored)
            for witness in witnesses:
                if len(stored) >= self.k:
                    break
                if witness not in seen:
                    stored.append(witness)
                    seen.add(witness)
        return self

    def split(self, n_shards: int) -> List["FirstKWitnessCollector"]:
        """``n_shards`` empty same-``k`` shard collectors (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._degrees:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def space_words(self) -> int:
        stored = sum(len(witnesses) for witnesses in self._witnesses.values())
        return (
            vertex_words(len(self._degrees)) * 2  # id + degree per vertex
            + edge_words(stored)
        )
