"""Columnar edge streams: the batch ingestion backbone.

:class:`ColumnarEdgeStream` stores an update sequence as three parallel
NumPy arrays — ``a`` (A-endpoints), ``b`` (B-endpoints) and ``sign``
(+1 insert / -1 delete) — instead of a list of boxed
:class:`~repro.streams.edge.StreamItem` objects.  Algorithms consume it
through zero-copy chunk views (:meth:`ColumnarEdgeStream.chunks`) and
their ``process_batch(a, b, sign)`` methods, which replaces millions of
per-item Python calls with a handful of vectorized array operations.

Conversion to and from :class:`~repro.streams.stream.EdgeStream` is
lossless, and validation enforces exactly the same simple-graph
discipline in a single vectorized pass: per edge, the sign subsequence
must alternate ``+1, -1, +1, ...`` starting with an insert (no duplicate
insert of a live edge, no delete of an absent edge).

Use :class:`ColumnarEdgeStream` for throughput-critical ingestion and
large generated workloads; use :class:`EdgeStream` when you need the
per-item object API (transforms, persistence, adapters) or tiny
hand-written streams.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.stream import EdgeStream, InvalidStreamError, StreamStats

#: Default number of updates per chunk handed to ``process_batch``.
DEFAULT_CHUNK_SIZE = 8192

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

_INT64_MAX = (1 << 63) - 1


def occurrence_ordinals(values: np.ndarray) -> np.ndarray:
    """Per-position count of earlier occurrences of the same value.

    ``occurrence_ordinals([5, 3, 5, 5, 3]) == [0, 0, 1, 2, 1]``.  This is
    the primitive that lets batch degree counting recover every item's
    *post-increment* degree without a sequential pass: the degree of
    ``a[i]`` after update ``i`` is its degree before the batch plus
    ``ordinal[i] + 1``.
    """
    order, starts, ends = group_slices(values)
    ranks = np.arange(len(values), dtype=np.int64) - np.repeat(
        starts, ends - starts
    )
    ordinals = np.empty(len(values), dtype=np.int64)
    ordinals[order] = ranks
    return ordinals


def group_slices(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of positions by value.

    Returns ``(order, starts, ends)`` where ``order`` is a stable argsort
    of ``values`` and ``[starts[g], ends[g])`` delimits group ``g`` inside
    it (no groups for an empty column).  Within a group, ``order``
    preserves stream (arrival) order — the property batch witness
    collection relies on — so ``values[order[starts]]`` are the distinct
    values in ascending order, ``order[starts]`` their first positions
    and ``ends - starts`` their counts.  This is the one grouping the
    batch paths share in place of ``np.unique`` with ``return_index``,
    ``return_inverse`` or ``return_counts``.

    ``int64`` columns take one of two sorts that beat a stable 64-bit
    argsort.  Values in ``[0, 2^16)`` — vertex columns, nearly always —
    take numpy's radix argsort over a ``uint16`` copy, which keeps equal
    keys in arrival order.  Other spans sort the distinct composite keys
    ``(value - min) * len + position`` with a plain ``np.sort``: keys are
    unique, so any sort is stable, and a divmod recovers the positions.
    Only a column whose composite keys would overflow ``int64`` (or a
    non-``int64`` column) falls back to the stable argsort.
    """
    n_items = len(values)
    if n_items == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    if values.dtype != np.int64:
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
    else:
        low, high = int(values.min()), int(values.max())
        if low >= 0 and high < (1 << 16):
            order = np.argsort(values.astype(np.uint16), kind="stable")
            sorted_values = values[order]
        elif (high - low + 1) * n_items - 1 <= _INT64_MAX:
            keys = (values - low) * n_items + np.arange(n_items, dtype=np.int64)
            keys.sort()
            sorted_values, order = np.divmod(keys, n_items)
        else:
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
    # Boundary mask built in place — np.r_'s index-trick parsing is
    # measurable overhead at the engine's per-sub-batch call rate.
    boundary = np.empty(n_items, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ends = np.empty(len(starts), dtype=starts.dtype)
    ends[:-1] = starts[1:]
    ends[-1] = n_items
    return order, starts, ends


class ColumnarEdgeStream:
    """A signed edge-update sequence stored as NumPy columns.

    Args:
        a: A-endpoints, one per update (any integer array-like).
        b: B-endpoints, one per update.
        sign: +1/-1 per update; ``None`` means insertion-only.
        n: number of A-vertices (identifiers must lie in ``[0, n)``).
        m: number of B-vertices (identifiers must lie in ``[0, m)``).
        validate: when True (default), run the vectorized single-pass
            range and simple-graph-discipline checks.
    """

    def __init__(
        self,
        a,
        b,
        sign=None,
        *,
        n: int,
        m: int,
        validate: bool = True,
    ) -> None:
        if n <= 0 or m <= 0:
            raise ValueError(f"n and m must be positive, got n={n}, m={m}")
        self.a = np.ascontiguousarray(a, dtype=np.int64)
        self.b = np.ascontiguousarray(b, dtype=np.int64)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError(
                f"a and b must be 1-d arrays of equal length, got "
                f"shapes {self.a.shape} and {self.b.shape}"
            )
        if sign is None:
            self.sign = np.full(len(self.a), INSERT, dtype=np.int64)
        else:
            self.sign = np.ascontiguousarray(sign, dtype=np.int64)
            if self.sign.shape != self.a.shape:
                raise ValueError(
                    f"sign must match a/b length, got shape {self.sign.shape}"
                )
        self.n = n
        self.m = m
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Vectorized validation.
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        a, b, sign = self.a, self.b, self.sign
        bad = np.flatnonzero((a < 0) | (a >= self.n))
        if len(bad):
            position = int(bad[0])
            raise InvalidStreamError(
                f"update {position}: A-vertex {int(a[position])} out of "
                f"range [0, {self.n})"
            )
        bad = np.flatnonzero((b < 0) | (b >= self.m))
        if len(bad):
            position = int(bad[0])
            raise InvalidStreamError(
                f"update {position}: B-vertex {int(b[position])} out of "
                f"range [0, {self.m})"
            )
        bad = np.flatnonzero((sign != INSERT) & (sign != DELETE))
        if len(bad):
            position = int(bad[0])
            raise InvalidStreamError(
                f"update {position}: sign must be +1 or -1, got "
                f"{int(sign[position])}"
            )
        if len(a) == 0:
            return
        # Simple-graph discipline: per edge, the sign subsequence (in
        # stream order) must alternate +1, -1, +1, ...  A stable sort by
        # flattened edge id preserves stream order within each edge, so
        # the ordinal parity of every update must match its sign.
        flat = a * self.m + b
        order, starts, _ = group_slices(flat)
        lengths = np.diff(np.r_[starts, len(flat)])
        ranks = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lengths)
        expected = np.where(ranks % 2 == 0, INSERT, DELETE)
        bad = np.flatnonzero(self.sign[order] != expected)
        if len(bad):
            position = int(order[bad[0]])
            edge = Edge(int(a[position]), int(b[position]))
            if int(sign[position]) == INSERT:
                raise InvalidStreamError(
                    f"update {position}: duplicate insert of live edge {edge}"
                )
            raise InvalidStreamError(
                f"update {position}: delete of absent edge {edge}"
            )

    # ------------------------------------------------------------------
    # Container protocol.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, index: int) -> StreamItem:
        return StreamItem(
            Edge(int(self.a[index]), int(self.b[index])), int(self.sign[index])
        )

    def __iter__(self) -> Iterator[StreamItem]:
        for a, b, sign in zip(self.a.tolist(), self.b.tolist(), self.sign.tolist()):
            yield StreamItem(Edge(a, b), sign)

    @property
    def insertion_only(self) -> bool:
        """True when the stream contains no deletions."""
        return bool((self.sign == INSERT).all())

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[Columns]:
        """Zero-copy iteration over ``(a, b, sign)`` column slices."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self.a), chunk_size):
            stop = start + chunk_size
            yield self.a[start:stop], self.b[start:stop], self.sign[start:stop]

    # ------------------------------------------------------------------
    # Lossless conversion.
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_stream(cls, stream: EdgeStream) -> "ColumnarEdgeStream":
        """Column-store copy of an :class:`EdgeStream` (already validated)."""
        a = np.fromiter((item.edge.a for item in stream), dtype=np.int64, count=len(stream))
        b = np.fromiter((item.edge.b for item in stream), dtype=np.int64, count=len(stream))
        sign = np.fromiter((item.sign for item in stream), dtype=np.int64, count=len(stream))
        return cls(a, b, sign, n=stream.n, m=stream.m, validate=False)

    def to_edge_stream(self) -> EdgeStream:
        """Boxed copy as an :class:`EdgeStream` (skips re-validation)."""
        items = [
            StreamItem(Edge(a, b), sign)
            for a, b, sign in zip(
                self.a.tolist(), self.b.tolist(), self.sign.tolist()
            )
        ]
        return EdgeStream(items, self.n, self.m, validate=False)

    def concatenate(self, other: "ColumnarEdgeStream") -> "ColumnarEdgeStream":
        """Concatenate two columnar streams over compatible vertex sets."""
        if (self.n, self.m) != (other.n, other.m):
            raise ValueError(
                f"incompatible dimensions: ({self.n},{self.m}) vs "
                f"({other.n},{other.m})"
            )
        return ColumnarEdgeStream(
            np.concatenate([self.a, other.a]),
            np.concatenate([self.b, other.b]),
            np.concatenate([self.sign, other.sign]),
            n=self.n,
            m=self.m,
        )

    # ------------------------------------------------------------------
    # Reference (ground-truth) helpers, vectorized.
    # ------------------------------------------------------------------

    def final_degrees(self) -> dict:
        """Final degree of every A-vertex with at least one edge."""
        degrees = self._degree_vector()
        nonzero = np.flatnonzero(degrees)
        return dict(zip(nonzero.tolist(), degrees[nonzero].tolist()))

    def _degree_vector(self) -> np.ndarray:
        # Discipline guarantees each edge's net sign is 0 or 1, so a
        # vertex's final degree is the sum of the signs of its updates.
        return np.bincount(
            self.a, weights=self.sign, minlength=self.n
        ).astype(np.int64)

    def max_degree(self) -> int:
        """Largest final A-vertex degree (0 for the empty graph)."""
        if len(self.a) == 0:
            return 0
        return int(self._degree_vector().max())

    def stats(self) -> StreamStats:
        """Full summary statistics of the final graph (vectorized)."""
        degrees = self._degree_vector()
        b_degrees = np.bincount(self.b, weights=self.sign, minlength=self.m)
        n_inserts = int((self.sign == INSERT).sum())
        max_deg = int(degrees.max()) if len(self.a) else 0
        # Smallest vertex id among the maxima, matching EdgeStream.stats.
        max_vertex = int(degrees.argmax()) if max_deg > 0 else -1
        return StreamStats(
            n_updates=len(self.a),
            n_inserts=n_inserts,
            n_deletes=len(self.a) - n_inserts,
            n_edges_final=int(self.sign.sum()),
            n_a_vertices=int((degrees > 0).sum()),
            n_b_vertices=int((b_degrees > 0).sum()),
            max_degree=max_deg,
            max_degree_vertex=max_vertex,
        )

