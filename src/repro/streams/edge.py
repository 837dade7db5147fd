"""Edges and signed stream updates.

Vertices are integers: A-vertices live in ``[0, n)`` and B-vertices in
``[0, m)``.  The two sides are separate identifier spaces — the edge
``Edge(3, 3)`` connects A-vertex 3 to B-vertex 3, which are different
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Sign of an edge insertion in an insertion-deletion stream.
INSERT = 1

#: Sign of an edge deletion in an insertion-deletion stream.
DELETE = -1

_INSERT_SIGNS = np.empty(0, dtype=np.int64)


def insert_signs(length: int) -> np.ndarray:
    """A read-only length-``length`` column of :data:`INSERT` signs.

    ``process_batch`` implementations receive ``sign=None`` for
    insertion-only chunks and used to allocate a fresh ``np.ones`` per
    chunk; this returns a slice of one shared cached array instead.  The
    result is marked non-writable — callers must treat it as a constant.
    """
    global _INSERT_SIGNS
    if length > len(_INSERT_SIGNS):
        grown = np.ones(max(length, 8192), dtype=np.int64)
        grown.setflags(write=False)
        _INSERT_SIGNS = grown
    return _INSERT_SIGNS[:length]


@dataclass(frozen=True, slots=True)
class Edge:
    """An edge of the bipartite input graph ``G = (A, B, E)``.

    Attributes:
        a: the A-side endpoint (the *item*, e.g. a destination IP).
        b: the B-side endpoint (the *witness*, e.g. a timestamp).
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError(f"vertex identifiers must be non-negative: {self}")

    def flat_index(self, m: int) -> int:
        """Position of this edge in the flattened ``n x m`` indicator vector.

        Insertion-deletion algorithms treat the edge set as a vector of
        dimension ``n * m``; this is the coordinate of the edge in that
        vector.
        """
        if self.b >= m:
            raise ValueError(f"b={self.b} out of range for m={m}")
        return self.a * m + self.b

    @staticmethod
    def from_flat_index(index: int, m: int) -> "Edge":
        """Inverse of :meth:`flat_index`."""
        if index < 0:
            raise ValueError(f"index must be non-negative, got {index}")
        return Edge(index // m, index % m)


def check_edge_range(a: np.ndarray, b: np.ndarray, n: int, m: int) -> None:
    """Reject a chunk with an endpoint outside ``[0, n) x [0, m)``.

    Raises :class:`ValueError` naming the first offending edge.  Callers
    run it before mutating any state, so a rejected chunk leaves them as
    if it had never been offered.
    """
    if len(a) and (
        int(a.min()) < 0 or int(a.max()) >= n or int(b.min()) < 0 or int(b.max()) >= m
    ):
        bad = np.flatnonzero((a < 0) | (a >= n) | (b < 0) | (b >= m))[0]
        edge = Edge(int(a[bad]), int(b[bad]))
        raise ValueError(f"edge {edge} out of range for ({n}, {m})")


@dataclass(frozen=True, slots=True)
class StreamItem:
    """A signed edge update: ``sign`` is :data:`INSERT` or :data:`DELETE`."""

    edge: Edge
    sign: int = INSERT

    def __post_init__(self) -> None:
        if self.sign not in (INSERT, DELETE):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def is_insert(self) -> bool:
        return self.sign == INSERT

    @property
    def is_delete(self) -> bool:
        return self.sign == DELETE
