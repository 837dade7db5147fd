"""Exact counting structures.

:class:`DegreeCounter` is the degree-tracking component both FEwW
algorithms charge ``O(n log n)`` bits for.  :class:`ExactSupport`
maintains the exact support of a signed vector; it serves as the ground
truth oracle in tests and as the one support every "fast" ℓ₀-sampler
bank of an owner draws from (see :mod:`repro.sketch.l0`).
:func:`net_updates` is the one netting pass of signed update columns.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np


def check_columns(indices, deltas) -> None:
    """Raise ``ValueError`` unless two update columns are as long."""
    if len(indices) != len(deltas):
        raise ValueError(
            f"update columns differ in length: {len(indices)} indices, "
            f"{len(deltas)} deltas"
        )


#: Contributions per float64 bincount in the limb path of
#: :func:`bincount_sum_int64`: keeps every limb sum an integer below 2^53.
_BINCOUNT_CHUNK = 1 << 20


def bincount_sum_int64(
    addr: np.ndarray, values: np.ndarray, length: int
) -> np.ndarray:
    """Exact per-address ``int64`` sums via float64 bincounts.

    When ``max|value| * len(values) < 2^53`` every partial sum is an
    integer below 2^53, so one float64 bincount is exact.  Otherwise
    each value splits into a non-negative low 32-bit limb and a signed
    high limb, summed over slices of at most 2^20 contributions, so
    every limb sum stays an integer below 2^53.  Either way the result
    equals sequential ``int64`` addition (wrapping alike past 2^63).
    """
    if len(values) == 0:
        return np.zeros(length, dtype=np.int64)
    if max(int(values.max()), -int(values.min())) * len(values) < (1 << 53):
        return np.bincount(
            addr, weights=values.astype(np.float64), minlength=length
        ).astype(np.int64)
    total = np.zeros(length, dtype=np.int64)
    for start in range(0, len(values), _BINCOUNT_CHUNK):
        chunk_addr = addr[start : start + _BINCOUNT_CHUNK]
        chunk = values[start : start + _BINCOUNT_CHUNK]
        lo = np.bincount(
            chunk_addr,
            weights=(chunk & np.int64(0xFFFFFFFF)).astype(np.float64),
            minlength=length,
        ).astype(np.int64)
        hi = np.bincount(
            chunk_addr,
            weights=(chunk >> np.int64(32)).astype(np.float64),
            minlength=length,
        ).astype(np.int64)
        total += (hi << np.int64(32)) + lo
    return total


def net_updates(
    coords: np.ndarray, deltas: np.ndarray, dim: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Net signed updates per coordinate: ``(coordinates, nets)``.

    Returns the sorted distinct coordinates in ``[0, dim)`` whose deltas
    do not cancel, and their non-zero net values, both ``int64``.  When
    the vector is not much larger than the batch (``dim <= 4 *
    len(coords)``, the rule :meth:`DegreeCounter.increment_batch` uses)
    one dense :func:`bincount_sum_int64` nets them; otherwise
    ``np.unique`` plus a scatter-add does.  Both equal sequential
    ``int64`` addition.
    """
    coords = np.asarray(coords, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if dim <= 4 * len(coords):
        totals = bincount_sum_int64(coords, deltas, dim)
        live = np.flatnonzero(totals)
        return live, totals[live]
    unique, inverse = np.unique(coords, return_inverse=True)
    totals = np.zeros(len(unique), dtype=np.int64)
    np.add.at(totals, inverse, deltas)
    live = totals != 0
    return unique[live], totals[live]


class DegreeCounter:
    """Exact per-A-vertex degree counts.

    The paper's algorithms maintain the degree of every A-vertex, space
    ``O(n log n)`` bits.  We charge one word per vertex regardless of how
    many are non-zero, matching that accounting.  The table is a NumPy
    array so batch ingestion can update it with one scatter-add.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._degrees = np.zeros(n, dtype=np.int64)

    def increment_batch(self, a: np.ndarray, grouping) -> np.ndarray:
        """Count a batch of insertions; return each item's post-increment degree.

        ``a`` holds one A-vertex per inserted edge and ``grouping`` its
        stable ``(order, starts, ends)`` grouping (see
        :func:`repro.streams.columnar.group_slices`), which the caller
        shares with its witness collection.  The returned array holds,
        per item, the degree before the batch, plus one, plus the number
        of earlier batch occurrences of the same vertex.  An
        out-of-range id raises before the table changes.
        """
        if len(a) == 0:
            return np.zeros(0, dtype=np.int64)
        self.check_range(a)
        before = self._degrees[a]
        order, starts, ends = grouping
        ranks = np.arange(len(a), dtype=np.int64) - np.repeat(starts, ends - starts)
        ordinals = np.empty(len(a), dtype=np.int64)
        ordinals[order] = ranks
        if self.n <= 4 * len(a):
            # bincount-and-add beats np.add.at's per-element dispatch
            # whenever the table isn't much larger than the batch.
            self._degrees += np.bincount(a, minlength=self.n)
        else:
            np.add.at(self._degrees, a, 1)
        return before + ordinals + 1

    def check_range(self, a: np.ndarray) -> None:
        """Reject a column holding a vertex outside ``[0, n)``."""
        if len(a) and (int(a.min()) < 0 or int(a.max()) >= self.n):
            bad = a[(a < 0) | (a >= self.n)][0]
            raise ValueError(f"vertex {int(bad)} out of range [0, {self.n})")

    def degree(self, a: int) -> int:
        """Current degree of vertex ``a``."""
        if not 0 <= a < self.n:
            raise ValueError(f"vertex {a} out of range [0, {self.n})")
        return int(self._degrees[a])

    def max_degree(self) -> int:
        """Largest current degree."""
        return int(self._degrees.max())

    def clone(self) -> "DegreeCounter":
        """An independent copy — one array copy, no deepcopy graph walk
        (window policies clone summaries on every probe/suffix fold)."""
        dup = object.__new__(DegreeCounter)
        dup.n = self.n
        dup._degrees = self._degrees.copy()
        return dup

    def merge(self, other: "DegreeCounter") -> "DegreeCounter":
        """Element-wise sum of two counters over disjoint sub-streams.

        Degrees are linear in the updates, so the merged table equals the
        single-pass table bit for bit regardless of how the stream was
        partitioned.
        """
        if not isinstance(other, DegreeCounter):
            raise ValueError(
                f"cannot merge DegreeCounter with {type(other).__name__}"
            )
        if self.n != other.n:
            raise ValueError(
                f"cannot merge DegreeCounter over n={self.n} with n={other.n}"
            )
        self._degrees += other._degrees
        return self

    def space_words(self) -> int:
        """One counter word per A-vertex."""
        return self.n


#: Consolidate pending batch columns once their total length passes this
#: (bounds buffered memory on long query-free streams).
_FLUSH_PENDING = 1 << 18
#: Scalar updates buffer as Python pairs (~100 bytes each): flush sooner.
_FLUSH_SCALAR = 1 << 14


class ExactSupport:
    """Exact support of a signed integer vector under updates.

    Used as the verification oracle for sketches and as the backing
    state of the accelerated ℓ₀-sampler bank.  Not space-metered: it is
    simulator state, never charged to a streaming algorithm.

    The consolidated vector is two sorted ``int64`` columns (live
    coordinates and their non-zero values), so the fast bank reads its
    support as an array with no conversion.  Updates are *deferred*:
    :meth:`update_batch` appends the (validated, copied) coordinate and
    delta columns to a pending list, :meth:`update` appends one pair to
    a scalar buffer, and every read path consolidates both with one
    :func:`net_updates` pass.  The vector is
    linear in its updates, so deferring and netting cannot change any
    final value; the consolidated state is identical to applying
    ``update`` item by item.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._keys = np.zeros(0, dtype=np.int64)
        self._nets = np.zeros(0, dtype=np.int64)
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._scalar: List[Tuple[int, int]] = []
        self._pending_len = 0

    def __getstate__(self):
        # Pickles and deep copies carry the consolidated support, never
        # the raw buffered update columns.
        self._consolidated()
        return self.__dict__

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        # Copies of read-only arrays come back writeable (see _flush).
        self._keys.flags.writeable = False
        self._nets.flags.writeable = False

    def clone(self) -> "ExactSupport":
        """An independent copy: the consolidated columns are never written
        in place, so the copy shares them (no array copy at all)."""
        keys, nets = self._consolidated()
        dup = object.__new__(ExactSupport)
        dup.dim = self.dim
        dup._keys, dup._nets = keys, nets
        dup._pending, dup._scalar, dup._pending_len = [], [], 0
        return dup

    def _consolidated(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted ``(coordinates, values)`` columns (flushes pending)."""
        if self._pending_len:
            self._flush()
        return self._keys, self._nets

    def _flush(self) -> None:
        """Net every pending update into the consolidated columns at once."""
        coords = [self._keys] + [column for column, _ in self._pending]
        nets = [self._nets] + [column for _, column in self._pending]
        if self._scalar:
            pairs = np.array(self._scalar, dtype=np.int64)
            coords.append(pairs[:, 0])
            nets.append(pairs[:, 1])
        self._pending, self._scalar, self._pending_len = [], [], 0
        self._keys, self._nets = net_updates(
            np.concatenate(coords), np.concatenate(nets), self.dim
        )
        # support_array() hands the coordinates out without a copy, and
        # clone() shares both columns: neither is ever written in place.
        self._keys.flags.writeable = False
        self._nets.flags.writeable = False

    def update(self, index: int, delta: int) -> None:
        """Queue ``vector[index] += delta`` (validated, then deferred)."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range [0, {self.dim})")
        self._scalar.append((index, delta))
        self._pending_len += 1
        if len(self._scalar) >= _FLUSH_SCALAR:
            self._flush()

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Queue a batch of signed updates (validated, then deferred).

        The columns are copied before buffering, so callers may hand in
        views of chunk buffers they later reuse or unmap.
        Raises ``ValueError`` when the columns differ in length.
        """
        check_columns(indices, deltas)
        if len(indices) == 0:
            return
        indices = np.asarray(indices)
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        self._pending.append(
            (
                np.array(indices, dtype=np.int64),
                np.array(np.asarray(deltas), dtype=np.int64),
            )
        )
        self._pending_len += len(indices)
        if self._pending_len >= _FLUSH_PENDING:
            self._flush()

    def merge(self, other: "ExactSupport") -> "ExactSupport":
        """Coordinate-wise sum of two supports over disjoint sub-streams.

        The tracked vector is linear, so the merged support equals the
        support of the concatenated update stream exactly (cancellations
        across shards drop out here, at merge time).
        """
        if not isinstance(other, ExactSupport):
            raise ValueError(
                f"cannot merge ExactSupport with {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise ValueError(
                f"cannot merge ExactSupport over dim={self.dim} with "
                f"dim={other.dim}"
            )
        keys, nets = other._consolidated()
        self._pending.append((keys.copy(), nets.copy()))
        self._pending_len += len(keys)
        self._flush()
        return self

    def support_array(self) -> np.ndarray:
        """Sorted ``int64`` array of the non-zero coordinates (read-only
        view of the consolidated state; copy before mutating)."""
        return self._consolidated()[0]

    def support(self) -> List[int]:
        """Sorted list of non-zero coordinates."""
        return self._consolidated()[0].tolist()

    def support_size(self) -> int:
        return len(self._consolidated()[0])

    def value(self, index: int) -> int:
        keys, nets = self._consolidated()
        at = int(np.searchsorted(keys, index))
        return int(nets[at]) if at < len(keys) and keys[at] == index else 0

    def items(self) -> Iterator[Tuple[int, int]]:
        keys, nets = self._consolidated()
        return zip(keys.tolist(), nets.tolist())

    def __contains__(self, index: int) -> bool:
        return self.value(index) != 0
