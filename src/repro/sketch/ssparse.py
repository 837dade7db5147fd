"""s-sparse recovery by hashing into 1-sparse cells.

An :class:`SSparseRecovery` structure recovers the full support of an
implicit vector provided the support size is at most ``s``.  It hashes
each index into ``2s`` buckets per row across ``rows`` independent rows
of 1-sparse cells; a coordinate is recovered whenever it lands alone in
some bucket in some row.  With ``rows = O(log(s/delta))`` all coordinates
are recovered with probability ``1 - delta`` (each coordinate collides
in one row with probability <= 1/2).

This is the standard building block used by ℓ₀-samplers to recover the
coordinates surviving level-wise subsampling.

Layout
------
The cells live in three flat NumPy accumulator planes of shape
``(n_rows, n_buckets)`` — ``weight`` (sum of deltas, ``int64``),
``dot`` (sum of ``index * delta``, ``int64``) and ``fingerprint``
(sum of ``delta * r^index`` in GF(2^61 - 1), ``uint64``) — plus one
``uint64`` plane of per-cell fingerprint bases ``r``.  This is the same
state a grid of :class:`~repro.sketch.onesparse.OneSparseCell` objects
would hold (and the RNG draw order matches that layout exactly: row
hashes first, then fingerprint bases row-major), but a whole batch is
absorbed with one fused :class:`~repro.sketch.hashing.KWiseHashStack`
evaluation and one scatter-add per plane instead of a Python loop per
(row, item) pair.

The ``int64`` planes are exact until a cell's running ``|weight|`` or
``|dot|`` exceeds 2^63 — with graph streams (unit deltas, indices below
2^40) that takes >2^23 net updates landing in one cell, far beyond any
supported stream; the fingerprint plane is modular and cannot overflow.

The fingerprint scatter is modular: per-item contributions
``(delta mod p) * r^index mod p`` are split into 32-bit limbs,
scatter-added into temporary ``int64`` planes (a chunk of ``< 2^31``
items cannot overflow them), and the limbs are recombined per cell with
``2^61 ≡ 1`` folds.  Addition in GF(p) is commutative, so the result is
bit-identical to applying the items one at a time.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sketch.hashing import (
    PRIME_61,
    KWiseHash,
    KWiseHashStack,
    _fold61,
    mulmod_p61,
    powmod_p61,
    random_kwise,
)
from repro.sketch.onesparse import CellState, OneSparseResult

_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)
_POW32 = np.uint64(1 << 32)  # 2^32 < p, already reduced

_WINDOW_BITS = 8
#: Upper bound on cached power-table entries per structure (32 MB of
#: uint64) — beyond this the fingerprint falls back to the shared
#: square-and-multiply chain.
POWER_TABLE_MAX_ENTRIES = 1 << 22


def power_table_shape(dim: int) -> Tuple[int, int]:
    """``(windows, entries per window)`` of the power tables for ``[0, dim)``.

    Exponents below ``dim`` need ``bits = bit_length(dim - 1)`` bits.
    The window count ``W = ceil(bits / 8)`` fixes the lookups per
    exponent; the width ``ceil(bits / W)`` is the narrowest that still
    covers every bit with ``W`` windows (at ``dim = 2**18``: 3 windows
    of 6 bits, 64 entries each instead of 256).
    """
    bits = max(dim - 1, 1).bit_length()
    windows = (bits + _WINDOW_BITS - 1) // _WINDOW_BITS
    return windows, 1 << -(-bits // windows)


def build_power_tables(r: np.ndarray, dim: int) -> Optional[np.ndarray]:
    """Per-cell windowed power tables, or ``None`` above the entry cap.

    Returns a ``(windows, size) + r.shape`` ``uint64`` array (see
    :func:`power_table_shape`) where entry ``[w, v]`` holds
    ``r ** (v << (w * log2(size))) mod p`` element-wise, so any
    ``r ** index`` with ``index < dim`` is the product of one lookup per
    window (:func:`table_powers`) — ``windows - 1`` modular multiplies
    per element instead of a ``2 * bit_length(index)``-round
    square-and-multiply chain.  Returns ``None`` when the tables would
    hold more than :data:`POWER_TABLE_MAX_ENTRIES` entries.

    Each window fills by log-doubling: once exponents ``[0, filled)``
    exist, ``table[filled + j] = table[j] * base^filled`` extends them
    in one vectorized multiply.  Every entry is the canonical residue
    ``r^exponent mod p`` (``mulmod_p61`` is exact and always reduces),
    so the tables are bit-identical to ``pow(int(r), exponent, PRIME_61)``.
    """
    n_windows, size = power_table_shape(dim)
    if n_windows * size * r.size > POWER_TABLE_MAX_ENTRIES:
        return None
    tables = np.empty((n_windows, size) + r.shape, dtype=np.uint64)
    base = np.asarray(r, dtype=np.uint64)
    for window in range(n_windows):
        table = tables[window]
        table[0] = np.uint64(1)
        table[1] = base
        filled = 2
        while filled < size:
            take = min(filled, size - filled)
            step = mulmod_p61(table[filled - 1], base)
            table[filled : filled + take] = mulmod_p61(table[:take], step)
            filled += take
        if window + 1 < n_windows:
            base = mulmod_p61(table[size - 1], base)
    return tables


def table_powers(
    tables: np.ndarray, indices: np.ndarray, *cells: np.ndarray
) -> np.ndarray:
    """Gather ``r ** indices`` from :func:`build_power_tables` output.

    ``cells`` index the trailing (per-cell) axes of ``tables`` and
    broadcast against ``indices``; the window width is read from the
    table shape.  The product of canonical residues is the canonical
    residue of ``r ** index``, bit-identical to :func:`powmod_p61`.
    """
    width = tables.shape[1].bit_length() - 1
    mask = np.int64(tables.shape[1] - 1)
    powers = tables[(0, indices & mask) + cells]
    for window in range(1, tables.shape[0]):
        digits = (indices >> np.int64(window * width)) & mask
        powers = mulmod_p61(powers, tables[(window, digits) + cells])
    return powers


def _decode_cell(
    weight: int, dot: int, fingerprint: int, r: int, dim: int
) -> OneSparseResult:
    """Classify one cell's accumulators (Python-int arithmetic throughout).

    Mirrors :meth:`OneSparseCell.decode` exactly — including Python's
    floor-division semantics for negative ``weight``.
    """
    if weight == 0 and dot == 0 and fingerprint == 0:
        return OneSparseResult(CellState.ZERO)
    if weight != 0 and dot % weight == 0:
        index = dot // weight
        if 0 <= index < dim:
            expected = (weight * pow(r, index, PRIME_61)) % PRIME_61
            if expected == fingerprint:
                return OneSparseResult(CellState.ONE_SPARSE, index, weight)
    return OneSparseResult(CellState.COLLISION)


_BINCOUNT_CHUNK = 1 << 20  # keeps every float64 limb sum integral (< 2^53)


def _bincount_sum_int64(
    addr: np.ndarray, values: np.ndarray, length: int
) -> np.ndarray:
    """Exact per-address ``int64`` sums via two float64 bincounts.

    Splits each value into a non-negative low 32-bit limb and a signed
    high limb; with at most 2^20 contributions every limb sum stays an
    integer below 2^53, so the float64 accumulation is exact and the
    recombined ``int64`` result is bit-identical to sequential addition.
    """
    lo = np.bincount(
        addr, weights=(values & np.int64(0xFFFFFFFF)).astype(np.float64),
        minlength=length,
    ).astype(np.int64)
    hi = np.bincount(
        addr, weights=(values >> np.int64(32)).astype(np.float64),
        minlength=length,
    ).astype(np.int64)
    return (hi << np.int64(32)) + lo


def scatter_cell_updates(
    weight: np.ndarray,
    dot: np.ndarray,
    fingerprint: np.ndarray,
    addr: np.ndarray,
    weight_values: np.ndarray,
    dot_values: np.ndarray,
    fingerprint_values: np.ndarray,
) -> None:
    """Scatter-add per-item contributions into flat accumulator planes.

    ``weight``/``dot``/``fingerprint`` are 1-D views over all target
    cells; ``addr`` holds a flat cell address per contribution.  Each
    plane reduces with exact limb-split ``np.bincount`` passes (far
    faster than ``np.add.at``), processed in chunks small enough that
    every float64 limb sum stays integral; the fingerprint plane
    recombines its 32-bit limb sums modulo ``2^61 - 1``.  Addition is
    commutative and exact in every plane, hence the result is
    bit-identical to applying the items one at a time.
    """
    total = len(addr)
    length = len(weight)
    for start in range(0, total, _BINCOUNT_CHUNK):
        stop = min(start + _BINCOUNT_CHUNK, total)
        chunk_addr = addr[start:stop]
        weight += _bincount_sum_int64(chunk_addr, weight_values[start:stop], length)
        dot += _bincount_sum_int64(chunk_addr, dot_values[start:stop], length)
        contrib = fingerprint_values[start:stop]
        lo = np.bincount(
            chunk_addr,
            weights=(contrib & _MASK32).astype(np.float64),
            minlength=length,
        ).astype(np.uint64)
        hi = np.bincount(
            chunk_addr,
            weights=(contrib >> _SHIFT32).astype(np.float64),
            minlength=length,
        ).astype(np.uint64)
        fingerprint[:] = _fold61(
            fingerprint
            + _fold61(mulmod_p61(_fold61(hi), _POW32) + _fold61(lo))
        )


class SSparseRecovery:
    """Recover vectors of support size at most ``s``.

    Args:
        dim: dimension of the implicit vector.
        s: target sparsity.
        delta: failure probability bound for full-support recovery.
        rng: randomness source for hash functions and fingerprints.
    """

    def __init__(self, dim: int, s: int, delta: float, rng: random.Random) -> None:
        if s <= 0:
            raise ValueError(f"s must be positive, got {s}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.dim = dim
        self.s = s
        self.delta = delta
        self.n_buckets = 2 * s
        self.n_rows = max(1, math.ceil(math.log2(max(s, 2) / delta)))
        self._hashes: List[KWiseHash] = [
            random_kwise(2, self.n_buckets, rng) for _ in range(self.n_rows)
        ]
        self._stack = KWiseHashStack(self._hashes)
        # Fingerprint bases drawn row-major — the same order a grid of
        # OneSparseCell objects would consume the RNG.
        self._r = np.array(
            [
                [rng.randrange(2, PRIME_61) for _ in range(self.n_buckets)]
                for _ in range(self.n_rows)
            ],
            dtype=np.uint64,
        )
        self._weight = np.zeros((self.n_rows, self.n_buckets), dtype=np.int64)
        self._dot = np.zeros((self.n_rows, self.n_buckets), dtype=np.int64)
        self._fingerprint = np.zeros((self.n_rows, self.n_buckets), dtype=np.uint64)
        # Lazily-built windowed power tables (pure cache, derived from
        # _r — not charged to space_words, like a hash stack's stacked
        # coefficient matrix).
        self._power_tables: Optional[np.ndarray] = None
        # Decode memo: valid while no update/merge has dirtied the
        # planes since the last decode (probe-heavy pipelines decode
        # unchanged structures repeatedly).
        self._dirty = True
        self._decode_cached = False
        self._decode_cache: Optional[Dict[int, int]] = None

    def _ensure_power_tables(self) -> Optional[np.ndarray]:
        """Build the fingerprint power tables when affordably small."""
        if self._power_tables is None:
            self._power_tables = build_power_tables(self._r, self.dim)
        return self._power_tables

    def update(self, index: int, delta: int) -> None:
        """Apply ``vector[index] += delta``."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range [0, {self.dim})")
        self._dirty = True
        for row, hash_function in enumerate(self._hashes):
            bucket = hash_function(index)
            self._weight[row, bucket] += delta
            self._dot[row, bucket] += index * delta
            self._fingerprint[row, bucket] = (
                int(self._fingerprint[row, bucket])
                + delta * pow(int(self._r[row, bucket]), index, PRIME_61)
            ) % PRIME_61

    def batch_contributions(
        self,
        indices: np.ndarray,
        deltas: np.ndarray,
        power_tables: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-item cell contributions for a chunk, ready to scatter.

        Returns ``(addr, weight_values, dot_values, fingerprint_values)``
        — flat arrays of length ``n_rows * len(indices)`` where ``addr``
        is the flat cell address (``row * n_buckets + bucket``).  Callers
        stacking several recoveries offset ``addr`` and concatenate
        before one :func:`scatter_cell_updates` pass (and may pass their
        own ``power_tables`` slice when they cache the tables stacked,
        or ``False`` to force the square-and-multiply chain — transient
        views must not rebuild tables per chunk).
        """
        buckets = self._stack.batch_rows(indices)
        rows = np.arange(self.n_rows, dtype=np.int64)[:, np.newaxis]
        addr = (rows * self.n_buckets + buckets).ravel()
        if power_tables is None:
            power_tables = self._ensure_power_tables()
        elif power_tables is False:
            power_tables = None
        if power_tables is not None:
            powers = table_powers(power_tables, indices[np.newaxis, :], rows, buckets)
        else:
            r_selected = self._r[rows, buckets]
            powers = powmod_p61(
                r_selected, indices.astype(np.uint64)[np.newaxis, :]
            )
        contrib = mulmod_p61(
            powers,
            np.remainder(deltas, PRIME_61).astype(np.uint64)[np.newaxis, :],
        )
        shape = (self.n_rows, len(indices))
        weight_values = np.broadcast_to(deltas, shape).ravel()
        dot_values = np.broadcast_to(indices * deltas, shape).ravel()
        return addr, weight_values, dot_values, contrib.ravel()

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of signed updates.

        One fused hash evaluation over all rows, one modular-exponent
        pass for the fingerprints and one scatter-add per accumulator
        plane.  Final state matches item-by-item updates exactly.
        """
        if len(indices) == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        self._dirty = True
        addr, weight_values, dot_values, contrib = self.batch_contributions(
            indices, deltas
        )
        scatter_cell_updates(
            self._weight.reshape(-1),
            self._dot.reshape(-1),
            self._fingerprint.reshape(-1),
            addr,
            weight_values,
            dot_values,
            contrib,
        )

    def merge(self, other: "SSparseRecovery") -> "SSparseRecovery":
        """Cell-wise sum of two recoveries over disjoint sub-streams.

        Valid only for structures split from the same seeded instance
        (identical row hashes); every cell is linear, so the merged
        structure equals the single-pass structure exactly.
        """
        if (
            not isinstance(other, SSparseRecovery)
            or (self.dim, self.s, self.n_rows) != (other.dim, other.s, other.n_rows)
        ):
            raise ValueError(
                "cannot merge incompatible s-sparse recoveries; split both "
                "from the same seeded structure"
            )
        for mine, theirs in zip(self._hashes, other._hashes):
            if mine.coefficients != theirs.coefficients:
                raise ValueError(
                    "cannot merge s-sparse recoveries with different row "
                    "hashes; split both from the same seeded structure"
                )
        if not np.array_equal(self._r, other._r):
            raise ValueError(
                "cannot merge 1-sparse cells with different dimensions or "
                "fingerprint bases; split both from the same seeded structure"
            )
        self._dirty = True
        self._weight += other._weight
        self._dot += other._dot
        # In place: the planes may be views into a bank's stacked 4-D
        # accumulators (or a sampler's 3-D ones); rebinding would detach
        # them.
        self._fingerprint[:] = _fold61(self._fingerprint + other._fingerprint)
        return self

    def __getstate__(self):
        # The windowed power tables are a pure cache derived from ``_r``;
        # dropping them keeps pickles/deepcopies small and avoids
        # materialising per-structure copies of bank-shared tables.
        state = dict(self.__dict__)
        state["_power_tables"] = None
        return state

    def _nonzero_cells(
        self,
        weight: np.ndarray,
        dot: np.ndarray,
        fingerprint: np.ndarray,
    ) -> np.ndarray:
        """Row-major flat addresses of cells with any non-zero accumulator."""
        mask = (weight != 0) | (dot != 0) | (fingerprint != 0)
        return np.flatnonzero(mask.reshape(-1))

    def decode(self) -> Optional[Dict[int, int]]:
        """Recover the support, or None when the vector looks >s-sparse.

        Returns a dict mapping index to value.  ``None`` signals that at
        least one cell held a collision that no other row resolved, i.e.
        recovery failed (either true sparsity exceeded ``s`` or the
        structure was unlucky — probability <= ``delta``).

        Decoding is a pure function of the accumulator planes, so the
        result is memoized and served until the next update or merge
        dirties the structure (callers get an independent dict copy).
        The non-zero-cell scan and degree-1 classification are
        vectorized; only the rare peeling fallback walks cells one by
        one.
        """
        if not self._dirty and self._decode_cached:
            return None if self._decode_cache is None else dict(self._decode_cache)
        result = self._decode_impl()
        self._decode_cache = result
        self._decode_cached = True
        self._dirty = False
        return None if result is None else dict(result)

    def _decode_impl(self) -> Optional[Dict[int, int]]:
        """One uncached decode pass (see :meth:`decode`).

        Classifies every non-zero cell with vectorized arithmetic that
        mirrors :func:`_decode_cell` exactly: NumPy's int64 floored
        ``//``/``%`` match Python's for negative weights, and the
        candidate fingerprint ``(weight * r^index) mod p`` is formed
        from the canonical residue of ``weight`` — so the recovered
        set, its insertion order (ascending flat cell address) and the
        collision verdict are all bit-identical to the per-cell loop.
        """
        live = self._nonzero_cells(self._weight, self._dot, self._fingerprint)
        recovered: Dict[int, int] = {}
        if len(live) == 0:
            return recovered
        weight = self._weight.reshape(-1)[live]
        dot = self._dot.reshape(-1)[live]
        fingerprint = self._fingerprint.reshape(-1)[live]
        nonzero = weight != 0
        index = np.zeros(len(live), dtype=np.int64)
        candidate = np.zeros(len(live), dtype=bool)
        index[nonzero] = dot[nonzero] // weight[nonzero]
        candidate[nonzero] = dot[nonzero] % weight[nonzero] == 0
        candidate &= (index >= 0) & (index < self.dim)
        one_sparse = np.zeros(len(live), dtype=bool)
        if candidate.any():
            expected = mulmod_p61(
                np.remainder(weight[candidate], PRIME_61).astype(np.uint64),
                powmod_p61(
                    self._r.reshape(-1)[live[candidate]],
                    index[candidate].astype(np.uint64),
                ),
            )
            one_sparse[candidate] = expected == fingerprint[candidate]
        for cell_index, cell_value in zip(
            index[one_sparse].tolist(), weight[one_sparse].tolist()
        ):
            recovered[cell_index] = cell_value
        if bool(one_sparse.all()):
            return recovered
        # Collisions may be resolvable: peel recovered coordinates and
        # re-check.  We verify by re-simulating cell contents.
        return self._decode_with_peeling(recovered)

    def _decode_with_peeling(self, seed: Dict[int, int]) -> Optional[Dict[int, int]]:
        """Subtract known coordinates and retry collided cells.

        Classic peeling: any coordinate recovered in one row can be
        removed from every other row, possibly turning collision cells
        into 1-sparse cells.  Operates on copies; the structure itself is
        not mutated.
        """
        weight = self._weight.copy().reshape(-1)
        dot = self._dot.copy().reshape(-1)
        fingerprint = self._fingerprint.copy().reshape(-1)
        r = self._r.reshape(-1)

        def rescan():
            for cell in self._nonzero_cells(
                weight.reshape(self._weight.shape),
                dot.reshape(self._dot.shape),
                fingerprint.reshape(self._fingerprint.shape),
            ):
                yield _decode_cell(
                    int(weight[cell]),
                    int(dot[cell]),
                    int(fingerprint[cell]),
                    int(r[cell]),
                    self.dim,
                )

        recovered = dict(seed)
        frontier = list(seed.items())
        while frontier:
            index, value = frontier.pop()
            for row, hash_function in enumerate(self._hashes):
                cell = row * self.n_buckets + hash_function(index)
                weight[cell] -= value
                dot[cell] -= index * value
                fingerprint[cell] = (
                    int(fingerprint[cell])
                    - value * pow(int(r[cell]), index, PRIME_61)
                ) % PRIME_61
            for result in rescan():
                if (
                    result.state is CellState.ONE_SPARSE
                    and result.index not in recovered
                ):
                    recovered[result.index] = result.value
                    frontier.append((result.index, result.value))
        for result in rescan():
            if result.state is CellState.COLLISION:
                return None
            if result.state is CellState.ONE_SPARSE and result.index not in recovered:
                recovered[result.index] = result.value
        return recovered

    def space_words(self) -> int:
        """Cells (4 words each: three accumulators plus the fingerprint
        base) plus one hash function per row."""
        cell_words = 4 * self.n_rows * self.n_buckets
        hash_words = sum(h.space_words() for h in self._hashes)
        return cell_words + hash_words
