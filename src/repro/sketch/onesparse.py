"""1-sparse recovery cells.

A 1-sparse recovery cell processes signed updates ``(index, delta)`` to
an implicit vector and can, at query time, decide whether the vector is
exactly 1-sparse (support size one) and if so return the index and value
of the single non-zero coordinate.

The cell stores three accumulators:

* ``weight``  = sum of deltas,
* ``dot``     = sum of ``index * delta``,
* ``fingerprint`` = sum of ``delta * r^index`` in GF(p) for a random r.

If the vector is 1-sparse with support ``{i}`` and value ``w``, then
``weight = w``, ``dot = i * w``, and the fingerprint equals
``w * r^i``.  The fingerprint test catches vectors that merely *look*
1-sparse on the first two accumulators; a false positive requires the
random ``r`` to be a root of a non-zero polynomial of degree <= dim,
probability <= dim / p (Schwartz–Zippel).

:class:`OneSparseCell` is the scalar cell.  The array functions below
keep many cells as three flat planes (``weight`` and ``dot`` ``int64``,
``fingerprint`` ``uint64``) that share one base ``z`` per owner, as
the ℓ₀-sampler of :mod:`repro.sketch.l0` does: ``z^index`` comes from a
small windowed power table (:func:`build_power_table`,
:func:`table_powers`), a batch lands with one exact scatter per plane
(:func:`scatter_cells`), and :func:`one_sparse_cells` classifies cells
with the same arithmetic as :meth:`OneSparseCell.decode`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from repro.sketch.exact import bincount_sum_int64
from repro.sketch.hashing import PRIME_61, _fold61, mulmod_p61

_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)
_POW32 = np.uint64(1 << 32)  # 2^32 < p, already reduced
#: Fingerprint contributions per float64 limb bincount (limb sums stay
#: integers below 2^53).
_SCATTER_CHUNK = 1 << 20
_WINDOW_BITS = 8


class CellState(Enum):
    """Decoded state of a 1-sparse cell."""

    ZERO = "zero"
    ONE_SPARSE = "one-sparse"
    COLLISION = "collision"


@dataclass(frozen=True)
class OneSparseResult:
    """Decoded contents of a cell: state and, when 1-sparse, (index, value)."""

    state: CellState
    index: Optional[int] = None
    value: Optional[int] = None


class OneSparseCell:
    """A single 1-sparse recovery cell over vectors of dimension ``dim``.

    Args:
        dim: dimension of the implicit vector; indices must lie in
            ``[0, dim)``.
        rng: source of randomness for the fingerprint base.
    """

    __slots__ = ("dim", "_r", "_weight", "_dot", "_fingerprint")

    def __init__(self, dim: int, rng: random.Random) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._r = rng.randrange(2, PRIME_61)
        self._weight = 0
        self._dot = 0
        self._fingerprint = 0

    def update(self, index: int, delta: int) -> None:
        """Apply ``vector[index] += delta``."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range [0, {self.dim})")
        self._weight += delta
        self._dot += index * delta
        self._fingerprint = (
            self._fingerprint + delta * pow(self._r, index, PRIME_61)
        ) % PRIME_61

    def decode(self) -> OneSparseResult:
        """Classify the cell and recover the coordinate when 1-sparse."""
        if self._weight == 0 and self._dot == 0 and self._fingerprint == 0:
            return OneSparseResult(CellState.ZERO)
        if self._weight != 0 and self._dot % self._weight == 0:
            index = self._dot // self._weight
            if 0 <= index < self.dim:
                expected = (self._weight * pow(self._r, index, PRIME_61)) % PRIME_61
                if expected == self._fingerprint:
                    return OneSparseResult(CellState.ONE_SPARSE, index, self._weight)
        return OneSparseResult(CellState.COLLISION)

    def merge(self, other: "OneSparseCell") -> "OneSparseCell":
        """Accumulator-wise sum of two cells over disjoint sub-streams.

        Valid only for cells sharing the same fingerprint base ``r``
        (i.e. split from one seeded structure); the merged cell equals
        the cell of the concatenated update stream exactly.
        """
        if self.dim != other.dim or self._r != other._r:
            raise ValueError(
                "cannot merge 1-sparse cells with different dimensions or "
                "fingerprint bases; split both from the same seeded structure"
            )
        self._weight += other._weight
        self._dot += other._dot
        self._fingerprint = (self._fingerprint + other._fingerprint) % PRIME_61
        return self

    def is_zero(self) -> bool:
        """True when every accumulator is zero (vector certainly empty... or
        an exact cancellation, probability <= dim/p)."""
        return self._weight == 0 and self._dot == 0 and self._fingerprint == 0

    def space_words(self) -> int:
        """Three accumulators plus the fingerprint base."""
        return 4


def power_table_shape(dim: int) -> Tuple[int, int]:
    """``(windows, entries per window)`` of the power table for ``[0, dim)``.

    Exponents below ``dim`` need ``bits = bit_length(dim - 1)`` bits.
    The window count ``W = ceil(bits / 8)`` fixes the lookups per
    exponent; the width ``ceil(bits / W)`` is the narrowest that still
    covers every bit with ``W`` windows (at ``dim = 2**18``: 3 windows
    of 6 bits, 64 entries each instead of 256).
    """
    bits = max(dim - 1, 1).bit_length()
    windows = (bits + _WINDOW_BITS - 1) // _WINDOW_BITS
    return windows, 1 << -(-bits // windows)


def build_power_table(z, dim: int) -> np.ndarray:
    """The windowed power table of a fingerprint base ``z``.

    Returns a ``(windows, size)`` ``uint64`` array (see
    :func:`power_table_shape`) where entry ``[w, v]`` holds
    ``z ** (v << (w * log2(size))) mod p``, so any ``z ** index`` with
    ``index < dim`` is the product of one lookup per window
    (:func:`table_powers`).  An array of bases gives their tables
    stacked on trailing axes, ``(windows, size) + z.shape``, built in
    the same vectorized passes.  Each window fills by log-doubling: once
    exponents ``[0, filled)`` exist, ``table[filled + j] = table[j] *
    base^filled`` extends them in one multiply.  Every entry is the
    canonical residue, bit-identical to ``pow(z, exponent, p)``.
    """
    n_windows, size = power_table_shape(dim)
    base = np.asarray(z, dtype=np.uint64)
    table = np.empty((n_windows, size) + base.shape, dtype=np.uint64)
    for window in range(n_windows):
        row = table[window]
        row[0] = np.uint64(1)
        row[1] = base
        filled = 2
        while filled < size:
            take = min(filled, size - filled)
            step = mulmod_p61(row[filled - 1], base)
            row[filled : filled + take] = mulmod_p61(row[:take], step)
            filled += take
        if window + 1 < n_windows:
            base = mulmod_p61(row[size - 1], base)
    return table


def table_powers(
    tables: np.ndarray, indices: np.ndarray, *bases: np.ndarray
) -> np.ndarray:
    """Gather ``z ** indices`` from :func:`build_power_table` output.

    ``tables`` is one ``(windows, size)`` table, or several stacked on
    trailing axes (a bank stacks its samplers' tables as ``(windows,
    size, samplers)``); ``bases`` then index those trailing axes and
    broadcast against ``indices``.  The product of canonical residues is
    the canonical residue of ``z ** index``.
    """
    width = tables.shape[1].bit_length() - 1
    mask = np.int64(tables.shape[1] - 1)
    powers = tables[(0, indices & mask) + bases]
    for window in range(1, tables.shape[0]):
        digits = (indices >> np.int64(window * width)) & mask
        powers = mulmod_p61(powers, tables[(window, digits) + bases])
    return powers


def signed_terms(powers: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Fingerprint contributions ``delta * z^index mod p``.

    ``powers`` holds ``z^index`` and broadcasts against ``deltas``.
    Unit deltas (edge streams) need no multiply: powers lie in
    ``[1, p)``, so ``p - powers`` is the exact negation.
    """
    magnitudes = np.abs(deltas)
    if magnitudes.size and magnitudes.max() == 1 and magnitudes.min() == 1:
        return np.where(deltas > 0, powers, np.uint64(PRIME_61) - powers)
    return mulmod_p61(powers, np.remainder(deltas, PRIME_61).astype(np.uint64))


def scatter_cells(
    weight: np.ndarray,
    dot: np.ndarray,
    fingerprint: np.ndarray,
    addr: np.ndarray,
    deltas: np.ndarray,
    dots: np.ndarray,
    terms: np.ndarray,
) -> None:
    """Add per-item contributions into flat cell planes, in place.

    ``addr`` holds a flat cell address per contribution; ``deltas``,
    ``dots`` (``index * delta``) and ``terms`` (``delta * z^index``)
    its three accumulator terms.  ``weight`` and ``dot`` take exact
    ``int64`` sums (:func:`bincount_sum_int64`); ``fingerprint`` sums
    32-bit limbs in float64 over slices small enough to stay integral
    and recombines them modulo ``2^61 - 1``.  Every plane's addition is
    exact and commutative, so the result equals applying the items one
    at a time.  Each slice sums and folds only its address window.
    """
    for start in range(0, len(addr), _SCATTER_CHUNK):
        piece = slice(start, start + _SCATTER_CHUNK)
        low = int(addr[piece].min())
        chunk_addr = addr[piece] - low
        window = slice(low, low + int(chunk_addr.max()) + 1)
        length = window.stop - low
        weight[window] += bincount_sum_int64(chunk_addr, deltas[piece], length)
        dot[window] += bincount_sum_int64(chunk_addr, dots[piece], length)
        chunk = terms[piece]
        lo = np.bincount(
            chunk_addr, weights=(chunk & _MASK32).astype(np.float64), minlength=length
        ).astype(np.uint64)
        hi = np.bincount(
            chunk_addr, weights=(chunk >> _SHIFT32).astype(np.float64), minlength=length
        ).astype(np.uint64)
        folded = _fold61(mulmod_p61(_fold61(hi), _POW32) + _fold61(lo))
        fingerprint[window] = _fold61(fingerprint[window] + folded)


def one_sparse_cells(
    weight: np.ndarray,
    dot: np.ndarray,
    fingerprint: np.ndarray,
    dim: int,
    tables: np.ndarray,
    *bases: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Classify cells: ``(index, one_sparse)``, both shaped like the planes.

    A cell is 1-sparse when its weight is non-zero and divides its dot,
    the quotient ``index`` lies in ``[0, dim)``, and ``weight * z^index
    mod p`` equals its fingerprint — :meth:`OneSparseCell.decode`'s
    test, with NumPy's floored ``//``/``%`` matching Python's for
    negative weights.  ``z^index`` is read from the power ``tables``
    and ``bases`` pick each cell's table, as in :func:`table_powers`.
    """
    nonzero = weight != 0
    safe = np.where(nonzero, weight, 1)
    index = dot // safe
    one_sparse = nonzero & (dot % safe == 0) & (index >= 0) & (index < dim)
    index = np.where(one_sparse, index, 0)
    expected = mulmod_p61(
        np.remainder(weight, PRIME_61).astype(np.uint64),
        table_powers(tables, index, *bases),
    )
    one_sparse &= expected == fingerprint
    return index, one_sparse
