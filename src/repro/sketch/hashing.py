"""k-wise independent hash families over a Mersenne-prime field.

A degree-(k-1) polynomial with uniform random coefficients over
GF(p) evaluated at distinct points is a k-wise independent family — the
textbook construction, sufficient for every sketch in this library.
We use the Mersenne prime ``p = 2**61 - 1`` so all arithmetic fits in
Python integers comfortably and the modular reduction is cheap.

For the columnar batch engine the same polynomials are evaluated over
whole NumPy arrays at once (:meth:`KWiseHash.batch`).  Products of two
61-bit field elements need 122 bits, so the vectorized path splits each
operand into 31-bit limbs and folds the partial products with the
Mersenne identity ``2**61 ≡ 1 (mod p)``.  The four folded terms are
summed unreduced: their total is below ``2**63 + 2**32``, so it fits in
``uint64`` and one final reduction suffices (:func:`mulmod_p61`).  The
batch path is exact: it returns bit-identical values to
:meth:`KWiseHash.__call__` on every input.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np

#: Mersenne prime 2^61 - 1 used as the field size for all hash families.
PRIME_61 = (1 << 61) - 1

_MASK61 = np.uint64(PRIME_61)
_SHIFT61 = np.uint64(61)
_SHIFT31 = np.uint64(31)
_SHIFT30 = np.uint64(30)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_ONE = np.uint64(1)


def _fold61(x: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values modulo ``2**61 - 1`` (result in ``[0, p)``)."""
    x = (x & _MASK61) + (x >> _SHIFT61)
    x = (x & _MASK61) + (x >> _SHIFT61)
    return np.where(x == _MASK61, np.uint64(0), x)


def mulmod_p61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise ``a * b mod (2**61 - 1)`` for arrays with values in ``[0, p)``.

    Splits both operands into 31-bit limbs so every partial product fits
    in ``uint64``: with ``a = a1·2³¹ + a0`` and ``b = b1·2³¹ + b0``,

    ``a·b = a1·b1·2⁶² + (a1·b0 + a0·b1)·2³¹ + a0·b0``

    and ``2⁶¹ ≡ 1 (mod p)`` turns the first two terms into
    ``2·a1·b1 < 2⁶¹`` and ``(mid >> 30) + ((mid mod 2³⁰) << 31) < 2³² + 2⁶¹``.
    The four terms are summed unreduced — the total stays below
    ``2⁶³ + 2³²`` — and folded once.  In-place steps touch only fresh
    temporaries, never the operands.
    """
    a1, a0 = a >> _SHIFT31, a & _MASK31
    b1, b0 = b >> _SHIFT31, b & _MASK31
    mid = a1 * b0
    mid += a0 * b1                    # < 2^62
    total = a1 * b1                   # < 2^60; times 2^62 ≡ times 2 (mod p)
    total <<= _ONE
    total += mid >> _SHIFT30
    mid &= _MASK30
    mid <<= _SHIFT31
    total += mid
    total += a0 * b0                  # < 2^62
    return _fold61(total)


def powmod_p61(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Element-wise ``base ** exponent mod (2**61 - 1)`` via binary exponentiation.

    Broadcasts like a normal ufunc and returns bit-identical values to
    ``pow(int(b), int(e), PRIME_61)`` for every element (including
    ``e == 0`` which yields 1).  Runs ``bit_length(max(exponent))``
    rounds of :func:`mulmod_p61`, so the cost is logarithmic in the
    largest exponent, shared across the whole array.
    """
    base = np.asarray(base, dtype=np.uint64)
    exponent = np.asarray(exponent, dtype=np.uint64)
    base, exponent = np.broadcast_arrays(base, exponent)
    base = _fold61(base.copy())
    result = np.ones(base.shape, dtype=np.uint64)
    n_bits = int(exponent.max()).bit_length() if exponent.size else 0
    for bit in range(n_bits):
        take = ((exponent >> np.uint64(bit)) & _ONE) == _ONE
        result = np.where(take, mulmod_p61(result, base), result)
        if bit + 1 < n_bits:
            base = mulmod_p61(base, base)
    return result


def degree1_field(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(a * x + b) mod p`` for degree-1 hash coefficients, broadcast.

    ``a`` and ``b`` hold coefficients in ``[0, p)``; ``x`` holds
    non-negative ``int64`` points and broadcasts against them.  Equal to
    a pairwise-independent :class:`KWiseHash`'s :meth:`field_value`
    element by element.  Points below 2³¹ (any dimension up to 2³¹)
    take a shorter path: with ``a = a1·2³¹ + a0``, ``a·x = a1·x·2³¹ +
    a0·x`` where ``h = a1·x < 2⁶¹`` folds to ``(h >> 30) + ((h mod 2³⁰)
    << 31)``; adding ``a0·x < 2⁶²`` and ``b < 2⁶¹`` stays below
    ``2⁶³ + 2³¹``, so one fold reduces the sum — two multiplies instead
    of :func:`mulmod_p61`'s four and its extra fold.
    """
    points = x.astype(np.uint64)
    if x.size and int(x.max()) >= 1 << 31:
        return _fold61(mulmod_p61(a, _fold61(points)) + b)
    high = (a >> _SHIFT31) * points
    total = (a & _MASK31) * points
    total += b
    total += high >> _SHIFT30
    high &= _MASK30
    high <<= _SHIFT31
    total += high
    return _fold61(total)


class KWiseHash:
    """A member of a k-wise independent hash family ``[p] -> [range_size]``.

    Evaluates ``h(x) = (poly(x) mod p) mod range_size`` where ``poly`` has
    ``k`` uniformly random coefficients.  The modular bucketing introduces
    the usual negligible bias for ``range_size << p``.

    Args:
        coefficients: the ``k`` polynomial coefficients, constant term
            last; all must lie in ``[0, p)``.
        range_size: size of the output range.
    """

    __slots__ = ("coefficients", "range_size")

    def __init__(self, coefficients: Sequence[int], range_size: int) -> None:
        if not coefficients:
            raise ValueError("need at least one coefficient")
        if range_size <= 0:
            raise ValueError(f"range_size must be positive, got {range_size}")
        for coefficient in coefficients:
            if not 0 <= coefficient < PRIME_61:
                raise ValueError(f"coefficient {coefficient} out of field range")
        self.coefficients: List[int] = list(coefficients)
        self.range_size = range_size

    @property
    def independence(self) -> int:
        """The k of the k-wise family (number of coefficients)."""
        return len(self.coefficients)

    def __call__(self, x: int) -> int:
        value = 0
        for coefficient in self.coefficients:
            value = (value * x + coefficient) % PRIME_61
        return value % self.range_size

    def field_value(self, x: int) -> int:
        """Raw polynomial value in GF(p) before bucketing (for fingerprints)."""
        value = 0
        for coefficient in self.coefficients:
            value = (value * x + coefficient) % PRIME_61
        return value

    def field_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`field_value` over an integer array (``uint64``)."""
        xs = _fold61(np.asarray(xs, dtype=np.uint64))
        # Horner's first round multiplies zero — start from the leading
        # coefficient instead (bit-identical, one round cheaper).
        if len(self.coefficients) == 1:
            return np.full(xs.shape, np.uint64(self.coefficients[0]))
        values = np.broadcast_to(np.uint64(self.coefficients[0]), xs.shape)
        for coefficient in self.coefficients[1:]:
            values = _fold61(mulmod_p61(values, xs) + np.uint64(coefficient))
        return values

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__`: bucket values as an ``int64`` array.

        Bit-identical to evaluating the scalar hash on every element; used
        by the ``process_batch`` paths of every sketch.
        """
        return (self.field_batch(xs) % np.uint64(self.range_size)).astype(np.int64)

    def space_words(self) -> int:
        """One word per coefficient plus the range size."""
        return len(self.coefficients) + 1


class KWiseHashStack:
    """Fused evaluation of several :class:`KWiseHash` members at once.

    Stacks the coefficient vectors of ``rows`` same-independence hashes
    into one ``(rows, k)`` matrix so a whole bank of hashes is evaluated
    over a chunk with a single broadcast Horner pass — one
    ``rows x chunk`` matrix of modular arithmetic instead of ``rows``
    separate passes.  Row ``i`` of :meth:`batch_rows` is bit-identical
    to ``hashes[i].batch(xs)`` (the limb arithmetic is element-wise, so
    broadcasting cannot change any value).

    The stacked hashes may use different ``range_size`` values (the
    bucketing modulus is applied per row), which lets CountSketch fuse
    its bucket and ±1 sign hashes into one evaluation.
    """

    __slots__ = ("hashes", "_coefficients", "_ranges")

    def __init__(self, hashes: Sequence[KWiseHash]) -> None:
        hashes = list(hashes)
        if not hashes:
            raise ValueError("need at least one hash to stack")
        independence = hashes[0].independence
        for hash_function in hashes:
            if hash_function.independence != independence:
                raise ValueError(
                    "all stacked hashes must share the same independence; "
                    f"got {hash_function.independence} and {independence}"
                )
        self.hashes: List[KWiseHash] = hashes
        self._coefficients = np.array(
            [hash_function.coefficients for hash_function in hashes],
            dtype=np.uint64,
        )
        self._ranges = np.array(
            [[hash_function.range_size] for hash_function in hashes],
            dtype=np.uint64,
        )

    @property
    def rows(self) -> int:
        """Number of stacked hash functions."""
        return len(self.hashes)

    def field_batch_rows(self, xs: np.ndarray) -> np.ndarray:
        """All raw polynomial values as a ``(rows, len(xs))`` ``uint64`` array."""
        xs = _fold61(np.asarray(xs, dtype=np.uint64))[np.newaxis, :]
        # Start Horner from the leading coefficients (bit-identical to a
        # zero-initialised first round, one round cheaper).
        if self._coefficients.shape[1] == 1:
            return np.broadcast_to(
                self._coefficients[:, 0:1], (len(self.hashes), xs.shape[1])
            ).copy()
        values: np.ndarray = self._coefficients[:, 0:1]
        for j in range(1, self._coefficients.shape[1]):
            values = _fold61(mulmod_p61(values, xs) + self._coefficients[:, j : j + 1])
        return values

    def batch_rows(self, xs: np.ndarray) -> np.ndarray:
        """All bucket values as a ``(rows, len(xs))`` ``int64`` array.

        ``batch_rows(xs)[i]`` is bit-identical to ``hashes[i].batch(xs)``.
        """
        return (self.field_batch_rows(xs) % self._ranges).astype(np.int64)


def random_kwise(k: int, range_size: int, rng: random.Random) -> KWiseHash:
    """Draw a uniformly random member of the k-wise family.

    The leading coefficient is drawn from ``[1, p)`` so the polynomial
    has true degree ``k - 1`` (for ``k >= 2``); this does not affect the
    independence guarantee and avoids degenerate constant hashes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k == 1:
        coefficients = [rng.randrange(PRIME_61)]
    else:
        coefficients = [rng.randrange(1, PRIME_61)]
        coefficients.extend(rng.randrange(PRIME_61) for _ in range(k - 1))
    return KWiseHash(coefficients, range_size)
