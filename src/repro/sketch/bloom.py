"""Bloom filters, and a streaming duplicate filter built on them.

The paper's related work cites multi-stage Bloom filters [11] among the
classical FE toolkit; here a Bloom filter serves a substrate role: the
FEwW problem is defined on *simple* graphs, but raw application logs
(router packets, database updates) repeat (item, witness) pairs.
:class:`DuplicateFilter` turns a raw pair stream into a near-simple
edge stream in small space, at the cost of a tunable false-positive
rate (a duplicate-looking pair is dropped, so a small fraction of
genuine first arrivals is lost — which only lowers observed degrees,
never inflates them).
"""

from __future__ import annotations

import copy
import math
import random
from typing import Hashable, List, Optional

import numpy as np

from repro.engine.protocol import BatchIngest
from repro.sketch.hashing import KWiseHash, random_kwise


class BloomFilter:
    """Standard Bloom filter over integer keys.

    Args:
        capacity: expected number of distinct insertions.
        fp_rate: target false-positive probability at capacity.
        rng: randomness for the hash functions.
    """

    def __init__(self, capacity: int, fp_rate: float, rng: random.Random) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0 < fp_rate < 1:
            raise ValueError(f"fp_rate must be in (0,1), got {fp_rate}")
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.n_bits = max(8, math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2)))
        self.n_hashes = max(1, round(self.n_bits / capacity * math.log(2)))
        self._hashes: List[KWiseHash] = [
            random_kwise(2, self.n_bits, rng) for _ in range(self.n_hashes)
        ]
        self._bits = bytearray((self.n_bits + 7) // 8)
        self._count = 0

    def _positions(self, key: int) -> List[int]:
        return [hash_function(key) for hash_function in self._hashes]

    def add(self, key: int) -> None:
        """Insert a key (idempotent)."""
        for position in self._positions(key):
            self._bits[position // 8] |= 1 << (position % 8)
        self._count += 1

    def __contains__(self, key: int) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(key)
        )

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """OR-combine two same-hash filters over disjoint sub-streams.

        Valid only for filters split/copied from the same seeded
        instance (identical hash functions); the merged bit array is
        exactly the single-pass array, since bit-OR is the filter's
        native union.
        """
        if (
            not isinstance(other, BloomFilter)
            or (self.n_bits, self.n_hashes) != (other.n_bits, other.n_hashes)
            or any(
                mine.coefficients != theirs.coefficients
                for mine, theirs in zip(self._hashes, other._hashes)
            )
        ):
            raise ValueError(
                "cannot merge incompatible Bloom filters; split both from "
                "the same seeded structure"
            )
        for index, byte in enumerate(other._bits):
            self._bits[index] |= byte
        self._count += other._count
        return self

    def expected_fp_rate(self) -> float:
        """Current false-positive estimate from the standard formula."""
        if self._count == 0:
            return 0.0
        exponent = -self.n_hashes * self._count / self.n_bits
        return (1.0 - math.exp(exponent)) ** self.n_hashes

    def space_words(self) -> int:
        """Bit array (packed into words) plus the hash functions."""
        array_words = math.ceil(self.n_bits / 64)
        return array_words + sum(h.space_words() for h in self._hashes)


class DuplicateFilter:
    """Drop repeated (item, witness) pairs from a raw stream.

    Wraps a Bloom filter keyed on the pair's flat index.  ``admit``
    returns True exactly when the pair should be forwarded to the FEwW
    algorithm: the first arrival of a pair is admitted unless a Bloom
    false positive (probability ``fp_rate``) suppresses it; later
    arrivals are always suppressed.  Degrees seen downstream are
    therefore *under*-estimates by at most an ``fp_rate`` fraction —
    the safe direction for FEwW's promise.
    """

    def __init__(self, n: int, m: int, capacity: int, fp_rate: float,
                 rng: random.Random) -> None:
        self.n = n
        self.m = m
        self._bloom = BloomFilter(capacity, fp_rate, rng)

    def admit(self, a: int, b: int) -> bool:
        """True when the (a, b) pair is seen for the (apparent) first time."""
        if not (0 <= a < self.n and 0 <= b < self.m):
            raise ValueError(f"pair ({a}, {b}) out of range ({self.n}, {self.m})")
        key = a * self.m + b
        if key in self._bloom:
            return False
        self._bloom.add(key)
        return True

    def merge(self, other: "DuplicateFilter") -> "DuplicateFilter":
        """Combine two same-seed filters over disjoint pair sub-streams."""
        if not isinstance(other, DuplicateFilter) or (self.n, self.m) != (
            other.n, other.m
        ):
            raise ValueError(
                "cannot merge incompatible duplicate filters; split both "
                "from the same seeded structure"
            )
        self._bloom.merge(other._bloom)
        return self

    def space_words(self) -> int:
        return self._bloom.space_words()


class BloomDedup(BatchIngest):
    """Engine adapter: streaming pair dedup as a pipeline processor.

    Wraps a :class:`DuplicateFilter` in the
    :class:`~repro.engine.protocol.MergeableStreamProcessor` surface:
    each ``(a, b)`` pair in a chunk is admitted on (apparent) first
    arrival and counted as a duplicate otherwise, giving a streaming
    measurement of a raw log's repetition in Bloom-filter space.  Signs
    are ignored — duplication is a property of the *pair*, not of the
    update's direction.  ``finalize`` returns the adapter itself for
    continued querying (``admitted`` / ``suppressed`` /
    :meth:`space_words`).

    ``shard_routing = "vertex"`` routes every A-vertex's pairs to one
    shard, so shard-local first-arrival decisions are exactly the
    single-pass decisions (the pair key spaces are disjoint) and merged
    counts are exact.
    """

    #: Pair keys partition by A-endpoint, keeping dedup decisions exact.
    shard_routing = "vertex"
    #: Only same-seed twins merge: windows seed every bucket alike.
    merge_needs_equal_seeds = True

    def __init__(
        self,
        n: int,
        m: int,
        capacity: int,
        fp_rate: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.seed = seed
        self._filter = DuplicateFilter(
            n, m, capacity, fp_rate, random.Random(seed)
        )
        self.admitted = 0
        self.suppressed = 0

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        admit = self._filter.admit
        admitted = 0
        # repro: allow-scalar-loop first-arrival admission is
        # order-dependent: admit() mutates the filter per pair, so a
        # chunk cannot be collapsed without changing which duplicate
        # of a pair is the one admitted
        for pair_a, pair_b in zip(
            np.asarray(a, dtype=np.int64).tolist(),
            np.asarray(b, dtype=np.int64).tolist(),
        ):
            if admit(pair_a, pair_b):
                admitted += 1
        self.admitted += admitted
        self.suppressed += len(a) - admitted

    def finalize(self) -> "BloomDedup":
        return self

    def split(self, n_shards: int) -> List["BloomDedup"]:
        """``n_shards`` same-seed empty shard filters (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self.admitted or self.suppressed:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def merge(self, other: "BloomDedup") -> "BloomDedup":
        self._filter.merge(other._filter)
        self.admitted += other.admitted
        self.suppressed += other.suppressed
        return self

    def space_words(self) -> int:
        return self._filter.space_words()
