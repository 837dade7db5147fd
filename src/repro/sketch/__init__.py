"""Sketching substrate: hashing, sparse recovery, and ℓ₀-sampling.

The insertion-deletion algorithm of the paper (Algorithm 3) is built on
ℓ₀-samplers in the style of Jowhari, Sağlam and Tardos [26]: structures
that process a stream of signed coordinate updates to a huge implicit
vector and, at query time, return a uniformly random member of the
vector's support.  This package implements the full stack from scratch:

* :mod:`repro.sketch.hashing` — k-wise independent hash families over a
  Mersenne-prime field;
* :mod:`repro.sketch.onesparse` — 1-sparse recovery cells with a
  fingerprint test, scalar and as array planes sharing one base;
* :mod:`repro.sketch.l0` — the ℓ₀-sampler: independent repetitions of
  nested geometric levels, one 1-sparse cell per level, and the
  exact/fast sampler banks;
* :mod:`repro.sketch.exact` — exact counters and supports (oracles in
  tests, the fast banks' support) and the one update-netting pass.
"""

from repro.sketch.hashing import KWiseHash, PRIME_61, random_kwise
from repro.sketch.onesparse import OneSparseCell, OneSparseResult
from repro.sketch.l0 import (
    L0EdgeBank,
    L0Sampler,
    L0SamplerBank,
    l0_sampler_space_words,
)
from repro.sketch.exact import DegreeCounter, ExactSupport
from repro.sketch.bloom import BloomDedup, BloomFilter, DuplicateFilter

__all__ = [
    "BloomDedup",
    "BloomFilter",
    "DegreeCounter",
    "DuplicateFilter",
    "ExactSupport",
    "KWiseHash",
    "L0EdgeBank",
    "L0Sampler",
    "L0SamplerBank",
    "OneSparseCell",
    "OneSparseResult",
    "PRIME_61",
    "l0_sampler_space_words",
    "random_kwise",
]
