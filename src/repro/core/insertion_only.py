"""Algorithm 2: the α-approximation for insertion-only streams.

Runs ``Deg-Res-Sampling(max(1, i*d/α), d/α, s)`` in parallel for
``i = 0 .. α-1`` with reservoir size ``s = ceil(ln(n) * n^{1/α})`` and
returns any successful run's neighbourhood.  Theorem 3.2: if some
A-vertex has degree at least ``d``, at least one run succeeds with
probability at least ``1 - 1/n``, and the total space is
``O(n log n + n^{1/α} d log² n)`` bits.

:class:`InsertionOnlyFEwW` is a
:class:`~repro.core.deg_res_sampling.SharedDegreeRuns` over the α runs
:func:`algorithm2_runs` derives: that class owns the one degree table
and the chunk step, this module adds the parameters, the per-shard
seed derivation of :meth:`InsertionOnlyFEwW.split` and the error
messages.  Star Detection derives its rungs' runs with the same
function.

Integrality: for non-divisible ``d / α`` we collect
``d2 = ceil(d / α)`` witnesses per sampled vertex and use thresholds
``d1_i = max(1, floor(i d / α))``.  These choices preserve the chain
``d1_{i+1} >= d1_i + d2 - 1`` that the counting argument in the proof of
Theorem 3.2 needs, and a ``d2``-witness output meets the required
``d / α`` bound.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns, spawn_seeds


def reservoir_size(n: int, alpha: int) -> int:
    """Reservoir size ``s = ceil(ln(n) * n^{1/alpha})`` from Algorithm 2."""
    if n < 2:
        return 1
    return math.ceil(math.log(n) * n ** (1.0 / alpha))


def algorithm2_runs(
    n: int,
    d: int,
    alpha: int,
    root: random.Random,
    reservoir_override: int | None = None,
) -> List[DegResSampling]:
    """Algorithm 2's α runs, each seeded with 64 bits drawn from ``root``.

    Validates the parameters, then derives the thresholds
    ``d1_i = max(1, floor(i d / α))``, ``d2 = ceil(d / α)`` and the
    reservoir size (``reservoir_override`` replaces the default).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be an integer >= 1, got {alpha}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = reservoir_size(n, alpha) if reservoir_override is None else reservoir_override
    d2 = math.ceil(d / alpha)
    return [
        DegResSampling(max(1, (i * d) // alpha), d2, s, root.getrandbits(64))
        for i in range(alpha)
    ]


class InsertionOnlyFEwW(SharedDegreeRuns):
    """The paper's Algorithm 2.

    Args:
        n: number of A-vertices.
        d: degree threshold (the promise: some A-vertex has degree >= d).
        alpha: integral approximation factor (>= 1).
        seed: RNG seed; runs derive independent generators from it.
        reservoir_override: replace the default ``ceil(ln n * n^{1/α})``
            reservoir size (used by ablation benchmarks).
    """

    NAME = "Algorithm 2"
    DELETIONS_REJECTED = (
        "Algorithm 2 handles insertion-only streams; "
        "use InsertionDeletionFEwW for turnstile input"
    )

    def __init__(
        self,
        n: int,
        d: int,
        alpha: int,
        seed: int | None = None,
        reservoir_override: int | None = None,
    ) -> None:
        root = random.Random(seed)
        super().__init__(n, algorithm2_runs(n, d, alpha, root, reservoir_override))
        self.d = d
        self.alpha = alpha
        self.s = self.runs[0].s
        self.d2 = self.runs[0].d2
        #: Entropy for per-shard RNG derivation (split()), drawn from the
        #: root so it is deterministic for explicit seeds but fresh (OS
        #: entropy) for seed=None — unseeded sharded runs must stay
        #: independent across repetitions, or repeating a failed run
        #: could never boost the success probability.
        self._seed_entropy = root.getrandbits(64)

    def _parameters(self) -> str:
        return f"n={self.n}, d={self.d}, alpha={self.alpha}, s={self.s}"

    def split(self, n_shards: int) -> List["InsertionOnlyFEwW"]:
        """``n_shards`` empty same-parameter shard instances.

        Each shard's α runs draw from *independently derived* RNG
        streams — :class:`numpy.random.SeedSequence` children spawned
        from the master seed, one per shard — instead of replicating
        the parent's coins.  Replicated coins were harmless for the
        reservoir contents (vertex routing gives shards disjoint
        candidate sets) but made shard trajectories perfectly
        correlated: every shard evicted at the same candidate ordinals,
        which skews which *positions* of a sub-stream survive when
        candidate counts are similar across shards.  Derivation is
        deterministic — the same master seed always produces the same
        per-shard generators — so sharded runs stay reproducible, and
        the no-eviction regime (where no coin is ever flipped) remains
        bit-identical to single-core execution.
        """
        shards = super().split(n_shards)
        spawn_seeds([shard.runs for shard in shards], self._seed_entropy)
        return shards
