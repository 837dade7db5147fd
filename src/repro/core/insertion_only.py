"""Algorithm 2: the α-approximation for insertion-only streams.

Runs ``Deg-Res-Sampling(max(1, i*d/α), d/α, s)`` in parallel for
``i = 0 .. α-1`` with reservoir size ``s = ceil(ln(n) * n^{1/α})`` and
returns any successful run's neighbourhood.  Theorem 3.2: if some
A-vertex has degree at least ``d``, at least one run succeeds with
probability at least ``1 - 1/n``, and the total space is
``O(n log n + n^{1/α} d log² n)`` bits.

Integrality: for non-divisible ``d / α`` we collect
``d2 = ceil(d / α)`` witnesses per sampled vertex and use thresholds
``d1_i = max(1, floor(i d / α))``.  These choices preserve the chain
``d1_{i+1} >= d1_i + d2 - 1`` that the counting argument in the proof of
Theorem 3.2 needs, and a ``d2``-witness output meets the required
``d / α`` bound.
"""

from __future__ import annotations

import copy
import math
import random
from typing import List, Optional

import numpy as np

from repro.core.deg_res_sampling import DegResSampling, collect_witnesses
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.sketch.exact import DegreeCounter
from repro.spacemeter import SpaceBreakdown
from repro.streams.columnar import group_slices
from repro.streams.edge import INSERT


def reservoir_size(n: int, alpha: int) -> int:
    """Reservoir size ``s = ceil(ln(n) * n^{1/alpha})`` from Algorithm 2."""
    if n < 2:
        return 1
    return math.ceil(math.log(n) * n ** (1.0 / alpha))


class InsertionOnlyFEwW(BatchIngest):
    """The paper's Algorithm 2.

    Args:
        n: number of A-vertices.
        d: degree threshold (the promise: some A-vertex has degree >= d).
        alpha: integral approximation factor (>= 1).
        seed: RNG seed; runs derive independent generators from it.
        reservoir_override: replace the default ``ceil(ln n * n^{1/α})``
            reservoir size (used by ablation benchmarks).
        own_degrees: when True (standalone mode) the instance maintains
            its own shared degree counter and accepts :meth:`process` /
            :meth:`process_batch`; when False the caller (Star
            Detection's guess ladder) owns one counter for the whole
            ladder and drives :meth:`observe_batch` with post-increment
            degrees.  The RNG trajectory is identical either way (the
            counter draws no randomness).
    """

    #: The paper's Algorithm 2 shards by vertex hash: the shared degree
    #: table and every run's residency-window witness collection stay
    #: exact inside each vertex's owning shard (see
    #: repro.engine.protocol).
    shard_routing = "vertex"

    def __init__(
        self,
        n: int,
        d: int,
        alpha: int,
        seed: int | None = None,
        reservoir_override: int | None = None,
        own_degrees: bool = True,
    ) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be an integer >= 1, got {alpha}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if d > 0 and n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.d = d
        self.alpha = alpha
        self.s = reservoir_override if reservoir_override is not None else reservoir_size(n, alpha)
        self.d2 = math.ceil(d / alpha)
        root = random.Random(seed)
        self._degrees: Optional[DegreeCounter] = DegreeCounter(n) if own_degrees else None
        self.runs: List[DegResSampling] = []
        for i in range(alpha):
            d1 = max(1, (i * d) // alpha)
            run_rng = random.Random(root.getrandbits(64))
            self.runs.append(
                DegResSampling(n, d1, self.d2, self.s, run_rng, own_degrees=False)
            )
        #: Entropy for per-shard RNG derivation (split()), drawn from the
        #: root so it is deterministic for explicit seeds but fresh (OS
        #: entropy) for seed=None — unseeded sharded runs must stay
        #: independent across repetitions, or repeating a failed run
        #: could never boost the success probability.
        self._seed_entropy = root.getrandbits(64)

    # ------------------------------------------------------------------
    # Stream processing.
    # ------------------------------------------------------------------

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
        *,
        grouping=None,
    ) -> None:
        """Feed a column chunk of insertions to every parallel run.

        The shared degree table is updated with one vectorized scatter,
        and each run receives the same post-increment degree vector — so
        the ``O(n log n)``-bit table is still charged (and computed) once,
        not α times.  State is bit-identical at every chunk size.

        ``grouping`` optionally passes a precomputed stable
        ``(order, starts, ends)`` grouping of ``a`` (see
        :func:`repro.streams.columnar.group_slices`); Star Detection
        uses it to sort each double-cover chunk once and share the
        result across all ``O(log n)`` degree-guess instances.
        """
        if sign is not None and np.any(sign != INSERT):
            raise ValueError(
                "Algorithm 2 handles insertion-only streams; "
                "use InsertionDeletionFEwW for turnstile input"
            )
        if self._degrees is None:
            raise RuntimeError(
                "this instance is driven externally (own_degrees=False); "
                "use observe_batch"
            )
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        if len(a) == 0:
            return
        # One stable grouping of the chunk serves the shared degree
        # update and every run's witness collection.
        if grouping is None:
            grouping = group_slices(a)
        order, starts, ends = grouping
        degree_after = self._degrees.increment_batch(
            a, grouping=(order, starts, ends)
        )
        composite = a[order] * np.int64(len(a)) + order
        run_grouping = (order, starts, ends, a[order[starts]], composite)
        self.observe_batch(a, b, degree_after, grouping=run_grouping)

    def observe_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        degree_after: np.ndarray,
        *,
        grouping,
        crossings=None,
    ) -> None:
        """Feed a pre-counted column chunk of insertions to every run.

        Externally-driven counterpart of :meth:`process_batch`: the
        caller owns the shared degree counter and passes the
        post-increment degree column plus the run grouping
        ``(order, starts, ends, group_vertices[, composite])``.
        ``crossings`` optionally maps each distinct ``d1`` threshold to
        the ascending chunk positions where ``degree_after`` equals it,
        letting Star Detection extract every rung's crossings from one
        shared scan.  ``a``/``b`` must already be contiguous ``int64``
        and non-empty.

        The α runs' witness-collection tails are fused: each run replays
        its own (rare) crossings in Python, then a single
        :func:`~repro.core.deg_res_sampling.collect_witnesses` pass
        serves every run's occurrence searches and gathers at once.
        State per run is bit-identical to fanning the chunk run by run.
        """
        n_items = len(a)
        requests = []
        for run in self.runs:
            run_crossings = (
                np.flatnonzero(degree_after == run.d1)
                if crossings is None
                else crossings.get(run.d1)
            )
            windows = run._replay_crossings(a, b, run_crossings)
            if not windows:
                continue
            request = run._witness_requests(windows, n_items)
            if request[0]:
                requests.append((run,) + request)
        if not requests:
            return
        order = grouping[0]
        composite = grouping[4] if len(grouping) == 5 else None
        if composite is None:
            composite = a[order] * np.int64(n_items) + order
        collect_witnesses(requests, composite, order, b)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def clone(self) -> "InsertionOnlyFEwW":
        """An independent duplicate of the full Algorithm 2 state.

        Equivalent to ``copy.deepcopy`` (the shared degree table, every
        run's reservoir, and all RNG states carry over) without the
        generic graph walk — the window-policy fold/probe fast path.
        """
        dup = object.__new__(InsertionOnlyFEwW)
        dup.n, dup.d, dup.alpha = self.n, self.d, self.alpha
        dup.s, dup.d2 = self.s, self.d2
        dup._degrees = None if self._degrees is None else self._degrees.clone()
        dup.runs = [run.clone() for run in self.runs]
        dup._seed_entropy = self._seed_entropy
        return dup

    def merge(self, other: "InsertionOnlyFEwW") -> "InsertionOnlyFEwW":
        """Combine two Algorithm 2 states over vertex-disjoint sub-streams.

        The shared degree tables add (exact under vertex routing) and
        each of the α parallel runs merges with its counterpart
        (reservoir union, witnesses deduplicated and clipped at merge
        time).  Every shard is a faithful Algorithm 2 execution over its
        sub-stream, so Theorem 3.2's success bound holds for the shard
        owning the promised heavy vertex — the merged state answers with
        at least that probability.
        """
        if not isinstance(other, InsertionOnlyFEwW):
            raise ValueError(
                f"cannot merge InsertionOnlyFEwW with {type(other).__name__}"
            )
        if (self.n, self.d, self.alpha, self.s) != (
            other.n,
            other.d,
            other.alpha,
            other.s,
        ):
            raise ValueError(
                f"cannot merge Algorithm 2 (n={self.n}, d={self.d}, "
                f"alpha={self.alpha}, s={self.s}) with (n={other.n}, "
                f"d={other.d}, alpha={other.alpha}, s={other.s})"
            )
        if (self._degrees is None) != (other._degrees is None):
            raise ValueError(
                "cannot merge a standalone instance (own_degrees=True) "
                "with an externally driven one"
            )
        if self._degrees is not None and other._degrees is not None:
            self._degrees.merge(other._degrees)
        for mine, theirs in zip(self.runs, other.runs):
            mine.merge(theirs)
        return self

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
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._degrees is None:
            raise RuntimeError(
                "this instance is driven externally (own_degrees=False); "
                "split the owning wrapper instead"
            )
        if self._degrees.max_degree() > 0:
            raise RuntimeError("split() must be called before processing")
        children = np.random.SeedSequence(self._seed_entropy).spawn(n_shards)
        shards = []
        for child in children:
            shard = copy.deepcopy(self)
            words = child.generate_state(self.alpha, dtype=np.uint64)
            for run, word in zip(shard.runs, words.tolist()):
                run._rng = random.Random(int(word))
            shards.append(shard)
        return shards

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    @property
    def successful(self) -> bool:
        """True when at least one parallel run succeeded."""
        return any(run.successful for run in self.runs)

    def successful_runs(self) -> List[int]:
        """Indices of the successful parallel runs (for diagnostics)."""
        return [i for i, run in enumerate(self.runs) if run.successful]

    def result(self) -> Neighbourhood:
        """Any successful run's neighbourhood (size >= ceil(d/α)).

        Raises:
            AlgorithmFailed: when every run failed (probability <= 1/n
            under the degree-d promise).
        """
        for run in self.runs:
            if run.successful:
                return run.result()
        raise AlgorithmFailed(
            f"all {self.alpha} parallel runs failed "
            f"(n={self.n}, d={self.d}, alpha={self.alpha}, s={self.s})"
        )

    def finalize(self) -> Optional[Neighbourhood]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        algorithm's answer, or ``None`` instead of raising on failure."""
        try:
            return self.result()
        except AlgorithmFailed:
            return None

    def current_degree(self, a: int) -> int:
        """Degree of A-vertex ``a`` seen so far (the shared counter)."""
        if self._degrees is None:
            raise RuntimeError(
                "this instance is driven externally (own_degrees=False); "
                "query the owning wrapper's counter"
            )
        return self._degrees.degree(a)

    # ------------------------------------------------------------------
    # Space accounting.
    # ------------------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """Degree table charged once, plus every run's reservoir state;
        excludes the counter when a guess-ladder wrapper owns it."""
        breakdown = SpaceBreakdown()
        if self._degrees is not None:
            breakdown.add("degree counts", self._degrees.space_words())
        for i, run in enumerate(self.runs):
            breakdown.merge(run.space_breakdown(), prefix=f"run{i} ")
        return breakdown

    def space_words(self) -> int:
        return self.space_breakdown().total_words()
