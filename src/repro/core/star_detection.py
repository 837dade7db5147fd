"""Star Detection via FEwW (Lemma 3.3, Corollaries 3.4 and 5.5).

Star Detection asks for a vertex of (approximately) maximum degree in a
general graph *together with* a proportional share of its neighbours.
Lemma 3.3 reduces it to FEwW: run the FEwW algorithm for
``O(log_{1+ε} n)`` geometric guesses ``Δ' ∈ {1, 1+ε, (1+ε)², ...}`` of
the unknown maximum degree Δ, on the bipartite double cover of the
input graph.  The run whose guess is the largest ``Δ' <= Δ`` outputs a
neighbourhood of size ``>= Δ / ((1+ε) α)``, making the whole wrapper a
``(1+ε)α``-approximation at a ``log_{1+ε} n`` space overhead.

With the insertion-only algorithm and ``α = log n`` this yields the
semi-streaming ``O(log n)``-approximation of Corollary 3.4; with the
insertion-deletion algorithm and ``α = √n`` it yields Corollary 5.5.

Execution is batch-first: :class:`StarDetection` conforms to the
:class:`~repro.engine.StreamProcessor` protocol.  Insertion-only, every
rung's α runs sit in one
:class:`~repro.core.deg_res_sampling.SharedDegreeRuns`, so each
double-cover chunk is sorted, counted and scanned for crossings *once*
for all ``O(α log_{1+ε} n)`` runs, and the degree table is charged
once; each rung keeps only its slice of the run list for
:meth:`~StarDetection.result`.  Insertion-deletion, each chunk is netted
once and every rung's Algorithm 3 consumes the netted column.  State is
bit-identical at every chunk size, chunk size 1 included
(equivalence-tested); every rung pays a fixed cost per chunk, so feed
long streams in large chunks, ``process(stream.chunks(1 << 16))``, as
:meth:`process_undirected` does.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.deg_res_sampling import SharedDegreeRuns, first_success
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import algorithm2_runs
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.sketch.exact import net_updates
from repro.spacemeter import SpaceBreakdown
from repro.streams.adapters import bipartite_double_cover_columnar
from repro.streams.edge import check_edge_range, insert_signs


def degree_guesses(n: int, eps: float) -> List[int]:
    """The geometric guess ladder ``{1, 1+ε, (1+ε)², ...}`` rounded to ints.

    Duplicate integer guesses (common for small powers) are merged; the
    ladder always covers ``[1, n]`` so every possible Δ has a guess
    within factor ``1+ε`` below it.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    guesses = []
    value = 1.0
    while value <= n * (1 + eps):
        guesses.append(max(1, math.floor(value)))
        value *= 1 + eps
    return sorted(set(guesses))


def _endpoint_columns(edges) -> Tuple[np.ndarray, np.ndarray]:
    """Normalise an undirected edge source into two endpoint columns.

    Accepts a ``(u_column, v_column)`` tuple of arrays or lists, or any
    iterable of ``(u, v)`` pair tuples (stacked once).  A 2-tuple whose
    elements are lists/arrays is always read as columns — a tuple of
    *pair tuples* stays an edge iterable — so column input is never
    silently misparsed as two edges.
    """
    if (
        isinstance(edges, tuple)
        and len(edges) == 2
        and isinstance(edges[0], (list, np.ndarray))
    ):
        u, v = edges
        return (
            np.ascontiguousarray(u, dtype=np.int64),
            np.ascontiguousarray(v, dtype=np.int64),
        )
    edge_list = list(edges)
    if not edge_list:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    stacked = np.asarray(edge_list, dtype=np.int64)
    if stacked.ndim != 2 or stacked.shape[1] != 2:
        raise ValueError(
            f"expected (u, v) pairs, got array of shape {stacked.shape}"
        )
    return (
        np.ascontiguousarray(stacked[:, 0]),
        np.ascontiguousarray(stacked[:, 1]),
    )


@dataclass(frozen=True)
class StarDetectionResult:
    """Output of Star Detection: the star centre, its witnesses, and the
    degree guess of the run that produced them."""

    neighbourhood: Neighbourhood
    winning_guess: int

    @property
    def vertex(self) -> int:
        return self.neighbourhood.vertex

    @property
    def size(self) -> int:
        return self.neighbourhood.size


class StarDetection(BatchIngest):
    """Lemma 3.3's wrapper around a FEwW algorithm.

    Args:
        n_vertices: number of vertices of the general input graph.
        alpha: approximation factor passed to each FEwW run.
        eps: guess-ladder resolution; the wrapper is a ``(1+ε)α``-approx.
        model: ``"insertion-only"`` (Algorithm 2 per guess) or
            ``"insertion-deletion"`` (Algorithm 3 per guess).
        seed: RNG seed shared out to the per-guess runs.
        scale: forwarded to Algorithm 3 (sampler-count multiplier).
        sampler_mode: forwarded to Algorithm 3.
    """

    MODELS = ("insertion-only", "insertion-deletion")

    def __init__(
        self,
        n_vertices: int,
        alpha: int,
        eps: float = 0.5,
        model: str = "insertion-only",
        seed: int | None = None,
        scale: float = 1.0,
        sampler_mode: str = "fast",
    ) -> None:
        if model not in self.MODELS:
            raise ValueError(f"model must be one of {self.MODELS}, got {model!r}")
        self.n_vertices = n_vertices
        self.alpha = alpha
        self.eps = eps
        self.model = model
        #: Turnstile rungs are Algorithm 3 instances, which only merge
        #: with same-seed counterparts (see InsertionDeletionFEwW).
        self.merge_needs_equal_seeds = model != "insertion-only"
        if model == "insertion-only":
            self.DELETIONS_REJECTED = (
                "insertion-only Star Detection cannot process deletions; "
                "construct with model='insertion-deletion'"
            )
        self.guesses = degree_guesses(n_vertices, eps)
        root = random.Random(seed)
        #: ``(guess, rung)`` in ladder order.  Insertion-only, a rung is
        #: the slice of ``self._shared.runs`` holding its Algorithm 2
        #: runs; insertion-deletion, it is an Algorithm 3 instance.
        self._rungs: List[Tuple[int, Any]] = []
        runs = []
        for guess in self.guesses:
            run_seed = root.getrandbits(64)
            if model == "insertion-only":
                rung: Any = slice(len(runs), len(runs) + alpha)
                runs += algorithm2_runs(
                    n_vertices, guess, alpha, random.Random(run_seed)
                )
            else:
                rung = InsertionDeletionFEwW(
                    n_vertices,
                    n_vertices,
                    guess,
                    alpha,
                    seed=run_seed,
                    scale=scale,
                    sampler_mode=sampler_mode,
                )
            self._rungs.append((guess, rung))
        #: Insertion-only: one SharedDegreeRuns over every rung's runs, so the
        #: O(n log n)-bit degree table is incremented once per chunk
        #: instead of once per guess.  The table draws no randomness, so
        #: every run's trajectory is that of an independent Algorithm 2.
        self._shared: Optional[SharedDegreeRuns] = (
            SharedDegreeRuns(n_vertices, runs) if model == "insertion-only" else None
        )
        self._updates_seen = 0

    # ------------------------------------------------------------------
    # Stream processing.
    # ------------------------------------------------------------------

    def process_undirected(
        self,
        edges: Iterable[Tuple[int, int]],
        signs: Iterable[int] | None = None,
    ) -> "StarDetection":
        """Double-cover an undirected edge stream and feed every run.

        ``edges`` may be a sequence of ``(u, v)`` pairs or a pair of
        endpoint columns ``(u_array, v_array)``; either way the cover is
        built vectorized and consumed through the batch engine.
        """
        u, v = _endpoint_columns(edges)
        cover = bipartite_double_cover_columnar(
            u,
            v,
            self.n_vertices,
            None if signs is None else np.asarray(list(signs), dtype=np.int64),
        )
        # Large chunks amortise each rung's fixed per-chunk cost (its
        # resident vertices are walked once per chunk).
        return self.process(cover.chunks(1 << 16))

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """Both endpoints must lie in the double cover's n-vertex
        sides, and the insertion-only ladder rejects deletions."""
        check_edge_range(a, b, self.n_vertices, self.n_vertices)
        super().check_batch(a, b, sign)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Feed one column chunk of the double cover to every guess.

        The ladder-wide work is done once per chunk, not once per guess.
        Insertion-only: the one SharedDegreeRuns sorts, counts and scans the
        chunk once for all ``O(α log_{1+ε} n)`` runs, each of which
        replays only its own rare crossings.  Insertion-deletion: the
        chunk is netted (``np.unique`` + scatter-add on the flat edge
        coordinate) once, and every rung's linear sketches consume the
        shared netted column.  Each run is bit-identical across chunk
        sizes, so the ladder is too.
        """
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        if len(a) == 0:
            return
        self.check_batch(a, b, sign)
        n = self.n_vertices
        if self._shared is not None:
            self._shared.process_batch(a, b)
        else:
            if sign is None:
                sign = insert_signs(len(a))
            else:
                sign = np.ascontiguousarray(sign, dtype=np.int64)
            unique, net = net_updates(a * n + b, sign, n * n)
            for _, algorithm in self._rungs:
                algorithm.process_netted(unique, net, len(a))
        self._updates_seen += len(a)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    @property
    def shard_routing(self):
        """Inherited from the per-guess algorithm: Algorithm 2 shards by
        vertex hash, Algorithm 3's linear sketches accept any split."""
        return "vertex" if self.model == "insertion-only" else "any"

    def merge(self, other: "StarDetection") -> "StarDetection":
        """Merge every degree guess's run with its counterpart.

        Both operands must be split from the same seeded wrapper (same
        guess ladder, same per-guess seeds); each rung merges via its
        algorithm's own rule, so the wrapper inherits the per-algorithm
        sharding guarantees rung by rung.
        """
        if not isinstance(other, StarDetection):
            raise ValueError(
                f"cannot merge StarDetection with {type(other).__name__}"
            )
        if (
            self.n_vertices,
            self.alpha,
            self.eps,
            self.model,
            self.guesses,
        ) != (
            other.n_vertices,
            other.alpha,
            other.eps,
            other.model,
            other.guesses,
        ):
            raise ValueError(
                "cannot merge Star Detection wrappers with different "
                "parameters; split both from the same seeded instance"
            )
        if self._shared is not None:
            self._shared.merge(other._shared)
        else:
            for (_, mine), (_, theirs) in zip(self._rungs, other._rungs):
                mine.merge(theirs)
        self._updates_seen += other._updates_seen
        return self

    def clone(self) -> "StarDetection":
        """An independent copy through each rung's own ``clone`` (window
        probes and folds clone on every query), not a deepcopy walk."""
        dup = copy.copy(self)
        if self._shared is not None:
            dup._shared = self._shared.clone()
        else:
            dup._rungs = [(guess, rung.clone()) for guess, rung in self._rungs]
        return dup

    def split(self, n_shards: int) -> List["StarDetection"]:
        """``n_shards`` empty same-seed shard wrappers (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._updates_seen:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    def result(self) -> StarDetectionResult:
        """Largest neighbourhood over all successful guesses.

        Raises:
            AlgorithmFailed: when every guess's run failed (only possible
            on an empty graph or with algorithm failure probability).
        """
        best: Optional[StarDetectionResult] = None
        for guess, rung in self._rungs:
            if self._shared is not None:
                neighbourhood = first_success(self._shared.runs[rung])
            else:
                neighbourhood = rung.finalize()
            if neighbourhood is None:
                continue
            if best is None or neighbourhood.size > best.size:
                best = StarDetectionResult(neighbourhood, guess)
        if best is None:
            raise AlgorithmFailed("Star Detection: every degree-guess run failed")
        return best

    def finalize(self) -> Optional[StarDetectionResult]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the best
        guess's result, or ``None`` instead of raising on failure."""
        try:
            return self.result()
        except AlgorithmFailed:
            return None

    def approximation_ratio(self) -> float:
        """The wrapper's guarantee, ``(1+ε) α``."""
        return (1 + self.eps) * self.alpha

    # ------------------------------------------------------------------
    # Space accounting.
    # ------------------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """Shared degree table charged once for the whole ladder
        (insertion-only), plus each rung's residency/sampler state."""
        breakdown = SpaceBreakdown()
        if self._shared is not None:
            breakdown.add("degree counts", self._shared._degrees.space_words())
        for guess, rung in self._rungs:
            if self._shared is None:
                breakdown.merge(rung.space_breakdown(), prefix=f"guess {guess}: ")
                continue
            for i, run in enumerate(self._shared.runs[rung]):
                breakdown.merge(
                    run.space_breakdown(), prefix=f"guess {guess}: run{i} "
                )
        return breakdown

    def space_words(self) -> int:
        return self.space_breakdown().total_words()
