"""Algorithm 1: ``Deg-Res-Sampling(d1, d2, s)``.

Degree-based reservoir sampling.  While processing the stream of edges,
the degree of every A-vertex is maintained.  A reservoir of size ``s``
holds a uniform random sample of the vertices whose *current* degree is
at least ``d1``: the moment a vertex's degree reaches ``d1`` it becomes
a reservoir candidate (inserted with probability ``s / x`` where ``x``
counts candidates so far, evicting a uniform resident).  While a vertex
sits in the reservoir, its incident edges are collected until ``d2`` of
them are stored — so a vertex that stays sampled collects
``min(d2, deg - d1 + 1)`` witnesses.

The run *succeeds* if at least one stored neighbourhood reaches size
``d2`` (Lemma 3.1 lower-bounds that probability by
``1 - exp(-s * n2 / n1)``).

The module splits the algorithm in two:

* :class:`DegResSampling` is one run's reservoir state — candidate
  count, residents, collected witnesses and RNG — and nothing else;
* :class:`SharedDegreeRuns` owns the one degree table and the chunk
  step for any number of runs that share it.  The standalone Algorithm
  1 is ``SharedDegreeRuns(n, [DegResSampling(d1, d2, s, rng)])``;
  Algorithm 2 (Theorem 3.2's α runs) subclasses it, and Star Detection
  holds one over every run of its guess ladder (Lemma 3.3), so the
  ``O(n log n)``-bit table is counted, and charged, once.

A chunk replays its ``d1`` crossings in stream order, so the state is
bit-identical at every chunk size.  A vertex crosses ``d1`` at most
once and is admitted only at its crossing; a vertex still resident at
the end therefore holds the ``b``s of its ``d1``-th through
``(d1 + d2 - 1)``-th occurrences, in stream order.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional

import numpy as np

from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.sketch.exact import DegreeCounter
from repro.spacemeter import SpaceBreakdown, edge_words, vertex_words
from repro.streams.columnar import group_slices


def collect_witnesses(requests, composite, order, b: np.ndarray) -> None:
    """One fused numpy pass serving many runs' witness collection.

    ``requests`` holds ``(run, active, needs, low_keys, high_keys)``
    tuples (see :meth:`DegResSampling._witness_requests`); ``composite``
    is the chunk's ascending group-major/position-minor key
    ``a[order] * n_items + order`` and ``order`` the stable argsort of
    ``a``.  The rank of ``low_keys[i]`` in ``composite`` is the absolute
    index of the vertex's first in-window occurrence and the rank of
    ``high_keys[i]`` is where its group ends, so two bulk searchsorteds
    cover window clipping, occurrence counting and absence
    (``low == high``) for every run at once.  Results are dispatched
    back per run in request order — bit-identical to each run running
    the pass alone, since the searches are independent and each run's
    slice of the gather lists its own in-window occurrences ascending.
    """
    all_lows: List[int] = []
    all_highs: List[int] = []
    all_needs: List[int] = []
    for _, active, needs, low_keys, high_keys in requests:
        all_lows += low_keys
        all_highs += high_keys
        all_needs += needs
    n_active = len(all_needs)
    packed = np.array(all_lows + all_highs + all_needs, dtype=np.int64)
    bounds = np.searchsorted(composite, packed[: 2 * n_active])
    lows = bounds[:n_active]
    counts = np.minimum(bounds[n_active:] - lows, packed[2 * n_active :])
    total = int(counts.sum())
    if total == 0:
        return
    # Ragged gather: flat indices of each vertex's first ``counts[i]``
    # in-window occurrences, concatenated in request order.
    resets = np.cumsum(counts) - counts
    offsets = np.repeat(lows - resets, counts) + np.arange(total, dtype=np.int64)
    collected = b[order[offsets]].tolist()
    counts_list = counts.tolist()
    cursor = 0
    position = 0
    for run, active, _, _, _ in requests:
        segment = counts_list[position : position + len(active)]
        cursor = run._store_witnesses(active, segment, collected, cursor)
        position += len(active)


class DegResSampling:
    """One run of the paper's Algorithm 1: its reservoir state.

    The degree table and the chunk step live in the
    :class:`SharedDegreeRuns` driving the run.

    Args:
        d1: degree threshold that makes a vertex a reservoir candidate.
        d2: number of witnesses to collect per sampled vertex; reaching
            ``d2`` for any vertex means success.
        s: reservoir size.
        rng: randomness for the reservoir coin flips.
    """

    def __init__(self, d1: int, d2: int, s: int, rng: random.Random) -> None:
        if d1 < 1:
            raise ValueError(f"d1 must be >= 1, got {d1}")
        if d2 < 1:
            raise ValueError(f"d2 must be >= 1, got {d2}")
        if s < 1:
            raise ValueError(f"reservoir size s must be >= 1, got {s}")
        self.d1 = d1
        self.d2 = d2
        self.s = s
        self._rng = rng
        #: reservoir contents: vertex -> collected witnesses, in arrival order
        self._reservoir: Dict[int, List[int]] = {}
        #: resident vertices in arbitrary order, for O(1) random eviction
        #: (mirrors the reservoir keys; not charged separately)
        self._resident: List[int] = []
        #: count of vertices whose degree has reached d1 so far (paper's x)
        self._candidates_seen = 0

    # ------------------------------------------------------------------
    # The run's share of the chunk step (see SharedDegreeRuns).
    # ------------------------------------------------------------------

    def _replay_crossings(
        self, a: np.ndarray, b: np.ndarray, crossings: np.ndarray
    ) -> Dict[int, int]:
        """Replay reservoir maintenance for a chunk; return residency windows.

        ``windows[v]`` is the first chunk position from which resident
        vertex ``v`` may collect witnesses (0 for vertices resident
        before the chunk; admission position + 1 for vertices admitted
        inside it — the crossing item itself is stored at admission).
        """
        windows: Dict[int, int] = dict.fromkeys(self._resident, 0)
        if len(crossings):
            # Reservoir maintenance per crossing, in stream order: the
            # RNG draws depend only on the candidate ordinal, so the
            # trajectory — and with it the reservoir state — is the same
            # at every chunk size.  Hoisting the numpy indexing (one
            # gather + tolist instead of per-crossing scalar indexing)
            # and the attribute/method lookups keeps the rare-but-hot
            # crossing loop cheap; Star Detection replays this loop for
            # every rung of its guess ladder.
            reservoir, resident = self._reservoir, self._resident
            seen = self._candidates_seen
            s = self.s
            positions = crossings.tolist()
            cross_vertices = a[crossings].tolist()
            cross_witnesses = b[crossings].tolist()
            # Phase 1 — free admissions.  A vertex crosses ``d1`` at
            # most once ever (degrees are monotone), so the crossing
            # vertices are distinct and the first ``s - len(reservoir)``
            # of them admit unconditionally, consuming no randomness.
            take = 0
            room = s - len(reservoir)
            if room > 0:
                take = min(room, len(positions))
                for position, vertex, witness in zip(
                    positions[:take],
                    cross_vertices[:take],
                    cross_witnesses[:take],
                ):
                    reservoir[vertex] = [witness]
                    resident.append(vertex)
                    windows[vertex] = position + 1
                seen += take
            # Phase 2 — the reservoir is (and stays) full: one
            # ``random()`` per candidate, plus — on admission — the
            # exact ``getrandbits`` draws ``randrange(s)`` would make
            # (``_randbelow_with_getrandbits``, inlined: the reservoir
            # and resident list both hold exactly ``s`` entries here).
            if take < len(positions):
                rng_random = self._rng.random
                rng_getrandbits = self._rng.getrandbits
                slot_bits = s.bit_length()
                for position, vertex, witness in zip(
                    positions[take:],
                    cross_vertices[take:],
                    cross_witnesses[take:],
                ):
                    seen += 1
                    if rng_random() < s / seen:
                        while True:
                            slot = rng_getrandbits(slot_bits)
                            if slot < s:
                                break
                        evicted = resident[slot]
                        last = resident.pop()
                        if slot < len(resident):
                            resident[slot] = last
                        del reservoir[evicted]
                        windows.pop(evicted, None)
                        # Admitted: the crossing item itself is the
                        # vertex's first chance to collect (d2 >= 1,
                        # fresh list => always appends).
                        reservoir[vertex] = [witness]
                        resident.append(vertex)
                        windows[vertex] = position + 1
            self._candidates_seen = seen
        return windows

    def _witness_requests(self, windows: Dict[int, int], n_items: int):
        """Collection requests for one chunk as flat Python lists.

        Returns ``(active, needs, low_keys, high_keys)``: the resident
        vertices still short of ``d2`` witnesses, how many each may take,
        and their composite-key search targets (see
        :func:`collect_witnesses`).  Building the integer keys here keeps
        the numpy side to two bulk calls regardless of how many runs
        share the pass.
        """
        reservoir, d2 = self._reservoir, self.d2
        active: List[int] = []
        needs: List[int] = []
        low_keys: List[int] = []
        high_keys: List[int] = []
        for vertex, window_start in windows.items():
            remaining = d2 - len(reservoir[vertex])
            if remaining > 0:
                active.append(vertex)
                needs.append(remaining)
                low_keys.append(vertex * n_items + window_start)
                high_keys.append((vertex + 1) * n_items)
        return active, needs, low_keys, high_keys

    def _store_witnesses(self, active, counts, collected, cursor: int) -> int:
        """Append each active vertex's slice of the shared gather."""
        reservoir = self._reservoir
        for vertex, count in zip(active, counts):
            if count:
                reservoir[vertex].extend(collected[cursor : cursor + count])
                cursor += count
        return cursor

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def clone(self) -> "DegResSampling":
        """An independent duplicate of the run's full state.

        Equivalent to ``copy.deepcopy`` — the RNG state is carried over,
        so clone and original draw identical trajectories — but built
        with direct container copies instead of the generic graph walk.
        Window policies clone bucket summaries on every suffix fold and
        mid-stream probe, so this is query-hot.
        """
        dup = object.__new__(DegResSampling)
        dup.d1, dup.d2, dup.s = self.d1, self.d2, self.s
        rng = random.Random.__new__(random.Random)
        rng.setstate(self._rng.getstate())
        dup._rng = rng
        dup._reservoir = {
            vertex: list(witnesses)
            for vertex, witnesses in self._reservoir.items()
        }
        dup._resident = list(self._resident)
        dup._candidates_seen = self._candidates_seen
        return dup

    def merge(self, other: "DegResSampling") -> "DegResSampling":
        """Combine two same-parameter runs over vertex-disjoint sub-streams.

        Candidate counts add; the merged reservoir is the union of both
        reservoirs.  Under vertex routing the keys are disjoint — each
        vertex crossed ``d1`` in exactly one shard.  Window buckets split
        the stream by time instead, so a hot vertex sits in both
        operands: its witness lists are deduplicated at merge time and
        clipped to ``d2`` (a list already holding ``d2`` witnesses is
        left as it is, which is what extend-then-clip would give).  The
        union holds up to ``n_shards * s`` vertices — the classical
        mergeable-summaries space tradeoff — and each shard's sample is a
        faithful Algorithm 1 run over its sub-stream, so Lemma 3.1's
        success bound applies per shard.

        ``other`` is left unchanged and shares no list with the result:
        witness lists that move over are copied.
        """
        self._candidates_seen += other._candidates_seen
        reservoir = self._reservoir
        resident = self._resident
        d2 = self.d2
        for vertex, witnesses in other._reservoir.items():
            stored = reservoir.get(vertex)
            if stored is None:
                reservoir[vertex] = witnesses[:]
                resident.append(vertex)
            elif len(stored) < d2:
                seen = set(stored)
                stored.extend(
                    witness for witness in witnesses if witness not in seen
                )
                del stored[d2:]
        return self

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    @property
    def successful(self) -> bool:
        """True when some stored neighbourhood reached size ``d2``."""
        return any(len(witnesses) >= self.d2 for witnesses in self._reservoir.values())

    def candidates(self) -> List[Neighbourhood]:
        """All currently stored neighbourhoods (any size), for inspection."""
        return [
            Neighbourhood.of(vertex, witnesses)
            for vertex, witnesses in self._reservoir.items()
        ]

    def neighbourhood(self) -> Optional[Neighbourhood]:
        """An arbitrary stored neighbourhood of size ``d2`` (line 15),
        or ``None`` when none reached it."""
        for vertex, witnesses in self._reservoir.items():
            if len(witnesses) >= self.d2:
                return Neighbourhood.of(vertex, witnesses)
        return None

    def space_breakdown(self) -> SpaceBreakdown:
        """Itemised reservoir space; the degree table is charged by the
        :class:`SharedDegreeRuns` holding the run."""
        breakdown = SpaceBreakdown()
        breakdown.add("reservoir ids", vertex_words(len(self._reservoir)))
        stored = sum(len(witnesses) for witnesses in self._reservoir.values())
        breakdown.add("collected edges", edge_words(stored))
        breakdown.add("candidate counter", 1)
        return breakdown


def first_success(runs: List[DegResSampling]) -> Optional[Neighbourhood]:
    """The first successful run's neighbourhood, in run order, or
    ``None`` (Algorithm 2 returns any successful run's answer)."""
    for run in runs:
        found = run.neighbourhood()
        if found is not None:
            return found
    return None


class SharedDegreeRuns(BatchIngest):
    """Algorithm 1 runs over one shared degree table.

    It holds the only :class:`DegreeCounter` and the flat run
    list, and does the chunk step once for every run: one stable
    grouping, one degree scatter, one lookup-table scan for every run's
    ``d1`` crossings, and one :func:`collect_witnesses` gather.  The
    runs draw their own randomness, so sharing the table changes no
    run's trajectory.

    Args:
        n: number of A-vertices.
        runs: the :class:`DegResSampling` runs to drive, in answer order.
    """

    #: Degree counts and residency-window witness collection are exact
    #: only when each vertex's updates stay in one shard (see
    #: repro.engine.protocol).
    shard_routing = "vertex"

    #: Names the structure in merge and failure messages.
    NAME = "Deg-Res-Sampling"
    #: What a chunk holding a deletion raises.
    DELETIONS_REJECTED = "Deg-Res-Sampling only supports insertion-only streams"

    def __init__(self, n: int, runs: List[DegResSampling]) -> None:
        if not runs:
            raise ValueError("at least one Deg-Res-Sampling run is required")
        self.n = n
        self.runs = list(runs)
        self._degrees = DegreeCounter(n)
        #: Every distinct d1, and a boolean table over degree values
        #: marking them, so one scan of a chunk finds every run's
        #: crossings (degree_after == d1) at once.
        self._thresholds = sorted({run.d1 for run in self.runs})
        self._threshold_lut = np.zeros(self._thresholds[-1] + 2, dtype=bool)
        self._threshold_lut[self._thresholds] = True

    def _parameters(self) -> str:
        """What two mergeable instances must agree on, as text."""
        runs = ", ".join(
            f"(d1={run.d1}, d2={run.d2}, s={run.s})" for run in self.runs
        )
        return f"n={self.n}, runs {runs}"

    # ------------------------------------------------------------------
    # Stream processing.
    # ------------------------------------------------------------------

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """Reject deletions and out-of-range vertices."""
        super().check_batch(a, b, sign)
        self._degrees.check_range(a)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Algorithm 1's loop body (lines 4-14) for a chunk of insertions.

        ``sign``, when given, must be all-insert.  The reservoirs only
        change at the rare positions where a vertex crosses a run's
        ``d1``.  Each run replays its crossings in stream order (one RNG
        trajectory at any chunk size) while recording each vertex's
        *residency window* — admission position to eviction.  Witness
        collection then runs once per end-resident vertex of every run:
        its chunk occurrences are clipped to its window and the first
        ``d2 - len(stored)`` are appended.  Appends to vertices evicted
        later in the chunk are skipped — eviction discards those lists
        anyway — so the final state is bit-identical at every chunk size.
        """
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        self.check_batch(a, b, sign)
        n_items = len(a)
        if n_items == 0:
            return
        grouping = group_slices(a)
        degree_after = self._degrees.increment_batch(a, grouping)
        # A position crosses threshold t iff degree_after == t, and the
        # table marks exactly the runs' thresholds.  Slicing the (rare)
        # hits per threshold keeps them ascending, so each run sees
        # exactly np.flatnonzero(degree_after == d1).
        lut = self._threshold_lut
        hits = np.flatnonzero(lut[np.minimum(degree_after, len(lut) - 1)])
        hit_degrees = degree_after[hits]
        crossings = {
            threshold: hits[hit_degrees == threshold]
            for threshold in self._thresholds
        }
        requests = []
        for run in self.runs:
            windows = run._replay_crossings(a, b, crossings[run.d1])
            if not windows:
                continue
            request = run._witness_requests(windows, n_items)
            if request[0]:
                requests.append((run,) + request)
        if requests:
            order = grouping[0]
            composite = a[order] * np.int64(n_items) + order
            collect_witnesses(requests, composite, order, b)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def clone(self) -> "SharedDegreeRuns":
        """An independent duplicate: the degree table and every run are
        copied directly, not by a deepcopy graph walk (the window-policy
        fold/probe fast path)."""
        dup = copy.copy(self)
        dup._degrees = self._degrees.clone()
        dup.runs = [run.clone() for run in self.runs]
        return dup

    def merge(self, other: "SharedDegreeRuns") -> "SharedDegreeRuns":
        """Combine two states over vertex-disjoint sub-streams.

        The degree tables add (exact under vertex routing) and each run
        merges with its counterpart (reservoir union, witnesses
        deduplicated and clipped at merge time).  Every shard is a
        faithful execution over its sub-stream, so each run's success
        bound holds for the shard owning the heavy vertex.
        """
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        mine, theirs = self._parameters(), other._parameters()
        if mine != theirs:
            raise ValueError(f"cannot merge {self.NAME} ({mine}) with ({theirs})")
        self._degrees.merge(other._degrees)
        for run, twin in zip(self.runs, other.runs):
            run.merge(twin)
        return self

    def split(self, n_shards: int) -> List["SharedDegreeRuns"]:
        """``n_shards`` empty copies of the unprocessed instance."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._degrees.max_degree() > 0:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    @property
    def successful(self) -> bool:
        """True when at least one run succeeded."""
        return any(run.successful for run in self.runs)

    def successful_runs(self) -> List[int]:
        """Indices of the successful runs (for diagnostics)."""
        return [i for i, run in enumerate(self.runs) if run.successful]

    def result(self) -> Neighbourhood:
        """The first successful run's neighbourhood.

        Raises:
            AlgorithmFailed: when every run failed.
        """
        found = first_success(self.runs)
        if found is None:
            raise AlgorithmFailed(
                f"all {len(self.runs)} parallel runs failed ({self._parameters()})"
            )
        return found

    def finalize(self) -> Optional[Neighbourhood]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        answer, or ``None`` instead of raising on failure."""
        return first_success(self.runs)

    def current_degree(self, a: int) -> int:
        """Degree of A-vertex ``a`` seen so far."""
        return self._degrees.degree(a)

    # ------------------------------------------------------------------
    # Space accounting.
    # ------------------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """The degree table charged once, plus every run's reservoir."""
        breakdown = SpaceBreakdown()
        breakdown.add("degree counts", self._degrees.space_words())
        for i, run in enumerate(self.runs):
            breakdown.merge(run.space_breakdown(), prefix=f"run{i} ")
        return breakdown

    def space_words(self) -> int:
        return self.space_breakdown().total_words()
