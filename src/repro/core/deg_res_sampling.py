"""Algorithm 1: ``Deg-Res-Sampling(d1, d2, s)``.

Degree-based reservoir sampling.  The degree of every A-vertex is
maintained; the moment a vertex's degree reaches ``d1`` it becomes a
reservoir candidate, admitted with probability ``s / x`` (``x`` counts
the candidates so far) in place of a uniform resident.  A resident
collects its incident edges until ``d2`` are stored.  A vertex crosses
``d1`` at most once and is admitted only at its crossing, so one still
resident at the end holds the ``b``s of its ``d1``-th through
``(d1 + d2 - 1)``-th occurrences, in stream order.  The run *succeeds*
if some stored neighbourhood reaches size ``d2`` (Lemma 3.1
lower-bounds that probability by ``1 - exp(-s * n2 / n1)``).

:class:`DegResSampling` is one run's reservoir state, and
:class:`SharedDegreeRuns` owns the one degree table and the chunk step
for any number of runs sharing it.  The standalone Algorithm 1 is
``SharedDegreeRuns(n, [DegResSampling(d1, d2, s, seed)])``; Algorithm 2
(Theorem 3.2's α runs) subclasses it, and Star Detection holds one over
every run of its guess ladder (Lemma 3.3), so the ``O(n log n)``-bit
table is counted, and charged, once.

**Draws** (Vitter's Algorithm R, one stream per run).  The first ``s``
candidates fill the slots in order and draw nothing.  Candidate ordinal
``x > s`` draws ``j = integers(0, x)`` from the run's
``np.random.Generator`` and is admitted iff ``j < s``, replacing slot
``j``: admission with probability ``s / x`` and a uniform eviction,
which is all Lemma 3.1 uses.  A chunk's candidates draw in one vector
call; ``integers(0, high_array)`` gives the same values however the
bounds are split across calls, so the state is bit-identical at every
chunk size.  The Generator is seeded from the run's 64-bit seed word
and built at the first draw, as most runs never draw.

**State.**  Per run, three slot columns — occupant vertex, stored
witness count (``fill``) and admission ordinal — and a ragged witness
store: one flat ``int64`` witness column with its owning slot, appended
once per chunk.  A slot's live rows start at ``start[slot]``, so an
evicted occupant's rows die in place; the store is compacted when dead
rows outnumber live ones, and on clone, merge and pickling.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.sketch.exact import DegreeCounter
from repro.spacemeter import SpaceBreakdown, edge_words, vertex_words
from repro.streams.columnar import group_slices, occurrence_ordinals


def collect_witnesses(requests, a: np.ndarray, b: np.ndarray, grouping, n: int) -> None:
    """One fused numpy pass serving many runs' witness collection.

    ``requests`` holds ``(run, slots, vertices, windows, needs)`` tuples
    (see :meth:`DegResSampling._requests`); ``grouping`` is the stable
    ``(order, starts, ends)`` grouping of ``a`` (vertices in ``[0, n)``).
    A vertex-to-group table finds each slot's occurrences, one search of
    ``a[order] * len(a) + order`` each fresh occupant's crossing.
    """
    order, starts, ends = grouping
    vertices, windows, needs = (
        np.concatenate([request[k] for request in requests]) for k in (2, 3, 4)
    )
    # A vertex absent from the chunk maps to an empty sentinel group.
    group_of = np.full(n, len(starts))
    group_of[a[order[starts]]] = np.arange(len(starts))
    group = group_of[vertices]
    lows = np.append(starts, 0)[group]
    highs = np.append(ends, 0)[group]
    late = np.flatnonzero(windows)
    if len(late):
        composite = a[order] * len(a) + order
        lows[late] = np.searchsorted(composite, vertices[late] * len(a) + windows[late])
    counts = np.minimum(highs - lows, needs)
    bounds = np.cumsum(counts)
    # Ragged gather: each slot's first ``counts[i]`` in-window occurrences.
    offsets = np.repeat(lows - bounds + counts, counts) + np.arange(int(bounds[-1]))
    collected = b[order[offsets]]
    cuts = [0] + bounds.tolist()
    first = 0
    for run, slots, _, _, _ in requests:
        last = first + len(slots)
        if cuts[last] > cuts[first]:
            run._store(slots, counts[first:last], collected[cuts[first] : cuts[last]])
        first = last


class RunState(NamedTuple):
    """A run's full state as plain Python values (equality-comparable)."""

    candidates_seen: int
    #: occupant vertex per slot, and its admission ordinal
    slots: List[int]
    ordinals: List[int]
    #: occupant -> its stored witnesses in arrival order, in slot order
    reservoir: Dict[int, List[int]]
    seed: int
    #: the Generator's bit-generator state, once the run has drawn
    generator: Optional[dict]


def _zeros(size: int = 0) -> np.ndarray:
    return np.zeros(size, dtype=np.int64)


class DegResSampling:
    """One run of the paper's Algorithm 1: its reservoir state.

    Args:
        d1: degree threshold that makes a vertex a reservoir candidate.
        d2: number of witnesses to collect per sampled vertex; reaching
            ``d2`` for any vertex means success.
        s: reservoir size.
        seed: the run's 64-bit seed word for its reservoir coin flips.
    """

    def __init__(self, d1: int, d2: int, s: int, seed: int) -> None:
        for name, value in (("d1", d1), ("d2", d2), ("reservoir size s", s)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.d1, self.d2, self.s, self.seed = d1, d2, s, seed
        self._generator: Optional[np.random.Generator] = None
        #: count of vertices whose degree has reached d1 so far (paper's x)
        self._seen = 0
        #: slot columns: occupant, stored witnesses, admission ordinal,
        #: and the first store row that may be the occupant's
        self._vertex, self._fill, self._ordinal, self._start = (_zeros() for _ in range(4))
        #: the witness store: ``_rows`` rows of (owning slot, witness) in
        #: arrival order, in columns with spare capacity
        self._rows = 0
        self._row_slot, self._row_witness = _zeros(), _zeros()

    # ------------------------------------------------------------------
    # The run's share of the chunk step (see SharedDegreeRuns).
    # ------------------------------------------------------------------

    def _admit(self, vertices: np.ndarray, positions: np.ndarray):
        """Reservoir maintenance for a chunk's candidates (distinct, in
        stream order); returns the slots they hold at the chunk's end
        and the chunk positions their occupants crossed at."""
        count = len(vertices)
        ordinals = self._seen + 1 + np.arange(count, dtype=np.int64)
        self._seen += count
        occupied = len(self._vertex)
        free = min(count, max(0, self.s - occupied))
        targets = np.arange(occupied, occupied + free, dtype=np.int64)
        writers = np.arange(free, dtype=np.int64)
        if free < count:
            if self._generator is None:
                self._generator = np.random.default_rng(self.seed)
            draws = self._generator.integers(0, ordinals[free:])
            admitted = np.flatnonzero(draws < self.s)
            targets = np.concatenate([targets, draws[admitted]])
            writers = np.concatenate([writers, admitted + free])
        if free:
            self._vertex, self._fill, self._ordinal, self._start = (
                np.concatenate([column, _zeros(free)])
                for column in (self._vertex, self._fill, self._ordinal, self._start)
            )
        # A slot written twice in one chunk holds its last writer (the
        # first hit of a stable unique over the reversed writes).
        slots, last = np.unique(targets[::-1], return_index=True)
        winners = writers[len(writers) - 1 - last]
        self._vertex[slots] = vertices[winners]
        self._fill[slots] = 0
        self._ordinal[slots] = ordinals[winners]
        self._start[slots] = self._rows
        return slots, positions[winners]

    def _requests(self, a: np.ndarray, crossings: np.ndarray):
        """Admit the chunk's crossings; return the collection request
        ``(slots, vertices, windows, needs)`` of every slot short of
        ``d2`` witnesses, or ``None``.  ``windows[i]`` is the first chunk
        position ``slots[i]`` collects from: 0 for an earlier occupant,
        else its crossing (whose witness it stores first)."""
        if len(crossings):
            admitted, positions = self._admit(a[crossings], crossings)
        open_slots = np.flatnonzero(self._fill < self.d2)
        if not len(open_slots):
            return None
        windows = _zeros(len(open_slots))
        if len(crossings):
            # A fresh occupant stores nothing yet, so its slot is open.
            windows[np.searchsorted(open_slots, admitted)] = positions
        return open_slots, self._vertex[open_slots], windows, self.d2 - self._fill[open_slots]

    def _store(self, slots: np.ndarray, counts: np.ndarray, witnesses: np.ndarray) -> None:
        """Append a chunk's gathered witnesses, ``counts[i]`` of them
        for ``slots[i]`` in order, as one block of store rows."""
        self._fill[slots] += counts
        rows = self._rows + len(witnesses)
        if rows > len(self._row_witness):
            spare = _zeros(max(rows, 2 * len(self._row_witness)) - self._rows)
            self._row_slot, self._row_witness = (
                np.concatenate([column[: self._rows], spare])
                for column in (self._row_slot, self._row_witness)
            )
        self._row_slot[self._rows : rows] = np.repeat(slots, counts)
        self._row_witness[self._rows : rows] = witnesses
        self._rows = rows
        if 2 * int(self._fill.sum()) < rows:
            self._compact()

    def _live(self):
        """The live rows' ``(slot, witness)`` columns, in arrival order."""
        slot = self._row_slot[: self._rows]
        live = np.arange(self._rows) >= self._start[slot]
        return slot[live], self._row_witness[: self._rows][live]

    def _compact(self) -> None:
        """Move the witness store's live rows to its front, in place."""
        slot, witness = self._live()
        self._rows = len(witness)
        self._row_slot[: self._rows], self._row_witness[: self._rows] = slot, witness
        self._start[:] = 0

    def _holds(self, slots: np.ndarray, witnesses: np.ndarray) -> np.ndarray:
        """Whether each ``(slots[i], witnesses[i])`` is a row of the
        (compacted) store, by one sort of ``slot * span + witness`` keys."""
        if not self._rows:
            return np.zeros(len(slots), dtype=bool)
        witness = np.concatenate([self._row_witness[: self._rows], witnesses])
        low, span = int(witness.min()), int(witness.max()) - int(witness.min()) + 1
        if span * len(self._vertex) >= 1 << 62:
            # Too wide to pack: pack dense witness ranks instead.
            witness, low, span = np.unique(witness, return_inverse=True)[1], 0, len(witness)
        keys = np.concatenate([self._row_slot[: self._rows], slots]) * span + (witness - low)
        stored, probes = np.sort(keys[: self._rows]), keys[self._rows :]
        return stored[np.minimum(np.searchsorted(stored, probes), self._rows - 1)] == probes

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def __getstate__(self):
        """The state to pickle: the live witnesses grouped by slot, in
        the narrowest dtype that holds them (``fill`` gives the slots)."""
        state = {k: v for k, v in self.__dict__.items() if k not in ("_rows", "_row_slot", "_start")}
        slot, witness = self._live()
        witness = witness[np.argsort(slot, kind="stable")]
        if len(witness) and witness.min() >= 0:
            witness = witness.astype(np.min_scalar_type(int(witness.max())))
        state["_row_witness"] = witness
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._row_witness = self._row_witness.astype(np.int64)
        self._rows = len(self._row_witness)
        self._row_slot = np.repeat(np.arange(len(self._fill)), self._fill)
        self._start = _zeros(len(self._fill))

    def clone(self) -> "DegResSampling":
        """An independent duplicate: array copies (the store compacted)
        and the Generator state, so both draw identical trajectories.
        Window policies clone on every suffix fold and probe."""
        dup = object.__new__(DegResSampling)
        dup.__dict__.update(self.__dict__)
        for name in ("_vertex", "_fill", "_ordinal"):
            setattr(dup, name, getattr(self, name).copy())
        dup._row_slot, dup._row_witness = self._live()
        dup._rows = len(dup._row_witness)
        dup._start = _zeros(len(self._fill))
        if self._generator is not None:
            # Cheaper than a deepcopy: a fresh PCG64 handed the state.
            dup._generator = np.random.Generator(np.random.PCG64(0))
            dup._generator.bit_generator.state = self._generator.bit_generator.state
        return dup

    def merge(self, other: "DegResSampling") -> "DegResSampling":
        """Combine two same-parameter runs over vertex-disjoint sub-streams.

        Candidate counts add; the slots are this run's, then ``other``'s
        (up to ``n_shards * s``; Lemma 3.1 holds per shard).  Window
        buckets split by time, so a hot vertex sits in both: it keeps this
        run's slot, which unless full gains ``other``'s witnesses it lacks,
        in order, clipped to ``d2``.  ``other`` is left unchanged.
        """
        self._compact()
        theirs_slot, theirs_witness = other._live()
        # Where each of other's slots lands: its vertex's slot here, or
        # a fresh slot appended after this run's.
        lookup = np.argsort(self._vertex, kind="stable")
        at = np.searchsorted(self._vertex[lookup], other._vertex)
        shared = at < len(lookup)
        shared[shared] = self._vertex[lookup[at[shared]]] == other._vertex[shared]
        target = len(self._vertex) + np.cumsum(~shared) - 1
        target[shared] = lookup[at[shared]]
        rows = target[theirs_slot]
        keep = ~shared[theirs_slot]
        joining = np.flatnonzero(~keep)
        joining = joining[self._fill[rows[joining]] < self.d2]
        if len(joining):
            joining = joining[~self._holds(rows[joining], theirs_witness[joining])]
            room = self.d2 - self._fill[rows[joining]]
            joining = joining[occurrence_ordinals(rows[joining]) < room]
            keep[joining] = True
            np.add.at(self._fill, rows[joining], 1)
        for name in ("_vertex", "_fill", "_ordinal"):
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)[~shared]]))
        self._start = _zeros(len(self._vertex))
        self._row_slot = np.concatenate([self._row_slot[: self._rows], rows[keep]])
        self._row_witness = np.concatenate([self._row_witness[: self._rows], theirs_witness[keep]])
        self._rows = len(self._row_witness)
        self._seen += other._seen
        return self

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    @property
    def successful(self) -> bool:
        """True when some stored neighbourhood reached size ``d2``."""
        return bool((self._fill >= self.d2).any())

    def _answers(self, chosen: np.ndarray) -> List[Neighbourhood]:
        """A neighbourhood per slot of ``chosen``, each built from an
        ``int64`` slice of the store."""
        picked = np.zeros(len(self._vertex), dtype=bool)
        picked[chosen] = True
        slot = self._row_slot[: self._rows]
        rows = np.flatnonzero(picked[slot] & (np.arange(self._rows) >= self._start[slot]))
        # The chosen slots' live rows, grouped by slot in ascending order.
        witness = self._row_witness[rows[np.argsort(slot[rows], kind="stable")]]
        ascending = np.sort(chosen)
        offsets = _zeros(len(self._vertex))
        offsets[ascending] = np.cumsum(self._fill[ascending]) - self._fill[ascending]
        vertices, offsets, fills = (column[chosen].tolist() for column in (self._vertex, offsets, self._fill))
        return [Neighbourhood(v, witness[o : o + f]) for v, o, f in zip(vertices, offsets, fills)]

    def candidates(self, min_size: int = 1, limit: Optional[int] = None) -> List[Neighbourhood]:
        """Up to ``limit`` neighbourhoods of ``min_size`` or more
        witnesses, earliest admission first (vertex breaks ties)."""
        chosen = np.flatnonzero(self._fill >= min_size)
        chosen = chosen[np.lexsort((self._vertex[chosen], self._ordinal[chosen]))]
        return self._answers(chosen[:limit])

    def neighbourhood(self) -> Optional[Neighbourhood]:
        """The stored neighbourhood of size ``d2`` admitted first (line
        15 returns any), or ``None`` when none reached it."""
        found = self.candidates(self.d2, limit=1)
        return found[0] if found else None

    def state(self) -> RunState:
        """The run's full state as plain values, for comparisons."""
        slot, witness = self._live()
        grouped = witness[np.argsort(slot, kind="stable")].tolist()
        ends = np.cumsum(self._fill).tolist()
        reservoir = {
            vertex: grouped[end - fill : end]
            for vertex, end, fill in zip(self._vertex.tolist(), ends, self._fill.tolist())
        }
        generator = None if self._generator is None else self._generator.bit_generator.state
        slots, ordinals = self._vertex.tolist(), self._ordinal.tolist()
        return RunState(self._seen, slots, ordinals, reservoir, self.seed, generator)

    def space_breakdown(self) -> SpaceBreakdown:
        """Itemised reservoir space; the degree table is charged by the
        :class:`SharedDegreeRuns` holding the run."""
        breakdown = SpaceBreakdown()
        breakdown.add("reservoir ids", vertex_words(len(self._vertex)))
        breakdown.add("collected edges", edge_words(int(self._fill.sum())))
        breakdown.add("candidate counter", 1)
        return breakdown


def spawn_seeds(shards: List[List[DegResSampling]], entropy: int) -> None:
    """Give every shard's runs seed words of their own, spawned from
    ``entropy`` with :class:`numpy.random.SeedSequence` (one child per
    shard), so shards draw independent coins reproducibly."""
    children = np.random.SeedSequence(entropy).spawn(len(shards))
    for runs, child in zip(shards, children):
        for run, word in zip(runs, child.generate_state(len(runs), dtype=np.uint64).tolist()):
            run.seed = int(word)


def first_success(runs: List[DegResSampling]) -> Optional[Neighbourhood]:
    """The first successful run's neighbourhood, in run order, or
    ``None`` (Algorithm 2 returns any successful run's answer)."""
    return next((run.neighbourhood() for run in runs if run.successful), None)


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

    #: Degree counts and witness collection are exact only when each
    #: vertex's updates stay in one shard (see repro.engine.protocol).
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
        runs = ", ".join(f"(d1={run.d1}, d2={run.d2}, s={run.s})" for run in self.runs)
        return f"n={self.n}, runs {runs}"

    # ------------------------------------------------------------------
    # Stream processing.
    # ------------------------------------------------------------------

    def check_batch(self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None) -> None:
        """Reject deletions and out-of-range vertices."""
        super().check_batch(a, b, sign)
        self._degrees.check_range(a)

    def process_batch(self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None) -> None:
        """Algorithm 1's loop body (lines 4-14) for a chunk of insertions.

        ``sign``, when given, must be all-insert.  Each run admits its
        ``d1`` crossings with one vector draw, keeping per slot only its
        last writer; then every end-of-chunk occupant still short of
        ``d2`` appends the first ``d2 - fill`` of its chunk occurrences
        from its crossing on (all of them for an earlier occupant).  An
        occupant evicted later in the chunk collects nothing — eviction
        would discard it — so the state is bit-identical at every chunk
        size.
        """
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        # Only the sign rule here: increment_batch range-checks the
        # vertices before the table or any run changes.
        BatchIngest.check_batch(self, a, b, sign)
        if len(a) == 0:
            return
        grouping = group_slices(a)
        degree_after = self._degrees.increment_batch(a, grouping)
        # Position i crosses threshold t iff degree_after[i] == t; the
        # (rare) hits, sliced per threshold, stay ascending.
        lut = self._threshold_lut
        hits = np.flatnonzero(lut[np.minimum(degree_after, len(lut) - 1)])
        hit_degrees = degree_after[hits]
        crossings = {t: hits[hit_degrees == t] for t in self._thresholds}
        requests = []
        for run in self.runs:
            request = run._requests(a, crossings[run.d1])
            if request is not None:
                requests.append((run,) + request)
        if requests:
            collect_witnesses(requests, a, b, grouping, self.n)

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
        """Combine two states over vertex-disjoint sub-streams: the
        degree tables add (exact under vertex routing) and each run
        merges with its counterpart (:meth:`DegResSampling.merge`)."""
        if type(other) is not type(self):
            raise ValueError(f"cannot merge {type(self).__name__} with {type(other).__name__}")
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
        """The first successful run's neighbourhood; raises
        :class:`AlgorithmFailed` when every run failed."""
        found = first_success(self.runs)
        if found is None:
            raise AlgorithmFailed(f"all {len(self.runs)} parallel runs failed ({self._parameters()})")
        return found

    def finalize(self) -> Optional[Neighbourhood]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        answer, or ``None`` instead of raising on failure."""
        return first_success(self.runs)

    def current_degree(self, a: int) -> int:
        """Degree of A-vertex ``a`` seen so far."""
        return self._degrees.degree(a)

    def space_breakdown(self) -> SpaceBreakdown:
        """The degree table charged once, plus every run's reservoir."""
        breakdown = SpaceBreakdown()
        breakdown.add("degree counts", self._degrees.space_words())
        for i, run in enumerate(self.runs):
            breakdown.merge(run.space_breakdown(), prefix=f"run{i} ")
        return breakdown

    def space_words(self) -> int:
        return self.space_breakdown().total_words()
