"""Algorithm 1's vectorised chunk step against a per-update reference.

``reference`` below replays Algorithm 1 one update at a time in plain
Python: a vertex becomes a candidate when its degree reaches ``d1``;
the first ``s`` candidates fill the slots in order, and candidate
``x > s`` draws ``j = integers(0, [x])`` from its run's Generator and
replaces slot ``j`` iff ``j < s``; an occupant appends each of its
updates, its crossing included, until it holds ``d2``.  The chunk step
must reach the same full state at every chunk size, over the edge
cases of the step itself.
"""

import numpy as np
import pytest

from repro.core.deg_res_sampling import DegResSampling, RunState, SharedDegreeRuns


def reference(d1, d2, s, seed, a, b):
    """The run's state after the stream, and the (vertex, admitted,
    evicted) update positions of every admission."""
    generator = None
    degrees = {}
    seen = 0
    slots = []  # [vertex, ordinal, witnesses, admitted at]
    events = []
    for position, (vertex, witness) in enumerate(zip(a.tolist(), b.tolist())):
        degrees[vertex] = degrees.get(vertex, 0) + 1
        if degrees[vertex] == d1:
            seen += 1
            fresh = [vertex, seen, [], position]
            if len(slots) < s:
                slots.append(fresh)
            else:
                if generator is None:
                    generator = np.random.default_rng(seed)
                j = int(generator.integers(0, np.array([seen]))[0])
                if j < s:
                    evicted = slots[j]
                    events.append((evicted[0], evicted[3], position))
                    slots[j] = fresh
        for slot in slots:
            if slot[0] == vertex and len(slot[2]) < d2:
                slot[2].append(witness)
    state = RunState(
        seen,
        [slot[0] for slot in slots],
        [slot[1] for slot in slots],
        {slot[0]: slot[2] for slot in slots},
        seed,
        None if generator is None else generator.bit_generator.state,
    )
    return state, events


def run_state(d1, d2, s, seed, a, b, cuts):
    """The chunk step's state after feeding ``a, b`` split at ``cuts``."""
    shared = SharedDegreeRuns(int(a.max()) + 1, [DegResSampling(d1, d2, s, seed)])
    bounds = [0] + list(cuts) + [len(a)]
    for low, high in zip(bounds[:-1], bounds[1:]):
        shared.process_batch(a[low:high], b[low:high])
    return shared.runs[0].state()


def chunked(length, size):
    return range(size, length, size)


def stream(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=m), rng.integers(0, 10 * m, size=m)


CONFIGS = [(1, 3, 4), (3, 5, 2), (2, 1, 1), (4, 6, 3)]


@pytest.mark.parametrize("d1, d2, s", CONFIGS)
@pytest.mark.parametrize("size", (1, 7, None))
def test_matches_reference_at_every_chunk_size(d1, d2, s, size):
    a, b = stream(40, 500, d1 * 100 + s)
    expected, events = reference(d1, d2, s, 17, a, b)
    assert events  # the stream evicts
    cuts = () if size is None else chunked(len(a), size)
    assert run_state(d1, d2, s, 17, a, b, cuts) == expected


def test_empty_and_length_one_chunks():
    a, b = stream(30, 300, 3)
    expected, _ = reference(2, 4, 3, 8, a, b)
    # Repeated cuts make empty chunks; adjacent ones length-1 chunks.
    cuts = [0, 0, 1, 2, 2, 50, 51, 51, 52, 299, 300, 300]
    assert run_state(2, 4, 3, 8, a, b, cuts) == expected
    shared = SharedDegreeRuns(30, [DegResSampling(2, 4, 3, 8)])
    shared.process_batch(a[:0], b[:0])
    assert shared.runs[0].state() == DegResSampling(2, 4, 3, 8).state()


@pytest.mark.parametrize("size", (1, 7, None))
def test_single_vertex(size):
    a = np.zeros(40, dtype=np.int64)
    b = np.arange(40, dtype=np.int64)
    expected, events = reference(5, 8, 1, 2, a, b)
    cuts = () if size is None else chunked(len(a), size)
    state = run_state(5, 8, 1, 2, a, b, cuts)
    assert state == expected
    assert state.reservoir == {0: list(range(4, 12))}
    assert state.generator is None and not events


@pytest.mark.parametrize("size", (1, 7, None))
def test_no_draw_when_the_slots_hold_every_candidate(size):
    a, b = stream(12, 400, 9)
    d1, d2 = 6, 5
    occurrences = {}
    crossing_order = []
    for vertex, witness in zip(a.tolist(), b.tolist()):
        occurrences.setdefault(vertex, []).append(witness)
        if len(occurrences[vertex]) == d1:
            crossing_order.append(vertex)
    s = len(crossing_order)
    cuts = () if size is None else chunked(len(a), size)
    state = run_state(d1, d2, s, 4, a, b, cuts)
    assert state.generator is None
    assert state.slots == crossing_order
    assert state.ordinals == list(range(1, s + 1))
    assert state.reservoir == {
        vertex: occurrences[vertex][d1 - 1 : d1 - 1 + d2] for vertex in crossing_order
    }
    assert state == reference(d1, d2, s, 4, a, b)[0]


def test_admitted_then_overwritten_within_one_chunk():
    # Distinct vertices, d1 = 1: every update is a candidate, so s = 2
    # slots are rewritten often inside a 25-update chunk.
    a = np.random.default_rng(1).permutation(200)
    b = a + 1000
    expected, events = reference(1, 3, 2, 6, a, b)
    size = 25
    assert any(admitted // size == evicted // size for _, admitted, evicted in events)
    assert run_state(1, 3, 2, 6, a, b, chunked(len(a), size)) == expected
    assert run_state(1, 3, 2, 6, a, b, ()) == expected


@pytest.mark.parametrize("size", (1, 7, None))
def test_ingest_after_a_merge_that_left_more_than_s_slots(size):
    s = 3
    halves = []
    for parity, seed in ((0, 11), (1, 12)):
        half = SharedDegreeRuns(300, [DegResSampling(1, 4, s, seed)])
        vertices = np.arange(parity, 40, 2)
        half.process_batch(vertices, vertices + 500)
        halves.append(half)
    merged = halves[0].merge(halves[1])
    before = merged.runs[0].state()
    assert len(before.slots) == 2 * s
    a, b = stream(300, 400, 5)
    a = a + 40 * (a < 40)  # only vertices new to both halves
    cuts = () if size is None else chunked(len(a), size)
    run = merged.clone()
    bounds = [0] + list(cuts) + [len(a)]
    for low, high in zip(bounds[:-1], bounds[1:]):
        run.process_batch(a[low:high], b[low:high])
    after = run.runs[0].state()
    # Draws j < s replace only the first s slots; the rest stay.
    assert len(after.slots) == 2 * s
    assert after.slots[s:] == before.slots[s:]
    assert after.slots[:s] != before.slots[:s]
    assert after.candidates_seen == before.candidates_seen + len(np.unique(a))
    whole = merged.clone()
    whole.process_batch(a, b)
    assert whole.runs[0].state() == after


class TestMergeRule:
    """Window buckets split by time, so a vertex can sit in both
    operands: its slot here gains the other's missing witnesses in
    order, clipped to d2, unless it already holds d2."""

    @staticmethod
    def bucket(pairs, d2=5, seed=1):
        shared = SharedDegreeRuns(10, [DegResSampling(1, d2, 8, seed)])
        a, b = (np.array(column, dtype=np.int64) for column in zip(*pairs))
        shared.process_batch(a, b)
        return shared

    def test_shared_vertex_gains_missing_witnesses_clipped(self):
        mine = self.bucket([(0, 1), (0, 2), (0, 3), (4, 9)])
        theirs = self.bucket([(0, 3), (0, 4), (0, 3), (0, 5), (0, 6), (2, 7)])
        untouched = theirs.runs[0].state()
        merged = mine.merge(theirs).runs[0].state()
        assert merged.reservoir == {0: [1, 2, 3, 4, 5], 4: [9], 2: [7]}
        assert merged.slots == [0, 4, 2]
        assert merged.candidates_seen == 4
        assert theirs.runs[0].state() == untouched

    def test_full_slot_is_left_as_it_is(self):
        mine = self.bucket([(0, 1), (0, 2)], d2=2)
        theirs = self.bucket([(0, 3)], d2=2)
        assert mine.merge(theirs).runs[0].state().reservoir == {0: [1, 2]}

    def test_witnesses_too_wide_to_pack(self):
        # The witness range times the slot count overflows a packed key.
        low, high = -(2**62), 2**62
        mine = self.bucket([(0, high), (0, low), (3, 5)])
        theirs = self.bucket([(0, low), (0, 7), (0, high), (0, -1), (3, high)])
        merged = mine.merge(theirs).runs[0].state()
        assert merged.reservoir == {0: [high, low, 7, -1], 3: [5, high]}


def test_vector_draws_are_split_invariant():
    """``integers(0, high_array)`` draws the same values however the
    bounds are split across calls — the property that makes the state
    independent of chunking.  A NumPy release that breaks it fails
    here first."""
    rng = np.random.default_rng(0)
    highs = rng.integers(178, 5 * 10**9, size=20_000)
    whole = np.random.default_rng(42).integers(0, highs)
    pieces = np.random.default_rng(42)
    cuts = np.cumsum(rng.integers(1, 50, size=len(highs)))
    cuts = cuts[cuts < len(highs)]
    split = np.concatenate([pieces.integers(0, part) for part in np.split(highs, cuts)])
    assert np.array_equal(whole, split)
