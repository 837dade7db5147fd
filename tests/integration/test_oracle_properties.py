"""Property-based oracle tests: on arbitrary generated streams, the
algorithms' outputs are always sound with respect to exact replay."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FullStorage
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.stream import EdgeStream

N, M = 12, 16


@st.composite
def insert_streams(draw):
    """Arbitrary simple insertion streams over a 12x16 grid."""
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, M - 1)),
            max_size=80,
            unique=True,
        )
    )
    return EdgeStream([StreamItem(Edge(a, b)) for a, b in pairs], N, M)


@st.composite
def turnstile_streams(draw):
    """Arbitrary valid insert/delete sequences over the same grid."""
    n_ops = draw(st.integers(0, 80))
    live, items = set(), []
    for _ in range(n_ops):
        if live and draw(st.booleans()):
            edge = draw(st.sampled_from(sorted(live, key=lambda e: (e.a, e.b))))
            items.append(StreamItem(edge, DELETE))
            live.remove(edge)
        else:
            edge = Edge(draw(st.integers(0, N - 1)), draw(st.integers(0, M - 1)))
            if edge in live:
                continue
            live.add(edge)
            items.append(StreamItem(edge, INSERT))
    return EdgeStream(items, N, M)


class TestInsertionOnlySoundness:
    @settings(max_examples=120, deadline=None)
    @given(insert_streams(), st.integers(1, 8), st.integers(1, 3),
           st.integers(0, 3))
    def test_output_always_sound(self, stream, d, alpha, seed):
        """Whatever the stream and parameters: if the algorithm reports,
        the witnesses are genuine and numerous enough."""
        algorithm = InsertionOnlyFEwW(N, d, alpha, seed=seed)
        algorithm.process(stream)
        try:
            result = algorithm.result()
        except AlgorithmFailed:
            return
        assert result.size >= math.ceil(d / alpha)
        assert result.witnesses <= stream.neighbours_of(result.vertex)

    @settings(max_examples=120, deadline=None)
    @given(insert_streams(), st.integers(1, 8), st.integers(0, 3))
    def test_promise_implies_success_with_full_reservoir(self, stream, d, seed):
        """alpha=1 with a reservoir covering all of A is deterministic:
        whenever the promise holds, the algorithm must succeed."""
        algorithm = InsertionOnlyFEwW(N, d, 1, seed=seed, reservoir_override=N)
        algorithm.process(stream)
        if stream.max_degree() >= d:
            assert algorithm.successful
            oracle = FullStorage(N, M).process(stream).result(d)
            assert algorithm.result().size >= d
            assert oracle.size >= d

    @settings(max_examples=80, deadline=None)
    @given(insert_streams(), st.integers(1, 8), st.integers(1, 3))
    def test_reservoirs_respect_capacity(self, stream, d, alpha):
        algorithm = InsertionOnlyFEwW(N, d, alpha, seed=1)
        algorithm.process(stream)
        d2 = math.ceil(d / alpha)
        for run in algorithm.runs:
            reservoir = run.state().reservoir
            assert len(reservoir) <= run.s
            for witnesses in reservoir.values():
                assert len(witnesses) <= d2

    @settings(max_examples=80, deadline=None)
    @given(insert_streams(), st.integers(1, 8), st.integers(1, 3))
    def test_degree_counter_matches_replay(self, stream, d, alpha):
        algorithm = InsertionOnlyFEwW(N, d, alpha, seed=2)
        algorithm.process(stream)
        degrees = stream.final_degrees()
        for a in range(N):
            assert algorithm.current_degree(a) == degrees.get(a, 0)


class TestInsertionDeletionSoundness:
    @settings(max_examples=60, deadline=None)
    @given(turnstile_streams(), st.integers(1, 6), st.integers(0, 2))
    def test_witnesses_survive_deletions(self, stream, d, seed):
        """Fast-mode Algorithm 3 on arbitrary turnstile streams: any
        reported witness must exist in the final graph."""
        algorithm = InsertionDeletionFEwW(N, M, d, 2, seed=seed, scale=0.1)
        algorithm.process(stream)
        try:
            result = algorithm.result()
        except AlgorithmFailed:
            return
        assert result.size >= math.ceil(d / 2)
        assert result.witnesses <= stream.neighbours_of(result.vertex)

    @settings(max_examples=40, deadline=None)
    @given(turnstile_streams(), st.integers(0, 2))
    def test_empty_final_graph_never_reports(self, stream, seed):
        """Delete everything: the algorithm must fail rather than
        hallucinate a neighbourhood."""
        items = list(stream)
        final = stream.final_edges()
        items += [StreamItem(edge, DELETE) for edge in sorted(
            final, key=lambda e: (e.a, e.b)
        )]
        emptied = EdgeStream(items, N, M)
        algorithm = InsertionDeletionFEwW(N, M, 1, 1, seed=seed, scale=0.1)
        algorithm.process(emptied)
        assert not algorithm.successful
