"""Tests for ColumnarEdgeStream: validation, conversion, chunking, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.protocol import BatchIngest
from repro.streams.columnar import (
    ColumnarEdgeStream,
    group_slices,
    occurrence_ordinals,
)
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.generators import (
    GeneratorConfig,
    churn_columnar,
    random_bipartite_columnar,
    zipf_frequency_columnar,
)
from repro.streams.stream import EdgeStream, InvalidStreamError


def make(a, b, sign=None, n=10, m=10, validate=True):
    return ColumnarEdgeStream(a, b, sign, n=n, m=m, validate=validate)


class TestValidation:
    def test_empty_stream_is_valid(self):
        stream = make([], [])
        assert len(stream) == 0
        assert stream.insertion_only

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            ColumnarEdgeStream([], [], n=0, m=5)
        with pytest.raises(ValueError):
            ColumnarEdgeStream([], [], n=5, m=0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            make([1, 2], [1])
        with pytest.raises(ValueError):
            make([1], [1], sign=[1, 1])

    def test_rejects_a_out_of_range(self):
        with pytest.raises(InvalidStreamError):
            make([10], [0])
        with pytest.raises(InvalidStreamError):
            make([-1], [0])

    def test_rejects_b_out_of_range(self):
        with pytest.raises(InvalidStreamError):
            make([0], [10])

    def test_rejects_bad_sign(self):
        with pytest.raises(InvalidStreamError):
            make([0], [0], sign=[2])

    def test_rejects_duplicate_insert(self):
        with pytest.raises(InvalidStreamError):
            make([1, 1], [1, 1])

    def test_rejects_delete_of_absent_edge(self):
        with pytest.raises(InvalidStreamError):
            make([1], [1], sign=[DELETE])

    def test_rejects_double_delete(self):
        with pytest.raises(InvalidStreamError):
            make([1, 1, 1], [1, 1, 1], sign=[INSERT, DELETE, DELETE])

    def test_reinsert_after_delete_is_valid(self):
        stream = make([1, 1, 1], [1, 1, 1], sign=[INSERT, DELETE, INSERT])
        assert stream.final_degrees() == {1: 1}
        assert not stream.insertion_only

    def test_validate_false_skips_checks(self):
        stream = make([1], [1], sign=[DELETE], validate=False)
        assert len(stream) == 1


class TestConversion:
    def _stream(self):
        items = [
            StreamItem(Edge(1, 2)),
            StreamItem(Edge(3, 4)),
            StreamItem(Edge(1, 2), DELETE),
            StreamItem(Edge(1, 5)),
        ]
        return EdgeStream(items, 10, 10)

    def test_roundtrip_is_lossless(self):
        stream = self._stream()
        columnar = ColumnarEdgeStream.from_edge_stream(stream)
        back = columnar.to_edge_stream()
        assert list(back) == list(stream)
        assert (back.n, back.m) == (stream.n, stream.m)

    def test_item_access_matches(self):
        stream = self._stream()
        columnar = ColumnarEdgeStream.from_edge_stream(stream)
        assert len(columnar) == len(stream)
        assert columnar[2] == stream[2]
        assert list(columnar) == list(stream)

    def test_stats_match_edge_stream(self):
        stream = self._stream()
        columnar = ColumnarEdgeStream.from_edge_stream(stream)
        assert columnar.stats() == stream.stats()
        assert columnar.final_degrees() == stream.final_degrees()
        assert columnar.max_degree() == stream.max_degree()

    def test_empty_stats(self):
        stream = make([], [])
        stats = stream.stats()
        assert stats.n_updates == 0
        assert stats.max_degree == 0
        assert stats.max_degree_vertex == -1

    def test_concatenate(self):
        left = make([1], [1])
        right = make([2], [2])
        joined = left.concatenate(right)
        assert len(joined) == 2
        assert joined.final_degrees() == {1: 1, 2: 1}
        with pytest.raises(ValueError):
            left.concatenate(make([1], [1], n=5, m=5))


class TestChunks:
    def test_chunks_cover_stream_in_order(self):
        stream = make(list(range(10)), list(range(10)))
        pieces = list(stream.chunks(3))
        assert [len(a) for a, _, _ in pieces] == [3, 3, 3, 1]
        reassembled = np.concatenate([a for a, _, _ in pieces])
        assert (reassembled == stream.a).all()

    def test_chunks_are_views(self):
        stream = make(list(range(10)), list(range(10)))
        a, _, _ = next(iter(stream.chunks(4)))
        assert a.base is stream.a

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(make([0], [0]).chunks(0))


class TestHelpers:
    def test_occurrence_ordinals(self):
        values = np.array([5, 3, 5, 5, 3])
        assert occurrence_ordinals(values).tolist() == [0, 0, 1, 2, 1]

    def test_group_slices_preserve_arrival_order(self):
        values = np.array([2, 1, 2, 1, 2])
        order, starts, ends = group_slices(values)
        groups = [
            order[s:e].tolist() for s, e in zip(starts.tolist(), ends.tolist())
        ]
        assert groups == [[1, 3], [0, 2, 4]]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=60))
    def test_ordinals_match_sequential_count(self, values):
        arr = np.array(values, dtype=np.int64)
        seen = {}
        expected = []
        for value in values:
            expected.append(seen.get(value, 0))
            seen[value] = seen.get(value, 0) + 1
        got = occurrence_ordinals(arr) if len(values) else []
        assert list(got) == expected


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def reference_slices(values):
    """``(order, starts, ends)`` from numpy's stable argsort."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    boundary = np.ones(len(values), dtype=bool)
    boundary[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], len(values)) if len(values) else starts
    return order, starts, ends


def assert_matches_reference(values):
    values = np.array(values, dtype=np.int64)
    got = group_slices(values)
    want = reference_slices(values)
    for column, expected in zip(got, want):
        assert column.dtype == np.int64
        assert column.tolist() == expected.tolist()


#: Columns on each grouping path: the 16-bit radix sort, the composite
#: ``(value - min) * len + position`` sort, and the stable-argsort
#: fallback where that key overflows ``int64``.
narrow_columns = st.lists(st.integers(0, (1 << 16) - 1), max_size=80)
composite_columns = st.tuples(
    st.one_of(st.integers(-(1 << 62), -1), st.integers(1 << 16, 1 << 62)),
    st.lists(st.integers(0, 1 << 20), min_size=1, max_size=80),
).map(lambda pair: [pair[0] + offset for offset in pair[1]])
overflow_columns = st.lists(
    st.integers(INT64_MIN, INT64_MAX), max_size=80
).map(lambda tail: [INT64_MIN, INT64_MAX] + tail)
repeated_columns = st.tuples(
    st.sampled_from([0, (1 << 16) - 1, 1 << 16, -7, INT64_MIN, INT64_MAX]),
    st.lists(st.sampled_from([0, 1, 1 << 40]), max_size=40),
).map(lambda pair: [pair[0] - offset if pair[0] > 0 else pair[0] + offset
                    for offset in pair[1]])


class TestGroupSlices:
    """``group_slices`` equals the stable argsort's grouping on every path."""

    @settings(max_examples=60, deadline=None)
    @given(narrow_columns)
    def test_radix_path(self, values):
        assert_matches_reference(values)

    @settings(max_examples=60, deadline=None)
    @given(composite_columns)
    def test_composite_key_path(self, values):
        assert_matches_reference(values)

    @settings(max_examples=60, deadline=None)
    @given(overflow_columns)
    def test_overflow_fallback(self, values):
        assert_matches_reference(values)

    @settings(max_examples=60, deadline=None)
    @given(repeated_columns)
    def test_few_distinct_values(self, values):
        assert_matches_reference(values)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [5],
            [-3],
            [INT64_MIN],
            [INT64_MAX],
            [7, 7, 7, 7],
            [-1, -1, -1],
            [(1 << 16) - 1, 0, (1 << 16) - 1],
            [1 << 16, 0, 1 << 16, 0],
            [(1 << 16) - 1, 1 << 16, (1 << 16) - 1],
            [-1, 0, -1, 1],
            # Composite keys of two positions fill int64 exactly ...
            [(1 << 62) - 1, 0, (1 << 62) - 1],
            [0, (1 << 62) - 1],
            # ... and one more unit of span overflows them.
            [1 << 62, 0, 1 << 62],
            [INT64_MIN, INT64_MAX, INT64_MIN, 0],
            [INT64_MAX, INT64_MAX - 1, INT64_MAX],
        ],
    )
    def test_edge_columns(self, values):
        assert_matches_reference(values)

    @pytest.mark.parametrize(
        "values, sorted_dtype",
        [
            ([3, (1 << 16) - 1, 3], np.uint16),
            ([3, 1 << 16, 3], None),
            ([-1, 4, -1], None),
            ([(1 << 62) - 1, 0, 1], np.int64),
            ([INT64_MIN, INT64_MAX], np.int64),
        ],
    )
    def test_each_path_is_taken(self, monkeypatch, values, sorted_dtype):
        """The radix path argsorts a ``uint16`` copy, the composite path
        argsorts nothing, and the fallback argsorts the ``int64`` ids."""
        argsorted = []
        argsort = np.argsort

        def spy(column, *args, **kwargs):
            argsorted.append(column.dtype)
            return argsort(column, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        group_slices(np.array(values, dtype=np.int64))
        assert argsorted == ([] if sorted_dtype is None else [np.dtype(sorted_dtype)])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        max_size=40,
    )
)
def test_validation_agrees_with_edge_stream(pairs):
    """Columnar validation accepts/rejects exactly like EdgeStream.

    The generated streams insert each edge the first time it appears and
    alternate insert/delete afterwards, occasionally producing invalid
    prefixes; both validators must agree on every sequence.
    """
    items = []
    live = set()
    for a, b in pairs:
        sign = DELETE if (a, b) in live else INSERT
        if sign == INSERT:
            live.add((a, b))
        else:
            live.discard((a, b))
        items.append(StreamItem(Edge(a, b), sign))
    a_col = [item.edge.a for item in items]
    b_col = [item.edge.b for item in items]
    s_col = [item.sign for item in items]
    EdgeStream(items, 5, 5)  # sanity: construction is valid
    stream = ColumnarEdgeStream(a_col, b_col, s_col, n=5, m=5)
    assert stream.stats() == EdgeStream(items, 5, 5).stats()


class TestColumnarGenerators:
    def test_zipf_columnar_shape(self):
        config = GeneratorConfig(n=16, m=500, seed=3)
        stream = zipf_frequency_columnar(config, 500, exponent=1.3)
        assert len(stream) == 500
        assert stream.insertion_only
        # Witnesses are arrival indices: all distinct, so the stream is valid.
        stream._validate()
        degrees = stream.final_degrees()
        assert sum(degrees.values()) == 500
        # Zipf skew: vertex 0 is the most popular.
        assert degrees[0] == max(degrees.values())

    def test_random_bipartite_columnar_distinct_edges(self):
        stream = random_bipartite_columnar(
            GeneratorConfig(n=8, m=9, seed=1), n_edges=40
        )
        assert len(stream) == 40
        stream._validate()
        flat = set((stream.a * 9 + stream.b).tolist())
        assert len(flat) == 40

    def test_churn_columnar_cancels_to_star(self):
        stream = churn_columnar(
            GeneratorConfig(n=10, m=20, seed=2), star_degree=6, churn_edges=30
        )
        stream._validate()
        assert not stream.insertion_only
        assert stream.final_degrees() == {0: 6}

    def test_generator_reproducibility(self):
        config = GeneratorConfig(n=16, m=200, seed=9)
        first = zipf_frequency_columnar(config, 200)
        second = zipf_frequency_columnar(config, 200)
        assert (first.a == second.a).all()
        assert (first.b == second.b).all()


def test_process_drives_the_chunks_it_is_given():
    class Recorder(BatchIngest):
        def __init__(self):
            self.batches = []

        def process_batch(self, a, b, sign):
            self.batches.append(len(a))

    stream = make(list(range(10)), list(range(10)))
    recorder = Recorder().process(stream.chunks(4))
    assert recorder.batches == [4, 4, 2]
