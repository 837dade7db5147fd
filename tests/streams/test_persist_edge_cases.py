"""ChunkedStreamReader edge cases and engine behaviour on bad input.

Covers the corners a production ingestion path hits: empty files,
zero-update streams, chunk sizes larger than the stream, truncated and
corrupt NPZ archives, final partial chunks, memory-mapped readers over
all of the above — plus what a FanoutRunner does when a processor
raises mid-stream.
"""

import numpy as np
import pytest

from repro.engine import FanoutRunner, as_chunks
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.persist import (
    ChunkedStreamReader,
    StreamFormatError,
    dump_stream,
)


def columnar(n_updates, n=8, m=None):
    m = m or max(n_updates, 1)
    rng = np.random.default_rng(1)
    return ColumnarEdgeStream(
        rng.integers(0, n, size=n_updates),
        np.arange(n_updates, dtype=np.int64) % m,
        n=n,
        m=m,
        validate=False,
    )


@pytest.fixture(params=[False, True], ids=["eager", "mmap"])
def mmap_mode(request):
    return request.param


class TestEmptyAndTinyStreams:
    def test_zero_byte_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(StreamFormatError, match="missing header"):
            ChunkedStreamReader(path)

    def test_header_only_v1_file_yields_no_chunks(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# feww-stream v1 n=4 m=4\n")
        reader = ChunkedStreamReader(path)
        assert len(reader) == 0
        assert list(reader.chunks(16)) == []

    def test_v1_insertion_only_reads_signs_not_comments(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("# feww-stream v1 n=4 m=4\n+ 0 1\n# - note\n+ 1 2\n")
        assert ChunkedStreamReader(path).insertion_only
        path.write_text("# feww-stream v1 n=4 m=4\n+ 0 1\n - 0 1\n")
        assert not ChunkedStreamReader(path).insertion_only

    def test_zero_update_v2_file(self, tmp_path, mmap_mode):
        path = tmp_path / "empty.npz"
        dump_stream(columnar(0), path, format="v2")
        reader = ChunkedStreamReader(path, mmap=mmap_mode)
        assert reader.version == 2
        assert len(reader) == 0
        assert list(reader.chunks(16)) == []

    def test_chunk_size_larger_than_stream(self, tmp_path, mmap_mode):
        path = tmp_path / "small.npz"
        dump_stream(columnar(5), path, format="v2")
        chunks = list(ChunkedStreamReader(path, mmap=mmap_mode).chunks(1000))
        assert len(chunks) == 1
        assert len(chunks[0][0]) == 5


class TestPartialChunks:
    def test_final_partial_chunk_v2(self, tmp_path, mmap_mode):
        path = tmp_path / "partial.npz"
        dump_stream(columnar(10), path, format="v2")
        sizes = [
            len(a)
            for a, _, _ in ChunkedStreamReader(path, mmap=mmap_mode).chunks(4)
        ]
        assert sizes == [4, 4, 2]

    def test_final_partial_chunk_v1(self, tmp_path):
        path = tmp_path / "partial.txt"
        dump_stream(columnar(10).to_edge_stream(), path, format="v1")
        sizes = [len(a) for a, _, _ in ChunkedStreamReader(path).chunks(4)]
        assert sizes == [4, 4, 2]

    def test_chunks_concatenate_to_the_full_stream(self, tmp_path, mmap_mode):
        stream = columnar(23)
        path = tmp_path / "s.npz"
        dump_stream(stream, path, format="v2")
        reader = ChunkedStreamReader(path, mmap=mmap_mode)
        a = np.concatenate([chunk[0] for chunk in reader.chunks(7)])
        assert np.array_equal(np.asarray(a), stream.a)


class TestCorruptFiles:
    def test_truncated_npz_is_a_format_error(self, tmp_path, mmap_mode):
        path = tmp_path / "truncated.npz"
        dump_stream(columnar(100), path, format="v2")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StreamFormatError, match="not a valid NPZ"):
            ChunkedStreamReader(path, mmap=mmap_mode)

    def test_npz_magic_with_garbage_is_a_format_error(self, tmp_path, mmap_mode):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"PK\x03\x04" + b"\x00garbage" * 16)
        with pytest.raises(StreamFormatError, match="not a valid NPZ"):
            ChunkedStreamReader(path, mmap=mmap_mode)

    def test_npz_missing_entries_is_a_format_error(self, tmp_path, mmap_mode):
        path = tmp_path / "missing.npz"
        with open(path, "wb") as handle:
            np.savez(handle, a=np.zeros(3, dtype=np.int64))
        with pytest.raises(StreamFormatError, match="missing entries"):
            ChunkedStreamReader(path, mmap=mmap_mode)

    def test_out_of_range_endpoint_reported(self, tmp_path, mmap_mode):
        path = tmp_path / "bad_range.npz"
        bad = ColumnarEdgeStream(
            np.array([0, 99], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            n=4,
            m=4,
            validate=False,
        )
        dump_stream(bad, path, format="v2")
        with pytest.raises(StreamFormatError, match="out of range"):
            # eager readers validate at open; mmap readers defer the
            # check to chunk iteration (paging the file in at open time
            # would defeat the point)
            reader = ChunkedStreamReader(path, mmap=mmap_mode)
            list(reader.chunks(16))

    def test_compressed_npz_still_loads_without_mapping(self, tmp_path):
        # np.savez_compressed output cannot be memory-mapped; the reader
        # must fall back to eager loading, not fail.
        stream = columnar(20)
        path = tmp_path / "compressed.npz"
        meta = np.array([2, stream.n, stream.m], dtype=np.int64)
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle, a=stream.a, b=stream.b, sign=stream.sign, meta=meta
            )
        reader = ChunkedStreamReader(path, mmap=True)
        assert len(reader) == 20
        sizes = [len(a) for a, _, _ in reader.chunks(8)]
        assert sizes == [8, 8, 4]


class TestMmapLaziness:
    def test_mmap_columns_are_memory_mapped(self, tmp_path):
        stream = columnar(500)
        path = tmp_path / "big.npz"
        dump_stream(stream, path, format="v2")
        reader = ChunkedStreamReader(path, mmap=True)
        # the column arrays must be backed by the on-disk file, not heap
        for column in (
            reader._columns.a, reader._columns.b, reader._columns.sign
        ):
            base = column
            while not isinstance(base, np.memmap) and base.base is not None:
                base = base.base
            assert isinstance(base, np.memmap)

    def test_mmap_reader_matches_eager_reader(self, tmp_path):
        stream = columnar(100)
        path = tmp_path / "s.npz"
        dump_stream(stream, path, format="v2")
        eager = list(ChunkedStreamReader(path).chunks(16))
        mapped = list(ChunkedStreamReader(path, mmap=True).chunks(16))
        assert len(eager) == len(mapped)
        for (ea, eb, es), (ma, mb, ms) in zip(eager, mapped):
            assert np.array_equal(np.asarray(ea), np.asarray(ma))
            assert np.array_equal(np.asarray(eb), np.asarray(mb))
            assert np.array_equal(np.asarray(es), np.asarray(ms))

    def test_mmap_is_a_noop_for_v1_text(self, tmp_path):
        path = tmp_path / "s.txt"
        dump_stream(columnar(10).to_edge_stream(), path, format="v1")
        reader = ChunkedStreamReader(path, mmap=True)
        assert reader.version == 1
        assert len(list(reader.chunks(4))) == 3


class FlakyProcessor:
    """Raises on its second chunk; records what it received."""

    def __init__(self):
        self.chunks_seen = 0

    def process_batch(self, a, b, sign=None):
        self.chunks_seen += 1
        if self.chunks_seen == 2:
            raise RuntimeError("processor exploded mid-stream")

    def finalize(self):
        return self.chunks_seen


class TestFanoutRunnerMidStreamFailure:
    def test_exception_propagates_and_stops_the_pass(self):
        stream = columnar(40)
        flaky = FlakyProcessor()
        runner = FanoutRunner({"flaky": flaky}, chunk_size=8)
        with pytest.raises(RuntimeError, match="exploded mid-stream"):
            runner.run(stream)
        # the failing processor consumed exactly two chunks, then the
        # pass stopped — nothing further was fed
        assert flaky.chunks_seen == 2

    def test_earlier_processors_in_same_chunk_already_consumed(self):
        """Fan-out order is registration order: processors registered
        before the failing one have consumed the fatal chunk, later ones
        have not — documented, deterministic mid-failure state."""
        stream = columnar(40)

        received = {"before": 0, "after": 0}

        class Counter:
            def __init__(self, key):
                self.key = key

            def process_batch(self, a, b, sign=None):
                received[self.key] += 1

            def finalize(self):
                return received[self.key]

        runner = FanoutRunner(
            {
                "before": Counter("before"),
                "flaky": FlakyProcessor(),
                "after": Counter("after"),
            },
            chunk_size=8,
        )
        with pytest.raises(RuntimeError, match="exploded"):
            runner.run(stream)
        assert received["before"] == 2  # saw the fatal chunk
        assert received["after"] == 1   # never reached on the fatal chunk


# ----------------------------------------------------------------------
# A v2 archive that still carries the retired timestamp entry.
# ----------------------------------------------------------------------


class TestTimestampedPersistence:
    def test_v21_file_readable_by_pre_timestamp_reader(self, tmp_path):
        """An archive that still carries the retired ``t`` (event-time)
        entry loads as plain v2, with the entry ignored."""
        from repro.streams.persist import load_columnar

        stream = columnar(40)
        path = tmp_path / "timestamped.npz"
        with open(path, "wb") as handle:
            np.savez(
                handle,
                a=stream.a,
                b=stream.b,
                sign=stream.sign,
                meta=np.array([2, stream.n, stream.m], dtype=np.int64),
                t=np.arange(40, dtype=np.int64) * 7,
            )
        loaded = load_columnar(path)
        assert (loaded.n, loaded.m) == (stream.n, stream.m)
        assert not hasattr(loaded, "t")
        for source in (loaded, ChunkedStreamReader(path),
                       ChunkedStreamReader(path, mmap=True)):
            columns = [np.concatenate(c) for c in zip(*source.chunks(16))]
            for read, written in zip(columns, (stream.a, stream.b, stream.sign)):
                assert np.array_equal(read, written)


# ----------------------------------------------------------------------
# The v2 column-slice loop shared by the eager and mapped readers.
# ----------------------------------------------------------------------


class TestColumnSlices:
    @pytest.mark.parametrize("chunk_size", (1, 7, 64, 1000))
    def test_slices_match_the_in_memory_stream(
        self, tmp_path, mmap_mode, chunk_size
    ):
        stream = columnar(333)
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")
        read = list(ChunkedStreamReader(path, mmap=mmap_mode).chunks(chunk_size))
        expected = list(stream.chunks(chunk_size))
        assert len(read) == len(expected)
        for mine, theirs in zip(read, expected):
            for left, right in zip(mine, theirs):
                assert np.array_equal(np.asarray(left), right)

    @pytest.mark.parametrize("start", (5, 14, 333))
    def test_start_offset_measures_chunks_from_the_offset(
        self, tmp_path, mmap_mode, start
    ):
        stream = columnar(333)
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")
        reader = ChunkedStreamReader(path, mmap=mmap_mode)
        chunks = list(reader.chunks(7, start=start))
        sizes = [len(chunk[0]) for chunk in chunks]
        tail = len(stream) - start
        assert sizes == [7] * (tail // 7) + ([tail % 7] if tail % 7 else [])
        if chunks:
            a = np.concatenate([np.asarray(chunk[0]) for chunk in chunks])
            assert np.array_equal(a, stream.a[start:])

    def test_mapped_range_error_surfaces_at_the_offending_chunk(self, tmp_path):
        a = np.zeros(64, dtype=np.int64)
        a[40] = 99  # n=8, so update 40 is out of range
        bad = ColumnarEdgeStream(
            a, np.arange(64, dtype=np.int64), n=8, m=64, validate=False
        )
        path = tmp_path / "late_bad.npz"
        dump_stream(bad, path, format="v2")
        chunks = ChunkedStreamReader(path, mmap=True).chunks(16)
        assert len(next(chunks)[0]) == 16
        assert len(next(chunks)[0]) == 16
        with pytest.raises(StreamFormatError, match="out of range"):
            next(chunks)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"chunk_size": 0}, "chunk_size must be >= 1"),
            ({"start": -1}, "start must be >= 0"),
        ],
        ids=["chunk_size", "start"],
    )
    def test_invalid_arguments_are_rejected(self, tmp_path, kwargs, message):
        path = tmp_path / "stream.npz"
        dump_stream(columnar(10), path, format="v2")
        with pytest.raises(ValueError, match=message):
            list(ChunkedStreamReader(path, mmap=True).chunks(**kwargs))
