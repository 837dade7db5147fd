"""FanoutRunner and the drive loop: single-pass fan-out, source
normalisation, per-chunk hooks, results."""

import numpy as np
import pytest

from repro.core.insertion_only import InsertionOnlyFEwW
from repro.engine import (
    CheckpointStore,
    FanoutRunner,
    FaultPlan,
    as_chunks,
    run_fanout,
)
from repro.engine.runner import drive
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    planted_star_graph,
    zipf_frequency_stream,
)
from repro.streams.persist import dump_stream


def star_stream(n=64, m=256, d=16, seed=1):
    return planted_star_graph(
        GeneratorConfig(n=n, m=m, seed=seed), star_degree=d, background_degree=3
    )


class CountingProcessor:
    """Test double that records every chunk it is handed."""

    def __init__(self):
        self.chunks = []

    def process_batch(self, a, b, sign=None):
        self.chunks.append((a.copy(), b.copy()))

    def finalize(self):
        return sum(len(a) for a, _ in self.chunks)


class TestSourceNormalisation:
    def test_columnar_edge_and_file_sources_agree(self, tmp_path):
        stream = star_stream()
        columnar = ColumnarEdgeStream.from_edge_stream(stream)
        path = tmp_path / "s.npz"
        dump_stream(columnar, path, format="v2")
        for source in (columnar, stream, path, str(path)):
            totals = [
                np.concatenate([a for a, b, s in as_chunks(source, 16)]),
            ]
            assert len(totals[0]) == len(stream)
            assert totals[0].tolist() == columnar.a.tolist()

    def test_chunk_iterables_pass_through(self):
        chunks = [
            (np.array([1]), np.array([2]), np.array([1])),
            (np.array([3]), np.array([4]), np.array([1])),
        ]
        assert list(as_chunks(iter(chunks))) == chunks

    def test_unsupported_source_rejected(self):
        with pytest.raises(TypeError, match="cannot stream chunks"):
            list(as_chunks(42))


class TestFanoutRunner:
    def test_every_processor_sees_every_chunk_once(self):
        stream = ColumnarEdgeStream(
            np.arange(10) % 4, np.arange(10), n=4, m=10
        )
        first, second = CountingProcessor(), CountingProcessor()
        results = FanoutRunner(
            {"first": first, "second": second}, chunk_size=3
        ).run(stream)
        assert results == {"first": 10, "second": 10}
        assert len(first.chunks) == 4  # ceil(10 / 3)
        assert [len(a) for a, _ in first.chunks] == [3, 3, 3, 1]
        assert [a.tolist() for a, _ in first.chunks] == [
            a.tolist() for a, _ in second.chunks
        ]

    def test_duplicate_name_rejected(self):
        runner = FanoutRunner({"x": CountingProcessor()})
        with pytest.raises(ValueError, match="already registered"):
            runner.add("x", CountingProcessor())

    def test_nonconforming_processor_rejected(self):
        with pytest.raises(TypeError, match="StreamProcessor"):
            FanoutRunner({"bad": object()})

    def test_run_without_processors_rejected(self):
        with pytest.raises(RuntimeError, match="no processors"):
            FanoutRunner().run(star_stream())

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            FanoutRunner(chunk_size=0)

    def test_registration_introspection(self):
        counting = CountingProcessor()
        runner = FanoutRunner({"x": counting})
        assert runner.names() == ("x",)
        assert runner["x"] is counting
        assert len(runner) == 1

    def test_failed_algorithm_yields_none_not_raise(self):
        # Empty stream: Algorithm 2 finds nothing; runner reports None.
        results = run_fanout(
            {"alg2": InsertionOnlyFEwW(8, 4, 2, seed=0)},
            ColumnarEdgeStream(
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                n=8,
                m=8,
            ),
        )
        assert results == {"alg2": None}

    def test_zipf_multi_tenant_run(self):
        """One pass, heterogeneous consumers (algorithm + summary)."""
        from repro.baselines import CountMinSketch

        stream = zipf_frequency_stream(
            GeneratorConfig(n=32, m=512, seed=3), n_records=400
        )
        d = stream.max_degree()
        results = run_fanout(
            {
                "feww": InsertionOnlyFEwW(stream.n, d, 2, seed=1),
                "countmin": CountMinSketch(0.05, 0.05, seed=2),
            },
            stream,
            chunk_size=128,
        )
        sketch = results["countmin"]
        heavy = results["feww"]
        assert heavy is not None
        assert sketch.estimate(heavy.vertex) >= d


def column_chunks(sizes):
    """Chunks of the given lengths over a 0, 1, 2, ... id sequence."""
    chunks, start = [], 0
    for size in sizes:
        ids = np.arange(start, start + size)
        chunks.append((ids, ids, np.ones(size, dtype=np.int64)))
        start += size
    return chunks


class TestDrive:
    def test_hooks_run_in_order_at_every_chunk(self):
        events = []

        class Recording:
            def process_batch(self, a, b, sign=None):
                events.append(("ingest", a.tolist()))

        def route(chunk, chunk_index, position):
            events.append(("route", chunk_index, position))
            return chunk

        end = drive(
            column_chunks([2, 1]), {"p": Recording()},
            chunk_index=5, position=40,
            fault=lambda chunk_index: events.append(("fault", chunk_index)),
            route=route,
            on_chunk=lambda position: events.append(("probe", position)),
        )
        assert end == (7, 43)
        assert events == [
            ("fault", 5), ("route", 5, 40), ("ingest", [0, 1]),
            ("probe", 42),
            ("fault", 6), ("route", 6, 42), ("ingest", [2]),
            ("probe", 43),
        ]

    def test_unrouted_chunk_still_advances_the_position(self):
        counting = CountingProcessor()
        positions = []
        end = drive(
            column_chunks([3, 4, 5]), {"c": counting},
            route=lambda chunk, index, position: None if index == 1 else chunk,
            on_chunk=positions.append,
        )
        assert end == (3, 12)
        assert positions == [3, 7, 12]
        assert [len(a) for a, _ in counting.chunks] == [3, 5]

    def test_fault_fires_before_its_chunk(self):
        counting = CountingProcessor()
        plan = FaultPlan.read_error(0, chunk=2)
        with pytest.raises(OSError, match="injected read error"):
            drive(
                column_chunks([4, 4, 4, 4]), {"c": counting},
                fault=lambda index: plan.fire(0, index, in_process=True),
            )
        assert len(counting.chunks) == 2

    def test_checkpoints_every_n_chunks_then_complete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        saved = []
        original = store.save

        def save(tag, state, **kwargs):
            saved.append((kwargs["chunk_index"], kwargs["position"],
                          kwargs.get("complete", False)))
            return original(tag, state, **kwargs)

        store.save = save
        counting = CountingProcessor()
        drive(
            column_chunks([2, 2, 2, 2, 1]), {"c": counting},
            checkpoint=(store, "t", 2, {"note": 1}),
        )
        assert saved == [(2, 4, False), (4, 8, False), (5, 9, True)]
        snapshot = store.load("t")
        assert snapshot.complete and snapshot.position == 9
        assert snapshot.meta == {"note": 1}
        assert snapshot.state["c"].finalize() == 9

    def test_resume_offset_needs_a_stream_file(self, tmp_path):
        stream = ColumnarEdgeStream.from_edge_stream(star_stream())
        with pytest.raises(ValueError, match="stream-file source"):
            as_chunks(stream, 16, start=16)
        path = tmp_path / "s.npz"
        dump_stream(stream, path, format="v2")
        tail = np.concatenate([a for a, _, _ in as_chunks(path, 16, start=32)])
        assert tail.tolist() == stream.a[32:].tolist()
