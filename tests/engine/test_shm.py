"""Shared-memory columnar transport: correctness, traffic, and leaks.

Covers the :mod:`repro.engine.shm` pool directly (publish/attach
round-trips, refcounted recycling, unconditional unlink) and through
:class:`~repro.engine.ShardedRunner`:

* sharded answers with the transport on are bit-identical to the
  single-core path and to the classic pickled-column path;
* with the transport engaged, chunk queues carry **only**
  :class:`~repro.engine.shm.ShmChunk` descriptors (and ``None``
  shutdown sentinels) — never column arrays;
* a SIGKILLed worker leaves **zero** shared segments behind, on both
  the raising path (retries exhausted) and the retry-and-succeed path,
  and so does a worker whose result message is dropped or corrupted.
"""

import time

import numpy as np
import pytest

from repro.baselines import CountMinSketch, CountSketch
from repro.engine import FanoutRunner, ShardedRunner
from repro.engine.faults import FaultPlan
from repro.engine.sharded import ShardedWorkerError, fork_available
from repro.engine.shm import (
    ChunkAttacher,
    ChunkPublisher,
    ShmChunk,
    shm_available,
)
from repro.streams.columnar import ColumnarEdgeStream

pytestmark = pytest.mark.skipif(
    not (fork_available() and shm_available()),
    reason="queue-pool shm transport needs fork and POSIX shared memory",
)

CHUNK = 173


def turnstile_stream(length=2000, n=48, seed=17):
    """Signed stream obeying the simple-graph sign discipline: every
    (a, b) pair's updates alternate +1, -1, +1, ... by construction."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=length)
    b = rng.integers(0, 64, size=length)
    order = np.lexsort((b, a))
    parity = np.empty(length, dtype=np.int64)
    position = np.arange(length)
    boundaries = np.r_[
        True, (np.diff(a[order]) != 0) | (np.diff(b[order]) != 0)
    ]
    starts = np.maximum.accumulate(np.where(boundaries, position, 0))
    parity[order] = 1 - 2 * ((position - starts) % 2)
    return ColumnarEdgeStream(a, b, sign=parity, n=n, m=64)


def insert_stream(length=2000, n=48, seed=19):
    rng = np.random.default_rng(seed)
    return ColumnarEdgeStream(
        rng.integers(0, n, size=length),
        np.arange(length, dtype=np.int64),
        n=n,
        m=length,
    )


def attach_raises(name: str) -> bool:
    """True when ``name`` no longer exists in the shm namespace."""
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    segment.close()
    return False


class TestPublisherAttacher:
    def test_round_trip_preserves_columns(self):
        publisher = ChunkPublisher()
        try:
            a0 = np.arange(10, dtype=np.int64)
            b0 = a0 * 2
            s0 = np.where(a0 % 2 == 0, 1, -1).astype(np.int64)
            a1 = np.arange(100, 107, dtype=np.int64)
            b1 = a1 + 5
            descriptors = publisher.publish([(a0, b0, s0), None, (a1, b1, None)])
            assert descriptors[1] is None
            attacher = ChunkAttacher()
            va, vb, vs = attacher.view(descriptors[0])
            assert np.array_equal(va, a0)
            assert np.array_equal(vb, b0)
            assert np.array_equal(vs, s0)
            wa, wb, ws = attacher.view(descriptors[2])
            assert np.array_equal(wa, a1)
            assert np.array_equal(wb, b1)
            assert ws is None
            del va, vb, vs, wa, wb, ws
            attacher.close()
        finally:
            publisher.close()

    def test_refcount_recycles_only_at_zero(self):
        publisher = ChunkPublisher()
        try:
            columns = (
                np.zeros(8, dtype=np.int64),
                np.zeros(8, dtype=np.int64),
                None,
            )
            descriptors = publisher.publish([columns, columns])
            name = descriptors[0].segment
            assert descriptors[1].segment == name  # one segment, two users
            publisher.release(name)
            assert name not in publisher._free  # still referenced
            publisher.release(name)
            assert name in publisher._free
            # The freed segment is reused for the next chunk.
            again = publisher.publish([columns])
            assert again[0].segment == name
            assert publisher.segment_names() == [name]
        finally:
            publisher.close()

    def test_close_unlinks_everything(self):
        publisher = ChunkPublisher()
        columns = (
            np.ones(4, dtype=np.int64),
            np.ones(4, dtype=np.int64),
            None,
        )
        publisher.publish([columns])
        publisher.publish([columns])  # second segment: first still referenced
        names = publisher.segment_names()
        assert len(names) == 2
        publisher.close()  # success and failure paths share this
        assert all(attach_raises(name) for name in names)

    def test_empty_publish_allocates_nothing(self):
        publisher = ChunkPublisher()
        try:
            assert publisher.publish([None, None]) == [None, None]
            assert publisher.segment_names() == []
        finally:
            publisher.close()


class TestShardedTransportEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("transport", ["shm", "pickled"])
    def test_count_sketch_bit_identical(self, workers, transport, monkeypatch):
        """The pickled-columns transport is what hosts without POSIX
        shared memory run; a failing probe selects it here."""
        if transport == "pickled":
            monkeypatch.setattr(
                "repro.engine.sharded.shm_available", lambda: False
            )
        stream = turnstile_stream()
        factory = lambda: {"cs": CountSketch(64, rows=3, seed=6)}
        single = FanoutRunner(factory(), chunk_size=CHUNK).run(stream)
        sharded = ShardedRunner(
            factory(), n_workers=workers, chunk_size=CHUNK
        ).run(stream)
        assert np.array_equal(single["cs"]._table, sharded["cs"]._table)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_count_min_insertion_only_bit_identical(self, workers):
        """sign=None chunks ride the two-column segment layout."""
        stream = insert_stream()
        factory = lambda: {"cm": CountMinSketch(0.05, 0.05, seed=5)}
        single = FanoutRunner(factory(), chunk_size=CHUNK).run(stream)
        sharded = ShardedRunner(
            factory(), n_workers=workers, chunk_size=CHUNK
        ).run(stream)
        assert np.array_equal(single["cm"]._table, sharded["cm"]._table)


class TestDescriptorOnlyTraffic:
    def test_chunk_queues_carry_only_descriptors(self, monkeypatch):
        payloads = []
        original = ShardedRunner._put_alive

        def spy(self, queue, item, process, worker):
            payloads.append(item)
            return original(self, queue, item, process, worker)

        monkeypatch.setattr(ShardedRunner, "_put_alive", spy)
        ShardedRunner(
            {"cs": CountSketch(64, rows=3, seed=6)},
            n_workers=2,
            chunk_size=CHUNK,
        ).run(turnstile_stream())
        chunks = [item for item in payloads if item is not None]
        assert chunks, "expected routed chunks on the queues"
        assert all(isinstance(item, ShmChunk) for item in chunks)


class TestChaosNoLeaks:
    @staticmethod
    def _record_segments(monkeypatch):
        names = []
        original = ChunkPublisher._acquire

        def recording(self, required):
            name = original(self, required)
            names.append(name)
            return name

        monkeypatch.setattr(ChunkPublisher, "_acquire", recording)
        return names

    def test_killed_worker_leaves_no_segments_on_raise(self, monkeypatch):
        names = self._record_segments(monkeypatch)
        runner = ShardedRunner(
            {"cs": CountSketch(64, rows=3, seed=6)},
            n_workers=2,
            chunk_size=CHUNK,
            retries=0,
            fault_plan=FaultPlan.kill(1, 2),
        )
        with pytest.raises(RuntimeError, match="terminated abnormally"):
            runner.run(turnstile_stream())
        assert names, "expected segments to have been allocated"
        assert all(attach_raises(name) for name in set(names))

    def test_worker_error_drain_releases_and_no_leaks(self, monkeypatch):
        """A worker that raises mid-stream drains its queue (releasing
        descriptors it will never process) and nothing leaks."""
        names = self._record_segments(monkeypatch)
        runner = ShardedRunner(
            {"cs": CountSketch(64, rows=3, seed=6)},
            n_workers=2,
            chunk_size=CHUNK,
            fault_plan=FaultPlan.read_error(1, 2),
        )
        with pytest.raises(RuntimeError):
            runner.run(turnstile_stream())
        assert names, "expected segments to have been allocated"
        assert all(attach_raises(name) for name in set(names))

    @pytest.mark.parametrize(
        "plan, cause",
        [
            (FaultPlan.drop_result(worker=1), "WorkerDied"),
            (FaultPlan.corrupt_result(worker=0), "CorruptResult"),
        ],
        ids=["dropped", "corrupt"],
    )
    def test_lost_result_raises_promptly_and_leaves_no_segments(
        self, monkeypatch, plan, cause
    ):
        """The result pipe reports a lost or garbled result as soon as
        the worker is gone: a poll slice far longer than the run never
        elapses, and the segment pool is unlinked all the same."""
        names = self._record_segments(monkeypatch)
        runner = ShardedRunner(
            {"cs": CountSketch(64, rows=3, seed=6)},
            n_workers=2,
            chunk_size=CHUNK,
            fault_plan=plan,
        )
        runner.RESULT_POLL_TIMEOUT_S = 60.0
        began = time.monotonic()
        with pytest.raises(ShardedWorkerError) as excinfo:
            runner.run(turnstile_stream())
        assert time.monotonic() - began < 30.0
        assert excinfo.value.cause_type == cause
        assert names, "expected segments to have been allocated"
        assert all(attach_raises(name) for name in set(names))

