"""Failure injection: corrupted inputs, hostile parameters, and chaos.

These tests document the library's failure contract at two levels.
Input level: stream validation is the guard against malformed turnstile
input; algorithms either raise a clear error or degrade to a sound
*fail* — never to a fabricated answer.  Execution level: deterministic
:class:`~repro.engine.faults.FaultPlan` injection drives the engine's
recovery machinery — shard retry with backoff, per-shard timeouts,
serial fallback, and checkpoint/resume — and every recovery path must
reproduce the unfaulted answers *bit-identically*, because the
mergeable-summary design makes re-running a shard side-effect-free.
"""

import time

import numpy as np
import pytest

from repro.baselines import CountMinSketch
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.engine import FanoutRunner, FaultPlan, ShardedRunner
from repro.engine.checkpoint import CheckpointError
from repro.engine.sharded import ShardedWorkerError, fork_available
from repro.pipeline import Pipeline
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.edge import DELETE, Edge, StreamItem
from repro.streams.persist import StreamFormatError, dump_stream
from repro.streams.stream import EdgeStream, InvalidStreamError
from repro.streams.generators import GeneratorConfig, planted_star_graph


class TestMalformedStreams:
    def test_validation_rejects_delete_before_insert(self):
        with pytest.raises(InvalidStreamError):
            EdgeStream([StreamItem(Edge(0, 0), DELETE)], 4, 4)

    def test_validation_rejects_double_insert(self):
        with pytest.raises(InvalidStreamError):
            EdgeStream([StreamItem(Edge(0, 0)), StreamItem(Edge(0, 0))], 4, 4)

    def test_insertion_only_algorithm_rejects_any_delete(self):
        algorithm = InsertionOnlyFEwW(4, 2, 1, seed=0)
        with pytest.raises(ValueError, match="insertion-only"):
            algorithm.process_batch(
                np.array([0]), np.array([0]), np.array([DELETE])
            )

    def test_out_of_range_vertex_rejected_by_algorithms(self):
        io_algorithm = InsertionOnlyFEwW(4, 2, 1, seed=0)
        with pytest.raises(ValueError):
            io_algorithm.process_batch(np.array([7]), np.array([0]))
        id_algorithm = InsertionDeletionFEwW(4, 4, 2, 1, seed=0, scale=0.1)
        with pytest.raises(ValueError):
            id_algorithm.process_batch(np.array([0]), np.array([9]))


class TestHostileParameters:
    def test_d_larger_than_any_degree_fails_cleanly(self):
        config = GeneratorConfig(n=32, m=64, seed=1)
        stream = planted_star_graph(config, star_degree=10, background_degree=2)
        algorithm = InsertionOnlyFEwW(32, 1000, 2, seed=2).process(stream)
        assert not algorithm.successful
        with pytest.raises(AlgorithmFailed):
            algorithm.result()

    def test_threshold_above_m_is_unreachable_but_safe(self):
        algorithm = InsertionOnlyFEwW(8, 100, 1, seed=0)
        algorithm.process_batch(np.zeros(8, dtype=np.int64), np.arange(8))
        assert not algorithm.successful

    def test_alpha_larger_than_d_still_sound(self):
        """d/alpha < 1: a single witness satisfies the threshold, and
        the output must still be genuine."""
        config = GeneratorConfig(n=16, m=32, seed=3)
        stream = planted_star_graph(config, star_degree=4, background_degree=1)
        algorithm = InsertionOnlyFEwW(16, 4, 8, seed=4).process(stream)
        result = algorithm.result()
        assert result.size >= 1
        assert result.witnesses <= stream.neighbours_of(result.vertex)

    def test_degenerate_single_vertex_universe(self):
        algorithm = InsertionOnlyFEwW(1, 3, 1, seed=0)
        algorithm.process_batch(np.zeros(3, dtype=np.int64), np.arange(3))
        assert algorithm.result().vertex == 0

    def test_insertion_deletion_promise_violation_fails_not_fabricates(self):
        """Feed Algorithm 3 a graph with max degree far below d: it must
        fail, not report an undersized or fabricated neighbourhood."""
        config = GeneratorConfig(n=16, m=32, seed=5)
        stream = planted_star_graph(config, star_degree=3, background_degree=1)
        algorithm = InsertionDeletionFEwW(16, 32, 20, 2, seed=6, scale=0.2)
        algorithm.process(stream)
        assert not algorithm.successful
        with pytest.raises(AlgorithmFailed):
            algorithm.result()


class TestMidStreamQuerying:
    def test_result_reflects_prefix_only(self):
        """Querying mid-stream is legal and answers for the prefix."""
        algorithm = InsertionOnlyFEwW(8, 4, 1, seed=0)
        algorithm.process_batch(np.zeros(4, dtype=np.int64), np.arange(4))
        prefix_result = algorithm.result()
        assert prefix_result.witnesses <= set(range(4))
        algorithm.process_batch(np.ones(4, dtype=np.int64), np.arange(4, 8))
        assert algorithm.result().vertex == prefix_result.vertex

    def test_insertion_deletion_cache_invalidated_by_updates(self):
        """Algorithm 3 memoises its sampler query; new updates must
        invalidate the memo."""
        algorithm = InsertionDeletionFEwW(8, 16, 2, 1, seed=7, scale=0.3)
        algorithm.process_batch(np.zeros(2, dtype=np.int64), np.arange(2))
        first = algorithm.result()
        assert first.vertex == 0
        algorithm.process_batch(np.full(8, 3), np.arange(8, 16))
        algorithm.process_batch(
            np.zeros(2, dtype=np.int64), np.arange(2), np.full(2, DELETE)
        )
        second = algorithm.result()
        assert second.vertex == 3


# -- engine chaos ------------------------------------------------------
#
# Everything below drives the fault-tolerance machinery with
# deterministic FaultPlans over a file-backed or in-memory stream.  The
# invariant throughout: any run that *recovers* (retry, fallback,
# resume) must produce answers bit-identical to an unfaulted
# single-core pass.

N_UPDATES = 600
N_VERTICES = 32
CHUNK = 32


def chaos_stream():
    rng = np.random.default_rng(11)
    return ColumnarEdgeStream(
        rng.integers(0, N_VERTICES, size=N_UPDATES),
        np.arange(N_UPDATES, dtype=np.int64),
        n=N_VERTICES,
        m=N_UPDATES,
    )


@pytest.fixture
def stream_file(tmp_path):
    path = tmp_path / "chaos.npz"
    dump_stream(chaos_stream(), path, format="v2")
    return str(path)


def reference_table():
    stream = chaos_stream()
    sketch = CountMinSketch(0.05, 0.05, seed=5)
    sketch.process_batch(stream.a, stream.b, stream.sign)
    return sketch._table


def chaos_runner(**kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("chunk_size", CHUNK)
    runner = ShardedRunner(
        {"cm": CountMinSketch(0.05, 0.05, seed=5)}, **kwargs
    )
    # Instance overrides: no backoff sleeps, tight poll slices.
    runner.RETRY_BACKOFF_S = 0.0
    runner.RESULT_POLL_TIMEOUT_S = 0.05
    return runner


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestShardRetry:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_killed_worker_retried_to_bit_identical_answers(
        self, stream_file, workers
    ):
        """SIGKILL mid-stream at 1/2/4 workers: the shard is re-run
        from its pristine split and the merged table matches an
        unfaulted single-core pass exactly."""
        runner = chaos_runner(
            n_workers=workers,
            retries=2,
            on_failure="retry",
            fault_plan=FaultPlan.kill(worker=0, chunk=1),
        )
        results = runner.run(stream_file)
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1

    def test_transient_read_error_retried(self, stream_file):
        runner = chaos_runner(
            retries=2,
            on_failure="retry",
            fault_plan=FaultPlan.read_error(worker=1, chunk=0),
        )
        results = runner.run(stream_file)
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1

    def test_deterministic_error_is_not_retried(self, stream_file):
        """A ValueError is a bug, not weather: re-running the shard
        would fail identically, so it surfaces immediately — with the
        worker's formatted traceback."""
        runner = chaos_runner(
            retries=3,
            on_failure="retry",
            fault_plan=FaultPlan.read_error(
                worker=0, chunk=0, exc="ValueError",
                message="deterministic bug",
            ),
        )
        with pytest.raises(ShardedWorkerError, match="deterministic bug"):
            runner.run(stream_file)
        assert runner.retries_used == 0

    def test_worker_traceback_travels_to_the_parent(self, stream_file):
        runner = chaos_runner(
            fault_plan=FaultPlan.read_error(
                worker=0, chunk=1, exc="RuntimeError", message="deep frame"
            ),
        )
        with pytest.raises(ShardedWorkerError) as excinfo:
            runner.run(stream_file)
        assert "Traceback" in str(excinfo.value)
        assert excinfo.value.cause_type == "RuntimeError"

    def test_raise_policy_fails_fast_on_worker_death(self, stream_file):
        runner = chaos_runner(
            retries=2,  # irrelevant under on_failure="raise"
            fault_plan=FaultPlan.kill(worker=0, chunk=1),
        )
        with pytest.raises(ShardedWorkerError, match="terminated abnormally"):
            runner.run(stream_file)
        assert runner.retries_used == 0

    def _always_kill_worker_zero(self):
        return (
            FaultPlan.kill(worker=0, chunk=1, attempt=0)
            + FaultPlan.kill(worker=0, chunk=1, attempt=1)
            + FaultPlan.kill(worker=0, chunk=1, attempt=2)
        )

    def test_retries_exhausted_raises(self, stream_file):
        runner = chaos_runner(
            retries=2,
            on_failure="retry",
            fault_plan=self._always_kill_worker_zero(),
        )
        with pytest.raises(ShardedWorkerError, match="terminated abnormally"):
            runner.run(stream_file)
        assert runner.retries_used == 2

    def test_serial_fallback_recovers_bit_identically(self, stream_file):
        """When every retry dies, serial_fallback re-runs just that
        shard in-process and the answer is still exact."""
        runner = chaos_runner(
            retries=2,
            on_failure="serial_fallback",
            fault_plan=self._always_kill_worker_zero(),
        )
        results = runner.run(stream_file)
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 2
        assert runner.fallbacks_used == 1

    def test_dropped_result_detected_as_worker_death(self, stream_file):
        """A worker that exits cleanly without reporting (message lost)
        is indistinguishable from a crash — and recovered the same way."""
        runner = chaos_runner(
            retries=1,
            on_failure="retry",
            fault_plan=FaultPlan.drop_result(worker=1, attempt=0),
        )
        results = runner.run(stream_file)
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1

    def test_corrupt_result_rejected_outright(self, stream_file):
        """A malformed result message means the channel itself cannot
        be trusted; that is never retried."""
        runner = chaos_runner(
            retries=3,
            on_failure="retry",
            fault_plan=FaultPlan.corrupt_result(worker=0),
        )
        with pytest.raises(ShardedWorkerError) as excinfo:
            runner.run(stream_file)
        assert excinfo.value.cause_type == "CorruptResult"
        assert runner.retries_used == 0

    def test_in_memory_dropped_result_is_retried(self):
        """Forked workers inherit an in-memory source, so a lost result
        is retried as a file-source one is: the respawned shard reads
        the whole source again and the answer is exact.  The loss is
        seen the moment the result pipe reports EOF, not after a poll
        slice."""
        runner = chaos_runner(
            retries=2,
            on_failure="retry",
            fault_plan=FaultPlan.drop_result(worker=1),
        )
        runner.RESULT_POLL_TIMEOUT_S = 60.0
        began = time.monotonic()
        results = runner.run(chaos_stream())
        assert time.monotonic() - began < 30.0
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1

    def test_in_memory_corrupt_result_raises_without_retry(self):
        """A garbled result is never retried, whatever the source, and
        raises as soon as the result pipe delivers it."""
        runner = chaos_runner(
            retries=2,
            on_failure="retry",
            fault_plan=FaultPlan.corrupt_result(worker=0),
        )
        runner.RESULT_POLL_TIMEOUT_S = 60.0
        began = time.monotonic()
        with pytest.raises(ShardedWorkerError) as excinfo:
            runner.run(chaos_stream())
        assert time.monotonic() - began < 30.0
        assert excinfo.value.cause_type == "CorruptResult"
        assert runner.retries_used == 0

    @pytest.mark.parametrize("kind", ["file", "memory"])
    @pytest.mark.parametrize(
        "chunk, fires", [(8, True), (12, True), (19, False)]
    )
    def test_chunk_faults_index_source_chunks_for_every_source(
        self, stream_file, kind, chunk, fires
    ):
        """Every worker reads the whole source, so chunk faults index
        its 19 source chunks whatever the source: worker 1 is dealt
        only the odd ones, yet a fault at chunk 12 fires on it, and a
        chunk 19 never comes."""
        runner = chaos_runner(
            fault_plan=FaultPlan.read_error(
                worker=1, chunk=chunk, exc="ValueError", message="fired"
            ),
        )
        source = stream_file if kind == "file" else chaos_stream()
        if fires:
            with pytest.raises(ShardedWorkerError, match="fired"):
                runner.run(source)
        else:
            results = runner.run(source)
            assert np.array_equal(results["cm"]._table, reference_table())

    def test_timeout_enforced_and_retried(self, stream_file):
        """A wedged worker (first attempt sleeps past timeout_s) is
        killed and retried; the clean second attempt is exact."""
        runner = chaos_runner(
            retries=1,
            timeout_s=0.4,
            on_failure="retry",
            fault_plan=FaultPlan.delay(
                worker=0, chunk=0, delay_s=10.0, attempt=0
            ),
        )
        results = runner.run(stream_file)
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1

    def test_in_memory_timeout_enforced_and_retried(self):
        """The per-shard deadline holds for an in-memory source too: the
        wedged first attempt is killed and the retry is exact."""
        runner = chaos_runner(
            retries=1,
            timeout_s=0.4,
            on_failure="retry",
            fault_plan=FaultPlan.delay(
                worker=0, chunk=0, delay_s=10.0, attempt=0
            ),
        )
        results = runner.run(chaos_stream())
        assert np.array_equal(results["cm"]._table, reference_table())
        assert runner.retries_used == 1


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestShardedStreamDamage:
    def test_truncated_npz_fails_with_stream_error(self, tmp_path):
        """A torn tail surfaces as a *stream* error — flagged so the
        CLI prints a friendly diagnosis, and never retried (re-reading
        a damaged file cannot succeed)."""
        path = tmp_path / "torn.npz"
        dump_stream(chaos_stream(), path, format="v2")
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) * 3 // 5])
        runner = chaos_runner(retries=3, on_failure="retry")
        with pytest.raises(
            (StreamFormatError, ShardedWorkerError), match="not a valid NPZ"
        ) as excinfo:
            runner.run(str(path))
        if isinstance(excinfo.value, ShardedWorkerError):
            assert excinfo.value.is_stream_error
        assert runner.retries_used == 0

    def test_garbage_file_fails_with_stream_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x07not an archive at all" * 64)
        with pytest.raises(
            (StreamFormatError, ShardedWorkerError), match="missing header"
        ):
            chaos_runner(mmap=True).run(str(path))


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestCheckpointResume:
    def test_fanout_crash_and_resume_bit_identical(self, stream_file,
                                                   tmp_path):
        ckpt = tmp_path / "ckpt"
        crashing = FanoutRunner(
            {"cm": CountMinSketch(0.05, 0.05, seed=5)},
            chunk_size=CHUNK,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            fault_plan=FaultPlan.read_error(worker=0, chunk=6),
        )
        with pytest.raises(OSError, match="injected read error"):
            crashing.run(stream_file)
        resumed = FanoutRunner.resume(ckpt)
        results = resumed.run()
        assert resumed.resumed
        assert np.array_equal(results["cm"]._table, reference_table())

    @pytest.mark.parametrize("mmap", [False, True])
    def test_sharded_kill_and_resume_bit_identical(self, stream_file,
                                                   tmp_path, mmap):
        ckpt = tmp_path / "ckpt"
        crashing = chaos_runner(
            mmap=mmap,
            retries=0,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            fault_plan=FaultPlan.kill(worker=1, chunk=4),
        )
        with pytest.raises(ShardedWorkerError, match="terminated abnormally"):
            crashing.run(stream_file)
        resumed = ShardedRunner.resume(ckpt)
        results = resumed.run()
        assert np.array_equal(results["cm"]._table, reference_table())

    @pytest.mark.parametrize(
        "key, value", [("readahead_depth", 2), ("readahead", True)]
    )
    def test_resume_accepts_manifest_with_retired_readahead_keys(
        self, stream_file, tmp_path, key, value
    ):
        """Run manifests written while ``readahead_depth`` or
        ``readahead`` was still a runner option carry it in their meta;
        resume ignores it."""
        from repro.engine.checkpoint import CheckpointStore
        from repro.engine.sharded import RUN_TAG

        ckpt = tmp_path / "ckpt"
        crashing = chaos_runner(
            retries=0,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            fault_plan=FaultPlan.kill(worker=1, chunk=4),
        )
        with pytest.raises(ShardedWorkerError, match="terminated abnormally"):
            crashing.run(stream_file)
        store = CheckpointStore(ckpt)
        manifest = store.load(RUN_TAG)
        store.save(
            RUN_TAG, manifest.state, chunk_index=0, position=0,
            meta={**manifest.meta, key: value},
        )
        resumed = ShardedRunner.resume(ckpt)
        results = resumed.run()
        assert np.array_equal(results["cm"]._table, reference_table())

    @pytest.mark.parametrize("policy", ["sliding", "decay"])
    def test_windowed_pipeline_resume_bit_identical(self, stream_file,
                                                    tmp_path, policy):
        """Sliding/decay windows carry RNG-seeded bucket state; resume
        must restore it exactly, not just the counters."""

        def build(checkpointed):
            builder = (
                Pipeline.builder()
                .file(stream_file)
                .chunk_size(CHUNK)
                .processor("insertion-only", label="alg2",
                           n=N_VERTICES, d=8, alpha=2)
                .window(policy, 300, seed=1)
            )
            if checkpointed:
                builder = builder.checkpoint(tmp_path / "ckpt", every=2)
            return builder.build()

        def fingerprint(answer):
            if policy == "sliding":
                return (answer.window, answer.bucket, answer.start_update,
                        answer.end_update, answer.n_buckets, answer.value)
            return (tuple(answer.recent), answer.tail_value,
                    answer.tail_start_update, answer.tail_end_update)

        clean = build(checkpointed=False).run()["alg2"]
        with pytest.raises(OSError, match="injected read error"):
            build(checkpointed=True).run(
                fault_plan=FaultPlan.read_error(worker=0, chunk=8)
            )
        resumed = build(checkpointed=True).run(resume=True)
        assert fingerprint(resumed["alg2"]) == fingerprint(clean)
        assert resumed.report.resumed

    def test_torn_manifest_rejected_on_resume(self, stream_file, tmp_path):
        ckpt = tmp_path / "ckpt"
        crashing = FanoutRunner(
            {"cm": CountMinSketch(0.05, 0.05, seed=5)},
            chunk_size=CHUNK,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            fault_plan=FaultPlan.read_error(worker=0, chunk=6),
        )
        with pytest.raises(OSError):
            crashing.run(stream_file)
        manifest = ckpt / "fanout.manifest.json"
        manifest.write_text(manifest.read_text()[:25])
        with pytest.raises(CheckpointError, match="torn or corrupt"):
            FanoutRunner.resume(ckpt)

    def test_stale_shard_snapshots_from_older_run_ignored(self, tmp_path):
        """Reusing a checkpoint dir across jobs must not graft a
        previous job's completed shard state onto the resumed one; the
        run nonce in each shard manifest keeps them apart."""
        ckpt = tmp_path / "ckpt"
        other = tmp_path / "other.npz"
        rng = np.random.default_rng(99)
        dump_stream(
            ColumnarEdgeStream(
                rng.integers(0, N_VERTICES, size=100),
                np.arange(100, dtype=np.int64),
                n=N_VERTICES,
                m=100,
            ),
            other,
            format="v2",
        )
        # Job 1 over a different stream runs to completion in the dir.
        chaos_runner(checkpoint_dir=ckpt, checkpoint_every=2).run(str(other))
        # Job 2 over the real stream crashes, then resumes.
        real = tmp_path / "chaos.npz"
        dump_stream(chaos_stream(), real, format="v2")
        crashing = chaos_runner(
            retries=0,
            checkpoint_dir=ckpt,
            checkpoint_every=2,
            fault_plan=FaultPlan.kill(worker=0, chunk=1),
        )
        with pytest.raises(ShardedWorkerError):
            crashing.run(str(real))
        results = ShardedRunner.resume(ckpt).run()
        assert np.array_equal(results["cm"]._table, reference_table())
