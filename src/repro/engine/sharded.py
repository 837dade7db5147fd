"""Sharded parallel execution: a multi-core :class:`FanoutRunner`.

:class:`ShardedRunner` turns the single-pass batch engine into a
parallel one.  Every registered structure is :meth:`split
<repro.engine.protocol.MergeableStreamProcessor.split>` into
``n_workers`` independent shard instances; a pool of worker processes
each runs a :class:`~repro.engine.runner.FanoutRunner` over its shard
of the stream and sends its shard summaries home; the parent combines
them pairwise along the binomial reduction tree of
:mod:`repro.engine.merge` and finalizes: the classical
mergeable-summaries execution plan (Agarwal et al.) applied to every
structure in the library.

How the stream is partitioned is dictated by the structures themselves
through their ``shard_routing`` metadata (see
:mod:`repro.engine.protocol`):

* ``"any"`` — chunks are dealt round-robin (linear sketches and counter
  summaries merge correctly for any split);
* ``"vertex"`` — updates are routed by a hash of the A-endpoint, so
  degree counts and residency-window witness collection stay exact
  inside each vertex's owning shard (Algorithms 1–2, witness
  baselines);
* ``("window", w)`` — updates are routed by global stream position in
  blocks of ``w`` (the tumbling-window wrapper, whose per-window
  instances are seeded by global window index).

A run registers processors with *compatible* routings only (``"any"``
composes with either of the others; vertex and window routing cannot
share one partition).

Execution is a ``fork``-based worker pool, one process per shard, each
running the engine's one chunk loop (:func:`~repro.engine.runner.drive`)
over the whole source and keeping its own share through
:func:`route_chunk`, so no update data ever crosses a pipe.  A *file
source* is opened by every worker itself (optionally memory-mapped) —
the out-of-core path: a multi-gigabyte v2 file streams through
``n_workers`` cores without being materialised anywhere.  An
in-memory source is made re-readable once in the parent (an
:class:`~repro.streams.stream.EdgeStream` becomes columns, a one-shot
chunk iterable a list of its chunks) and inherited by the forked
workers copy-on-write.  Each worker reports its outcome over its own
one-shot result pipe, so a worker that dies without reporting surfaces
as EOF the moment it is gone.  On platforms without ``fork`` every
shard runs in-process, one at a time, through the same
split/route/merge plan (same answers, no parallelism; counted in
``fallbacks_used``).

With ``n_workers=1`` the runner degenerates to a plain
:class:`~repro.engine.runner.FanoutRunner` pass (no split, no merge) —
the single-core reference path the equivalence suite compares against.

**Fault tolerance.**  Shard workers are side-effect-free (each re-reads
its own sub-stream from the file or the inherited in-memory source),
so a dead worker is recoverable: with ``on_failure="retry"`` the
parent respawns just the failed shard with bounded retries and
exponential backoff (``retries``,
:data:`ShardedRunner.RETRY_BACKOFF_S`), optionally under a per-shard
wall-clock ``timeout_s``; ``on_failure="serial_fallback"``
additionally re-runs a shard whose worker keeps dying in-process; the
default ``on_failure="raise"`` keeps the historical fail-fast
behaviour.  Python-level worker exceptions travel back with their full
formatted traceback in :class:`ShardedWorkerError` and are never
retried (a deterministic error would fail every attempt) — except
``OSError``, the transient-I/O case retry exists for.  Progress can be
made durable with ``checkpoint_dir=``/``checkpoint_every=``: each
worker snapshots its shard summaries + stream offset through
:class:`~repro.engine.checkpoint.CheckpointStore`, and
:meth:`ShardedRunner.resume` rebuilds the whole run (pristine shard
splits included, so resumed answers stay bit-identical) and continues
every unfinished shard from its latest snapshot.  All recovery paths
are exercised deterministically via
:class:`~repro.engine.faults.FaultPlan` injection.
"""

from __future__ import annotations

import os
import secrets
import time
import traceback
from functools import partial
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.engine.checkpoint import CheckpointStore, checkpoint_interval
from repro.engine.faults import FaultPlan
from repro.engine.merge import tree_reduce
from repro.engine.protocol import (
    SHARD_ANY,
    SHARD_BY_VERTEX,
    ShardRouting,
    combined_routing,
    ensure_mergeable,
    shard_routing_of,
)
from repro.engine.runner import CheckpointPlan, as_chunks, drive
from repro.streams.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarEdgeStream,
    Columns,
)
from repro.streams.stream import EdgeStream

#: Fibonacci multiplier (golden-ratio reciprocal in 64 bits) for the
#: vertex-hash shard route.
_FIB = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(33)

#: Dead/timed-out worker policies: fail fast, respawn the shard with
#: bounded retries, or retry then re-run the shard in-process.
ON_FAILURE_POLICIES = ("raise", "retry", "serial_fallback")

#: Checkpoint tag of the job-level manifest (processors + pristine
#: shard splits + run configuration).
RUN_TAG = "run"


def shard_checkpoint_tag(worker: int) -> str:
    """Checkpoint tag worker ``worker`` snapshots its shard under."""
    return f"shard-{worker}"


class ShardedWorkerError(RuntimeError):
    """A shard worker failed; carries structured cause information.

    ``cause_type`` is the original exception class name;
    ``is_stream_error`` is True for input problems (stream format,
    I/O) that callers like the CLI handle with a friendly message
    rather than a traceback; ``worker`` is the shard index when known.
    """

    def __init__(
        self,
        message: str,
        cause_type: str,
        is_stream_error: bool = False,
        worker: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cause_type = cause_type
        self.is_stream_error = is_stream_error
        self.worker = worker


def _fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def fork_available() -> bool:
    """True when shard workers can actually run in parallel here."""
    return _fork_context() is not None


def effective_cores() -> int:
    """CPUs this process may actually use (affinity-aware).

    ``os.cpu_count()`` reports the machine; a containerised or
    taskset-pinned run may own far fewer.  Every place that records a
    core count alongside performance numbers — run reports, benchmark
    artifacts, scaling gates — uses this helper, so recorded rates can
    always be read against the parallelism that was really available.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _describe_error(exc: BaseException) -> Tuple[str, bool, str, bool]:
    """Structured worker-failure report: (class name, is-stream-error,
    formatted traceback, retryable).

    Only ``OSError`` counts as retryable: transient I/O is what a
    respawn can fix, while a deterministic Python error (including
    :class:`~repro.streams.persist.StreamFormatError`, a ``ValueError``)
    would fail every attempt identically.
    """
    from repro.streams.persist import StreamFormatError

    return (
        type(exc).__name__,
        isinstance(exc, (StreamFormatError, OSError)),
        traceback.format_exc(),
        isinstance(exc, OSError) and not isinstance(exc, StreamFormatError),
    )


def vertex_shard(a: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard id of every A-endpoint: a fixed multiplicative (Fibonacci)
    hash, deterministic across runs, processes and platforms."""
    mixed = (np.asarray(a).astype(np.uint64) * _FIB) >> _SHIFT
    return (mixed % np.uint64(n_shards)).astype(np.int64)


def _shard_ids(
    chunk: Columns,
    routing: ShardRouting,
    n_workers: int,
    chunk_index: int,
    position: int,
):
    """Shard assignment for one chunk: a per-update id array for masked
    routings, or the single owning worker (int) for whole-chunk
    round-robin.  The one copy of the routing arithmetic, shared by
    :func:`route_chunk` and :func:`route_chunk_all`, so both partition
    a stream bit-identically.
    """
    if routing == SHARD_ANY:
        return chunk_index % n_workers
    a = chunk[0]
    if routing == SHARD_BY_VERTEX:
        return vertex_shard(a, n_workers)
    window = routing[1]  # ("window", w): global-position window index
    return (
        (position + np.arange(len(a), dtype=np.int64)) // window
    ) % n_workers


def _mask_select(chunk: Columns, mask: np.ndarray) -> Optional[Columns]:
    if not mask.any():
        return None
    if mask.all():
        return chunk
    a, b, sign = chunk
    return a[mask], b[mask], None if sign is None else sign[mask]


def route_chunk(
    chunk: Columns,
    routing: ShardRouting,
    worker: int,
    n_workers: int,
    chunk_index: int,
    position: int,
) -> Optional[Columns]:
    """The sub-chunk of ``chunk`` that worker ``worker`` must process.

    ``chunk_index`` and ``position`` are the chunk's ordinal and the
    global position of its first update (both ignored unless the
    routing needs them).  Returns ``None`` when nothing in the chunk is
    routed to this worker.
    """
    ids = _shard_ids(chunk, routing, n_workers, chunk_index, position)
    if isinstance(ids, int):
        return chunk if ids == worker else None
    return _mask_select(chunk, ids == worker)


def route_chunk_all(
    chunk: Columns,
    routing: ShardRouting,
    n_workers: int,
    chunk_index: int,
    position: int,
) -> List[Optional[Columns]]:
    """Every worker's sub-chunk in one pass: the partition
    :func:`route_chunk` gives each worker, with the shard-id array
    computed once per chunk rather than once per worker (for a caller
    that partitions a stream for all shards itself, such as
    perfbench's emulated sharded pass)."""
    ids = _shard_ids(chunk, routing, n_workers, chunk_index, position)
    if isinstance(ids, int):
        return [chunk if worker == ids else None for worker in range(n_workers)]
    return [
        _mask_select(chunk, ids == worker) for worker in range(n_workers)
    ]


class _ShardTask(NamedTuple):
    """One attempt at one shard, in a worker process or in-process.

    ``source`` is a stream-file path or a re-readable in-memory source
    (see :func:`_replayable`); the shard reads all of it and routes
    for itself.  ``start_chunk``/``start_position`` resume the pass at
    a checkpoint boundary (file sources only).
    """

    worker: int
    attempt: int
    n_workers: int
    shard: Dict[str, Any]
    source: Any
    routing: ShardRouting
    chunk_size: int
    mmap: bool
    start_chunk: int
    start_position: int
    fault_plan: Optional[FaultPlan]
    checkpoint: Optional[CheckpointPlan]


def _drive(task: _ShardTask, in_process: bool = False) -> Dict[str, Any]:
    """Open one shard's chunk source and run it through :func:`drive`;
    returns the shard's processors."""
    source = task.source
    if isinstance(source, (str, Path)):
        from repro.streams.persist import ChunkedStreamReader

        source = ChunkedStreamReader(source, mmap=task.mmap)

    def route(chunk, chunk_index, position):
        return route_chunk(
            chunk, task.routing, task.worker, task.n_workers,
            chunk_index, position,
        )

    plan = task.fault_plan
    drive(
        as_chunks(source, task.chunk_size, start=task.start_position),
        task.shard,
        chunk_index=task.start_chunk, position=task.start_position,
        fault=None if plan is None else partial(
            plan.fire, task.worker, attempt=task.attempt,
            in_process=in_process,
        ),
        route=route,
        checkpoint=task.checkpoint,
    )
    return task.shard


def _replayable(source: Any) -> Any:
    """An in-memory source every shard can read from the start.

    An :class:`~repro.streams.stream.EdgeStream` becomes columns (once,
    not once per shard), a one-shot chunk iterable becomes the list of
    its chunks, and a chunk list or an object with a ``chunks`` method
    (a :class:`~repro.streams.columnar.ColumnarEdgeStream`, a
    :class:`~repro.streams.persist.ChunkedStreamReader`) is kept as it
    is.  Forked workers inherit the result copy-on-write.
    """
    if isinstance(source, EdgeStream):
        return ColumnarEdgeStream.from_edge_stream(source)
    if isinstance(source, list) or hasattr(source, "chunks"):
        return source
    return list(as_chunks(source))


def _worker(conn, task: _ShardTask) -> None:
    """Process body of every pool worker: drive one shard, report once.

    The outcome ``(worker, attempt, processors, error)`` travels over a
    dedicated one-shot pipe owned by this attempt alone; a superseded
    attempt's message dies with its pipe, and a worker that vanishes
    without reporting (SIGKILL, dropped result) surfaces to the parent
    as EOF.
    """
    worker, attempt, fault_plan = task.worker, task.attempt, task.fault_plan
    try:
        outcome = (worker, attempt, _drive(task), None)
    except BaseException as exc:
        outcome = (worker, attempt, None, _describe_error(exc))
    if fault_plan is not None:
        if fault_plan.drops_result(worker, attempt):
            return
        if fault_plan.corrupts_result(worker, attempt):
            conn.send("injected-garbage-result")
            return
    conn.send(outcome)
    conn.close()


class ShardedRunner:
    """Multi-core counterpart of :class:`~repro.engine.runner.FanoutRunner`.

    Args:
        processors: optional initial ``name -> processor`` mapping; every
            processor must implement the mergeable-summary layer
            (``merge``/``split``/``shard_routing``).
        n_workers: shard count = worker process count.
        chunk_size: updates per chunk handed to ``process_batch``.
        mmap: memory-map v2 stream files instead of loading them (file
            sources only; the out-of-core path).
        retries: times a dead/timed-out shard worker is respawned
            before the ``on_failure`` policy decides (the workers are
            side-effect-free, so a re-run is safe).
        timeout_s: per-shard wall-clock budget; a worker exceeding it
            is terminated and handled like a dead worker (``None``
            disables the deadline).
        on_failure: ``"raise"`` (default — fail fast, the historical
            behaviour), ``"retry"`` (exhaust ``retries`` then raise),
            or ``"serial_fallback"`` (exhaust ``retries`` then re-run
            the shard in-process).
        checkpoint_dir: when set, every file-source shard worker
            snapshots its summaries + stream offset into this
            directory; see :meth:`resume`.
        checkpoint_every: source chunks between shard snapshots
            (default
            :data:`~repro.engine.checkpoint.DEFAULT_CHECKPOINT_EVERY`;
            requires ``checkpoint_dir``).
        fault_plan: optional :class:`~repro.engine.faults.FaultPlan`
            threaded into every worker for deterministic chaos tests;
            omit for the no-op default.

    Overridable timing knobs (class attributes, seconds; override on an
    instance to tune a specific run or speed up tests):

    * ``RESULT_POLL_TIMEOUT_S`` — result wait slice between per-shard
      deadline scans;
    * ``WORKER_JOIN_TIMEOUT_S`` — orderly worker join deadline;
    * ``TERMINATE_JOIN_TIMEOUT_S`` — join deadline after terminate;
    * ``RETRY_BACKOFF_S`` — base of the exponential retry backoff
      (attempt ``k`` sleeps ``RETRY_BACKOFF_S * 2**(k-1)``).

    Usage::

        runner = ShardedRunner({"alg2": InsertionOnlyFEwW(...)}, n_workers=4)
        results = runner.run("workload.npz")   # same answers as FanoutRunner
        merged = runner["alg2"]                # the merged processor
    """

    RESULT_POLL_TIMEOUT_S = 0.25
    WORKER_JOIN_TIMEOUT_S = 30.0
    TERMINATE_JOIN_TIMEOUT_S = 5.0
    RETRY_BACKOFF_S = 0.05

    def __init__(
        self,
        processors: Optional[Mapping[str, Any]] = None,
        *,
        n_workers: int = 2,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        mmap: bool = False,
        retries: int = 2,
        timeout_s: Optional[float] = None,
        on_failure: str = "raise",
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if on_failure not in ON_FAILURE_POLICIES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_POLICIES}, "
                f"got {on_failure!r}"
            )
        self.checkpoint_every = checkpoint_interval(
            checkpoint_dir, checkpoint_every
        )
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self.mmap = mmap
        self.retries = int(retries)
        self.timeout_s = timeout_s
        self.on_failure = on_failure
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.fault_plan = fault_plan
        #: Shard re-runs performed (for run reports / diagnostics).
        self.retries_used = 0
        #: Shards that ended up on the in-process fallback path.
        self.fallbacks_used = 0
        self._processors: Dict[str, Any] = {}
        self._merged: Dict[str, Any] = {}
        self._resuming = False
        self._resume_shards: Optional[List[Dict[str, Any]]] = None
        self._resume_source: Optional[str] = None
        self._run_id: Optional[str] = None
        if processors is not None:
            for name, processor in processors.items():
                self.add(name, processor)

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name: str, processor: Any) -> "ShardedRunner":
        """Register a mergeable processor under ``name``; returns self."""
        if name in self._processors:
            raise ValueError(f"processor {name!r} already registered")
        self._processors[name] = ensure_mergeable(processor, name)
        return self

    def __len__(self) -> int:
        return len(self._processors)

    def __getitem__(self, name: str) -> Any:
        """The merged processor after :meth:`run` (the registered one
        before)."""
        if name in self._merged:
            return self._merged[name]
        return self._processors[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._processors)

    def routing(self) -> ShardRouting:
        """The single stream partition satisfying every processor."""
        if not self._processors:
            raise RuntimeError("no processors registered; call add() first")
        return combined_routing(
            [
                shard_routing_of(processor, name)
                for name, processor in self._processors.items()
            ]
        )

    # ------------------------------------------------------------------
    # Checkpoint/resume.
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        checkpoint_dir: Union[str, Path],
        *,
        source: Any = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "ShardedRunner":
        """Rebuild a checkpointed sharded run for continuation.

        The job manifest (tag ``"run"``) carries the run configuration,
        the registered processors, and the *pristine* shard splits —
        resuming never re-splits, so seed-derived shard state is
        exactly what the interrupted run used and the final answers
        stay bit-identical.  Call :meth:`run` on the result (with no
        source — the checkpointed path is remembered — or pass one to
        override); shards that already completed are not re-run, and
        unfinished shards continue from their latest snapshot.

        Raises:
            repro.engine.checkpoint.CheckpointError: when the job
                manifest is absent, torn, or version-incompatible.
        """
        store = CheckpointStore(checkpoint_dir)
        snapshot = store.load(RUN_TAG)
        meta = snapshot.meta
        runner = cls(
            None,
            n_workers=int(meta["n_workers"]),
            chunk_size=int(meta["chunk_size"]),
            mmap=bool(meta["mmap"]),
            retries=int(meta["retries"]),
            timeout_s=meta["timeout_s"],
            on_failure=str(meta["on_failure"]),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=int(meta["checkpoint_every"]),
            fault_plan=fault_plan,
        )
        runner._processors = dict(snapshot.state["processors"])
        runner._resume_shards = [
            dict(shard) for shard in snapshot.state["shards"]
        ]
        runner._resume_source = str(meta["source"])
        if source is not None:
            runner._resume_source = str(source)
        runner._run_id = meta["run_id"]
        runner._resuming = True
        return runner

    def _checkpoint_store(self) -> Optional[CheckpointStore]:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir)

    def _shard_checkpoint(self, worker: int) -> Optional[CheckpointPlan]:
        """The ``checkpoint=`` plan handed to a shard's drive loop."""
        if self.checkpoint_dir is None:
            return None
        return (
            CheckpointStore(self.checkpoint_dir),
            shard_checkpoint_tag(worker),
            int(self.checkpoint_every),
            {"run_id": self._run_id},
        )

    def _shard_start(
        self, store: Optional[CheckpointStore], worker: int,
        pristine: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], int, int, bool]:
        """Where worker ``worker`` starts: (state, chunk, position, done).

        Fresh runs start every shard pristine at offset 0; resumed runs
        continue from the shard's latest snapshot — but only one
        stamped with this run's id, so leftovers from an older run in a
        reused directory are ignored rather than merged in.
        """
        if store is None or not self._resuming:
            return pristine, 0, 0, False
        snapshot = store.try_load(shard_checkpoint_tag(worker))
        if snapshot is None or snapshot.meta.get("run_id") != self._run_id:
            return pristine, 0, 0, False
        return (
            snapshot.state, snapshot.chunk_index, snapshot.position,
            snapshot.complete,
        )

    def _save_run_checkpoint(
        self,
        store: CheckpointStore,
        shards: List[Dict[str, Any]],
        source: Any,
        chunk_size: int,
    ) -> None:
        """Write the job manifest before any worker starts.

        A run killed at *any* later instant therefore resumes: worker
        snapshots only refine the starting points this manifest already
        guarantees.
        """
        # repro: allow-os-entropy run-identity nonce, not algorithmic
        # randomness: stale-snapshot isolation needs it unique across
        # runs, and it never influences any answer
        self._run_id = secrets.token_hex(8)
        meta = {
            "run_id": self._run_id,
            "source": str(source),
            "n_workers": self.n_workers,
            "chunk_size": chunk_size,
            "mmap": bool(self.mmap),
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "on_failure": self.on_failure,
            "checkpoint_every": self.checkpoint_every,
            "labels": list(self._processors),
        }
        store.save(
            RUN_TAG,
            {"processors": dict(self._processors), "shards": shards},
            chunk_index=0, position=0, meta=meta,
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self, source: Any = None, chunk_size: Optional[int] = None
    ) -> Dict[str, Any]:
        """Shard, execute, merge, finalize: ``name -> answer``.

        Answers match a single-core
        :class:`~repro.engine.runner.FanoutRunner` pass over the same
        stream — bit-identically for the linear/exact structures,
        guarantee-identically for the sampled/counter summaries (see
        ``tests/integration/test_sharded_equivalence.py``).

        Shard summaries combine in the parent along the fixed
        shard-index reduction tree of :mod:`repro.engine.merge`, so the
        combine order, and with it every answer, is a function of
        ``n_workers`` alone, never of timing or of which shards ran
        in-process.
        """
        if source is None:
            source = self._resume_source
        if source is None:
            raise TypeError(
                "run() requires a source (or a runner built by "
                "ShardedRunner.resume(), which remembers its file)"
            )
        if not self._processors:
            raise RuntimeError("no processors registered; call add() first")
        chunk_size = chunk_size or self.chunk_size
        if self.mmap and not isinstance(source, (str, Path)):
            raise ValueError(
                "mmap streaming requires a stream-file path source"
            )
        store = self._checkpoint_store()
        if store is not None and not isinstance(source, (str, Path)):
            raise ValueError(
                "checkpointing requires a stream-file path source"
            )
        routing = self.routing()
        plain = (
            store is None
            and (self.fault_plan is None or self.fault_plan.is_noop)
            and not self._resuming
        )
        if self.n_workers == 1 and plain:
            # Degenerate case: the exact single-core reference path.
            if self.mmap:
                from repro.streams.persist import ChunkedStreamReader

                source = ChunkedStreamReader(source, mmap=True)
            drive(as_chunks(source, chunk_size), self._processors)
            return self._merge_and_finalize([self._processors])

        if self._resuming:
            shards = self._resume_shards
        elif self.n_workers == 1:
            # Single checkpointed/faulted worker: no split (stays
            # bit-identical to the FanoutRunner reference even for
            # seed-splitting summaries), same machinery otherwise.
            shards = [dict(self._processors)]
        else:
            shards = self._split_shards()
        if store is not None and not self._resuming:
            self._save_run_checkpoint(store, shards, source, chunk_size)
        completed = self._run_processes(shards, source, routing, chunk_size)
        return self._merge_and_finalize(completed)

    def _merge_and_finalize(
        self, completed: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Combine shard summaries along the reduction tree, finalize.

        The merge order is the shard index (see
        :mod:`repro.engine.merge`), so every answer is the same whether
        a shard ran in a worker or in-process.
        """
        self._merged = {}
        results = {}
        for name in self._processors:
            merged = tree_reduce(
                [shard[name] for shard in completed],
                lambda mine, theirs: mine.merge(theirs),
            )
            self._merged[name] = merged
            results[name] = merged.finalize()
        return results

    def _split_shards(self) -> List[Dict[str, Any]]:
        """Per-worker ``name -> shard processor`` dicts."""
        shards: List[Dict[str, Any]] = [{} for _ in range(self.n_workers)]
        for name, processor in self._processors.items():
            for worker, piece in enumerate(processor.split(self.n_workers)):
                shards[worker][name] = piece
        return shards

    def _worker_mmap(self, source) -> bool:
        """Whether shard workers should memory-map ``source``.

        Even without an explicit ``mmap=True``, every worker mapping a
        stored v2 archive beats every worker eagerly loading its own
        full copy of the columns — the workers then share one page
        cache.  Compressed archives fall back to eager loading inside
        the reader; v1 text is parsed incrementally either way.
        """
        if self.mmap:
            return True
        from repro.streams.persist import detect_version

        try:
            return detect_version(source) == 2
        except OSError:
            return False

    def _run_processes(
        self,
        shards: List[Dict[str, Any]],
        source: Any,
        routing: ShardRouting,
        chunk_size: int,
    ) -> List[Dict[str, Any]]:
        """Run every unfinished shard; returns all shard summaries.

        Shards run in the worker pool (:meth:`_run_pool`).  A shard runs
        in-process instead, through the same :func:`_drive`, only where
        the runner has no choice: on platforms without ``fork`` (every
        shard), and under ``on_failure="serial_fallback"`` once its
        worker has died ``retries`` times.  Either way every shard
        reads the same source, made re-readable up front.
        """
        in_memory = not isinstance(source, (str, Path))
        if in_memory:
            source = _replayable(source)
        store = self._checkpoint_store()
        completed: List[Optional[Dict[str, Any]]] = [None] * self.n_workers
        starts: Dict[int, Tuple[Dict[str, Any], int, int]] = {}
        for worker, shard in enumerate(shards):
            state, start_chunk, start_position, done = self._shard_start(
                store, worker, shard
            )
            if done:
                completed[worker] = state
            else:
                starts[worker] = (state, start_chunk, start_position)
        if not starts:
            return completed  # type: ignore[return-value]
        mmap = not in_memory and self._worker_mmap(source)
        attempts = {worker: 0 for worker in starts}

        def task(worker: int) -> _ShardTask:
            state, start_chunk, start_position = starts[worker]
            return _ShardTask(
                worker, attempts[worker], self.n_workers, state,
                source, routing, chunk_size, mmap,
                start_chunk, start_position, self.fault_plan,
                self._shard_checkpoint(worker),
            )

        context = _fork_context()
        fallback = sorted(starts) if context is None else self._run_pool(
            context, task, attempts, completed
        )
        for worker in fallback:
            # Deterministic in-process kill faults are rejected by the
            # plan itself (see FaultPlan.fire).
            self.fallbacks_used += 1
            completed[worker] = _drive(task(worker), in_process=True)
        return completed  # type: ignore[return-value]

    def _run_pool(self, context, task, attempts, completed) -> List[int]:
        """One process per shard, one result pipe per attempt.

        Fills ``completed`` with each shard's summaries and returns the
        shards left to the in-process fallback.  Each forked worker
        inherits its task, source included, so nothing but the result
        crosses a pipe.  Each attempt reports over a one-shot pipe
        created fresh for it: a worker killed by the OS (or whose result
        was dropped by fault injection) closes its write end without
        sending, which the parent sees as EOF, and a superseded
        attempt's message dies with its pipe.  Workers are
        side-effect-free, so a failed shard is relaunched under the
        retry policy with exponential backoff.
        """
        pending = set(attempts)
        procs: Dict[int, Any] = {}
        results: Dict[int, Any] = {}
        deadlines: Dict[int, Optional[float]] = {}
        fallback: List[int] = []

        def launch(worker: int) -> None:
            recv_end, send_end = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker,
                args=(send_end, task(worker)),
                daemon=True,
            )
            process.start()
            # The child's inherited copy is now the only writer, so the
            # read end hits EOF the moment the worker is gone.
            send_end.close()
            procs[worker] = process
            results[worker] = recv_end
            deadlines[worker] = (
                None if self.timeout_s is None
                else time.monotonic() + self.timeout_s
            )

        def reap(worker: int, kill: bool = False) -> None:
            process = procs.pop(worker, None)
            recv_end = results.pop(worker, None)
            deadlines.pop(worker, None)
            if recv_end is not None:
                recv_end.close()
            if process is None:
                return
            if kill and process.is_alive():
                process.terminate()
            process.join(timeout=self.WORKER_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.TERMINATE_JOIN_TIMEOUT_S)

        def fail(worker: int, retryable: bool, error: Exception) -> None:
            reap(worker, kill=True)
            if not retryable or self.on_failure == "raise":
                raise error
            if attempts[worker] < self.retries:
                attempts[worker] += 1
                self.retries_used += 1
                time.sleep(self.RETRY_BACKOFF_S * 2 ** (attempts[worker] - 1))
                launch(worker)
                return
            if self.on_failure == "serial_fallback":
                attempts[worker] += 1
                pending.discard(worker)
                fallback.append(worker)
                return
            raise error

        def absorb(worker: int) -> None:
            process = procs[worker]
            try:
                message = results[worker].recv()
            except (EOFError, OSError):
                fail(
                    worker, True,
                    ShardedWorkerError(
                        f"sharded worker {worker} terminated abnormally "
                        f"without reporting a result "
                        f"(exit code {process.exitcode})",
                        cause_type="WorkerDied",
                        worker=worker,
                    ),
                )
                return
            if (
                not isinstance(message, tuple)
                or len(message) != 4
                or message[0] != worker
                or message[1] != attempts[worker]
            ):
                raise ShardedWorkerError(
                    f"sharded worker returned a corrupt result message: "
                    f"{message!r}",
                    cause_type="CorruptResult",
                    worker=worker,
                )
            _worker, _attempt, processors, error = message
            if error is None:
                completed[worker] = processors
                pending.discard(worker)
                reap(worker)
                return
            cause_type, is_stream_error, formatted, retryable = error
            fail(
                worker, retryable,
                ShardedWorkerError(
                    f"sharded worker {worker} failed:\n{formatted}",
                    cause_type=cause_type,
                    is_stream_error=is_stream_error,
                    worker=worker,
                ),
            )

        try:
            for worker in sorted(pending):
                launch(worker)
            while pending and procs:
                readers = {
                    results[worker]: worker
                    for worker in sorted(pending)
                    if worker in procs
                }
                ready = mp_connection.wait(
                    list(readers), timeout=self.RESULT_POLL_TIMEOUT_S
                )
                if ready:
                    # One event per iteration: absorbing can relaunch
                    # processes and recycle pipes, so recompute the
                    # wait set rather than trusting the rest of
                    # ``ready``.
                    absorb(readers[ready[0]])
                    continue
                if self.timeout_s is None:
                    continue
                now = time.monotonic()
                for worker in sorted(pending):
                    deadline = deadlines.get(worker)
                    if (
                        worker in procs
                        and deadline is not None
                        and now >= deadline
                    ):
                        fail(
                            worker, True,
                            ShardedWorkerError(
                                f"sharded worker {worker} exceeded the "
                                f"per-shard timeout of {self.timeout_s}s",
                                cause_type="TimeoutError",
                                worker=worker,
                            ),
                        )
                        break
        finally:
            for worker in list(procs):
                reap(worker, kill=True)
        return fallback
