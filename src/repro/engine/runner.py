"""Single-pass fan-out execution over columnar edge streams.

:class:`FanoutRunner` is the batch-first replacement for every
hand-rolled driver loop that used to live in the star-detection, top-k
and windowed wrappers, the CLI, and the benchmarks: register N
conforming :class:`~repro.engine.protocol.StreamProcessor` structures,
then :meth:`FanoutRunner.run` streams the source chunk by chunk and
hands *each chunk once* to every processor before moving on.  The
stream is therefore traversed a single time regardless of how many
structures consume it — the property Lemma 3.3's ``O(log n)`` parallel
degree guesses and any multi-tenant ingestion pipeline rely on.

The pass itself is :func:`drive`, the engine's only chunk loop: the
fanout runner, every sharded worker and the pipeline's mid-stream
probes all run through it, with fault injection, routing, probe and
checkpoint hooks at fixed points of each chunk.

Chunk sources are normalised by :func:`as_chunks`:

* :class:`~repro.streams.columnar.ColumnarEdgeStream` — zero-copy
  column slices;
* :class:`~repro.streams.stream.EdgeStream` — converted to columns
  once, then sliced;
* a path (``str`` / :class:`~pathlib.Path`) — opened through the
  chunked persistence reader, so multi-gigabyte stream files feed the
  engine without ever materialising per-item lists;
* any object with a ``chunks(chunk_size)`` method, or any iterable of
  ``(a, b, sign)`` column triples.

For long file passes the runner can snapshot its progress: construct
it with ``checkpoint_dir=`` (and optionally ``checkpoint_every=N``
chunks) and every processor's summary plus the stream offset is
written atomically through
:class:`~repro.engine.checkpoint.CheckpointStore` as the pass runs.
A killed run restarts with :meth:`FanoutRunner.resume`, which rebuilds
the processors from the latest snapshot and re-opens the file at the
saved offset — the resumed pass is bit-identical to an uninterrupted
one, because summaries carry *all* their state (including windowed
bucket/RNG state) and chunk boundaries line up.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.engine.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointStore,
    checkpoint_interval,
)
from repro.engine.protocol import ensure_stream_processor
from repro.streams.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarEdgeStream,
    Columns,
)
from repro.streams.stream import EdgeStream

#: ``(store, tag, every, meta)``: where and how often :func:`drive`
#: snapshots its processors.
CheckpointPlan = Tuple[CheckpointStore, str, int, Dict[str, Any]]


def as_chunks(
    source: Any, chunk_size: int = DEFAULT_CHUNK_SIZE, start: int = 0
) -> Iterator[Columns]:
    """Normalise any supported stream source into ``(a, b, sign)`` chunks.

    ``start`` skips that many leading updates (a checkpoint's resume
    offset); only a stream file — a path or a
    :class:`~repro.streams.persist.ChunkedStreamReader` — can seek.
    """
    # Deferred import keeps streams.persist free to evolve without the
    # engine module loading it for in-memory runs.
    if isinstance(source, (str, Path)):
        from repro.streams.persist import ChunkedStreamReader

        source = ChunkedStreamReader(source)
    if start:
        if _stream_file_path(source) is None:
            raise ValueError(
                "resume offsets require a stream-file source (a path or "
                "ChunkedStreamReader)"
            )
        return source.chunks(chunk_size, start=start)
    if isinstance(source, EdgeStream):
        source = ColumnarEdgeStream.from_edge_stream(source)
    if hasattr(source, "chunks"):
        return source.chunks(chunk_size)
    if isinstance(source, Iterable):
        return iter(source)
    raise TypeError(
        f"cannot stream chunks from {type(source).__name__}; expected a "
        f"ColumnarEdgeStream, EdgeStream, path, or chunk iterable"
    )


def _stream_file_path(source: Any) -> Optional[str]:
    """The file behind a re-openable source (a path or
    :class:`~repro.streams.persist.ChunkedStreamReader`), else ``None``."""
    if isinstance(source, (str, Path)):
        return str(source)
    from repro.streams.persist import ChunkedStreamReader

    if isinstance(source, ChunkedStreamReader):
        return str(source.path)
    return None


def drive(
    chunks: Iterable[Columns],
    processors: Mapping[str, Any],
    *,
    chunk_index: int = 0,
    position: int = 0,
    fault: Optional[Callable[[int], None]] = None,
    route: Optional[Callable[[Columns, int, int], Optional[Columns]]] = None,
    on_chunk: Optional[Callable[[int], None]] = None,
    checkpoint: Optional[CheckpointPlan] = None,
) -> Tuple[int, int]:
    """The one chunk loop: every runner hands its chunks over here.

    Each chunk goes through the same steps, in order:

    1. ``fault(chunk_index)`` fires the planned faults;
    2. ``route(chunk, chunk_index, position)`` picks the sub-chunk this
       caller owns (``None``: nothing in this chunk);
    3. every processor ingests it;
    4. ``on_chunk(position)`` sees the updates consumed so far;
    5. every ``every`` chunks, ``checkpoint = (store, tag, every, meta)``
       snapshots the processors with the stream offset.

    A final ``complete=True`` snapshot follows the last chunk.
    ``chunk_index``/``position`` are where the pass starts (a resume
    offset); returns the ``(chunk_index, position)`` it ended at.
    """
    targets = tuple(processors.values())
    store: Optional[CheckpointStore] = None
    if checkpoint is not None:
        store, tag, every, meta = checkpoint
    for chunk in chunks:
        if fault is not None:
            fault(chunk_index)
        routed = chunk if route is None else route(chunk, chunk_index, position)
        if routed is not None:
            for processor in targets:
                processor.process_batch(*routed)
        position += len(chunk[0])
        chunk_index += 1
        if on_chunk is not None:
            on_chunk(position)
        if store is not None and chunk_index % every == 0:
            store.save(
                tag, dict(processors),
                chunk_index=chunk_index, position=position, meta=meta,
            )
    if store is not None:
        store.save(
            tag, dict(processors),
            chunk_index=chunk_index, position=position,
            complete=True, meta=meta,
        )
    return chunk_index, position


#: Checkpoint tag a (single-worker) fanout pass snapshots under.
FANOUT_TAG = "fanout"


class FanoutRunner:
    """Stream one source into N registered processors in a single pass.

    Args:
        processors: optional initial ``name -> processor`` mapping (the
            iteration order of the mapping is preserved in results).
        chunk_size: default number of updates per fan-out step.
        checkpoint_dir: when set, snapshot every processor's summary
            and the stream offset into this directory as the pass runs
            (file sources only; see :mod:`repro.engine.checkpoint`).
        checkpoint_every: source chunks between snapshots (default
            :data:`~repro.engine.checkpoint.DEFAULT_CHECKPOINT_EVERY`;
            requires ``checkpoint_dir``).
        fault_plan: optional :class:`~repro.engine.faults.FaultPlan`
            consulted before each chunk — deterministic fault injection
            for chaos tests; omit for the no-op default.

    Usage::

        runner = FanoutRunner({"alg2": InsertionOnlyFEwW(...)})
        runner.add("topk", TopKFEwW(...))
        results = runner.run(stream)        # {"alg2": ..., "topk": ...}
    """

    def __init__(
        self,
        processors: Optional[Mapping[str, Any]] = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        checkpoint_dir: Optional[Any] = None,
        checkpoint_every: Optional[int] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size
        self.checkpoint_every = checkpoint_interval(
            checkpoint_dir, checkpoint_every
        )
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.fault_plan = fault_plan
        self.resumed = False
        #: Where :meth:`process` starts: chunk ordinal and stream
        #: offset (non-zero after :meth:`resume`).
        self.start_chunk = 0
        self.start_position = 0
        self._resume_source: Optional[str] = None
        self._processors: Dict[str, Any] = {}
        if processors is not None:
            for name, processor in processors.items():
                self.add(name, processor)

    @classmethod
    def resume(
        cls,
        checkpoint_dir: Any,
        *,
        source: Any = None,
        fault_plan: Optional[Any] = None,
    ) -> "FanoutRunner":
        """Rebuild a runner from the latest checkpoint in ``checkpoint_dir``.

        The returned runner carries the snapshotted processors and the
        saved stream offset; calling :meth:`run` (with no source — the
        checkpointed path is remembered, or pass one to override, e.g.
        after moving the file) continues the pass from that offset,
        bit-identical to a run that was never interrupted.

        Raises:
            repro.engine.checkpoint.CheckpointError: when the
                checkpoint is absent, torn, or version-incompatible.
        """
        snapshot = CheckpointStore(checkpoint_dir).load(FANOUT_TAG)
        runner = cls(
            snapshot.state,
            chunk_size=int(snapshot.meta.get("chunk_size", DEFAULT_CHUNK_SIZE)),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=int(
                snapshot.meta.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)
            ),
            fault_plan=fault_plan,
        )
        runner.start_chunk = snapshot.chunk_index
        runner.start_position = snapshot.position
        runner._resume_source = snapshot.meta.get("source")
        if source is not None:
            runner._resume_source = str(source)
        runner.resumed = True
        return runner

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name: str, processor: Any) -> "FanoutRunner":
        """Register a processor under ``name``; returns self for chaining."""
        if name in self._processors:
            raise ValueError(f"processor {name!r} already registered")
        self._processors[name] = ensure_stream_processor(processor, name)
        return self

    def __len__(self) -> int:
        return len(self._processors)

    def __getitem__(self, name: str) -> Any:
        return self._processors[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._processors)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def process_chunk(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Hand one column chunk to every registered processor."""
        for processor in self._processors.values():
            processor.process_batch(a, b, sign)

    def process(
        self,
        source: Any = None,
        chunk_size: Optional[int] = None,
        *,
        on_chunk: Optional[Callable[[int], None]] = None,
    ) -> "FanoutRunner":
        """Stream ``source`` through every processor (no finalize).

        ``on_chunk(position)`` runs after every chunk with the number
        of updates consumed so far (see :func:`drive`).  Checkpointing
        and resuming need a re-openable source: a path or a
        :class:`~repro.streams.persist.ChunkedStreamReader`.
        """
        source = self._default_source(source)
        chunk_size = chunk_size or self.chunk_size
        checkpoint: Optional[CheckpointPlan] = None
        if self.checkpoint_dir is not None:
            path = _stream_file_path(source)
            if path is None:
                raise ValueError(
                    "checkpointing requires a stream-file source (a path "
                    "or ChunkedStreamReader)"
                )
            store = CheckpointStore(self.checkpoint_dir)
            meta = {
                "source": path,
                "chunk_size": chunk_size,
                "checkpoint_every": self.checkpoint_every,
            }
            # Initial snapshot: a run killed before the first periodic
            # checkpoint still resumes (from where this pass started).
            store.save(
                FANOUT_TAG, dict(self._processors),
                chunk_index=self.start_chunk,
                position=self.start_position, meta=meta,
            )
            checkpoint = (store, FANOUT_TAG, self.checkpoint_every, meta)
        plan = self.fault_plan
        drive(
            as_chunks(source, chunk_size, start=self.start_position),
            self._processors,
            chunk_index=self.start_chunk,
            position=self.start_position,
            fault=(
                None if plan is None or plan.is_noop
                else partial(plan.fire, 0, in_process=True)
            ),
            on_chunk=on_chunk,
            checkpoint=checkpoint,
        )
        return self

    def _default_source(self, source: Any) -> Any:
        if source is not None:
            return source
        if self._resume_source is not None:
            return self._resume_source
        raise TypeError(
            "process() requires a source (or a runner built by "
            "FanoutRunner.resume(), which remembers its file)"
        )

    def finalize(self) -> Dict[str, Any]:
        """Call every processor's ``finalize``; returns ``name -> answer``."""
        return {
            name: processor.finalize()
            for name, processor in self._processors.items()
        }

    def run(
        self, source: Any = None, chunk_size: Optional[int] = None
    ) -> Dict[str, Any]:
        """Single-pass ingestion plus finalization, in one call."""
        if not self._processors:
            raise RuntimeError("no processors registered; call add() first")
        return self.process(source, chunk_size).finalize()


def run_fanout(
    processors: Mapping[str, Any],
    source: Any,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Dict[str, Any]:
    """One-shot convenience: build a runner, run it, return the answers."""
    return FanoutRunner(processors, chunk_size=chunk_size).run(source)
