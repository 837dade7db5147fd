"""Batch-first execution engine.

The engine decouples *what* a streaming structure computes from *how*
the stream reaches it.  Structures implement the two-method
:class:`StreamProcessor` protocol (``process_batch`` + ``finalize``);
:class:`FanoutRunner` streams any chunk source — an in-memory columnar
stream, a boxed :class:`~repro.streams.stream.EdgeStream`, or a
persisted stream file read chunk by chunk — into all registered
structures in a single pass.

This replaces the per-wrapper driver loops that previously lived in
star detection (one pass *per degree guess*), top-k, tumbling windows,
the CLI, and the benchmarks.

On top of the protocol sits the mergeable-summary layer
(``merge``/``split``/``shard_routing`` on every structure) and
:class:`ShardedRunner`, which partitions the stream across a
``multiprocessing`` worker pool — each worker a
:class:`FanoutRunner` over its shard — and merges the shard summaries
back into the single-core answers (see :mod:`repro.engine.sharded`).
"""

from repro.engine.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)
from repro.engine.faults import Fault, FaultPlan
from repro.engine.protocol import (
    SHARD_ANY,
    SHARD_BY_VERTEX,
    SHARD_BY_WINDOW,
    BatchIngest,
    MergeableStreamProcessor,
    StreamProcessor,
    combined_routing,
    ensure_mergeable,
    ensure_stream_processor,
    shard_routing_of,
)
from repro.engine.runner import FanoutRunner, as_chunks, run_fanout
from repro.engine.sharded import (
    ShardedRunner,
    ShardedWorkerError,
    effective_cores,
    fork_available,
    vertex_shard,
)
from repro.engine.windows import (
    DecayAnswer,
    DecayPolicy,
    SlidingPolicy,
    SlidingWindowAnswer,
    TumblingPolicy,
    WindowPolicy,
    WindowRecord,
    WindowedProcessor,
    derive_bucket_seed,
)

__all__ = [
    "BatchIngest",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_EVERY",
    "DecayAnswer",
    "DecayPolicy",
    "FanoutRunner",
    "Fault",
    "FaultPlan",
    "MergeableStreamProcessor",
    "SHARD_ANY",
    "SHARD_BY_VERTEX",
    "SHARD_BY_WINDOW",
    "ShardedRunner",
    "ShardedWorkerError",
    "SlidingPolicy",
    "SlidingWindowAnswer",
    "StreamProcessor",
    "TumblingPolicy",
    "WindowPolicy",
    "WindowRecord",
    "WindowedProcessor",
    "as_chunks",
    "combined_routing",
    "derive_bucket_seed",
    "effective_cores",
    "ensure_mergeable",
    "ensure_stream_processor",
    "fork_available",
    "run_fanout",
    "shard_routing_of",
    "vertex_shard",
]
