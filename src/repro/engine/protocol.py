"""The :class:`StreamProcessor` protocol: what the engine drives.

Every streaming structure in this library — the paper's Algorithms 1–3,
the extension wrappers (Star Detection, top-k, windowed processing), the
classical baselines and the sketch summaries — exposes the same two
methods:

* ``process_batch(a, b, sign=None)`` — consume one column chunk of
  updates (``a``/``b`` endpoint arrays plus an optional ``sign``
  column; ``None`` means all-insert).  This is a structure's only
  ingest path; feeding one update is a length-1 chunk.  State is
  bit-identical across chunk sizes, chunk size 1 included, for every
  seeded structure, and guarantee-identical for the weight-collapsed
  counter summaries, Misra-Gries and SpaceSaving (see
  ``tests/integration/test_batch_equivalence.py``).
* ``finalize()`` — the end-of-stream hook.  Algorithms return their
  answer (a :class:`~repro.core.neighbourhood.Neighbourhood`, a list of
  them, or window results) or ``None``/``[]`` on failure instead of
  raising; query-style summaries (Count-Min, Misra–Gries, ...) return
  themselves so callers can keep querying.  ``finalize`` never raises
  :class:`~repro.core.neighbourhood.AlgorithmFailed` — a fan-out run
  over N processors should not abort because one guess failed.

Anything conforming can be registered with a
:class:`~repro.engine.runner.FanoutRunner` and fed from any chunk
source in a single pass.  Structures inherit their whole-stream
``process(source)`` from :class:`BatchIngest`.

Mergeable-summary layer
-----------------------

For sharded (multi-core / distributed) execution every structure also
implements the classical *mergeable summaries* interface (Agarwal et
al.):

* ``split(n_shards)`` — produce ``n_shards`` independent empty shard
  instances of the same configuration.  Must be called on a *fresh*
  (pre-stream) structure; seeded structures replicate their seed-derived
  state so that linear sketches merge back bit-identically.
* ``merge(other)`` — combine two summaries of disjoint sub-streams into
  a summary of the concatenation.  Implementations raise an actionable
  :class:`ValueError` when the operands are incompatible (different
  parameters, different hash seeds, ...).  The returned summary is the
  combined one and may be ``self`` updated in place.  ``other`` is left
  alone: its answer does not change, and the result shares no mutable
  container with it, so ``other`` stays usable (audited for every
  registry entry by ``audit/merge-argument``).
* ``shard_routing`` — metadata telling a
  :class:`~repro.engine.sharded.ShardedRunner` how stream updates must
  be partitioned for the per-shard runs to stay faithful:

  - :data:`SHARD_ANY` — any partition of the updates works (linear
    sketches such as Count-Min/CountSketch/ℓ₀-banks, and the counter
    summaries, which are mergeable for arbitrary splits);
  - :data:`SHARD_BY_VERTEX` — updates must be routed by a hash of the
    A-endpoint, so each vertex's degree counts, first-k witnesses and
    residency-window witness collection stay *exact* inside its owning
    shard (the paper's Algorithms 1–2 and the witness baselines);
  - ``(SHARD_BY_WINDOW, window)`` — updates must be routed by global
    stream position in blocks of ``window`` (the windowed wrappers in
    :mod:`repro.engine.windows`, whose per-bucket instances are seeded
    by global bucket index; ``window`` is the policy's bucket size).
"""

from __future__ import annotations

from typing import (
    Any,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.streams.edge import INSERT

#: Routing tag: updates may be partitioned arbitrarily across shards.
SHARD_ANY = "any"

#: Routing tag: updates must be routed by A-endpoint hash.
SHARD_BY_VERTEX = "vertex"

#: Routing tag (first element of a ``(tag, window)`` tuple): updates
#: must be routed by global position in blocks of ``window``.
SHARD_BY_WINDOW = "window"

ShardRouting = Union[str, Tuple[str, int]]

_MISSING = object()

_Ingest = TypeVar("_Ingest", bound="BatchIngest")


@runtime_checkable
class StreamProcessor(Protocol):
    """Structural type of every engine-drivable streaming structure."""

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Consume one column chunk of signed edge updates."""
        ...

    def finalize(self) -> Any:
        """End-of-stream hook; returns the structure's answer (or self)."""
        ...


class BatchIngest:
    """The one ``process(source)`` every structure shares.

    :meth:`process` hands any source :func:`~repro.engine.runner.as_chunks`
    accepts (a columnar or boxed stream, a stream-file path, or an
    iterable of ``(a, b, sign)`` chunks) to the subclass's
    ``process_batch`` through the engine's one chunk loop,
    :func:`~repro.engine.runner.drive`.  Pass ``stream.chunks(k)`` to
    choose the chunk size.
    """

    #: Set by insertion-only structures: the message that a chunk
    #: holding any non-insert update is rejected with.
    DELETIONS_REJECTED: Optional[str] = None

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """Raise :class:`ValueError` for a chunk this structure rejects.

        ``process_batch`` runs it before changing any state, and a
        windowed wrapper runs it on a whole chunk before splitting it at
        bucket boundaries.  The default rejects non-insert updates when
        :attr:`DELETIONS_REJECTED` is set and accepts every other chunk.
        """
        if (
            self.DELETIONS_REJECTED is not None
            and sign is not None
            and np.any(sign != INSERT)
        ):
            raise ValueError(self.DELETIONS_REJECTED)

    def process(self: _Ingest, source: Any) -> _Ingest:
        """Consume a whole stream; returns self for chaining."""
        # Deferred: the runner module imports this one.
        from repro.engine.runner import as_chunks, drive

        drive(as_chunks(source), {"process": self})
        return self


@runtime_checkable
class MergeableStreamProcessor(StreamProcessor, Protocol):
    """A :class:`StreamProcessor` that supports sharded execution."""

    #: How a ShardedRunner must partition updates for this structure.
    shard_routing: ShardRouting

    def split(self, n_shards: int) -> List[Any]:
        """``n_shards`` independent empty shard instances (fresh self)."""
        ...

    def merge(self, other: Any) -> Any:
        """Combine two summaries of disjoint sub-streams."""
        ...


def ensure_stream_processor(processor: Any, name: str = "processor") -> Any:
    """Validate protocol conformance with an actionable error message.

    ``isinstance(x, StreamProcessor)`` only checks attribute presence;
    this helper reports *which* method is missing — and distinguishes a
    missing attribute from a present-but-not-callable one (e.g. a
    ``finalize`` data field shadowing the method), which matters when a
    user registers a structure that predates the engine.
    """
    missing = []
    not_callable = []
    for method in ("process_batch", "finalize"):
        attribute = getattr(processor, method, _MISSING)
        if attribute is _MISSING:
            missing.append(method)
        elif not callable(attribute):
            not_callable.append(
                f"{method} (a non-callable {type(attribute).__name__})"
            )
    if missing or not_callable:
        problems = []
        if missing:
            problems.append(f"missing {', '.join(missing)}")
        if not_callable:
            problems.append(f"has {', '.join(not_callable)}")
        raise TypeError(
            f"{name} ({type(processor).__name__}) does not conform to "
            f"StreamProcessor: {'; '.join(problems)}"
        )
    return processor


def shard_routing_of(processor: Any, name: str = "processor") -> ShardRouting:
    """The processor's validated ``shard_routing`` metadata."""
    routing = getattr(processor, "shard_routing", _MISSING)
    if routing is _MISSING:
        raise TypeError(
            f"{name} ({type(processor).__name__}) declares no shard_routing; "
            f"mergeable processors must set it to SHARD_ANY, SHARD_BY_VERTEX "
            f"or (SHARD_BY_WINDOW, window)"
        )
    if routing in (SHARD_ANY, SHARD_BY_VERTEX):
        return routing
    if (
        isinstance(routing, tuple)
        and len(routing) == 2
        and routing[0] == SHARD_BY_WINDOW
        and isinstance(routing[1], int)
        and routing[1] >= 1
    ):
        return routing
    raise TypeError(
        f"{name} ({type(processor).__name__}) has invalid shard_routing "
        f"{routing!r}"
    )


def ensure_mergeable(processor: Any, name: str = "processor") -> Any:
    """Validate the full mergeable-summary surface (protocol + merge layer)."""
    ensure_stream_processor(processor, name)
    missing = [
        method
        for method in ("merge", "split")
        if not callable(getattr(processor, method, None))
    ]
    if missing:
        raise TypeError(
            f"{name} ({type(processor).__name__}) is not mergeable: "
            f"missing {', '.join(missing)}"
        )
    shard_routing_of(processor, name)
    return processor


def combined_routing(routings: List[ShardRouting]) -> ShardRouting:
    """The single stream partition satisfying every processor's routing.

    ``SHARD_ANY`` is compatible with everything; vertex routing and
    window routing (or two different window sizes) cannot be satisfied
    by one partition, so mixing them raises :class:`ValueError`.
    """
    resolved: ShardRouting = SHARD_ANY
    for routing in routings:
        if routing == SHARD_ANY or routing == resolved:
            continue
        if resolved == SHARD_ANY:
            resolved = routing
            continue
        raise ValueError(
            f"incompatible shard routings in one run: {resolved!r} vs "
            f"{routing!r}; run these processors in separate ShardedRunners"
        )
    return resolved
