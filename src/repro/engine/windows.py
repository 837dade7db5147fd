"""Window policies: engine-level windowing for any stream processor.

A :class:`WindowPolicy` decides how the stream is cut into fixed-size
*buckets* and what is retained when a bucket closes, and the generic
:class:`WindowedProcessor` composes any
:class:`~repro.engine.protocol.StreamProcessor` with any policy.  The
engine machinery carries over unchanged: chunks are split at the
stream's bucket boundaries, whatever the chunk size, and the wrapper
implements the full mergeable-summary layer
(``split``/``merge``/``shard_routing``), so windowed runs shard across
a :class:`~repro.engine.sharded.ShardedRunner` with ``("window",
bucket)`` routing.

Three policies ship:

* :class:`TumblingPolicy` — consecutive non-overlapping windows; each
  bucket *is* a window, finalized and recorded when it closes.  Over
  Algorithm 2 (``RegistryWindowFactory.of("insertion-only", ...)``) it
  is bit-identical to the original per-window restart loop.
* :class:`SlidingPolicy` — sliding window of span ``window`` via the
  smooth-histogram technique (Braverman & Ostrovsky): the stream is cut
  into buckets of ``max(1, ceil(window * bucket_ratio))`` updates, each
  bucket keeps its *live* summary, and the sliding answer merges the
  trailing buckets whose union covers the window.  The covered span
  ``L`` satisfies ``window <= L <= window + bucket`` — the ``(1 +
  bucket_ratio)`` bucket bound — at a memory cost of ``ceil(1 /
  bucket_ratio) + 1`` concurrent summaries instead of one per offset.
* :class:`DecayPolicy` — count-based decay: the newest ``keep`` buckets
  stay at full resolution, everything older is folded (via the inner
  processor's ``merge``) into one running *tail* summary.  Recent
  activity stays queryable per bucket; history decays into an
  aggregate — the decayed top-k shape monitoring workloads want.

Sliding and decay retention merge inner summaries, so those policies
require a mergeable inner processor; tumbling works with any
:class:`~repro.engine.protocol.StreamProcessor`.  An inner structure
whose merge needs equal seeds (it declares
``merge_needs_equal_seeds``) gets bucket 0's seed in every bucket under
those policies; every other inner is seeded per bucket.  Sharded
windowed runs are bit-identical for tumbling and
sliding (buckets are seeded by global index and wholly owned by one
shard) and bit-identical for decay over linear/exact inner structures
(tail folding is a commutative merge), guarantee-identical otherwise.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.protocol import (
    SHARD_BY_WINDOW,
    BatchIngest,
    ensure_stream_processor,
    shard_routing_of,
)

#: Multiplier in the per-bucket seed derivation; kept identical to the
#: original tumbling loop so tumbling windows reproduce it bit for bit.
_SEED_MULTIPLIER = 1_000_003


def derive_bucket_seed(master_seed: int, bucket_index: int) -> int:
    """Per-bucket seed, a function of the *global* bucket index.

    Seeding by global index is what lets a sharded execution reproduce
    single-core bucket results exactly: whichever shard owns a bucket
    derives the same seed a single-core run would.
    """
    return (master_seed * _SEED_MULTIPLIER + bucket_index) & 0xFFFFFFFF


def clone_summary(instance: Any) -> Any:
    """Duplicate a processor/summary for a merge fold or a probe.

    Prefers the structure-provided ``clone()`` fast path — a
    bit-identical state duplication without the generic deepcopy graph
    walk — and falls back to ``copy.deepcopy`` for structures that do
    not provide one.  Registry merges leave their argument's answer
    alone and share no mutable container with it, so a fold clones only
    the summary it merges *into*: a steady-state sliding probe clones
    its fold seed and the cached fold it hands out, and a probe that
    must keep or finalize the in-progress bucket clones that once.
    """
    clone = getattr(instance, "clone", None)
    if callable(clone):
        return clone()
    return copy.deepcopy(instance)


class SuffixCacheList(list):
    """Retention list that carries a lazily built suffix-merge cache.

    ``suffix`` maps a start index to the left-fold merge of the buckets
    from that index to the end of the list (``(((b_i ∘ b_{i+1}) ∘ …) ∘
    b_last``).  The cache is pure derived data: it is dropped on pickle
    and deepcopy (``__reduce__``), and the owning policy clears it
    whenever the underlying bucket list changes (close/merge).
    """

    __slots__ = ("suffix",)

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.suffix: Dict[int, Any] = {}

    def __reduce__(self):
        return (type(self), (list(self),))


@dataclass(frozen=True)
class WindowRecord:
    """One closed bucket's recorded output (``value`` is whatever the
    inner processor's ``finalize`` returned; ``None`` means failure)."""

    window_index: int
    start_update: int
    end_update: int
    value: Any

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass
class Bucket:
    """A closed bucket holding its *live* inner summary.

    ``start``/``end`` are global update positions; ``index`` is the
    global bucket ordinal (also the seed-derivation key).
    """

    index: int
    start: int
    end: int
    instance: Any

    @property
    def count(self) -> int:
        return self.end - self.start


@dataclass
class SlidingWindowAnswer:
    """The smooth-histogram sliding answer at end of stream.

    ``processor`` is the merged inner summary over the covered span
    ``[start_update, end_update)`` and ``value`` its finalized output.
    The span satisfies ``window <= span <= window + bucket`` whenever
    the stream was at least that long (otherwise the whole stream is
    covered) — the ``(1 + bucket_ratio)`` approximation of the window.
    """

    window: int
    bucket: int
    start_update: int
    end_update: int
    n_buckets: int
    processor: Any
    value: Any

    @property
    def span(self) -> int:
        return self.end_update - self.start_update


@dataclass
class DecayAnswer:
    """Count-based-decay output: recent buckets plus the folded tail.

    ``recent`` holds the newest buckets' finalized records (oldest
    first); the tail aggregates every older update into one summary
    (``tail_processor`` is ``None`` when nothing has decayed yet).
    """

    recent: List[WindowRecord]
    tail_processor: Any
    tail_value: Any
    tail_start_update: int
    tail_end_update: int

    @property
    def has_tail(self) -> bool:
        return self.tail_processor is not None


# ----------------------------------------------------------------------
# Policies.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowPolicy:
    """Base class: how buckets are sized, retained, merged and reported.

    Policies are immutable configuration; all mutable retention state
    lives in per-wrapper *state* objects created by :meth:`new_state`,
    which is what lets one policy object be shared across shards.
    """

    #: Set by subclasses: whether retention merges inner summaries (and
    #: therefore requires a mergeable inner processor).
    requires_merge: ClassVar[bool] = False
    kind: ClassVar[str] = "abstract"

    @property
    def bucket(self) -> int:
        """Updates per bucket — the engine's boundary-splitting unit and
        the wrapper's ``("window", bucket)`` shard-routing block."""
        raise NotImplementedError

    def new_state(self) -> Any:
        raise NotImplementedError

    def is_empty(self, state: Any) -> bool:
        raise NotImplementedError

    def close(self, state: Any, bucket: Bucket) -> None:
        """Retain one closed bucket (called in global index order within
        a shard; across shards indices interleave and merge re-orders)."""
        raise NotImplementedError

    def merge(self, state: Any, other: Any) -> Any:
        """Combine two shards' retention states (indices are disjoint)."""
        raise NotImplementedError

    def result(self, state: Any) -> Any:
        """The policy's end-of-stream answer."""
        raise NotImplementedError

    def query(self, state: Any, partial: Optional[Bucket]) -> Any:
        """The policy's answer *mid-stream*, without closing anything.

        ``partial`` is the in-progress bucket over the *live* instance
        (``None`` when it is empty).  It keeps streaming after the
        probe, so a policy may merge it into a summary it owns but must
        clone it before keeping or finalizing it.  The base behaviour —
        kept by tumbling, whose query reports the completed windows
        only — ignores it; policies whose
        retention merges summaries (sliding, decay) override to
        include the partial bucket so the answer covers the stream up
        to the current update.  Must not change the retained buckets in
        ``state`` (derived query caches may be filled in).
        """
        return self.result(state)


@dataclass(frozen=True)
class TumblingPolicy(WindowPolicy):
    """Consecutive non-overlapping windows of ``window`` updates."""

    window: int
    kind: ClassVar[str] = "tumbling"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def bucket(self) -> int:
        return self.window

    def new_state(self) -> List[WindowRecord]:
        return []

    def is_empty(self, state: List[WindowRecord]) -> bool:
        return not state

    def close(self, state, bucket: Bucket) -> None:
        # The instance is finalized and dropped at the boundary — space
        # stays one live instance plus the retained records.
        state.append(
            WindowRecord(
                bucket.index, bucket.start, bucket.end,
                bucket.instance.finalize(),
            )
        )

    def merge(self, state, other):
        state.extend(other)
        state.sort(key=lambda record: record.window_index)
        return state

    def result(self, state) -> List[WindowRecord]:
        return list(state)


@dataclass(frozen=True)
class SlidingPolicy(WindowPolicy):
    """Sliding window of span ``window`` via smooth-histogram buckets.

    ``bucket_ratio`` trades accuracy for memory: buckets hold
    ``max(1, ceil(window * bucket_ratio))`` updates, the trailing
    ``ceil(window / bucket) + 1`` bucket summaries are retained, and the
    reported span overshoots the window by at most one bucket — i.e. the
    answer is an exact summary of the last ``L`` updates with
    ``window <= L <= (1 + bucket_ratio) * window``.
    """

    window: int
    bucket_ratio: float = 0.25
    kind: ClassVar[str] = "sliding"
    requires_merge: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.bucket_ratio <= 1.0:
            raise ValueError(
                f"bucket_ratio must be in (0, 1], got {self.bucket_ratio}"
            )

    @property
    def bucket(self) -> int:
        return max(1, math.ceil(self.window * self.bucket_ratio))

    @property
    def retained(self) -> int:
        """Concurrent bucket summaries kept per shard."""
        bucket = self.bucket
        return -(-self.window // bucket) + 1

    def new_state(self) -> SuffixCacheList:
        return SuffixCacheList()

    def is_empty(self, state: List[Bucket]) -> bool:
        return not state

    def close(self, state, bucket: Bucket) -> None:
        state.append(bucket)
        del state[: -self.retained]
        state.suffix.clear()

    def merge(self, state, other):
        state.extend(other)
        state.sort(key=lambda bucket: bucket.index)
        del state[: -self.retained]
        state.suffix.clear()
        return state

    def _suffix_fold(self, state, start: int) -> Any:
        """A caller-owned left-fold merge of ``state[start:]``.

        Buckets stay live for repeat queries.  A merge leaves its
        argument's answer alone and shares nothing mutable with it (the
        ``audit/merge-argument`` contract), so the fold clones its seed
        bucket and merges the later buckets in directly.  The state's
        suffix cache (see :class:`SuffixCacheList`) builds the fold once
        per (start, bucket-list) pair and re-clones it on later probes,
        making repeated queries O(1) merges instead of O(retained) — the
        cache only empties when a bucket closes.
        """
        if start >= len(state):
            return None
        fold = state.suffix.get(start)
        if fold is None:
            fold = clone_summary(state[start].instance)
            for bucket in state[start + 1 :]:
                fold = fold.merge(bucket.instance)
            state.suffix[start] = fold
        return clone_summary(fold)

    def _answer(
        self, state, partial: Optional[Bucket]
    ) -> Optional[SlidingWindowAnswer]:
        """The smooth-histogram answer over the trailing buckets (plus
        the in-progress one on the query path): scan backwards until the
        covered span reaches the window, then fold that suffix."""
        n_state = len(state)
        if n_state == 0 and partial is None:
            return None
        covered = partial.count if partial is not None else 0
        start = n_state
        if covered < self.window:
            while start > 0:
                start -= 1
                covered += state[start].count
                if covered >= self.window:
                    break
        merged = self._suffix_fold(state, start)
        if merged is None:
            # Nothing closed yet: the answer keeps the live instance's
            # state, so it gets its own copy.
            merged = clone_summary(partial.instance)
        elif partial is not None:
            merged = merged.merge(partial.instance)
        return SlidingWindowAnswer(
            window=self.window,
            bucket=self.bucket,
            start_update=state[start].start if start < n_state else partial.start,
            end_update=partial.end if partial is not None else state[-1].end,
            n_buckets=(n_state - start) + (1 if partial is not None else 0),
            processor=merged,
            value=merged.finalize(),
        )

    def result(self, state) -> Optional[SlidingWindowAnswer]:
        return self._answer(state, None)

    def query(self, state, partial):
        """Query-at-any-point: the smooth-histogram answer over the
        trailing buckets *plus* the in-progress one, so the covered
        span always ends at the current update (the end-of-stream
        ``result`` path sees the same union once ``flush`` closes the
        last bucket)."""
        return self._answer(state, partial)


@dataclass(frozen=True)
class DecayPolicy(WindowPolicy):
    """Count-based decay: ``keep`` recent buckets, older folded to a tail.

    The newest ``keep`` closed buckets of ``bucket_size`` updates each
    are retained at full resolution; every older bucket is merged — in
    global index order — into a single running tail summary.  Space is
    ``keep + 1`` summaries no matter how long the stream runs.
    """

    bucket_size: int
    keep: int = 4
    kind: ClassVar[str] = "decay"
    requires_merge: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")

    @property
    def bucket(self) -> int:
        return self.bucket_size

    def new_state(self) -> Dict[str, Any]:
        return {
            "recent": [],
            "tail": None,
            "tail_start": 0,
            "tail_end": 0,
            "_records": {},
        }

    def is_empty(self, state) -> bool:
        return not state["recent"] and state["tail"] is None

    def _fold(self, state, bucket: Bucket) -> None:
        state.pop("_tail_record", None)
        if state["tail"] is None:
            state["tail"] = bucket.instance
            state["tail_start"] = bucket.start
            state["tail_end"] = bucket.end
        else:
            state["tail"] = state["tail"].merge(bucket.instance)
            state["tail_start"] = min(state["tail_start"], bucket.start)
            state["tail_end"] = max(state["tail_end"], bucket.end)

    def _prune_records(self, state) -> None:
        """Drop memoized records whose bucket left ``recent`` (folded
        into the tail) or was only a transient in-progress probe."""
        cache = state.setdefault("_records", {})
        live = {(bucket.index, bucket.end) for bucket in state["recent"]}
        for key in [key for key in cache if key not in live]:
            del cache[key]

    def close(self, state, bucket: Bucket) -> None:
        state["recent"].append(bucket)
        while len(state["recent"]) > self.keep:
            self._fold(state, state["recent"].pop(0))
        self._prune_records(state)

    def merge(self, state, other):
        if other["tail"] is not None:
            self._fold(
                state,
                Bucket(-1, other["tail_start"], other["tail_end"], other["tail"]),
            )
        state["recent"].extend(other["recent"])
        state["recent"].sort(key=lambda bucket: bucket.index)
        while len(state["recent"]) > self.keep:
            self._fold(state, state["recent"].pop(0))
        self._prune_records(state)
        return state

    def query(self, state, partial):
        """Mid-stream answer: the in-progress bucket appears as the
        newest recent bucket (retention folding only happens when it
        actually closes, so ``recent`` may transiently show ``keep + 1``
        buckets).  Retention is never touched; the record and tail-value
        memos land in ``state``, so later probes reuse them."""
        return self._answer(state, partial)

    def result(self, state) -> DecayAnswer:
        return self._answer(state, None)

    def _answer(self, state, partial) -> DecayAnswer:
        # Closed buckets receive no further updates, so their records
        # are memoized per (index, end) — a probe only re-finalizes the
        # in-progress bucket and whatever closed since the last probe.
        # The tail value is keyed by its covered span, which only moves
        # when a bucket folds.  Every summary here keeps streaming or
        # folding, and finalize may draw from an RNG or memoise, so each
        # value comes from a copy: a probe never perturbs later answers.
        tail = state["tail"]
        cache = state.get("_records")
        buckets = state["recent"]
        if partial is not None:
            buckets = buckets + [partial]
        recent = []
        for bucket in buckets:
            record = None
            key = (bucket.index, bucket.end)
            if cache is not None:
                record = cache.get(key)
            if record is None:
                record = WindowRecord(
                    bucket.index, bucket.start, bucket.end,
                    clone_summary(bucket.instance).finalize(),
                )
                if cache is not None:
                    cache[key] = record
            recent.append(record)
        if tail is None:
            tail_value = None
        else:
            span = (state["tail_start"], state["tail_end"])
            memo = state.get("_tail_record")
            if memo is not None and memo[0] == span:
                tail_value = memo[1]
            else:
                tail_value = clone_summary(tail).finalize()
                state["_tail_record"] = (span, tail_value)
        return DecayAnswer(
            recent=recent,
            tail_processor=tail,
            tail_value=tail_value,
            tail_start_update=state["tail_start"],
            tail_end_update=state["tail_end"],
        )


# ----------------------------------------------------------------------
# The generic wrapper.
# ----------------------------------------------------------------------


class WindowedProcessor(BatchIngest):
    """Compose any :class:`StreamProcessor` with any :class:`WindowPolicy`.

    Args:
        factory: builds one inner processor per bucket; called as
            ``factory(seed)`` with the bucket's derived seed (a function
            of the master ``seed`` and the *global* bucket index, see
            :func:`derive_bucket_seed`; bucket 0's index for an inner
            whose merge needs equal seeds, under sliding or decay).
            Deterministic processors may ignore the argument.  For sharded (multi-process) execution
            the factory must be picklable — a module-level function,
            ``functools.partial`` of one, or a dataclass with
            ``__call__`` — not a lambda.
        policy: the :class:`WindowPolicy` deciding bucket size and
            retention.
        seed: master seed for per-bucket seed derivation.

    The wrapper is a full mergeable stream processor: ``process_batch``
    splits chunks at the stream's bucket boundaries, ``shard_routing``
    is ``("window", bucket)``, and
    ``split``/``merge`` give each shard ownership of every
    ``n_shards``-th bucket (seeded by global index, so any shard
    reproduces exactly what a single-core run would compute for its
    buckets).  A chunk that crosses a bucket boundary is checked whole
    by the inner ``check_batch`` first, so a rejected chunk closes no
    bucket.

    Raises:
        TypeError: when the factory's product does not conform to the
            StreamProcessor protocol, or lacks ``merge`` under a policy
            whose retention merges summaries (sliding, decay).
        ValueError: when the inner processor's own ``shard_routing``
            conflicts with the wrapper's window routing (an inner
            ``("window", w)`` — windowed wrappers cannot be nested,
            their chunk splits and shard routes would disagree).
    """

    def __init__(
        self,
        factory: Callable[[int], Any],
        policy: WindowPolicy,
        *,
        seed: int | None = None,
    ) -> None:
        if not isinstance(policy, WindowPolicy):
            raise TypeError(
                f"policy must be a WindowPolicy, got {type(policy).__name__}"
            )
        self._factory = factory
        self.policy = policy
        self._seed = seed if seed is not None else 0
        #: global index of the bucket currently being filled, and how
        #: far to jump when it closes (a shard produced by :meth:`split`
        #: owns buckets ``offset, offset + stride, ...``).
        self._bucket_index = 0
        self._stride = 1
        self._updates = 0
        self._state = policy.new_state()
        self._same_seed = False
        self._current = self._fresh_instance()
        self._validate_inner(self._current)
        #: Buckets merged under sliding/decay must share hash functions
        #: when the inner says so: every bucket then reuses bucket 0's
        #: seed, read off the bucket-0 instance just built.
        self._same_seed = policy.requires_merge and bool(
            getattr(self._current, "merge_needs_equal_seeds", False)
        )

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    def _validate_inner(self, instance: Any) -> None:
        """Protocol + routing checks on the factory's product.

        A wrapper must not hide its inner processor's problems: protocol
        violations surface with the inner type named, and an inner
        window routing is a hard conflict — the wrapper already owns the
        ``("window", bucket)`` partition, and a nested window split
        would disagree with it on where chunks break.
        """
        ensure_stream_processor(
            instance, name=f"windowed inner processor ({self.policy.kind})"
        )
        if getattr(instance, "shard_routing", None) is not None:
            inner_routing = shard_routing_of(
                instance, name=f"windowed inner processor ({self.policy.kind})"
            )
            if isinstance(inner_routing, tuple) and inner_routing[0] == SHARD_BY_WINDOW:
                raise ValueError(
                    f"inner processor {type(instance).__name__} declares "
                    f"shard routing {inner_routing!r}, which conflicts with "
                    f"the WindowedProcessor's own ('window', "
                    f"{self.policy.bucket}) routing; windowed wrappers "
                    f"cannot be nested — configure a single policy instead"
                )
        if self.policy.requires_merge and not callable(
            getattr(instance, "merge", None)
        ):
            raise TypeError(
                f"{self.policy.kind} retention merges bucket summaries, but "
                f"inner processor {type(instance).__name__} has no merge(); "
                f"use a mergeable processor or the tumbling policy"
            )

    @property
    def DELETIONS_REJECTED(self) -> Optional[str]:
        """The inner processor's: a window rejects what its buckets
        reject."""
        return getattr(self._current, "DELETIONS_REJECTED", None)

    def _fresh_instance(self) -> Any:
        index = 0 if self._same_seed else self._bucket_index
        return self._factory(derive_bucket_seed(self._seed, index))

    # ------------------------------------------------------------------
    # Stream processing (engine protocol).
    # ------------------------------------------------------------------

    @property
    def shard_routing(self) -> Tuple[str, int]:
        """Updates must be routed by global stream position in blocks of
        ``policy.bucket`` (see repro.engine.protocol)."""
        return (SHARD_BY_WINDOW, self.policy.bucket)

    def _close_bucket(self) -> None:
        start = self._bucket_index * self.policy.bucket
        self.policy.close(
            self._state,
            Bucket(self._bucket_index, start, start + self._updates, self._current),
        )
        self._bucket_index += self._stride
        self._updates = 0
        self._current = self._fresh_instance()

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        """Engine entry point: split the chunk at bucket boundaries.

        Each maximal run of updates that falls inside one bucket is fed
        to the current inner instance as a single sub-batch, and buckets
        close at fixed stream positions — so the sequence of (instance,
        updates) pairs, and with it every bucket's retained state, is
        identical at any chunk size.  A chunk that crosses a boundary is
        first checked whole by the inner ``check_batch``: a rejected
        chunk raises before any bucket closes.  A shard produced by
        :meth:`split` must be fed exactly the updates of its own
        buckets, in order (what a ShardedRunner's window routing does).
        """
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        bucket = self.policy.bucket
        position, n_items = 0, len(a)
        if n_items > bucket - self._updates:
            check = getattr(self._current, "check_batch", None)
            if check is not None:
                check(a, b, sign)
        while position < n_items:
            room = bucket - self._updates
            take = min(room, n_items - position)
            stop = position + take
            self._current.process_batch(
                a[position:stop],
                b[position:stop],
                None if sign is None else sign[position:stop],
            )
            self._updates += take
            position = stop
            if self._updates == bucket:
                self._close_bucket()

    def flush(self) -> None:
        """Close the in-progress bucket early (end of stream).

        A no-op when the last bucket closed exactly at a boundary —
        except on a completely untouched instance, where (as the
        original tumbling loop did) it records one empty bucket.
        """
        if self._updates > 0 or (
            self.policy.is_empty(self._state) and self._bucket_index == 0
        ):
            self._close_bucket()

    def finalize(self) -> Any:
        """Engine hook: flush the in-progress bucket and return the
        policy's answer (a record list, a sliding answer, or a decay
        answer)."""
        self.flush()
        return self.policy.result(self._state)

    def query(self) -> Any:
        """The policy's answer at the *current* stream position.

        Unlike :meth:`finalize`, nothing closes and no later answer
        changes (a merge may consolidate a bucket's pending updates, and
        query caches fill in): the wrapper keeps streaming afterwards,
        so callers can probe as
        often as they like (monitoring dashboards, the Pipeline's
        ``probe_every`` hook).  The in-progress bucket is handed to the
        policy as is, not copied: sliding merges it into a fold it owns,
        and the paths that keep or finalize it — decay, and a sliding
        query before any bucket has closed — clone it once.  For the
        smooth-histogram sliding policy this is exact
        query-at-any-point: the answer covers the trailing span ending
        at the update fed last.  Tumbling keeps its historical
        semantics (completed windows only) and never looks at the
        in-progress bucket.
        """
        partial = None
        if self._updates > 0:
            start = self._bucket_index * self.policy.bucket
            partial = Bucket(
                self._bucket_index, start, start + self._updates, self._current
            )
        return self.policy.query(self._state, partial)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def merge(self, other: "WindowedProcessor") -> "WindowedProcessor":
        """Interleave the retained buckets of two shards.

        Each operand's in-progress bucket (if it received updates) is
        flushed first; the merged state then holds every shard's
        retained buckets re-ordered by global index.  Buckets are
        seeded by global index and each is processed wholly by one
        shard, so tumbling/sliding retention is bit-identical to a
        single-core run over the concatenated stream (decay tail
        folding is bit-identical for commutative inner merges).
        """
        if not isinstance(other, WindowedProcessor):
            raise ValueError(
                f"cannot merge WindowedProcessor with {type(other).__name__}"
            )
        if self.policy != other.policy or self._seed != other._seed:
            raise ValueError(
                "cannot merge windowed wrappers with different policies or "
                "seeds; split both from the same instance"
            )
        if self._updates > 0:
            self._close_bucket()
        if other._updates > 0:
            other._close_bucket()
        self._state = self.policy.merge(self._state, other._state)
        return self

    def split(self, n_shards: int) -> List["WindowedProcessor"]:
        """``n_shards`` shards, shard ``j`` owning buckets ``j, j + n, ...``.

        Each shard derives the same per-bucket seeds a single-core run
        would, so bucket contents are reproduced exactly no matter which
        shard computes them.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if (
            self._updates
            or not self.policy.is_empty(self._state)
            or self._bucket_index != 0
        ):
            raise RuntimeError("split() must be called before processing")
        shards = []
        for offset in range(n_shards):
            # A copy, not the constructor, so each shard builds only
            # its own first bucket; the factory was validated already.
            shard = copy.copy(self)
            shard._state = self.policy.new_state()
            shard._bucket_index = offset
            shard._stride = n_shards
            shard._current = shard._fresh_instance()
            shards.append(shard)
        return shards

    def __getstate__(self):
        """Pickle/deepcopy without query caches.

        Policy state dicts hold memoized records under ``_``-prefixed
        keys (and sliding lists drop their suffix cache via
        :class:`SuffixCacheList`); both are pure derived data that
        should not ride along in checkpoint payloads or shard IPC.
        """
        state = dict(self.__dict__)
        policy_state = state.get("_state")
        if isinstance(policy_state, dict):
            state["_state"] = {
                key: value
                for key, value in policy_state.items()
                if not key.startswith("_")
            }
        return state

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def space_words(self) -> int:
        """The live instance plus whatever the policy retains.

        Sliding/decay retain live bucket summaries (charged via their
        own ``space_words``); tumbling retains finalized records, of
        which the most recent found answer is charged as one vertex
        word plus two words per witness edge.
        """
        total = _space_of(self._current)
        if isinstance(self._state, list):
            records = []
            for entry in self._state:
                if isinstance(entry, Bucket):
                    total += _space_of(entry.instance)
                else:
                    records.append(entry)
            for record in reversed(records):
                value = record.value
                if value is not None and hasattr(value, "size"):
                    total += 1 + 2 * value.size
                    break
        elif isinstance(self._state, dict):
            for bucket in self._state.get("recent", ()):
                total += _space_of(bucket.instance)
            if self._state.get("tail") is not None:
                total += _space_of(self._state["tail"])
        return total


def _space_of(processor: Any) -> int:
    space = getattr(processor, "space_words", None)
    return space() if callable(space) else 0
