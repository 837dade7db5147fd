"""In-memory spans around the benchmark's calls into each layer.

A :class:`Tracer` records one span per layer call — name, start, end,
parent span and run id — in a list, and writes them out only when the
benchmark ends.  :data:`NULL` is the untraced stand-in: the same
interface, no clock reads, no records.  :class:`Traced` wraps a stream
processor so its ``process_batch``/``finalize`` calls become spans.

:class:`Stamped` is not tracing: it is the timestamp recorder the
untraced sharded pass needs, because chunk ingest happens in forked
workers the caller cannot see.  It records when each ``process_batch``
call started and ended (``time.perf_counter`` is system-wide monotonic
on Linux, so worker and parent stamps compare) and carries the stamps
home inside the pickled shard summary.
"""

from __future__ import annotations

import copy
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

_clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "name", "start", "parent", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = _clock()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = _clock()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (
            self.name, self.start, end, self.parent, tracer.run_id
        )


class Tracer:
    """Span recorder.  ``run_id`` tags every span of one pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple[str, float, float, int, int]]] = []
        self._stack: List[int] = []
        self.run_id = 0
        self.counts: Dict[int, Dict[str, float]] = defaultdict(dict)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        """Record a count for the current run (summed per name)."""
        bucket = self.counts[self.run_id]
        bucket[name] = bucket.get(name, 0.0) + value

    def per_run(self) -> Dict[int, Dict[str, Dict[str, float]]]:
        """run id -> span name -> {"total": s, "self": s, "n": calls}.

        Self time is the span's duration minus the durations of its
        direct children (children never overlap their siblings).
        """
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record is not None and record[3] >= 0:
                child_time[record[3]] += record[2] - record[1]
        out: Dict[int, Dict[str, Dict[str, float]]] = {}
        for index, record in enumerate(self.spans):
            if record is None:
                continue
            name, start, end, _parent, run_id = record
            row = out.setdefault(run_id, {}).setdefault(
                name, {"total": 0.0, "self": 0.0, "n": 0}
            )
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
            row["n"] += 1
        return out

    def durations(self, name: str, run_id: int) -> List[float]:
        return [
            record[2] - record[1]
            for record in self.spans
            if record is not None and record[0] == name and record[4] == run_id
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                if record is None:
                    continue
                name, start, end, parent, run_id = record
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start,
                         "end": end, "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


class _NullTracer:
    enabled = False
    run_id = 0
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def count(self, name: str, value: float) -> None:
        return None


NULL = _NullTracer()


class Traced:
    """A stream processor whose batch and finalize calls are spans
    named ``<layer>.ingest`` and ``<layer>.finalize``.  Everything else
    is forwarded to the wrapped processor."""

    def __init__(self, inner: Any, tracer: Tracer, layer: str) -> None:
        self.inner = inner
        self.tracer = tracer
        self.layer = layer
        self._ingest = layer + ".ingest"
        self._finalize = layer + ".finalize"

    def process_batch(self, a: Any, b: Any, sign: Any = None) -> None:
        with self.tracer.span(self._ingest):
            self.inner.process_batch(a, b, sign)

    def finalize(self) -> Any:
        with self.tracer.span(self._finalize):
            return self.inner.finalize()

    def merge(self, other: "Traced") -> "Traced":
        self.inner = self.inner.merge(other.inner)
        return self

    def clone(self) -> "Traced":
        clone = getattr(self.inner, "clone", None)
        inner = clone() if callable(clone) else copy.deepcopy(self.inner)
        return Traced(inner, self.tracer, self.layer)

    def __getattr__(self, name: str) -> Any:
        if name == "inner" or name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.inner, name)


class TracedFactory:
    """Window bucket factory whose products are :class:`Traced`; counts
    the buckets it builds (every close builds the next one)."""

    def __init__(self, factory: Any, tracer: Tracer, layer: str) -> None:
        self.factory = factory
        self.tracer = tracer
        self.layer = layer
        self.built = 0

    def __call__(self, seed: int) -> Traced:
        self.built += 1
        return Traced(self.factory(seed), self.tracer, self.layer)


class Stamped:
    """Records ``(start, end)`` of every ``process_batch`` call, per
    shard; the stamps ride home with the pickled summary and merge
    alongside it."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.stamps: List[List[Tuple[float, float]]] = [[]]

    @property
    def shard_routing(self) -> Any:
        return self.inner.shard_routing

    def process_batch(self, a: Any, b: Any, sign: Any = None) -> None:
        start = _clock()
        self.inner.process_batch(a, b, sign)
        self.stamps[0].append((start, _clock()))

    def finalize(self) -> Any:
        return self.inner.finalize()

    def split(self, n_shards: int) -> List["Stamped"]:
        return [Stamped(piece) for piece in self.inner.split(n_shards)]

    def merge(self, other: "Stamped") -> "Stamped":
        self.inner = self.inner.merge(other.inner)
        self.stamps = self.stamps + other.stamps
        return self
