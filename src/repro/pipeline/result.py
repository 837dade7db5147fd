"""Typed pipeline results: answers + run metadata, JSON-serializable.

A :meth:`~repro.pipeline.Pipeline.run` returns a
:class:`PipelineResult` instead of printing: per-processor answers (the
raw objects, for callers that keep computing) plus a :class:`RunReport`
of timing, backend, shard and window metadata, and any mid-stream
:class:`ProbeRecord` rows the run collected.  ``to_dict()`` renders the
whole thing JSON-compatible — answers are summarized by
:func:`describe_answer` (a ``Neighbourhood`` becomes its vertex and
witness count, window records become index/range/value rows,
query-style summaries become their type and space) so a result can be
logged, archived next to a ``perfbench/run.py`` result, or diffed
across runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.windows import DecayAnswer, SlidingWindowAnswer, WindowRecord


def describe_answer(value: Any) -> Any:
    """A JSON-compatible summary of one processor's answer.

    Handles the library's answer shapes — ``None`` (failure),
    neighbourhoods, lists of window records or neighbourhoods, sliding
    and decay answers, and query-style summaries that return themselves
    from ``finalize`` — and falls back to ``repr`` for anything else.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "vertex") and hasattr(value, "witnesses"):
        return {
            "type": "neighbourhood",
            "vertex": int(value.vertex),
            "size": int(value.size),
            "witnesses": sorted(int(w) for w in value.witnesses),
        }
    if isinstance(value, SlidingWindowAnswer):
        return {
            "type": "sliding",
            "window": value.window,
            "bucket": value.bucket,
            "start_update": value.start_update,
            "end_update": value.end_update,
            "span": value.span,
            "n_buckets": value.n_buckets,
            "value": describe_answer(value.value),
        }
    if isinstance(value, DecayAnswer):
        return {
            "type": "decay",
            "recent": [describe_answer(record) for record in value.recent],
            "has_tail": value.has_tail,
            "tail_start_update": value.tail_start_update,
            "tail_end_update": value.tail_end_update,
            "tail_value": describe_answer(value.tail_value),
        }
    if isinstance(value, WindowRecord):
        return {
            "type": "window",
            "index": value.window_index,
            "start_update": value.start_update,
            "end_update": value.end_update,
            "value": describe_answer(value.value),
        }
    if isinstance(value, (list, tuple)):
        return [describe_answer(item) for item in value]
    summary: Dict[str, Any] = {"type": type(value).__name__}
    space = getattr(value, "space_words", None)
    if callable(space):
        summary["space_words"] = int(space())
    return summary


@dataclass
class ProbeRecord:
    """One mid-stream probe: windowed answers at a stream position.

    ``answers`` maps processor labels to whatever
    :meth:`~repro.engine.windows.WindowedProcessor.query` returned at
    ``position`` updates into the stream.
    """

    position: int
    answers: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "position": self.position,
            "answers": {
                label: describe_answer(answer)
                for label, answer in self.answers.items()
            },
        }


@dataclass
class RunReport:
    """Execution metadata for one pipeline pass.

    The fault-tolerance fields default to their "nothing happened"
    values: ``resumed`` is True when the pass continued from a
    checkpoint, ``shard_retries`` counts shard-worker re-runs,
    ``shard_fallbacks`` counts shards that ran in-process (no ``fork``
    here, or ``on_failure="serial_fallback"``), and ``checkpoint``
    echoes the checkpoint spec when one was active.
    """

    n_updates: int
    elapsed_s: float
    backend: str
    workers: int
    chunk_size: int
    source: Dict[str, Any]
    #: CPUs the run could actually use (affinity-aware, see
    #: :func:`repro.engine.effective_cores`) — recorded so rates and
    #: worker counts are always read against the real parallelism.
    effective_cores: Optional[int] = None
    routing: Optional[Any] = None
    window: Optional[Dict[str, Any]] = None
    resumed: bool = False
    shard_retries: int = 0
    shard_fallbacks: int = 0
    checkpoint: Optional[Dict[str, Any]] = None

    @property
    def updates_per_s(self) -> float:
        return self.n_updates / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["updates_per_s"] = self.updates_per_s
        if isinstance(self.routing, tuple):
            out["routing"] = list(self.routing)
        return out


@dataclass
class PipelineResult:
    """What a pipeline run produced.

    Attributes:
        answers: label -> the processor's finalized answer (raw
            objects; ``result[label]`` is shorthand).
        processors: label -> the (merged, for sharded runs) processor,
            for callers that keep querying or need space accounting.
        report: the :class:`RunReport` metadata.
        probes: mid-stream :class:`ProbeRecord` rows (empty unless the
            run was launched with ``probe_every``).
        stream: the materialized in-memory source, when one exists
            (``None`` for mmap file runs) — callers use it for
            ground-truth verification.
    """

    answers: Dict[str, Any]
    processors: Dict[str, Any]
    report: RunReport
    probes: List[ProbeRecord] = field(default_factory=list)
    stream: Any = None

    def __getitem__(self, label: str) -> Any:
        return self.answers[label]

    def __contains__(self, label: str) -> bool:
        return label in self.answers

    def labels(self) -> List[str]:
        return list(self.answers)

    def space_words(self) -> Dict[str, int]:
        """Per-processor space accounting (labels without a
        ``space_words`` method are omitted)."""
        out = {}
        for label, processor in self.processors.items():
            space = getattr(processor, "space_words", None)
            if callable(space):
                out[label] = int(space())
        return out

    def to_dict(self) -> Dict[str, Any]:
        """The whole result as a JSON-compatible dict."""
        return {
            "answers": {
                label: describe_answer(answer)
                for label, answer in self.answers.items()
            },
            "space_words": self.space_words(),
            "report": self.report.to_dict(),
            "probes": [probe.to_dict() for probe in self.probes],
        }
