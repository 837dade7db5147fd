"""The Pipeline: one spec-driven entry point for every run.

``repro`` grew its execution machinery layer by layer — columnar
streams, the single-pass :class:`~repro.engine.runner.FanoutRunner`,
the multi-core :class:`~repro.engine.sharded.ShardedRunner`, the window
policies — and every caller (CLI, benchmarks, examples) used to
hand-assemble them.  :class:`Pipeline` replaces that glue: a validated
:class:`~repro.pipeline.spec.PipelineSpec` (source × window × backend ×
processors) is the *only* thing a caller writes, whether fluently::

    result = (Pipeline.builder()
              .generator("zipf", n=256, m=30000, d=200)
              .processor("insertion-only", n=256, d=200, alpha=2)
              .window("sliding", window=4096)
              .build()
              .run())

or declaratively from JSON::

    pipeline = Pipeline.from_dict(json.load(open("job.json")))
    report = pipeline.run().to_dict()

Construction validates the whole spec eagerly
(:func:`~repro.pipeline.spec.validate_spec`) and raises every conflict
at once; :meth:`Pipeline.run` then opens the source, resolves the
processors through the registry, executes on the requested backend and
returns a typed, JSON-serializable
:class:`~repro.pipeline.result.PipelineResult`.

Mid-stream probes: ``run(probe_every=N)`` snapshots every windowed
processor's :meth:`~repro.engine.windows.WindowedProcessor.query`
answer each ``N`` updates (quantized to chunk boundaries), surfacing
the smooth-histogram sliding window's query-at-any-point capability as
:class:`~repro.pipeline.result.ProbeRecord` rows on the result.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.engine.checkpoint import CheckpointStore
from repro.engine.faults import FaultPlan
from repro.engine.protocol import combined_routing, shard_routing_of
from repro.engine.runner import FANOUT_TAG, FanoutRunner
from repro.engine.sharded import (
    RUN_TAG,
    ShardedRunner,
    effective_cores as engine_effective_cores,
)
from repro.engine.windows import (
    DecayPolicy,
    SlidingPolicy,
    TumblingPolicy,
    WindowPolicy,
    WindowedProcessor,
)
from repro.pipeline.errors import PipelineValidationError, SpecError
from repro.pipeline.registry import (
    GENERATORS,
    PROCESSORS,
    RegistryWindowFactory,
)
from repro.pipeline.result import PipelineResult, ProbeRecord, RunReport
from repro.pipeline.spec import (
    CheckpointSpec,
    ExecSpec,
    PipelineSpec,
    ProcessorSpec,
    SourceSpec,
    WindowSpec,
    validate_spec,
)
from repro.streams.columnar import DEFAULT_CHUNK_SIZE, ColumnarEdgeStream
from repro.streams.stream import EdgeStream


def make_window_policy(window: WindowSpec) -> WindowPolicy:
    """The engine :class:`~repro.engine.windows.WindowPolicy` a
    validated :class:`WindowSpec` describes."""
    if window.policy == "tumbling":
        return TumblingPolicy(window.window)
    if window.policy == "sliding":
        return SlidingPolicy(window.window, bucket_ratio=window.bucket_ratio)
    if window.policy == "decay":
        return DecayPolicy(window.window, keep=window.keep)
    raise SpecError(f"unknown window policy {window.policy!r}")


@dataclass
class OpenSource:
    """A source spec resolved into something the engine can stream.

    Exactly one of ``stream`` (an in-memory
    :class:`~repro.streams.columnar.ColumnarEdgeStream`) and ``reader``
    (a memory-mapped
    :class:`~repro.streams.persist.ChunkedStreamReader`) is set.  A
    flag-driven CLI run opens its source first, to size its processor
    from it and print its stats line, then hands it to
    :meth:`Pipeline.run` so the stream is built exactly once; a
    ``--spec`` run leaves the opening to :meth:`Pipeline.run`.
    """

    spec: SourceSpec
    stream: Optional[ColumnarEdgeStream] = None
    reader: Optional[Any] = None

    @property
    def n(self) -> int:
        return self.stream.n if self.stream is not None else self.reader.n

    @property
    def m(self) -> int:
        return self.stream.m if self.stream is not None else self.reader.m

    def __len__(self) -> int:
        target = self.stream if self.stream is not None else self.reader
        return len(target)

    @property
    def insertion_only(self) -> bool:
        target = self.stream if self.stream is not None else self.reader
        return target.insertion_only

    def chunk_source(self) -> Any:
        """The object to feed :func:`repro.engine.as_chunks`."""
        return self.stream if self.stream is not None else self.reader

    def describe(self) -> Dict[str, Any]:
        """JSON-compatible provenance for the run report."""
        out: Dict[str, Any] = {"kind": self.spec.kind}
        if self.spec.kind == "generator":
            out["generator"] = self.spec.generator
            out["params"] = dict(self.spec.params)
        elif self.spec.kind == "file":
            out["path"] = self.spec.path
            out["mmap"] = self.spec.mmap
        out["n"] = self.n
        out["m"] = self.m
        out["updates"] = len(self)
        return out


def open_source(spec: SourceSpec) -> OpenSource:
    """Materialise (or map) the stream a :class:`SourceSpec` names.

    Raises:
        SpecError: mmap requested on a v1 (text) stream file.
        StreamFormatError, OSError: the file is missing or malformed.
    """
    if spec.kind == "memory":
        stream = spec.stream
        if isinstance(stream, EdgeStream):
            stream = ColumnarEdgeStream.from_edge_stream(stream)
        return OpenSource(spec, stream=stream)
    if spec.kind == "generator":
        generated = GENERATORS.build(spec.generator, spec.params)
        if isinstance(generated, EdgeStream):
            generated = ColumnarEdgeStream.from_edge_stream(generated)
        return OpenSource(spec, stream=generated)
    # File source.
    from repro.streams.persist import ChunkedStreamReader, load_columnar

    if spec.mmap:
        reader = ChunkedStreamReader(spec.path, mmap=True)
        if reader.version != 2:
            raise SpecError(
                f"mmap requires a v2 (NPZ) stream file, and {spec.path} "
                f"is v{reader.version}; convert with `persist convert`"
            )
        return OpenSource(spec, reader=reader)
    return OpenSource(spec, stream=load_columnar(spec.path))


def _open_file_header(spec: SourceSpec) -> OpenSource:
    """A metadata-only open of a file source: dimensions and length
    without materialising the columns (v2 archives are memory-mapped,
    v1 text parses incrementally)."""
    from repro.streams.persist import ChunkedStreamReader, detect_version

    reader = ChunkedStreamReader(
        spec.path, mmap=detect_version(spec.path) == 2
    )
    return OpenSource(spec, reader=reader)


def _probe_hook(
    processors: Dict[str, Any],
    probe_every: int,
    start: int,
    probes: List[ProbeRecord],
) -> Callable[[int], None]:
    """The ``on_chunk`` hook that records a probe each ``probe_every``
    updates, quantized to chunk ends.  After position ``P`` the next
    probe is due at ``(P // probe_every + 1) * probe_every``, whether
    the pass starts fresh or at a resume offset ``start``."""
    next_probe = (start // probe_every + 1) * probe_every

    def on_chunk(position: int) -> None:
        nonlocal next_probe
        if position >= next_probe:
            probes.append(
                ProbeRecord(
                    position,
                    {
                        label: processor.query()
                        for label, processor in processors.items()
                    },
                )
            )
            next_probe = (position // probe_every + 1) * probe_every

    return on_chunk


class Pipeline:
    """A validated, executable, serializable pipeline description."""

    def __init__(self, spec: PipelineSpec) -> None:
        diagnostics = validate_spec(spec)
        if diagnostics:
            raise PipelineValidationError(diagnostics)
        self.spec = spec

    # ------------------------------------------------------------------
    # Construction: builder and (de)serialization.
    # ------------------------------------------------------------------

    @staticmethod
    def builder() -> "PipelineBuilder":
        return PipelineBuilder()

    def to_dict(self) -> Dict[str, Any]:
        return self.spec.to_dict()

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "Pipeline":
        return Pipeline(PipelineSpec.from_dict(data))

    @staticmethod
    def from_json(text: str) -> "Pipeline":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from error
        return Pipeline.from_dict(data)

    @staticmethod
    def from_spec_file(path: Union[str, Path]) -> "Pipeline":
        return Pipeline.from_json(Path(path).read_text(encoding="utf-8"))

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Pipeline) and self.spec == other.spec

    def __repr__(self) -> str:
        labels = [processor.effective_label for processor in self.spec.processors]
        return (
            f"Pipeline(source={self.spec.source.kind!r}, "
            f"processors={labels!r}, "
            f"window={getattr(self.spec.window, 'policy', None)!r}, "
            f"backend={self.spec.execution.backend!r}"
            f"x{self.spec.execution.workers})"
        )

    # ------------------------------------------------------------------
    # Resolution.
    # ------------------------------------------------------------------

    def open_source(self) -> OpenSource:
        """Open this pipeline's source (see :func:`open_source`)."""
        return open_source(self.spec.source)

    def build_processors(self) -> Dict[str, Any]:
        """label -> live processor, windowed when the spec says so."""
        processors: Dict[str, Any] = {}
        window = self.spec.window
        for processor_spec in self.spec.processors:
            entry = PROCESSORS.get(processor_spec.name)
            if window is not None:
                inner_params = {
                    key: value
                    for key, value in processor_spec.params.items()
                    if key != entry.seed_param
                }
                processors[processor_spec.effective_label] = WindowedProcessor(
                    RegistryWindowFactory.of(processor_spec.name, inner_params),
                    make_window_policy(window),
                    seed=window.seed,
                )
            else:
                processors[processor_spec.effective_label] = entry.build(
                    processor_spec.params
                )
        return processors

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self,
        *,
        source: Optional[OpenSource] = None,
        probe_every: Optional[int] = None,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> PipelineResult:
        """Execute the pipeline and return a :class:`PipelineResult`.

        Args:
            source: a pre-opened source (defaults to opening the
                spec's own); callers that inspect the stream first
                pass it here so it is built once.
            probe_every: snapshot every windowed processor's
                :meth:`~repro.engine.windows.WindowedProcessor.query`
                answer each ``probe_every`` updates (quantized to
                chunk boundaries).  Requires a window spec and the
                fanout backend — sharded state is distributed until
                the merge, so there is no mid-stream whole-answer to
                probe.  A resumed run keeps the same probe grid.
            resume: continue a checkpointed run from the snapshots in
                the spec's ``checkpoint.dir`` instead of starting over
                (requires a checkpoint spec).  When no checkpoint has
                been written yet — e.g. the previous run died before
                its first snapshot, or never started — the run simply
                starts fresh (and still checkpoints).  The resumed
                answers are bit-identical to an uninterrupted run.
            fault_plan: a deterministic
                :class:`~repro.engine.faults.FaultPlan` threaded into
                the execution engine (chaos testing; None = no faults).

        Raises:
            SpecError: a spec conflict only a run can see, such as
                ``resume`` without a checkpoint spec, or a source with
                deletions fed to a processor that rejects them (checked
                before the first chunk).
        """
        spec = self.spec
        if probe_every is not None:
            if probe_every < 1:
                raise SpecError(
                    f"probe_every must be >= 1, got {probe_every}"
                )
            if spec.window is None:
                raise SpecError(
                    "probe_every requires a window spec; only windowed "
                    "processors answer mid-stream queries"
                )
            if spec.execution.backend != "fanout":
                raise SpecError(
                    f"probe_every requires the fanout backend, got "
                    f"{spec.execution.backend!r}; sharded passes have no "
                    f"single mid-stream state to probe"
                )
        if resume and spec.checkpoint is None:
            raise SpecError(
                "resume=True requires a checkpoint spec (the snapshots "
                "to resume from live in checkpoint.dir)"
            )
        if resume:
            # A resume with nothing to resume from degrades to a fresh
            # (checkpointed) run — the crash-before-first-snapshot case.
            tag = RUN_TAG if spec.execution.backend == "sharded" else FANOUT_TAG
            resume = CheckpointStore(spec.checkpoint.dir).has(tag)
        if source is not None:
            opened = source
        elif spec.source.kind == "file" and (
            spec.execution.backend == "sharded" or spec.checkpoint is not None
        ):
            # Sharded workers (and the checkpointed fanout drive loop)
            # read the file themselves; opening it here is for report
            # metadata only, so never materialise the columns (a
            # non-mmap eager load would double the I/O and pin a full
            # copy for the result's lifetime).
            opened = _open_file_header(spec.source)
        else:
            opened = self.open_source()
        processors = self.build_processors()
        # Before the first chunk, or an insertion-only processor fails
        # mid-stream (inside a worker, if sharded).  Not in open_source
        # or build_processors: callers time those as set-up, and this
        # scans the sign column.
        rejecting = [
            (label, processor.DELETIONS_REJECTED)
            for label, processor in processors.items()
            if getattr(processor, "DELETIONS_REJECTED", None) is not None
        ]
        if rejecting and not opened.insertion_only:
            label, message = rejecting[0]
            raise SpecError(
                f"the source contains deletions, which processor "
                f"{label!r} rejects: {message}"
            )
        execution = spec.execution
        checkpoint = spec.checkpoint
        chunk_size = spec.source.chunk_size
        probes: List[ProbeRecord] = []
        routing: Optional[Any] = None
        shard_retries = shard_fallbacks = 0

        start = time.perf_counter()
        if execution.backend == "sharded":
            if resume:
                runner = ShardedRunner.resume(
                    checkpoint.dir,
                    source=spec.source.path,
                    fault_plan=fault_plan,
                )
                answers = runner.run()
            else:
                runner = ShardedRunner(
                    processors,
                    n_workers=execution.workers,
                    chunk_size=chunk_size,
                    mmap=spec.source.mmap,
                    retries=execution.retries,
                    timeout_s=execution.timeout_s,
                    on_failure=execution.on_failure,
                    checkpoint_dir=(
                        None if checkpoint is None else checkpoint.dir
                    ),
                    checkpoint_every=(
                        None if checkpoint is None else checkpoint.every
                    ),
                    fault_plan=fault_plan,
                )
                engine_source = (
                    Path(spec.source.path)
                    if spec.source.kind == "file"
                    else opened.stream
                )
                answers = runner.run(engine_source)
            merged = {label: runner[label] for label in runner.names()}
            routing = runner.routing()
            shard_retries = runner.retries_used
            shard_fallbacks = runner.fallbacks_used
        else:
            # A resumed runner remembers its file.
            fanout_source: Any = None
            if resume:
                fanout = FanoutRunner.resume(
                    checkpoint.dir,
                    source=spec.source.path,
                    fault_plan=fault_plan,
                )
            else:
                fanout = FanoutRunner(
                    processors,
                    chunk_size=chunk_size,
                    checkpoint_dir=(
                        None if checkpoint is None else checkpoint.dir
                    ),
                    checkpoint_every=(
                        None if checkpoint is None else checkpoint.every
                    ),
                    fault_plan=fault_plan,
                )
                fanout_source = (
                    spec.source.path
                    if checkpoint is not None
                    else opened.chunk_source()
                )
            merged = {label: fanout[label] for label in fanout.names()}
            fanout.process(
                fanout_source,
                on_chunk=None if probe_every is None else _probe_hook(
                    merged, probe_every, fanout.start_position, probes
                ),
            )
            answers = fanout.finalize()
            routing = self._static_routing(merged)
        elapsed = time.perf_counter() - start

        report = RunReport(
            n_updates=len(opened),
            elapsed_s=elapsed,
            backend=execution.backend,
            workers=execution.workers,
            chunk_size=chunk_size,
            source=opened.describe(),
            effective_cores=engine_effective_cores(),
            routing=routing,
            window=spec.window.to_dict() if spec.window is not None else None,
            resumed=bool(resume),
            shard_retries=shard_retries,
            shard_fallbacks=shard_fallbacks,
            checkpoint=checkpoint.to_dict() if checkpoint is not None else None,
        )
        return PipelineResult(
            answers=answers,
            processors=merged,
            report=report,
            probes=probes,
            stream=opened.stream,
        )

    @staticmethod
    def _static_routing(processors: Dict[str, Any]) -> Optional[Any]:
        """Best-effort combined routing for the report (non-sharded
        backends never partition, so this is informational only)."""
        routings = []
        for name, processor in processors.items():
            if getattr(processor, "shard_routing", None) is None:
                return None
            try:
                routings.append(shard_routing_of(processor, name))
            except TypeError:
                return None
        try:
            return combined_routing(routings) if routings else None
        except ValueError:
            return None


class PipelineBuilder:
    """Fluent construction of a :class:`Pipeline`.

    Every method returns the builder; :meth:`build` assembles and
    validates.  Source methods (``memory`` / ``generator`` / ``file``)
    replace any previously set source; ``processor`` appends.
    """

    def __init__(self) -> None:
        self._source: Optional[SourceSpec] = None
        self._processors: List[ProcessorSpec] = []
        self._window: Optional[WindowSpec] = None
        self._execution = ExecSpec()
        self._checkpoint: Optional[CheckpointSpec] = None
        self._chunk_size: Optional[int] = None

    # -- source --------------------------------------------------------

    def source(self, spec: SourceSpec) -> "PipelineBuilder":
        self._source = spec
        return self

    def memory(self, stream: Any) -> "PipelineBuilder":
        return self.source(SourceSpec.memory(stream))

    def generator(self, name: str, **params: Any) -> "PipelineBuilder":
        return self.source(SourceSpec.from_generator(name, params))

    def file(
        self, path: Union[str, Path], *, mmap: bool = False
    ) -> "PipelineBuilder":
        return self.source(SourceSpec.from_file(path, mmap=mmap))

    def chunk_size(self, chunk_size: int) -> "PipelineBuilder":
        self._chunk_size = chunk_size
        return self

    # -- processors ----------------------------------------------------

    def processor(
        self, name: str, *, label: Optional[str] = None, **params: Any
    ) -> "PipelineBuilder":
        self._processors.append(ProcessorSpec(name, params, label=label))
        return self

    # -- window --------------------------------------------------------

    def window(
        self,
        policy: str,
        window: int,
        *,
        bucket_ratio: float = 0.25,
        keep: int = 4,
        seed: int = 0,
    ) -> "PipelineBuilder":
        self._window = WindowSpec(
            policy=policy,
            window=window,
            bucket_ratio=bucket_ratio,
            keep=keep,
            seed=seed,
        )
        return self

    # -- execution -----------------------------------------------------

    def execution(
        self,
        backend: str,
        workers: int = 1,
        *,
        retries: int = 2,
        timeout_s: Optional[float] = None,
        on_failure: str = "raise",
    ) -> "PipelineBuilder":
        self._execution = ExecSpec(
            backend=backend,
            workers=workers,
            retries=retries,
            timeout_s=timeout_s,
            on_failure=on_failure,
        )
        return self

    def sharded(self, workers: int, **kwargs: Any) -> "PipelineBuilder":
        return self.execution("sharded", workers, **kwargs)

    # -- checkpointing -------------------------------------------------

    def checkpoint(
        self, directory: Union[str, Path], *, every: Optional[int] = None
    ) -> "PipelineBuilder":
        if every is None:
            self._checkpoint = CheckpointSpec(dir=str(directory))
        else:
            self._checkpoint = CheckpointSpec(dir=str(directory), every=every)
        return self

    # -- assembly ------------------------------------------------------

    def build(self) -> Pipeline:
        if self._source is None:
            raise SpecError(
                "the builder needs a source; call .memory(), "
                ".generator() or .file() first"
            )
        source = self._source
        if self._chunk_size is not None:
            source = dataclasses.replace(source, chunk_size=self._chunk_size)
        return Pipeline(
            PipelineSpec(
                source=source,
                processors=tuple(self._processors),
                window=self._window,
                execution=self._execution,
                checkpoint=self._checkpoint,
            )
        )

    def run(self, **kwargs: Any) -> PipelineResult:
        """Build and immediately execute."""
        return self.build().run(**kwargs)


def run_spec(
    data: Mapping[str, Any], **kwargs: Any
) -> PipelineResult:
    """One-shot convenience: ``Pipeline.from_dict(data).run(**kwargs)``."""
    return Pipeline.from_dict(data).run(**kwargs)
