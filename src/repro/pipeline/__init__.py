"""Declarative pipeline API: one spec-driven entry point for every run.

A pipeline is described by a validated, JSON-serializable
:class:`~repro.pipeline.spec.PipelineSpec` — *source* (in-memory /
generator-by-name / stream file) × *window* (tumbling / sliding /
decay, optional) × *execution backend* (fanout / sharded) ×
*processors* (resolved by name through the typed
:mod:`~repro.pipeline.registry`) — and executed by
:class:`~repro.pipeline.pipeline.Pipeline`, which returns a typed
:class:`~repro.pipeline.result.PipelineResult`.  The CLI's ``run``
command, the benchmarks and the examples are all thin clients of this
module; see the README's "Pipeline API" section for a JSON quickstart.
"""

from repro.pipeline.errors import (
    Diagnostic,
    ParamError,
    PipelineError,
    PipelineValidationError,
    RegistryError,
    SpecError,
    UnknownNameError,
)
from repro.pipeline.pipeline import (
    OpenSource,
    Pipeline,
    PipelineBuilder,
    make_window_policy,
    open_source,
    run_spec,
)
from repro.pipeline.registry import (
    GENERATORS,
    PROCESSORS,
    Entry,
    Param,
    Registry,
    RegistryWindowFactory,
    register_generator,
    register_processor,
)
from repro.pipeline.result import (
    PipelineResult,
    ProbeRecord,
    RunReport,
    describe_answer,
)
from repro.pipeline.spec import (
    BACKENDS,
    CheckpointSpec,
    ExecSpec,
    PipelineSpec,
    ProcessorSpec,
    SOURCE_KINDS,
    SourceSpec,
    WINDOW_POLICIES,
    WindowSpec,
    validate_spec,
)

__all__ = [
    "BACKENDS",
    "CheckpointSpec",
    "Diagnostic",
    "Entry",
    "ExecSpec",
    "GENERATORS",
    "OpenSource",
    "PROCESSORS",
    "Param",
    "ParamError",
    "Pipeline",
    "PipelineBuilder",
    "PipelineError",
    "PipelineResult",
    "PipelineSpec",
    "PipelineValidationError",
    "ProbeRecord",
    "ProcessorSpec",
    "Registry",
    "RegistryError",
    "RegistryWindowFactory",
    "RunReport",
    "SOURCE_KINDS",
    "SourceSpec",
    "SpecError",
    "UnknownNameError",
    "WINDOW_POLICIES",
    "WindowSpec",
    "describe_answer",
    "make_window_policy",
    "open_source",
    "register_generator",
    "register_processor",
    "run_spec",
    "validate_spec",
]
