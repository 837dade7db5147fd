"""Spec serialization round-trips and eager validation diagnostics."""

import dataclasses
import json

import pytest

from repro.pipeline import (
    CheckpointSpec,
    ExecSpec,
    Pipeline,
    PipelineSpec,
    PipelineValidationError,
    ProcessorSpec,
    SourceSpec,
    SpecError,
    WindowSpec,
    validate_spec,
)
from repro.streams.columnar import ColumnarEdgeStream

import numpy as np


def tiny_stream():
    return ColumnarEdgeStream(
        np.array([0, 1, 2]), np.array([0, 1, 2]), n=4, m=4
    )


def spec_variants():
    """A representative spread of valid specs (id, spec) pairs."""
    generator = SourceSpec.from_generator(
        "zipf", {"n": 64, "m": 512, "d": 16, "seed": 3}, chunk_size=128
    )
    alg2 = ProcessorSpec("insertion-only", {"n": 64, "d": 16}, label="alg2")
    return [
        ("minimal", PipelineSpec(generator, (alg2,))),
        (
            "windowed",
            PipelineSpec(
                generator,
                (alg2,),
                window=WindowSpec("sliding", 256, bucket_ratio=0.5, seed=9),
            ),
        ),
        (
            "sharded-file",
            PipelineSpec(
                SourceSpec.from_file("stream.npz", mmap=True),
                (alg2, ProcessorSpec("misra-gries", {"k": 8})),
                execution=ExecSpec("sharded", 4),
            ),
        ),
        (
            "decay-fanout",
            PipelineSpec(
                generator,
                (alg2,),
                window=WindowSpec("decay", 64, keep=2),
                execution=ExecSpec("fanout"),
            ),
        ),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec", [spec for _, spec in spec_variants()],
        ids=[name for name, _ in spec_variants()],
    )
    def test_from_dict_to_dict_is_identity(self, spec):
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "spec", [spec for _, spec in spec_variants()],
        ids=[name for name, _ in spec_variants()],
    )
    def test_survives_actual_json(self, spec):
        text = json.dumps(spec.to_dict())
        assert PipelineSpec.from_dict(json.loads(text)) == spec

    def test_defaults_are_omitted_from_dicts(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star"),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2}),),
        )
        data = spec.to_dict()
        assert data["source"] == {"kind": "generator", "generator": "star"}
        assert "window" not in data and "execution" not in data
        assert "label" not in data["processors"][0]

    def test_pipeline_objects_compare_by_spec(self):
        _, spec = spec_variants()[0]
        assert Pipeline(spec) == Pipeline.from_dict(spec.to_dict())


class TestSerializationErrors:
    def test_memory_source_refuses_to_serialize(self):
        spec = SourceSpec.memory(tiny_stream())
        with pytest.raises(SpecError, match="cannot be serialized"):
            spec.to_dict()

    # readahead_depth and readahead were SourceSpec fields once; specs
    # that still carry them are rejected by name rather than silently
    # ignored.
    @pytest.mark.parametrize("key", ["mmaps", "readahead_depth", "readahead"])
    def test_unknown_source_field_is_reported(self, key):
        with pytest.raises(SpecError, match=rf"unknown field\(s\) \['{key}'\]"):
            SourceSpec.from_dict({"kind": "file", "path": "x", key: True})

    def test_stream_is_not_an_accepted_dict_field(self):
        with pytest.raises(SpecError, match="unknown field"):
            SourceSpec.from_dict({"kind": "memory", "stream": object()})

    def test_missing_required_pipeline_fields(self):
        with pytest.raises(SpecError, match=r"missing required field\(s\)"):
            PipelineSpec.from_dict({"source": {"kind": "generator",
                                               "generator": "star"}})

    def test_processors_must_be_a_list(self):
        with pytest.raises(SpecError, match="must be a list"):
            PipelineSpec.from_dict(
                {"source": {"kind": "generator", "generator": "star"},
                 "processors": {"name": "insertion-only"}}
            )

    def test_bad_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            Pipeline.from_json("{nope")

    def test_missing_required_subfield_is_a_spec_error(self):
        # Never a raw TypeError — --spec feeds arbitrary JSON here.
        with pytest.raises(SpecError, match=r"missing required field\(s\) \['kind'\]"):
            SourceSpec.from_dict({})
        with pytest.raises(SpecError, match=r"\['policy', 'window'\]"):
            WindowSpec.from_dict({})
        with pytest.raises(SpecError, match=r"\['name'\]"):
            PipelineSpec.from_dict({
                "source": {"kind": "generator", "generator": "star"},
                "processors": [{}],
            })

    def test_mistyped_scalars_become_diagnostics(self):
        spec = PipelineSpec.from_dict({
            "source": {"kind": "generator", "generator": "star",
                       "chunk_size": "big", "mmap": 1},
            "processors": [{"name": "insertion-only",
                            "params": {"n": 8, "d": 2}}],
            "window": {"policy": "tumbling", "window": "wide"},
            "execution": {"backend": "fanout", "workers": True},
        })
        fields = {d.field for d in validate_spec(spec)}
        assert {"source.chunk_size", "source.mmap", "window.window",
                "execution.workers"} <= fields
        with pytest.raises(PipelineValidationError):
            Pipeline(spec)


def diagnostics_of(spec):
    return {d.field: d for d in validate_spec(spec)}


class TestValidationDiagnostics:
    def good(self):
        return PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (ProcessorSpec("insertion-only", {"n": 32, "d": 8}),),
        )

    def test_good_spec_has_no_diagnostics(self):
        assert validate_spec(self.good()) == []

    def test_every_conflict_reported_at_once(self):
        spec = PipelineSpec(
            SourceSpec(kind="generator", generator="zipff", mmap=True,
                       chunk_size=0),
            (ProcessorSpec("insertion-only", {"n": 8}),),
            execution=ExecSpec("serial", 4),
        )
        fields = set(diagnostics_of(spec))
        assert {"source.generator", "source.mmap", "source.chunk_size",
                "processors[0].name", "execution.backend",
                "execution.workers"} <= fields

    def test_constructing_pipeline_raises_them_all(self):
        spec = PipelineSpec(
            SourceSpec(kind="generator", generator="zipff", mmap=True),
            (),
        )
        with pytest.raises(PipelineValidationError) as excinfo:
            Pipeline(spec)
        assert len(excinfo.value.diagnostics) >= 3
        assert "conflicts" in str(excinfo.value)

    def test_unknown_kind_and_backend_and_policy(self):
        spec = PipelineSpec(
            SourceSpec(kind="s3"),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2}),),
            window=WindowSpec("hopping", 0, bucket_ratio=2.0, keep=0),
            execution=ExecSpec("spark"),
        )
        fields = diagnostics_of(spec)
        assert "source.kind" in fields
        assert "window.policy" in fields
        assert "window.window" in fields
        assert "window.bucket_ratio" in fields
        assert "window.keep" in fields
        assert "execution.backend" in fields

    def test_memory_source_without_stream(self):
        spec = PipelineSpec(
            SourceSpec(kind="memory"),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2}),),
        )
        assert "source.stream" in diagnostics_of(spec)

    def test_file_source_without_path(self):
        spec = PipelineSpec(
            SourceSpec(kind="file"),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2}),),
        )
        assert "source.path" in diagnostics_of(spec)

    def test_processor_seed_under_window_is_a_conflict(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (ProcessorSpec("insertion-only", {"n": 32, "d": 8, "seed": 42}),),
            window=WindowSpec("tumbling", 64, seed=1),
        )
        diagnostic = diagnostics_of(spec)["processors[0].params"]
        assert "window.seed" in diagnostic.problem + diagnostic.hint
        # Deterministic processors have no seed param to conflict.
        no_seed = PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (ProcessorSpec("misra-gries", {"k": 8}),),
            window=WindowSpec("tumbling", 64, seed=1),
        )
        assert validate_spec(no_seed) == []

    def test_duplicate_labels(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (
                ProcessorSpec("insertion-only", {"n": 32, "d": 8}),
                ProcessorSpec("insertion-only", {"n": 32, "d": 4}),
            ),
        )
        assert "processors[1].label" in diagnostics_of(spec)

    def test_bad_param_types_surface_as_diagnostics(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star", {"n": "32"}),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2, "k": 1}),),
        )
        fields = diagnostics_of(spec)
        assert "source.generator" in fields
        assert "processors[0].name" in fields

    def test_empty_processors(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (),
        )
        assert "processors" in diagnostics_of(spec)

    def test_workers_require_sharded_backend(self):
        spec = PipelineSpec(
            SourceSpec.from_generator("star", {"n": 32, "m": 128, "d": 8}),
            (ProcessorSpec("insertion-only", {"n": 32, "d": 8}),),
            execution=ExecSpec("fanout", 2),
        )
        diagnostic = diagnostics_of(spec)["execution.workers"]
        assert "sharded" in diagnostic.hint

    def test_diagnostic_str_carries_field_and_hint(self):
        spec = PipelineSpec(
            SourceSpec(kind="generator", generator=None),
            (ProcessorSpec("insertion-only", {"n": 8, "d": 2}),),
        )
        text = str(PipelineValidationError(validate_spec(spec)))
        assert "source.generator" in text and "registered" in text


class TestFaultToleranceSpecs:
    """ExecSpec fault knobs and CheckpointSpec: round-trips + rules."""

    def full_spec(self):
        return PipelineSpec(
            SourceSpec.from_file("stream.npz"),
            (ProcessorSpec("insertion-only", {"n": 32, "d": 8}),),
            execution=ExecSpec(
                "sharded", 4, retries=5, timeout_s=30.0,
                on_failure="serial_fallback",
            ),
            checkpoint=CheckpointSpec("ckpt", every=8),
        )

    def test_round_trip_is_exact(self):
        spec = self.full_spec()
        assert PipelineSpec.from_dict(spec.to_dict()) == spec
        assert PipelineSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_defaults_are_omitted(self):
        spec = PipelineSpec(
            SourceSpec.from_file("stream.npz"),
            (ProcessorSpec("insertion-only", {"n": 32, "d": 8}),),
            execution=ExecSpec("sharded", 2),
            checkpoint=CheckpointSpec("ckpt"),
        )
        data = spec.to_dict()
        assert data["execution"] == {"backend": "sharded", "workers": 2}
        assert data["checkpoint"] == {"dir": "ckpt"}

    def test_good_fault_tolerant_spec_validates_clean(self):
        assert validate_spec(self.full_spec()) == []

    def test_negative_retries(self):
        spec = dataclasses.replace(
            self.full_spec(),
            execution=ExecSpec("sharded", 4, retries=-1),
        )
        assert "execution.retries" in diagnostics_of(spec)

    def test_timeout_must_be_positive(self):
        spec = dataclasses.replace(
            self.full_spec(),
            execution=ExecSpec("sharded", 4, timeout_s=0.0),
        )
        assert "execution.timeout_s" in diagnostics_of(spec)

    def test_unknown_failure_policy(self):
        spec = dataclasses.replace(
            self.full_spec(),
            execution=ExecSpec("sharded", 4, on_failure="panic"),
        )
        assert "execution.on_failure" in diagnostics_of(spec)

    def test_retry_policy_requires_sharded_backend(self):
        spec = dataclasses.replace(
            self.full_spec(),
            execution=ExecSpec("fanout", on_failure="retry"),
        )
        diagnostic = diagnostics_of(spec)["execution.on_failure"]
        assert "sharded" in diagnostic.problem + diagnostic.hint

    def test_checkpoint_requires_a_file_source(self):
        spec = dataclasses.replace(
            self.full_spec(),
            source=SourceSpec.from_generator(
                "star", {"n": 32, "m": 128, "d": 8}
            ),
        )
        diagnostic = diagnostics_of(spec)["checkpoint.dir"]
        assert "file source" in diagnostic.problem

    def test_serial_backend_is_unknown(self):
        spec = dataclasses.replace(
            self.full_spec(), execution=ExecSpec("serial"),
        )
        diagnostic = diagnostics_of(spec)["execution.backend"]
        assert diagnostic.problem == "unknown backend 'serial'"

    def test_checkpoint_every_must_be_positive(self):
        spec = dataclasses.replace(
            self.full_spec(), checkpoint=CheckpointSpec("ckpt", every=0),
        )
        assert "checkpoint.every" in diagnostics_of(spec)
