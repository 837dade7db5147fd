"""Pipeline execution: backends, sources, probes, typed results."""

import json

import numpy as np
import pytest

from repro.engine import CheckpointStore, FaultPlan, fork_available
from repro.pipeline import (
    Pipeline,
    SourceSpec,
    SpecError,
    open_source,
    run_spec,
)
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import GeneratorConfig, zipf_frequency_stream
from repro.streams.persist import dump_stream


def zipf_columnar(records=2000, n=64, seed=61):
    stream = zipf_frequency_stream(
        GeneratorConfig(n=n, m=records, seed=seed), n_records=records
    )
    return ColumnarEdgeStream.from_edge_stream(stream)


def basic_builder(stream, **processor_params):
    params = {"n": stream.n, "d": 8, "alpha": 2, "seed": 1, **processor_params}
    return (
        Pipeline.builder()
        .memory(stream)
        .chunk_size(256)
        .processor("insertion-only", label="alg2", **params)
    )


def windowed_builder(stream, policy, window, **window_params):
    """Like basic_builder, but seedless processor params (a processor
    seed under a window spec is a validation conflict — buckets are
    seeded from window.seed)."""
    return (
        Pipeline.builder()
        .memory(stream)
        .chunk_size(256)
        .processor("insertion-only", label="alg2", n=stream.n, d=8, alpha=2)
        .window(policy, window, seed=1, **window_params)
    )


class TestBackends:
    def test_sharded_keeps_the_guarantee(self):
        stream = zipf_columnar()
        fanout = basic_builder(stream).build().run()
        sharded = basic_builder(stream).sharded(2).build().run()
        # Per the PR 3 taxonomy Algorithm 2 with evicting reservoirs is
        # guarantee-identical (not bit-identical) under sharding: both
        # answers must certify a heavy vertex, possibly different ones.
        assert fanout["alg2"].size >= 4 and sharded["alg2"].size >= 4
        assert sharded.report.workers == 2
        assert sharded.report.routing == "vertex"

    def test_multiple_processors_one_pass(self):
        stream = zipf_columnar()
        result = (
            basic_builder(stream)
            .processor("misra-gries", k=8)
            .processor("count-min", epsilon=0.01, delta=0.01, seed=2)
            .build()
            .run()
        )
        assert set(result.labels()) == {"alg2", "misra-gries", "count-min"}
        assert result.space_words()["misra-gries"] > 0

    def test_same_processor_twice_with_labels(self):
        stream = zipf_columnar()
        result = (
            basic_builder(stream)
            .processor("insertion-only", label="alg2-strict",
                       n=stream.n, d=8, alpha=1, seed=1)
            .build()
            .run()
        )
        assert "alg2" in result and "alg2-strict" in result

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_serial_fallback_is_reported(self, tmp_path):
        stream = zipf_columnar()
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")

        def run(on_failure, fault_plan=None):
            return (
                Pipeline.builder()
                .file(path)
                .chunk_size(256)
                .processor("count-min", label="cm", epsilon=0.05,
                           delta=0.05, seed=5)
                .sharded(2, retries=0, on_failure=on_failure)
                .build()
                .run(fault_plan=fault_plan)
            )

        clean = run("raise")
        recovered = run("serial_fallback", FaultPlan.kill(worker=0, chunk=1))
        assert clean.report.shard_fallbacks == 0
        assert recovered.report.shard_fallbacks == 1
        assert recovered.report.shard_retries == 0
        assert recovered.to_dict()["report"]["shard_fallbacks"] == 1
        assert np.array_equal(
            recovered.processors["cm"]._table, clean.processors["cm"]._table
        )


class TestSources:
    def test_file_source_round_trip(self, tmp_path):
        stream = zipf_columnar()
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")
        from_file = (
            Pipeline.builder()
            .file(path)
            .processor("insertion-only", label="alg2", n=stream.n, d=8,
                       alpha=2, seed=1)
            .build()
            .run()
        )
        in_memory = basic_builder(stream).build().run()
        assert from_file["alg2"] == in_memory["alg2"]
        assert from_file.report.source["path"] == str(path)

    def test_mmap_file_source(self, tmp_path):
        stream = zipf_columnar()
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")
        result = (
            Pipeline.builder()
            .file(path, mmap=True)
            .processor("insertion-only", label="alg2", n=stream.n, d=8,
                       alpha=2, seed=1)
            .build()
            .run()
        )
        assert result["alg2"] == basic_builder(stream).build().run()["alg2"]
        assert result.stream is None  # mmap never materialises

    def test_mmap_v1_file_is_a_spec_error(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("# feww-stream v1 n=4 m=4\n+ 0 1\n")
        spec = SourceSpec.from_file(path, mmap=True)
        with pytest.raises(SpecError, match="requires a v2"):
            open_source(spec)

    def test_generator_source_equals_memory_source(self):
        result = (
            Pipeline.builder()
            .generator("zipf", n=64, m=2000, d=250, seed=61)
            .processor("insertion-only", label="alg2", n=64, d=8, alpha=2,
                       seed=1)
            .build()
            .run()
        )
        # The zipf workload derives n_records = min(m, 8 * d) = 2000.
        direct = basic_builder(zipf_columnar()).build().run()
        assert result["alg2"] == direct["alg2"]

    def test_edge_stream_memory_source_is_columnarised(self):
        stream = zipf_frequency_stream(
            GeneratorConfig(n=64, m=500, seed=61), n_records=500
        )
        opened = open_source(SourceSpec.memory(stream))
        assert isinstance(opened.stream, ColumnarEdgeStream)
        assert len(opened) == len(stream)

    @pytest.mark.parametrize("name, params, window", [
        ("insertion-only", {}, None),
        ("insertion-only", {}, "tumbling"),
        ("topk", {"k": 2}, None),
    ], ids=["alg2", "alg2-tumbling", "topk"])
    def test_deletions_rejected_before_the_first_chunk(
        self, name, params, window
    ):
        """A source with deletions fed to an insertion-only processor
        fails in ``run`` before any chunk reaches a shard worker."""
        builder = (
            Pipeline.builder()
            .generator("churn", n=32, m=64, d=8, seed=1)
            .processor(name, n=32, d=8, alpha=2, **params)
            .sharded(2)
        )
        if window is not None:
            builder = builder.window(window, 64)
        with pytest.raises(SpecError, match="contains deletions.*insertion-only"):
            builder.build().run()

    def test_builder_requires_a_source(self):
        with pytest.raises(SpecError, match="needs a source"):
            Pipeline.builder().processor("misra-gries", k=4).build()


class TestProbes:
    def probe_pipeline(self, stream):
        return windowed_builder(
            stream, "sliding", 500, bucket_ratio=0.25
        ).build()

    def test_probe_positions_and_spans(self):
        stream = zipf_columnar()
        result = self.probe_pipeline(stream).run(probe_every=512)
        assert [probe.position for probe in result.probes] == [512, 1024, 1536]
        for probe in result.probes:
            answer = probe.answers["alg2"]
            assert answer.end_update == probe.position
            span_limit = 500 + answer.bucket
            assert answer.span <= min(span_limit, probe.position)

    def test_probing_does_not_change_the_final_answer(self):
        stream = zipf_columnar()
        probed = self.probe_pipeline(stream).run(probe_every=512)
        unprobed = self.probe_pipeline(stream).run()
        assert probed["alg2"].start_update == unprobed["alg2"].start_update
        assert probed["alg2"].value == unprobed["alg2"].value

    def test_probe_requires_window(self):
        stream = zipf_columnar()
        with pytest.raises(SpecError, match="requires a window"):
            basic_builder(stream).build().run(probe_every=100)

    def test_probe_requires_fanout_backend(self):
        stream = zipf_columnar()
        pipeline = (
            windowed_builder(stream, "tumbling", 500).sharded(2).build()
        )
        with pytest.raises(SpecError, match="fanout backend"):
            pipeline.run(probe_every=100)

    def test_probe_every_must_be_positive(self):
        stream = zipf_columnar()
        with pytest.raises(SpecError, match=">= 1"):
            self.probe_pipeline(stream).run(probe_every=0)

    def test_fault_plan_fires_under_probes(self):
        stream = zipf_columnar()
        with pytest.raises(OSError, match="injected read error"):
            self.probe_pipeline(stream).run(
                probe_every=256, fault_plan=FaultPlan.read_error(0, chunk=2)
            )

    def test_checkpointed_probes_resume_on_the_same_grid(self, tmp_path):
        stream = zipf_columnar()
        path = tmp_path / "stream.npz"
        dump_stream(stream, path, format="v2")
        probe_every = 300
        chunk_ends = list(range(256, len(stream), 256)) + [len(stream)]

        def pipeline(ckpt):
            return (
                Pipeline.builder()
                .file(path)
                .chunk_size(256)
                .processor("insertion-only", label="alg2", n=stream.n,
                           d=8, alpha=2)
                .window("sliding", 500, bucket_ratio=0.25, seed=1)
                .checkpoint(ckpt, every=2)
                .build()
            )

        def grid(start):
            """Probe positions by the rule: after position P the next
            probe is due at (P // probe_every + 1) * probe_every."""
            positions, due = [], (start // probe_every + 1) * probe_every
            for end in chunk_ends:
                if end > start and end >= due:
                    positions.append(end)
                    due = (end // probe_every + 1) * probe_every
            return positions

        def fingerprint(answer):
            return (answer.start_update, answer.end_update, answer.value)

        whole = pipeline(tmp_path / "whole").run(probe_every=probe_every)
        crashing = pipeline(tmp_path / "ckpt")
        with pytest.raises(OSError, match="injected read error"):
            crashing.run(
                probe_every=probe_every,
                fault_plan=FaultPlan.read_error(0, chunk=5),
            )
        offset = CheckpointStore(tmp_path / "ckpt").load("fanout").position
        assert offset == 4 * 256
        resumed = crashing.run(probe_every=probe_every, resume=True)

        assert resumed.report.resumed
        assert fingerprint(resumed["alg2"]) == fingerprint(whole["alg2"])
        positions = [probe.position for probe in whole.probes]
        assert positions == grid(0)
        tail = [probe for probe in whole.probes if probe.position > offset]
        assert [probe.position for probe in resumed.probes] == grid(offset)
        assert [probe.position for probe in resumed.probes] == [
            probe.position for probe in tail
        ]
        for mine, theirs in zip(resumed.probes, tail):
            assert fingerprint(mine.answers["alg2"]) == fingerprint(
                theirs.answers["alg2"]
            )


class TestResults:
    def test_result_to_dict_is_json_serializable(self):
        stream = zipf_columnar()
        result = (
            windowed_builder(stream, "decay", 256, keep=2)
            .processor("misra-gries", k=8)
            .build()
            .run()
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["report"]["backend"] == "fanout"
        assert payload["report"]["n_updates"] == len(stream)
        assert payload["answers"]["alg2"]["type"] == "decay"
        assert payload["report"]["routing"] == ["window", 256]

    def test_neighbourhood_answers_describe_fully(self):
        stream = zipf_columnar()
        payload = basic_builder(stream).build().run().to_dict()
        answer = payload["answers"]["alg2"]
        assert answer["type"] == "neighbourhood"
        assert answer["size"] == len(answer["witnesses"])

    def test_report_rates_are_consistent(self):
        stream = zipf_columnar()
        report = basic_builder(stream).build().run().report
        assert report.n_updates == len(stream)
        assert report.elapsed_s > 0
        assert report.updates_per_s == pytest.approx(
            report.n_updates / report.elapsed_s
        )

    def test_run_spec_one_shot(self):
        result = run_spec({
            "source": {"kind": "generator", "generator": "star",
                       "params": {"n": 32, "m": 128, "d": 8, "seed": 2}},
            "processors": [{"name": "insertion-only",
                            "params": {"n": 32, "d": 8, "seed": 2}}],
        })
        assert result["insertion-only"] is not None


class TestWindowedRuns:
    @pytest.mark.parametrize("policy,expected_type", [
        ("tumbling", list),
        ("sliding", object),
        ("decay", object),
    ])
    def test_each_policy_runs_through_pipeline(self, policy, expected_type):
        stream = zipf_columnar()
        result = windowed_builder(stream, policy, 500).build().run()
        assert result["alg2"] is not None
        assert result.report.window["policy"] == policy

    def test_windowed_sharded_matches_single_core(self):
        stream = zipf_columnar()

        def run(workers):
            builder = windowed_builder(stream, "tumbling", 500)
            if workers > 1:
                builder = builder.sharded(workers)
            return builder.build().run()["alg2"]

        single = run(1)
        assert run(2) == single
        assert run(4) == single
