"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.pipeline import GENERATORS, Pipeline


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "star"
        assert args.algorithm == "insertion-only"
        assert args.alpha == 2

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nope"])


class TestWorkloadFactory:
    @pytest.mark.parametrize(
        "workload", ["star", "cascade", "adversarial", "zipf", "churn"]
    )
    def test_every_workload_builds(self, workload):
        args = build_parser().parse_args(
            ["run", "--workload", workload, "--n", "64", "--m", "512",
             "--d", "16"]
        )
        params = spec_from_args(args)["source"]["params"]
        stream = GENERATORS.build(workload, params)
        assert len(stream) > 0

    def test_churn_contains_deletions(self):
        args = build_parser().parse_args(
            ["run", "--workload", "churn", "--n", "32", "--m", "64",
             "--d", "8"]
        )
        assert not GENERATORS.build(
            "churn", spec_from_args(args)["source"]["params"]
        ).insertion_only


class TestCommands:
    def test_run_star_succeeds(self, capsys):
        code = main(
            ["run", "--workload", "star", "--n", "128", "--m", "512",
             "--d", "32", "--alpha", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified against ground truth: OK" in out
        assert "space:" in out

    def test_run_churn_with_insertion_only_rejected(self, capsys):
        code = main(
            ["run", "--workload", "churn", "--algorithm", "insertion-only",
             "--n", "32", "--m", "64", "--d", "8"]
        )
        assert code == 2
        assert "deletions" in capsys.readouterr().err

    def test_run_churn_with_turnstile_algorithm(self, capsys):
        code = main(
            ["run", "--workload", "churn", "--algorithm", "insertion-deletion",
             "--n", "32", "--m", "64", "--d", "8", "--scale", "0.3"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_bounds_output(self, capsys):
        code = main(["bounds", "--n", "1024", "--d", "32", "--alpha", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Thm 3.2" in out
        assert "Thm 6.4" in out

    def test_bounds_alpha_one_skips_io_lower(self, capsys):
        code = main(["bounds", "--n", "1024", "--d", "32", "--alpha", "1"])
        assert code == 0
        assert "Thm 4.1+4.8" not in capsys.readouterr().out

    def test_figures_output(self, capsys):
        code = main(["figures"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Z_4 = 011110101000011" in out
        assert "Figure 3" in out


class TestStreamFileOptions:
    def _run_args(self, extra):
        return ["run", "--workload", "star", "--n", "64", "--m", "256",
                "--d", "16", "--alpha", "2"] + extra

    @pytest.mark.parametrize("suffix", ["txt", "npz"])
    def test_save_then_replay_roundtrip(self, capsys, tmp_path, suffix):
        path = tmp_path / f"workload.{suffix}"
        code = main(self._run_args(["--save-stream", str(path)]))
        assert code == 0
        saved_out = capsys.readouterr().out
        assert f"stream saved to {path}" in saved_out
        assert path.exists()
        code = main(["run", "--stream-file", str(path), "--d", "16",
                     "--alpha", "2"])
        assert code == 0
        replay_out = capsys.readouterr().out
        assert f"file {path}" in replay_out
        assert "verified against ground truth: OK" in replay_out

    def test_missing_stream_file_reports_error(self, capsys, tmp_path):
        code = main(["run", "--stream-file", str(tmp_path / "absent.npz")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stream_file_with_save_stream_rejected(self, capsys, tmp_path):
        existing = tmp_path / "in.npz"
        assert main(self._run_args(["--save-stream", str(existing)])) == 0
        capsys.readouterr()
        code = main(["run", "--stream-file", str(existing),
                     "--save-stream", str(tmp_path / "out.npz")])
        assert code == 2
        assert "persist convert" in capsys.readouterr().err
        assert not (tmp_path / "out.npz").exists()

    def test_failure_reason_is_reported(self, capsys, tmp_path):
        # d far above any degree in the stream: the algorithm fails and
        # the CLI must surface the diagnostic, not a bare "fail".
        path = tmp_path / "tiny.txt"
        path.write_text("# feww-stream v1 n=4 m=4\n+ 0 1\n+ 1 2\n")
        code = main(["run", "--stream-file", str(path), "--d", "100",
                     "--alpha", "2"])
        assert code == 1
        assert "algorithm reported fail: all 2 parallel runs failed" in (
            capsys.readouterr().out
        )

    def test_custom_chunk_size(self, capsys):
        code = main(self._run_args(["--chunk-size", "13"]))
        assert code == 0
        assert "OK" in capsys.readouterr().out


class TestParallelOptions:
    def _save(self, tmp_path, capsys, workload="star", extra=()):
        path = tmp_path / "workload.npz"
        args = ["run", "--workload", workload, "--n", "64", "--m", "256",
                "--d", "16", "--alpha", "2", "--save-stream", str(path)]
        if workload == "churn":
            args += ["--algorithm", "insertion-deletion", "--scale", "0.3"]
        assert main(args + list(extra)) == 0
        capsys.readouterr()
        return path

    def test_workers_on_generated_workload(self, capsys):
        code = main(["run", "--workload", "star", "--n", "64", "--m", "256",
                     "--d", "16", "--alpha", "2", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded over 2 workers" in out
        assert "verified against ground truth: OK" in out

    def test_workers_with_mmap_stream_file(self, capsys, tmp_path):
        path = self._save(tmp_path, capsys)
        code = main(["run", "--stream-file", str(path), "--d", "16",
                     "--alpha", "2", "--workers", "2", "--mmap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(mmap)" in out
        assert "sharded over 2 workers" in out
        assert "verification skipped (mmap mode" in out

    def test_mmap_without_stream_file_rejected(self, capsys):
        code = main(["run", "--workload", "star", "--mmap"])
        assert code == 2
        assert "source.mmap: mmap requires a file source" in (
            capsys.readouterr().err
        )

    def test_mmap_requires_v2_format(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# feww-stream v1 n=4 m=4\n+ 0 1\n")
        code = main(["run", "--stream-file", str(path), "--mmap"])
        assert code == 2
        assert "requires a v2" in capsys.readouterr().err

    def test_mmap_deletion_stream_with_insertion_only_rejected(
        self, capsys, tmp_path
    ):
        path = self._save(tmp_path, capsys, workload="churn")
        code = main(["run", "--stream-file", str(path), "--d", "8",
                     "--alpha", "2", "--mmap"])
        assert code == 2
        assert "deletions" in capsys.readouterr().err

    def test_bad_worker_count_rejected(self, capsys):
        code = main(["run", "--workload", "star", "--workers", "0"])
        assert code == 2
        assert "execution.workers: workers must be >= 1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flags, message",
        (
            (["--workers", "0"], "execution.workers"),
            (["--mmap"], "mmap"),
            (["--checkpoint-every", "2"], "CheckpointSpec"),
        ),
        ids=("workers-0", "mmap-without-file", "checkpoint-every-alone"),
    )
    def test_invalid_flags_exit_before_the_source_opens(
        self, monkeypatch, capsys, flags, message
    ):
        def refuse(spec):
            raise AssertionError("the source was opened before validation")

        monkeypatch.setattr("repro.cli.open_source", refuse)
        assert main(["run", "--workload", "star", *flags]) == 2
        assert message in capsys.readouterr().err

    def _corrupt_v2_file(self, tmp_path):
        """A v2 file whose A-column holds an out-of-range vertex id —
        only detectable when chunks are actually read in mmap mode."""
        import numpy as np

        from repro.streams.columnar import ColumnarEdgeStream
        from repro.streams.persist import dump_stream

        bad = ColumnarEdgeStream(
            np.array([0, 9999], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            n=4, m=4, validate=False,
        )
        path = tmp_path / "corrupt.npz"
        dump_stream(bad, path, format="v2")
        return path

    def test_mmap_corrupt_stream_is_a_friendly_error(self, capsys, tmp_path):
        path = self._corrupt_v2_file(tmp_path)
        code = main(["run", "--stream-file", str(path), "--d", "2", "--mmap"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_mmap_corrupt_stream_with_workers_is_a_friendly_error(
        self, capsys, tmp_path
    ):
        path = self._corrupt_v2_file(tmp_path)
        code = main(["run", "--stream-file", str(path), "--d", "2",
                     "--mmap", "--workers", "2"])
        assert code == 2
        assert "StreamFormatError" in capsys.readouterr().err


class TestPersistCommands:
    def _make_file(self, tmp_path, suffix="npz"):
        path = tmp_path / f"workload.{suffix}"
        assert main(["run", "--workload", "churn", "--algorithm",
                     "insertion-deletion", "--n", "32", "--m", "64",
                     "--d", "8", "--scale", "0.3",
                     "--save-stream", str(path)]) == 0
        return path

    def test_info_reports_format_and_stats(self, capsys, tmp_path):
        path = self._make_file(tmp_path)
        code = main(["persist", "info", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "feww-stream v2" in out
        assert "deletes=" in out

    def test_convert_v2_to_v1_and_back(self, capsys, tmp_path):
        source = self._make_file(tmp_path)
        text = tmp_path / "copy.txt"
        assert main(["persist", "convert", str(source), str(text)]) == 0
        assert "feww-stream v1" in capsys.readouterr().out
        back = tmp_path / "copy.npz"
        assert main(["persist", "convert", str(text), str(back)]) == 0
        assert "feww-stream v2" in capsys.readouterr().out
        from repro.streams.persist import load_stream

        assert list(load_stream(source)) == list(load_stream(back))

    def _legacy_timestamped_file(self, tmp_path):
        """A v2 archive that still carries the retired ``t`` entry."""
        import numpy as np

        path = tmp_path / "legacy.npz"
        with open(path, "wb") as handle:
            np.savez(handle, a=np.array([0, 1, 2]), b=np.array([0, 1, 2]),
                     sign=np.array([1, 1, 1]),
                     meta=np.array([2, 4, 4], dtype=np.int64),
                     t=np.array([5, 6, 7]))
        return path

    def test_info_reads_legacy_timestamped_file_as_v2(self, capsys, tmp_path):
        path = self._legacy_timestamped_file(tmp_path)
        assert main(["persist", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"{path}: feww-stream v2 n=4 m=4" in out
        assert "timestamps" not in out

    def test_convert_reads_legacy_timestamped_file_as_v2(
        self, capsys, tmp_path
    ):
        from repro.streams.persist import load_stream

        source = self._legacy_timestamped_file(tmp_path)
        destination = tmp_path / "stream.txt"
        assert main(
            ["persist", "convert", str(source), str(destination)]
        ) == 0
        out = capsys.readouterr().out
        assert "feww-stream v1, 3 updates" in out
        assert "timestamps" not in out
        assert list(load_stream(destination)) == list(load_stream(source))

    def test_info_on_garbage_reports_error(self, capsys, tmp_path):
        junk = tmp_path / "junk.txt"
        junk.write_text("not a stream\n")
        code = main(["persist", "info", str(junk)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestWindowPolicyCommands:
    def test_tumbling_reports_per_window(self, capsys):
        code = main(
            ["run", "--workload", "star", "--n", "128", "--m", "512",
             "--d", "40", "--window-policy", "tumbling", "--window", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "completed window(s):" in out
        assert "window 0 [0, 300)" in out

    def test_sliding_reports_span_and_bound(self, capsys):
        code = main(
            ["run", "--workload", "zipf", "--n", "64", "--m", "4000",
             "--window-policy", "sliding", "--window", "500",
             "--bucket-ratio", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sliding window (smooth histogram" in out
        assert "requested window of 500" in out

    def test_decay_reports_recent_and_tail(self, capsys):
        code = main(
            ["run", "--workload", "zipf", "--n", "64", "--m", "4000",
             "--window-policy", "decay", "--window", "200",
             "--decay-keep", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decay: 2 recent bucket(s)" in out
        assert "tail [0," in out

    def test_windowed_with_workers(self, capsys):
        code = main(
            ["run", "--workload", "star", "--n", "128", "--m", "512",
             "--d", "40", "--window-policy", "tumbling", "--window", "256",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "routing: ('window', 256)" in out
        assert "completed window(s):" in out

    def test_bad_window_parameter_is_a_friendly_error(self, capsys):
        code = main(
            ["run", "--workload", "star", "--window-policy", "tumbling",
             "--window", "0"]
        )
        assert code == 2
        assert "window must be >= 1" in capsys.readouterr().err

    def test_mmap_stream_file_runs(self, capsys, tmp_path):
        path = tmp_path / "stream.npz"
        assert main(
            ["run", "--workload", "star", "--n", "128", "--m", "512",
             "--d", "32", "--save-stream", str(path)]
        ) == 0
        code = main(
            ["run", "--stream-file", str(path), "--n", "128", "--d", "32",
             "--mmap"]
        )
        assert code == 0


class TestSpecRuns:
    def _write_spec(self, tmp_path, spec=None):
        import json

        spec = spec or {
            "source": {"kind": "generator", "generator": "star",
                       "params": {"n": 64, "m": 256, "d": 16, "seed": 1}},
            "processors": [{"name": "insertion-only", "label": "alg2",
                            "params": {"n": 64, "d": 16, "seed": 1}}],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        return path

    def test_spec_run_succeeds_and_reports_json(self, capsys, tmp_path):
        import json

        path = self._write_spec(tmp_path)
        code = main(["run", "--spec", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"spec: {path}" in out
        payload = json.loads(out.split("\n", 1)[1])
        assert payload["answers"]["alg2"]["type"] == "neighbourhood"
        assert payload["report"]["backend"] == "fanout"

    def test_spec_run_windowed_sharded(self, capsys, tmp_path):
        import json

        path = self._write_spec(tmp_path, {
            "source": {"kind": "generator", "generator": "star",
                       "params": {"n": 64, "m": 256, "d": 16, "seed": 1}},
            "processors": [{"name": "insertion-only", "label": "alg2",
                            "params": {"n": 64, "d": 16}}],
            "window": {"policy": "tumbling", "window": 128, "seed": 1},
            "execution": {"backend": "sharded", "workers": 2},
        })
        assert main(["run", "--spec", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert payload["report"]["workers"] == 2
        assert payload["report"]["routing"] == ["window", 128]

    def test_missing_spec_file_reports_error(self, capsys, tmp_path):
        code = main(["run", "--spec", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_spec_reports_diagnostics(self, capsys, tmp_path):
        path = self._write_spec(tmp_path, {
            "source": {"kind": "generator", "generator": "nope"},
            "processors": [],
        })
        code = main(["run", "--spec", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid spec" in err
        assert "source.generator" in err

    def test_spec_deletion_mismatch_is_a_friendly_error(self, capsys, tmp_path):
        path = self._write_spec(tmp_path, {
            "source": {"kind": "generator", "generator": "churn",
                       "params": {"n": 32, "m": 64, "d": 8, "seed": 1}},
            "processors": [{"name": "insertion-only",
                            "params": {"n": 32, "d": 8, "seed": 1}}],
        })
        code = main(["run", "--spec", str(path)])
        assert code == 2
        assert "insertion-only" in capsys.readouterr().err

    def test_spec_missing_required_field_is_a_friendly_error(
        self, capsys, tmp_path
    ):
        path = self._write_spec(tmp_path, {
            "source": {},
            "processors": [{"name": "insertion-only",
                            "params": {"n": 8, "d": 2}}],
        })
        code = main(["run", "--spec", str(path)])
        assert code == 2
        assert "missing required field" in capsys.readouterr().err

    def test_malformed_json_reports_error(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{not json")
        code = main(["run", "--spec", str(path)])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


def _parity_spec(generator, processor, params, **sections):
    return {
        "source": {"kind": "generator", "generator": generator,
                   "params": {"n": 64, "m": 256, "d": 16, "alpha": 2,
                              "seed": 1}},
        "processors": [{"name": processor, "label": "algorithm",
                        "params": params}],
        **sections,
    }


class TestFlagSpecParity:
    """A flag run and the equivalent ``--spec`` file run one pipeline
    and report one answer."""

    SIZE = ["--n", "64", "--m", "256", "--d", "16", "--seed", "1"]
    ALG2 = {"n": 64, "d": 16, "alpha": 2}

    def _run(self, monkeypatch, capsys, argv):
        runs = []
        run = Pipeline.run

        def recording(pipeline, **kwargs):
            result = run(pipeline, **kwargs)
            runs.append((pipeline.spec, result))
            return result

        monkeypatch.setattr(Pipeline, "run", recording)
        assert main(argv) == 0
        out = capsys.readouterr().out
        (spec, result), = runs
        return spec, result.to_dict()["answers"], out

    @pytest.mark.parametrize("flags, spec", [
        (["--workload", "star"],
         _parity_spec("star", "insertion-only", {**ALG2, "seed": 1})),
        (["--workload", "churn", "--algorithm", "insertion-deletion",
          "--scale", "0.3"],
         _parity_spec("churn", "insertion-deletion",
                      {"n": 64, "m": 256, "d": 16, "alpha": 2,
                       "scale": 0.3, "seed": 1})),
        (["--workload", "star", "--window-policy", "tumbling",
          "--window", "128", "--workers", "2"],
         _parity_spec("star", "insertion-only", ALG2,
                      window={"policy": "tumbling", "window": 128,
                              "seed": 1},
                      execution={"backend": "sharded", "workers": 2})),
        (["--workload", "star", "--window-policy", "sliding",
          "--window", "128"],
         _parity_spec("star", "insertion-only", ALG2,
                      window={"policy": "sliding", "window": 128,
                              "seed": 1})),
        (["--workload", "cascade"],
         _parity_spec("cascade", "insertion-only", {**ALG2, "seed": 1})),
        (["--workload", "adversarial", "--workers", "2"],
         _parity_spec("adversarial", "insertion-only", {**ALG2, "seed": 1},
                      execution={"backend": "sharded", "workers": 2})),
        (["--workload", "star", "--window-policy", "decay",
          "--window", "64", "--decay-keep", "2"],
         _parity_spec("star", "insertion-only", ALG2,
                      window={"policy": "decay", "window": 64, "keep": 2,
                              "seed": 1})),
    ], ids=["star", "churn", "tumbling-w2", "sliding", "cascade",
            "adversarial-w2", "decay"])
    def test_flag_run_matches_spec_file(
        self, monkeypatch, capsys, tmp_path, flags, spec
    ):
        import json

        flag_spec, flag_answers, _ = self._run(
            monkeypatch, capsys, ["run", *flags, *self.SIZE]
        )
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        file_spec, file_answers, out = self._run(
            monkeypatch, capsys, ["run", "--spec", str(path)]
        )
        assert flag_spec == file_spec
        assert flag_answers == file_answers
        printed = json.loads(out.split("\n", 1)[1])
        assert printed["answers"] == file_answers

    def test_zipf_flag_run_sizes_d_from_max_degree(
        self, monkeypatch, capsys, tmp_path
    ):
        """The flag entry's zipf rule ``d = max_degree`` is the spec file
        whose processor ``d`` is that degree."""
        import json

        spec = _parity_spec("zipf", "insertion-only", {**self.ALG2,
                                                       "seed": 1})
        stream = GENERATORS.build("zipf", spec["source"]["params"])
        spec["processors"][0]["params"]["d"] = stream.max_degree()
        flag_spec, flag_answers, _ = self._run(
            monkeypatch, capsys, ["run", "--workload", "zipf", *self.SIZE]
        )
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        file_spec, file_answers, _ = self._run(
            monkeypatch, capsys, ["run", "--spec", str(path)]
        )
        assert flag_spec == file_spec
        assert flag_answers == file_answers

    @pytest.mark.parametrize("suffix, mmap", [
        ("txt", False), ("npz", False), ("npz", True),
    ], ids=["v1", "v2", "v2-mmap"])
    def test_stream_file_run_matches_spec_file(
        self, monkeypatch, capsys, tmp_path, suffix, mmap
    ):
        """A ``--stream-file`` run sizes the processor from the file,
        which a spec file states outright."""
        import json

        stream = tmp_path / f"workload.{suffix}"
        assert main(["run", "--workload", "star", *self.SIZE,
                     "--save-stream", str(stream)]) == 0
        capsys.readouterr()
        flags = ["--mmap"] if mmap else []
        flag_spec, flag_answers, _ = self._run(
            monkeypatch, capsys,
            ["run", "--stream-file", str(stream), "--d", "16", "--seed", "1",
             *flags],
        )
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "source": {"kind": "file", "path": str(stream), "mmap": mmap},
            "processors": [{"name": "insertion-only", "label": "algorithm",
                            "params": {**self.ALG2, "seed": 1}}],
        }))
        file_spec, file_answers, _ = self._run(
            monkeypatch, capsys, ["run", "--spec", str(path)]
        )
        assert flag_spec == file_spec
        assert flag_answers == file_answers


class TestSharedRunErrors:
    """Both ``run`` entries validate one spec, so a bad flag and the
    equivalent spec file exit 2 with the same diagnostic."""

    STAR = {"kind": "generator", "generator": "star",
            "params": {"n": 64, "m": 256, "d": 16, "seed": 1}}
    ALG2 = [{"name": "insertion-only", "label": "algorithm",
             "params": {"n": 64, "d": 16, "seed": 1}}]

    @pytest.mark.parametrize("flags, spec, extra, field", [
        (["--workers", "0"],
         {"source": STAR, "processors": ALG2,
          "execution": {"backend": "fanout", "workers": 0}},
         [], "execution.workers"),
        (["--mmap"],
         {"source": {**STAR, "mmap": True}, "processors": ALG2},
         [], "source.mmap"),
        (["--checkpoint-every", "4"],
         {"source": STAR, "processors": ALG2, "checkpoint": {"every": 4}},
         [], "CheckpointSpec"),
        (["--resume"],
         {"source": STAR, "processors": ALG2},
         ["--resume"], "checkpoint.dir"),
        (["--workload", "churn", "--algorithm", "insertion-only"],
         {"source": {**STAR, "generator": "churn"}, "processors": ALG2},
         [], "deletions"),
    ], ids=["workers", "mmap", "checkpoint-every", "resume", "deletions"])
    def test_flag_and_spec_file_report_one_error(
        self, capsys, tmp_path, flags, spec, extra, field
    ):
        import json

        size = ["--n", "64", "--m", "256", "--d", "16", "--seed", "1"]
        assert main(["run", *flags, *size]) == 2
        flag_err = capsys.readouterr().err.strip()
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path), *extra]) == 2
        spec_err = capsys.readouterr().err.strip()
        assert field in flag_err
        assert flag_err.removeprefix("error: ") in spec_err


class TestFaultToleranceFlags:
    def _save_stream(self, tmp_path):
        path = tmp_path / "workload.npz"
        assert main(["run", "--workload", "star", "--n", "64", "--m", "256",
                     "--d", "16", "--alpha", "2",
                     "--save-stream", str(path)]) == 0
        return path

    def test_checkpoint_every_requires_dir(self, capsys):
        code = main(["run", "--checkpoint-every", "4"])
        assert code == 2
        assert "CheckpointSpec: missing required field(s) ['dir']" in (
            capsys.readouterr().err
        )

    def test_resume_requires_dir(self, capsys):
        code = main(["run", "--resume"])
        assert code == 2
        assert "checkpoint.dir" in capsys.readouterr().err

    def test_checkpointed_run_then_resume(self, capsys, tmp_path):
        stream = self._save_stream(tmp_path)
        ckpt = tmp_path / "ckpt"
        base = ["run", "--stream-file", str(stream), "--d", "16",
                "--alpha", "2", "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "2"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert f"checkpointed to {ckpt}" in first
        assert (ckpt / "fanout.manifest.json").exists()
        # The finished run left a complete snapshot; --resume loads it
        # and reports the same answer without re-streaming.
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert f"resumed from {ckpt}" in second
        assert ("verified against ground truth: OK" in second) == (
            "verified against ground truth: OK" in first
        )

    def test_sharded_checkpoint_flags_run(self, capsys, tmp_path):
        stream = self._save_stream(tmp_path)
        ckpt = tmp_path / "ckpt"
        code = main(["run", "--stream-file", str(stream), "--d", "16",
                     "--alpha", "2", "--workers", "2",
                     "--retries", "3", "--on-failure", "retry",
                     "--checkpoint-dir", str(ckpt)])
        assert code == 0
        assert f"checkpointed to {ckpt}" in capsys.readouterr().out
        assert (ckpt / "run.manifest.json").exists()

    def test_spec_flags_override_spec_file(self, capsys, tmp_path):
        import json

        stream = self._save_stream(tmp_path)
        capsys.readouterr()  # flush the save-stream banner
        spec = {
            "source": {"kind": "file", "path": str(stream)},
            "processors": [{"name": "insertion-only", "label": "alg2",
                            "params": {"n": 64, "d": 16, "seed": 1}}],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(spec))
        ckpt = tmp_path / "ckpt"
        code = main(["run", "--spec", str(path),
                     "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert payload["report"]["checkpoint"]["dir"] == str(ckpt)
        assert (ckpt / "fanout.manifest.json").exists()
        # And --resume picks the snapshots back up through the spec.
        code = main(["run", "--spec", str(path),
                     "--checkpoint-dir", str(ckpt), "--resume"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert payload["report"]["resumed"] is True

    def test_spec_resume_without_checkpoint_anywhere(self, capsys, tmp_path):
        import json

        stream = self._save_stream(tmp_path)
        path = tmp_path / "job.json"
        path.write_text(json.dumps({
            "source": {"kind": "file", "path": str(stream)},
            "processors": [{"name": "insertion-only", "label": "alg2",
                            "params": {"n": 64, "d": 16, "seed": 1}}],
        }))
        code = main(["run", "--spec", str(path), "--resume"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err


class TestPipelineDescribe:
    def test_inventory_lists_processors_and_generators(self, capsys):
        assert main(["pipeline", "describe"]) == 0
        out = capsys.readouterr().out
        assert "processors:" in out and "generators:" in out
        for name in ("insertion-only", "l0-bank", "bloom-dedup", "zipf"):
            assert name in out
