"""The PR's acceptance criterion: a JSON job spec reproduces the
pre-redesign CLI ``run`` path bit for bit.

``LegacyRun`` below is a frozen copy of the engine glue the CLI's
``command_run`` used to hand-assemble before the Pipeline API existed
(build the algorithm, wrap it in a ``WindowedProcessor`` when asked,
drive a ``FanoutRunner`` — or split/route/merge through a
``ShardedRunner`` for ``--workers N``).  For every window policy
(tumbling / sliding / decay) and every backend (single-core and
sharded at 1 / 2 / 4 workers), ``Pipeline.from_dict(spec).run()`` —
the spec being plain JSON-compatible data, exactly what a user would
put in ``job.json`` — must produce the identical answer, including for
the turnstile algorithm and for mmap file sources.  ``to_dict`` →
``from_dict`` round-trips are asserted on every spec used.
"""

import json
from dataclasses import dataclass

import pytest

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    ShardedRunner,
    SlidingPolicy,
    TumblingPolicy,
    WindowedProcessor,
)
from repro.pipeline import Pipeline
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    deletion_churn_stream,
    planted_star_graph,
    zipf_frequency_stream,
)
from repro.streams.persist import dump_stream

WORKERS = (1, 2, 4)
CHUNK = 173
SEED = 7

# Workload dimensions (registry params == the old CLI derivations).
N, M, D, ALPHA = 96, 768, 24, 2
WINDOW = 256


def star_stream():
    return ColumnarEdgeStream.from_edge_stream(
        planted_star_graph(
            GeneratorConfig(n=N, m=M, seed=SEED),
            star_degree=D,
            background_degree=min(5, D - 1),
        )
    )


def zipf_stream():
    return ColumnarEdgeStream.from_edge_stream(
        zipf_frequency_stream(
            GeneratorConfig(n=N, m=M, seed=SEED), n_records=min(M, 8 * D)
        )
    )


def churn_stream():
    return ColumnarEdgeStream.from_edge_stream(
        deletion_churn_stream(
            GeneratorConfig(n=N, m=M, seed=SEED),
            star_degree=D,
            churn_edges=4 * D,
        )
    )


# ----------------------------------------------------------------------
# The pre-redesign command_run glue, frozen.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Alg2WindowFactory:
    """Per-window Algorithm 2 factory, as the CLI glue used it."""

    n: int
    d: int
    alpha: int

    def __call__(self, seed):
        return InsertionOnlyFEwW(self.n, self.d, self.alpha, seed=seed)


@dataclass(frozen=True)
class Alg3WindowFactory:
    """Per-window Algorithm 3 factory, as the CLI glue used it."""

    n: int
    m: int
    d: int
    alpha: int
    scale: float = 1.0

    def __call__(self, seed):
        return InsertionDeletionFEwW(
            self.n, self.m, self.d, self.alpha, seed=seed, scale=self.scale
        )


class LegacyRun:
    """What ``repro.cli.command_run`` assembled before the Pipeline API."""

    @staticmethod
    def make_policy(policy, window, bucket_ratio=0.25, decay_keep=4):
        if policy == "tumbling":
            return TumblingPolicy(window)
        if policy == "sliding":
            return SlidingPolicy(window, bucket_ratio=bucket_ratio)
        return DecayPolicy(window, keep=decay_keep)

    @staticmethod
    def make_algorithm(algorithm, window_policy=None, window=WINDOW,
                       scale=0.25, seed=SEED):
        if algorithm == "insertion-only":
            processor = InsertionOnlyFEwW(N, D, ALPHA, seed=seed)
            factory = Alg2WindowFactory(N, D, ALPHA)
        else:
            processor = InsertionDeletionFEwW(
                N, M, D, ALPHA, seed=seed, scale=scale
            )
            factory = Alg3WindowFactory(N, M, D, ALPHA, scale)
        if window_policy is not None:
            processor = WindowedProcessor(
                factory, LegacyRun.make_policy(window_policy, window),
                seed=seed,
            )
        return processor

    @staticmethod
    def run(source, algorithm, *, window_policy=None, workers=1, mmap=False,
            scale=0.25, seed=SEED):
        processor = LegacyRun.make_algorithm(
            algorithm, window_policy, scale=scale, seed=seed
        )
        if workers > 1:
            sharded = ShardedRunner(
                {"algorithm": processor},
                n_workers=workers,
                chunk_size=CHUNK,
                mmap=mmap,
            )
            answer = sharded.run(source)["algorithm"]
            return answer, sharded["algorithm"]
        runner = FanoutRunner({"algorithm": processor}, chunk_size=CHUNK)
        if mmap:
            from repro.streams.persist import ChunkedStreamReader

            source = ChunkedStreamReader(source, mmap=True)
        runner.process(source)
        return processor.finalize(), processor


# ----------------------------------------------------------------------
# The spec-driven replacement.
# ----------------------------------------------------------------------


def job_spec(workload, algorithm, *, window_policy=None, workers=1,
             path=None, mmap=False, scale=0.25, seed=SEED):
    """The JSON job spec equivalent to the legacy flag combination."""
    if path is not None:
        source = {"kind": "file", "path": str(path), "chunk_size": CHUNK}
        if mmap:
            source["mmap"] = True
    else:
        source = {
            "kind": "generator",
            "generator": workload,
            "params": {"n": N, "m": M, "d": D, "alpha": ALPHA, "seed": SEED},
            "chunk_size": CHUNK,
        }
    if algorithm == "insertion-only":
        params = {"n": N, "d": D, "alpha": ALPHA}
    else:
        params = {"n": N, "m": M, "d": D, "alpha": ALPHA, "scale": scale}
    if window_policy is None:
        # Windowed specs seed buckets from window.seed; a processor
        # seed there is rejected by validation.
        params["seed"] = seed
    processor = {"name": algorithm, "label": "algorithm", "params": params}
    spec = {"source": source, "processors": [processor]}
    if window_policy is not None:
        spec["window"] = {"policy": window_policy, "window": WINDOW,
                          "seed": seed}
    if workers > 1:
        spec["execution"] = {"backend": "sharded", "workers": workers}
    return spec


def pipeline_answer(spec):
    """Run a JSON spec after asserting it round-trips exactly."""
    pipeline = Pipeline.from_dict(json.loads(json.dumps(spec)))
    assert Pipeline.from_dict(pipeline.to_dict()) == pipeline
    result = pipeline.run()
    return result["algorithm"], result.processors["algorithm"]


# ----------------------------------------------------------------------
# Answer comparison (sliding/decay answers carry live processors, so
# equality is structural).
# ----------------------------------------------------------------------


def assert_same_answer(legacy, modern):
    if legacy is None or isinstance(legacy, (list, tuple)):
        assert modern == legacy
        return
    if hasattr(legacy, "n_buckets"):  # SlidingWindowAnswer
        assert (modern.window, modern.bucket, modern.start_update,
                modern.end_update, modern.n_buckets, modern.value) == (
            legacy.window, legacy.bucket, legacy.start_update,
            legacy.end_update, legacy.n_buckets, legacy.value,
        )
        return
    if hasattr(legacy, "recent"):  # DecayAnswer
        assert modern.recent == legacy.recent
        assert modern.has_tail == legacy.has_tail
        assert (modern.tail_start_update, modern.tail_end_update,
                modern.tail_value) == (
            legacy.tail_start_update, legacy.tail_end_update,
            legacy.tail_value,
        )
        return
    assert modern == legacy  # Neighbourhood etc.


# ----------------------------------------------------------------------
# The acceptance matrix.
# ----------------------------------------------------------------------


class TestWindowedEquivalence:
    @pytest.mark.parametrize("policy", ["tumbling", "sliding", "decay"])
    @pytest.mark.parametrize("workers", WORKERS)
    def test_policy_times_workers(self, policy, workers):
        stream = star_stream()
        legacy_answer, legacy_proc = LegacyRun.run(
            stream, "insertion-only", window_policy=policy, workers=workers
        )
        spec = job_spec("star", "insertion-only", window_policy=policy,
                        workers=workers)
        modern_answer, modern_proc = pipeline_answer(spec)
        assert_same_answer(legacy_answer, modern_answer)
        assert modern_proc.space_words() == legacy_proc.space_words()

    @pytest.mark.parametrize("policy", ["tumbling", "sliding"])
    def test_turnstile_windows(self, policy):
        legacy_answer, _ = LegacyRun.run(
            churn_stream(), "insertion-deletion", window_policy=policy
        )
        modern_answer, _ = pipeline_answer(
            job_spec("churn", "insertion-deletion", window_policy=policy)
        )
        assert_same_answer(legacy_answer, modern_answer)


class TestUnwindowedEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_star_workload(self, workers):
        stream = star_stream()
        legacy_answer, legacy_proc = LegacyRun.run(
            stream, "insertion-only", workers=workers
        )
        modern_answer, modern_proc = pipeline_answer(
            job_spec("star", "insertion-only", workers=workers)
        )
        assert_same_answer(legacy_answer, modern_answer)
        assert modern_proc.result() == legacy_proc.result()
        assert modern_proc.space_words() == legacy_proc.space_words()

    def test_turnstile_workload(self):
        legacy_answer, _ = LegacyRun.run(churn_stream(), "insertion-deletion")
        modern_answer, _ = pipeline_answer(
            job_spec("churn", "insertion-deletion")
        )
        assert_same_answer(legacy_answer, modern_answer)

    def test_zipf_workload(self):
        legacy_answer, _ = LegacyRun.run(zipf_stream(), "insertion-only")
        modern_answer, _ = pipeline_answer(job_spec("zipf", "insertion-only"))
        assert_same_answer(legacy_answer, modern_answer)


class TestFileSourceEquivalence:
    @pytest.mark.parametrize("workers", (1, 4))
    @pytest.mark.parametrize("mmap", (False, True))
    def test_mmap_file_runs(self, tmp_path, workers, mmap):
        path = tmp_path / "stream.npz"
        dump_stream(star_stream(), path, format="v2")
        legacy_source = str(path) if (workers > 1 or mmap) else star_stream()
        legacy_answer, _ = LegacyRun.run(
            legacy_source, "insertion-only", workers=workers, mmap=mmap
        )
        modern_answer, _ = pipeline_answer(
            job_spec("star", "insertion-only", workers=workers,
                     path=path, mmap=mmap)
        )
        assert_same_answer(legacy_answer, modern_answer)

    def test_windowed_mmap_sharded(self, tmp_path):
        path = tmp_path / "stream.npz"
        dump_stream(star_stream(), path, format="v2")
        legacy_answer, _ = LegacyRun.run(
            str(path), "insertion-only", window_policy="sliding",
            workers=2, mmap=True,
        )
        modern_answer, _ = pipeline_answer(
            job_spec("star", "insertion-only", window_policy="sliding",
                     workers=2, path=path, mmap=True)
        )
        assert_same_answer(legacy_answer, modern_answer)
