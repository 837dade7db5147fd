"""ShardedRunner equivalence: sharded answers match the single-core path.

For every processor family, a :class:`~repro.engine.ShardedRunner` at
1, 2 and 4 workers must produce answers matching a single-core
:class:`~repro.engine.FanoutRunner` over the same stream:

* **bit-identical** for the linear seeded sketches (Count-Min,
  CountSketch, Algorithm 3's sampler banks), the exact structures
  (FullStorage, FirstKWitnessCollector), the tumbling-window wrapper
  (windows are seeded by global index), and — in the no-eviction regime
  where the reservoirs never consume randomness — Algorithms 1–2, the
  top-k wrapper and Star Detection;
* **guarantee-identical** for the counter summaries (Misra-Gries,
  SpaceSaving: merged estimates bracket the true counts with the
  classical mergeable-summaries error) and for Algorithm 2's sampled
  answers in the general (evicting) regime.

Every source kind reaches the workers the same way — each worker reads
the whole source and keeps its own share — so an in-memory stream, a
one-shot chunk iterator and a v2 file give the same answers under every
routing (:class:`TestSourceKinds`).
"""

import math

import numpy as np
import pytest

from repro.baselines import (
    CountMinSketch,
    CountSketch,
    FirstKWitnessCollector,
    FullStorage,
    MisraGries,
    SpaceSaving,
)
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.star_detection import StarDetection
from repro.core.topk import TopKFEwW
from repro.engine import (
    FanoutRunner,
    ShardedRunner,
    TumblingPolicy,
    WindowedProcessor,
)
from repro.engine.sharded import fork_available
from repro.pipeline.registry import RegistryWindowFactory
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    deletion_churn_stream,
    planted_star_graph,
    zipf_frequency_columnar,
)
from repro.streams.persist import dump_stream

WORKERS = (1, 2, 4)
CHUNK = 173  # deliberately odd: chunks straddle every boundary kind


@pytest.fixture(scope="module")
def zipf():
    """Insertion-only Zipf workload (many distinct vertices; evictions)."""
    return zipf_frequency_columnar(
        GeneratorConfig(n=48, m=1500, seed=61), 1500, exponent=1.3
    )


@pytest.fixture(scope="module")
def sparse():
    """Insertion-only workload touching few vertices: every Algorithm 2
    reservoir admits without ever evicting (s >= candidate count), so
    the whole reservoir trajectory is deterministic."""
    rng = np.random.default_rng(7)
    a = rng.integers(0, 12, size=1200)
    b = np.arange(1200, dtype=np.int64)
    return ColumnarEdgeStream(a, b, n=64, m=1200)


@pytest.fixture(scope="module")
def churn():
    """Turnstile workload (inserts and deletes) for Algorithm 3."""
    stream = deletion_churn_stream(
        GeneratorConfig(n=48, m=256, seed=4), star_degree=60, churn_edges=250
    )
    return ColumnarEdgeStream.from_edge_stream(stream)


@pytest.fixture(scope="module")
def star():
    """Planted star (vertex 0, degree 80) for success guarantees."""
    stream = planted_star_graph(
        GeneratorConfig(n=64, m=512, seed=9), star_degree=80,
        background_degree=4,
    )
    return ColumnarEdgeStream.from_edge_stream(stream)


def single_pass(factory, source):
    runner = FanoutRunner(factory(), chunk_size=CHUNK)
    results = runner.run(source)
    return results, runner


def sharded_pass(factory, source, workers, **kwargs):
    runner = ShardedRunner(
        factory(), n_workers=workers, chunk_size=CHUNK, **kwargs
    )
    results = runner.run(source)
    return results, runner


def tumbling_alg2():
    """Algorithm 2 restarted every 256 updates."""
    return WindowedProcessor(
        RegistryWindowFactory.of("insertion-only", {"n": 48, "d": 30, "alpha": 2}),
        TumblingPolicy(256),
        seed=19,
    )


def window_fingerprint(windows):
    """Every tumbling window's span and answer."""
    return [
        (
            window.window_index,
            window.start_update,
            window.end_update,
            None
            if window.value is None
            else (window.value.vertex, window.value.witnesses),
        )
        for window in windows
    ]


def reservoir_state(algorithm):
    """Order-insensitive fingerprint of Algorithm 2's full sampling state:
    per run, the candidate count and every reservoir vertex's witness
    sequence (witness order within a vertex is part of the state)."""
    return [
        (
            run._candidates_seen,
            {
                vertex: tuple(witnesses)
                for vertex, witnesses in run._reservoir.items()
            },
        )
        for run in algorithm.runs
    ]


class TestBitIdenticalLinearSketches:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_count_min_tables_equal(self, zipf, workers):
        factory = lambda: {"cm": CountMinSketch(0.05, 0.05, seed=5)}
        single, _ = single_pass(factory, zipf)
        sharded, _ = sharded_pass(factory, zipf, workers)
        assert np.array_equal(single["cm"]._table, sharded["cm"]._table)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_count_sketch_tables_equal(self, zipf, workers):
        factory = lambda: {"cs": CountSketch(64, rows=3, seed=6)}
        single, _ = single_pass(factory, zipf)
        sharded, _ = sharded_pass(factory, zipf, workers)
        assert np.array_equal(single["cs"]._table, sharded["cs"]._table)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_algorithm3_answer_and_supports_equal(self, churn, workers):
        factory = lambda: {
            "alg3": InsertionDeletionFEwW(48, 256, 60, 2, seed=11, scale=0.1)
        }
        single, single_runner = single_pass(factory, churn)
        sharded, sharded_runner = sharded_pass(factory, churn, workers)
        mine, theirs = single["alg3"], sharded["alg3"]
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert mine.vertex == theirs.vertex
            assert mine.witnesses == theirs.witnesses
        # The linear support trackers must agree coordinate for
        # coordinate, not just on the sampled answer.
        assert (
            dict(single_runner["alg3"]._support.items())
            == dict(sharded_runner["alg3"]._support.items())
        )


class TestBitIdenticalExactStructures:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_full_storage_graphs_equal(self, churn, workers):
        factory = lambda: {"full": FullStorage(48, 256)}
        single, _ = single_pass(factory, churn)
        sharded, _ = sharded_pass(factory, churn, workers)
        assert single["full"]._neighbours == sharded["full"]._neighbours

    @pytest.mark.parametrize("workers", WORKERS)
    def test_first_k_witnesses_equal(self, zipf, workers):
        factory = lambda: {"firstk": FirstKWitnessCollector(48, 8)}
        single, _ = single_pass(factory, zipf)
        sharded, _ = sharded_pass(factory, zipf, workers)
        assert single["firstk"]._degrees == sharded["firstk"]._degrees
        assert single["firstk"]._witnesses == sharded["firstk"]._witnesses


class TestGuaranteeIdenticalCounterSummaries:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_misra_gries_bracket(self, zipf, workers):
        factory = lambda: {"mg": MisraGries(16)}
        sharded, _ = sharded_pass(factory, zipf, workers)
        summary = sharded["mg"]
        true = np.bincount(zipf.a, minlength=zipf.n)
        total = len(zipf)
        assert summary._length == total
        for item in range(zipf.n):
            estimate = summary.estimate(item)
            assert estimate <= true[item]
            assert estimate >= true[item] - total / (16 + 1) - 1e-9

    @pytest.mark.parametrize("workers", WORKERS)
    def test_space_saving_bracket_and_heavy_hitters(self, zipf, workers):
        factory = lambda: {"ss": SpaceSaving(16)}
        sharded, _ = sharded_pass(factory, zipf, workers)
        summary = sharded["ss"]
        true = np.bincount(zipf.a, minlength=zipf.n)
        total = len(zipf)
        for item in range(zipf.n):
            estimate = summary.estimate(item)
            if estimate:
                assert estimate >= summary.guaranteed_count(item)
                assert estimate <= true[item] + total / 16 + 1e-9
        for item in np.flatnonzero(true > total / 16).tolist():
            assert summary.estimate(item) >= true[item]


class TestAlgorithm2:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_no_eviction_regime_bit_identical(self, sparse, workers):
        # s = ceil(ln 64 * 8) = 34 >= 12 candidate vertices: no RNG is
        # ever consumed, so the merged sampling state must equal the
        # single-core state exactly.
        factory = lambda: {"alg2": InsertionOnlyFEwW(64, 40, 2, seed=13)}
        _, single_runner = single_pass(factory, sparse)
        _, sharded_runner = sharded_pass(factory, sparse, workers)
        single_alg = single_runner["alg2"]
        merged_alg = sharded_runner["alg2"]
        assert np.array_equal(
            single_alg._degrees._degrees, merged_alg._degrees._degrees
        )
        assert reservoir_state(single_alg) == reservoir_state(merged_alg)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_planted_star_guarantee(self, star, workers):
        factory = lambda: {"alg2": InsertionOnlyFEwW(64, 80, 2, seed=3)}
        sharded, _ = sharded_pass(factory, star, workers)
        answer = sharded["alg2"]
        assert answer is not None
        assert answer.size >= math.ceil(80 / 2)
        true_neighbours = {
            int(b)
            for a, b in zip(star.a.tolist(), star.b.tolist())
            if a == answer.vertex
        }
        assert answer.witnesses <= true_neighbours

    @pytest.mark.parametrize("workers", WORKERS)
    def test_topk_no_eviction_bit_identical(self, sparse, workers):
        # k covers every candidate vertex, so ranking ties cannot push
        # different vertices past the cut in the two paths.
        factory = lambda: {"topk": TopKFEwW(64, 40, 2, k=12, seed=17)}
        _, single_runner = single_pass(factory, sparse)
        _, sharded_runner = sharded_pass(factory, sparse, workers)
        assert reservoir_state(single_runner["topk"]._inner) == (
            reservoir_state(sharded_runner["topk"]._inner)
        )
        single_results = single_runner["topk"].finalize()
        sharded_results = sharded_runner["topk"].finalize()
        assert sorted(
            (nb.vertex, nb.size, nb.witnesses) for nb in single_results
        ) == sorted(
            (nb.vertex, nb.size, nb.witnesses) for nb in sharded_results
        )


class TestWrappers:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_tumbling_windows_bit_identical(self, zipf, workers):
        factory = lambda: {"win": tumbling_alg2()}
        single, _ = single_pass(factory, zipf)
        sharded, _ = sharded_pass(factory, zipf, workers)
        assert window_fingerprint(single["win"]) == (
            window_fingerprint(sharded["win"])
        )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_star_detection_no_eviction_bit_identical(self, workers):
        # Few distinct vertices => every guess's reservoir admits all
        # candidates; compare the full per-guess sampling state.
        rng = np.random.default_rng(23)
        u = rng.integers(0, 10, size=400)
        v = rng.integers(200, 240, size=400)
        stream = ColumnarEdgeStream(
            np.concatenate([u, v]),
            np.concatenate([v, u]),
            n=512,
            m=512,
            validate=False,
        )
        factory = lambda: {"star": StarDetection(512, 2, eps=1.0, seed=29)}
        _, single_runner = single_pass(factory, stream)
        _, sharded_runner = sharded_pass(factory, stream, workers)
        mine, theirs = single_runner["star"], sharded_runner["star"]
        assert mine.guesses == theirs.guesses
        assert reservoir_state(mine._shared) == reservoir_state(theirs._shared)


class TestFromDisk:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_mmap_file_source_matches_in_memory(
        self, sparse, tmp_path_factory, workers
    ):
        path = tmp_path_factory.mktemp("sharded") / "sparse.npz"
        dump_stream(sparse, path, format="v2")
        factory = lambda: {
            "alg2": InsertionOnlyFEwW(64, 40, 2, seed=13),
            "cm": CountMinSketch(0.05, 0.05, seed=5),
        }
        _, single_runner = single_pass(factory, sparse)
        sharded, sharded_runner = sharded_pass(
            factory, str(path), workers, mmap=True
        )
        assert np.array_equal(
            single_runner["cm"]._table, sharded_runner["cm"]._table
        )
        assert reservoir_state(single_runner["alg2"]) == (
            reservoir_state(sharded_runner["alg2"])
        )

    def test_in_process_shards_match_process_pool(self, zipf, monkeypatch):
        factory = lambda: {"cm": CountMinSketch(0.05, 0.05, seed=5)}
        process, _ = sharded_pass(factory, zipf, 3)
        monkeypatch.setattr("repro.engine.sharded._fork_context", lambda: None)
        in_process, _ = sharded_pass(factory, zipf, 3)
        assert np.array_equal(process["cm"]._table, in_process["cm"]._table)


#: Per routing: the routing the runner must pick, the fixture streamed,
#: a processor factory, and the state compared bit for bit.
ROUTED = {
    "any": (
        "any",
        "churn",
        lambda: {"cs": CountSketch(64, rows=3, seed=6)},
        lambda runner: runner["cs"]._table.tolist(),
    ),
    "vertex": (
        "vertex",
        "sparse",
        lambda: {
            "alg2": InsertionOnlyFEwW(64, 40, 2, seed=13),
            "cm": CountMinSketch(0.05, 0.05, seed=5),
        },
        lambda runner: (
            reservoir_state(runner["alg2"]), runner["cm"]._table.tolist()
        ),
    ),
    "window": (
        ("window", 256),
        "zipf",
        lambda: {"win": tumbling_alg2()},
        lambda runner: window_fingerprint(runner["win"].finalize()),
    ),
}


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSourceKinds:
    """In-memory columns, a boxed edge stream, a one-shot chunk iterator
    and a v2 file all reach the process pool the same way and give the
    single-pass state bit for bit, under every routing."""

    @pytest.mark.parametrize("workers", (2, 4))
    @pytest.mark.parametrize(
        "kind", ("columns", "edge-stream", "chunk-iterator", "file")
    )
    @pytest.mark.parametrize("routing", sorted(ROUTED))
    def test_source_kind_matches_single_pass(
        self, request, tmp_path, routing, kind, workers
    ):
        expected, fixture, factory, state = ROUTED[routing]
        stream = request.getfixturevalue(fixture)
        if kind == "columns":
            source = stream
        elif kind == "edge-stream":
            source = stream.to_edge_stream()
        elif kind == "chunk-iterator":
            source = stream.chunks(CHUNK)
        else:
            source = tmp_path / f"{fixture}.npz"
            dump_stream(stream, source, format="v2")
        _, single_runner = single_pass(factory, stream)
        _, sharded_runner = sharded_pass(factory, source, workers)
        assert sharded_runner.routing() == expected
        assert sharded_runner.fallbacks_used == 0
        assert state(sharded_runner) == state(single_runner)
