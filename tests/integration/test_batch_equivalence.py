"""Chunk-size invariance for every structure with a `process_batch`.

The columnar engine's contract: for the deterministic structures and for
the randomized ones driven by a seeded RNG, feeding a stream through
``process_batch`` at any chunk size (including chunks that split a
vertex's d1 crossing) produces exactly the same state, query answers,
space accounting, and success flags as feeding it one update per chunk.
Algorithm 1 is also checked against an RNG-free residency oracle.
Misra-Gries and SpaceSaving use weight-collapsed batch paths whose
counters may legitimately differ across chunk sizes; for those the
tests assert the structures' error guarantees instead.
"""

import random
from collections import defaultdict

import numpy as np
import pytest

from repro.baselines import (
    CountMinSketch,
    CountSketch,
    FirstKWitnessCollector,
    FullStorage,
    MisraGries,
    MisraGriesWithWitnesses,
    SpaceSaving,
)
from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.star_detection import StarDetection
from repro.sketch.exact import ExactSupport
from repro.sketch.l0 import L0SamplerBank
from repro.streams.adapters import bipartite_double_cover_columnar
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    adversarial_interleaved_stream,
    deletion_churn_stream,
    zipf_frequency_stream,
)

#: Each is compared against chunk size 1, one update per chunk.
CHUNK_SIZES = (7, 100, 1000, 10**6)


def zipf(seed, n=64, records=1500, exponent=1.3):
    stream = zipf_frequency_stream(
        GeneratorConfig(n=n, m=records, seed=seed), records, exponent
    )
    return stream, ColumnarEdgeStream.from_edge_stream(stream)


def churn(seed):
    stream = deletion_churn_stream(
        GeneratorConfig(n=20, m=40, seed=seed), star_degree=12, churn_edges=150
    )
    return stream, ColumnarEdgeStream.from_edge_stream(stream)


def assert_residency_oracle(run, a, b):
    """Algorithm 1's state, predicted without its RNG.

    A vertex crosses ``d1`` once and is admitted only at its crossing,
    so a vertex still resident at the end holds the witnesses of its
    ``d1``-th through ``(d1 + d2 - 1)``-th occurrences, in stream order;
    the candidate count is the number of vertices of degree >= ``d1``;
    and the reservoir holds ``min(s, candidates)`` vertices.
    """
    occurrences = defaultdict(list)
    for vertex, witness in zip(a.tolist(), b.tolist()):
        occurrences[vertex].append(witness)
    candidates = sum(len(seen) >= run.d1 for seen in occurrences.values())
    state = run.state()
    assert state.candidates_seen == candidates
    assert len(state.reservoir) == min(run.s, candidates)
    assert sorted(state.slots) == sorted(state.reservoir)
    for vertex, witnesses in state.reservoir.items():
        start = run.d1 - 1
        assert witnesses == occurrences[vertex][start : start + run.d2]


class TestAlgorithm2:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_bit_identical_state(self, seed, chunk):
        _, columnar = zipf(seed)
        per_item, batched = (
            InsertionOnlyFEwW(64, 60, 2, seed=seed).process(columnar.chunks(size))
            for size in (1, chunk)
        )
        for run_item, run_batch in zip(per_item.runs, batched.runs):
            assert run_item.state() == run_batch.state()
        assert per_item.successful == batched.successful
        assert per_item.successful_runs() == batched.successful_runs()
        assert per_item.space_words() == batched.space_words()
        if per_item.successful:
            assert per_item.result().vertex == batched.result().vertex
            assert per_item.result().witnesses == batched.result().witnesses

    def test_chunk_boundary_splits_d1_crossing(self):
        """Chunks cut right at/around the positions where vertices cross d1."""
        stream = adversarial_interleaved_stream(
            GeneratorConfig(n=32, m=4000, seed=5),
            star_degree=200,
            n_decoys=12,
            decoy_degree=30,
        )
        columnar = ColumnarEdgeStream.from_edge_stream(stream)

        def in_chunks_of(size):
            algorithm = SharedDegreeRuns(
                32, [DegResSampling(30, 10, 3, 7)]
            )
            return algorithm.process(columnar.chunks(size))

        per_item = in_chunks_of(1)
        (run_item,) = per_item.runs
        assert_residency_oracle(run_item, columnar.a, columnar.b)
        # Decoy i crosses d1=30 at position 30*i - 1; chunk sizes 29, 30
        # and 31 place boundaries on, before, and after crossings.
        for chunk in (29, 30, 31):
            batched = in_chunks_of(chunk)
            (run_batch,) = batched.runs
            assert run_item.state() == run_batch.state()
            assert per_item.successful == batched.successful
            assert per_item.space_words() == batched.space_words()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk", (1, 7, 1000))
    def test_residency_oracle(self, seed, chunk):
        """Every run of Algorithm 2 (thresholds 1, 15, 30, 45 here) and a
        standalone Algorithm 1 with a reservoir small enough to evict."""
        _, columnar = zipf(seed)
        algorithm = InsertionOnlyFEwW(64, 60, 4, seed=seed)
        algorithm.process(columnar.chunks(chunk))
        single = SharedDegreeRuns(
            64, [DegResSampling(10, 8, 3, seed)]
        )
        single.process(columnar.chunks(chunk))
        for run in algorithm.runs + single.runs:
            assert_residency_oracle(run, columnar.a, columnar.b)


#: Chunk sizes 1 and 7, and (None) the whole stream as one chunk.
EDGE_CHUNKS = (1, 7, None)


def _feed(structure, a, b, chunk):
    chunk = chunk or len(a)
    for lo in range(0, len(a), chunk):
        structure.process_batch(a[lo : lo + chunk], b[lo : lo + chunk])


class TestCrossingScanEdges:
    """The one threshold scan that finds every run's ``d1`` crossings,
    checked against the residency oracle where runs share thresholds
    and at the ends of the vertex range."""

    @staticmethod
    def heavy_tail_stream(n, seed, size=400):
        """Skewed vertex ids that include both 0 and ``n - 1``."""
        rng = np.random.default_rng(seed)
        a = np.minimum(rng.zipf(1.4, size=size) - 1, n - 1)
        a[::5] = n - 1
        return a.astype(np.int64), rng.integers(0, 1000, size=size)

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_runs_sharing_a_threshold(self, seed, chunk):
        a, b = self.heavy_tail_stream(32, seed)
        algorithm = InsertionOnlyFEwW(32, 2, 3, seed=seed)
        assert [run.d1 for run in algorithm.runs] == [1, 1, 1]
        _feed(algorithm, a, b, chunk)
        for run in algorithm.runs:
            assert_residency_oracle(run, a, b)

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_star_detection_ladder(self, chunk):
        """The benchmark's ladder shape: 40 runs over 27 distinct d1."""
        n = 65_536
        rng = np.random.default_rng(3)
        hub = n - 1
        u = np.concatenate([np.full(150, hub), rng.integers(0, 40, size=300)])
        v = np.concatenate(
            [rng.permutation(n - 1)[:150], rng.integers(40, 80, size=300)]
        )
        key = np.minimum(u, v) * n + np.maximum(u, v)
        _, first = np.unique(key, return_index=True)
        first = rng.permutation(first)
        cover = bipartite_double_cover_columnar(u[first], v[first], n, None)
        detector = StarDetection(n, 4, eps=3.0, seed=11)
        runs = detector._shared.runs
        assert (len(runs), len({run.d1 for run in runs})) == (40, 27)
        _feed(detector, cover.a, cover.b, chunk)
        for run in runs:
            assert_residency_oracle(run, cover.a, cover.b)
        assert detector.result().vertex == hub

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_single_vertex(self, chunk):
        a = np.zeros(50, dtype=np.int64)
        b = np.arange(50, dtype=np.int64)
        algorithm = InsertionOnlyFEwW(1, 20, 2, seed=4)
        single = SharedDegreeRuns(1, [DegResSampling(5, 3, 1, 4)])
        for structure in (algorithm, single):
            _feed(structure, a, b, chunk)
            for run in structure.runs:
                assert_residency_oracle(run, a, b)
        assert algorithm.current_degree(0) == 50
        assert algorithm.result().vertex == 0

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_maximal_vertex_id(self, seed, chunk):
        a, b = self.heavy_tail_stream(64, seed)
        algorithm = InsertionOnlyFEwW(64, 40, 4, seed=seed)
        _feed(algorithm, a, b, chunk)
        for run in algorithm.runs:
            assert_residency_oracle(run, a, b)
        assert algorithm.current_degree(63) == int((a == 63).sum())


class TestAlgorithm3:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("chunk", (13, 1000))
    def test_identical_results_fast_mode(self, seed, chunk):
        _, columnar = churn(seed)
        per_item, batched = (
            InsertionDeletionFEwW(20, 40, 8, 2, seed=seed, scale=0.2).process(
                columnar.chunks(size)
            )
            for size in (1, chunk)
        )
        assert per_item.successful == batched.successful
        assert per_item._collected() == batched._collected()
        assert per_item.space_words() == batched.space_words()

    # Exact-mode banks route through the same L0SamplerBank.update_batch
    # as fast mode; their batch/scalar agreement is covered (cheaply) by
    # TestLinearSketches.test_l0_bank_batch_matches_scalar[exact] — the
    # paper's delta = 1/(n^10 d) makes full exact-mode Algorithm 3 runs
    # far too large for the unit suite.


class TestLinearSketches:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_count_min_bit_identical(self, chunk):
        _, columnar = churn(1)
        per_item, batched = (
            CountMinSketch(0.05, 0.05, seed=9).process(columnar.chunks(size))
            for size in (1, chunk)
        )
        assert (per_item._table == batched._table).all()
        assert all(
            per_item.estimate(a) == batched.estimate(a) for a in range(20)
        )

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_count_sketch_bit_identical(self, chunk):
        _, columnar = churn(3)
        per_item, batched = (
            CountSketch(32, rows=5, seed=11).process(columnar.chunks(size))
            for size in (1, chunk)
        )
        assert (per_item._table == batched._table).all()
        assert all(
            per_item.estimate(a) == batched.estimate(a) for a in range(20)
        )

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_l0_bank_batch_matches_scalar(self, mode):
        # A fast bank draws from the support its owner tracks, so in
        # fast mode the updates go to that support.
        rng_a, rng_b = random.Random(5), random.Random(5)
        bank_scalar = L0SamplerBank(50, 4, 0.05, rng_a, mode=mode)
        bank_batch = L0SamplerBank(50, 4, 0.05, rng_b, mode=mode)
        target_scalar, target_batch = (
            (bank_scalar, bank_batch)
            if mode == "exact"
            else (ExactSupport(50), ExactSupport(50))
        )
        updates = [(i % 50, +1) for i in range(120)] + [
            (i % 7, -1) for i in range(21)
        ]
        for index, delta in updates:
            target_scalar.update(index, delta)
        target_batch.update_batch(
            np.array([u[0] for u in updates]),
            np.array([u[1] for u in updates]),
        )
        supports = (
            (None, None)
            if mode == "exact"
            else (target_scalar.support_array(), target_batch.support_array())
        )
        assert bank_scalar.sample_all(supports[0]) == bank_batch.sample_all(
            supports[1]
        )
        assert bank_scalar.space_words() == bank_batch.space_words()


class TestExactStores:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_full_storage_identical(self, chunk):
        _, columnar = churn(4)
        per_item, batched = (
            FullStorage(20, 40).process(columnar.chunks(size)) for size in (1, chunk)
        )
        assert per_item._neighbours == batched._neighbours
        assert per_item.space_words() == batched.space_words()

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_first_k_collector_identical(self, chunk):
        _, columnar = zipf(6)
        per_item, batched = (
            FirstKWitnessCollector(64, 5).process(columnar.chunks(size))
            for size in (1, chunk)
        )
        assert per_item._witnesses == batched._witnesses
        assert per_item._degrees == batched._degrees
        assert per_item.space_words() == batched.space_words()

    @pytest.mark.parametrize("chunk", (7, 1000))
    def test_mg_with_witnesses_identical(self, chunk):
        _, columnar = zipf(9)
        per_item, batched = (
            MisraGriesWithWitnesses(6, 9).process(columnar.chunks(size))
            for size in (1, chunk)
        )
        assert per_item._counters == batched._counters
        assert per_item._witnesses == batched._witnesses
        assert per_item.witnesses_lost == batched.witnesses_lost


class TestWeightedSummaries:
    """MG / SpaceSaving batch paths are weight-collapsed: equivalence is
    at the level of the structures' guarantees, not counter values."""

    @pytest.mark.parametrize("chunk", (1, 64, 1000))
    def test_misra_gries_guarantees_hold(self, chunk):
        stream, columnar = zipf(7)
        truth = {}
        for item in stream:
            truth[item.edge.a] = truth.get(item.edge.a, 0) + 1
        summary = MisraGries(8).process(columnar.chunks(chunk))
        assert summary._length == len(stream)
        assert len(summary._counters) <= summary.k
        bound = summary.error_bound()
        for vertex, count in truth.items():
            estimate = summary.estimate(vertex)
            assert estimate <= count
            assert estimate >= count - bound

    @pytest.mark.parametrize("chunk", (1, 64, 1000))
    def test_space_saving_guarantees_hold(self, chunk):
        stream, columnar = zipf(8)
        truth = {}
        for item in stream:
            truth[item.edge.a] = truth.get(item.edge.a, 0) + 1
        summary = SpaceSaving(8).process(columnar.chunks(chunk))
        assert summary._length == len(stream)
        assert len(summary._counters) <= summary.k
        min_counter = min(summary._counters.values())
        assert min_counter <= len(stream) / summary.k
        for vertex, count in truth.items():
            if vertex in summary._counters:
                assert summary.estimate(vertex) >= count
                assert summary.guaranteed_count(vertex) <= count

    def test_batch_matches_per_item_on_grouped_streams(self):
        """When every item's occurrences are consecutive, the weighted
        batch path reproduces the scalar update trajectory exactly."""
        items = [0] * 5 + [1] * 3 + [2] * 4 + [3] * 2 + [4] * 6
        a = np.array(items, dtype=np.int64)
        b = np.arange(len(items), dtype=np.int64)
        per_item = SpaceSaving(3)
        for vertex in items:
            per_item.update(vertex)
        batched = SpaceSaving(3)
        batched.process_batch(a, b)
        assert per_item._counters == batched._counters
        assert per_item._overestimates == batched._overestimates


class TestInsertionOnlyGuards:
    def test_batch_rejects_deletions(self):
        a = np.array([1, 1])
        b = np.array([1, 2])
        sign = np.array([1, -1])
        with pytest.raises(ValueError):
            InsertionOnlyFEwW(4, 2, 1, seed=0).process_batch(a, b, sign)
        with pytest.raises(ValueError):
            SharedDegreeRuns(
                4, [DegResSampling(1, 1, 1, 0)]
            ).process_batch(a, b, sign)
        with pytest.raises(ValueError):
            MisraGries(4).process_batch(a, b, sign)
        with pytest.raises(ValueError):
            SpaceSaving(4).process_batch(a, b, sign)
        with pytest.raises(ValueError):
            FirstKWitnessCollector(4, 2).process_batch(a, b, sign)
