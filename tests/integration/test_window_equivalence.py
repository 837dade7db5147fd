"""Window-policy equivalences and guarantees.

Three pillars of the window subsystem:

* **Tumbling over Algorithm 2 is bit-identical to the original
  per-window loop.**  A frozen reimplementation of that bespoke
  per-item loop (fresh Algorithm 2 per window, the same
  ``seed * 1_000_003 + index`` derivation, result() caught per window)
  is compared window by window against ``WindowedProcessor`` over
  ``RegistryWindowFactory.of("insertion-only", ...)`` on seeded
  streams, at chunk size 1 and at a chunk size that straddles window
  boundaries.

* **The smooth-histogram sliding window meets its (1+eps) bucket
  bound** — the answer is an *exact* summary of the trailing ``L``
  updates with ``window <= L <= window + bucket <= (1+eps)*window`` —
  at 1, 2 and 4 ShardedRunner workers (the acceptance criterion), and
  the sharded answers are bit-identical to the single-core pass.

* **Count-based decay shards faithfully**: recent buckets and the
  folded tail match the single-core run at every worker count (the
  inner FullStorage merge is commutative, so the tail is bit-identical).
"""

import functools
import math

import numpy as np
import pytest

from repro.baselines import FullStorage
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    ShardedRunner,
    SlidingPolicy,
    TumblingPolicy,
    WindowedProcessor,
)
from repro.pipeline.registry import RegistryWindowFactory
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    planted_star_graph,
    zipf_frequency_columnar,
)

WORKERS = (1, 2, 4)
CHUNK = 173


# ----------------------------------------------------------------------
# The original tumbling loop, frozen for the equivalence test.
# ----------------------------------------------------------------------


class LegacyTumblingWindow:
    """Byte-for-byte reimplementation of the original tumbling loop."""

    def __init__(self, n, d, alpha, window, seed=0):
        self.n, self.d, self.alpha, self.window = n, d, alpha, window
        self._seed = seed
        self._window_index = 0
        self._updates_in_window = 0
        self._current = self._fresh_instance()
        self.completed = []

    def _fresh_instance(self):
        derived = (self._seed * 1_000_003 + self._window_index) & 0xFFFFFFFF
        return InsertionOnlyFEwW(self.n, self.d, self.alpha, seed=derived)

    def _close_window(self):
        try:
            neighbourhood = self._current.result()
        except AlgorithmFailed:
            neighbourhood = None
        start = self._window_index * self.window
        self.completed.append(
            (
                self._window_index,
                start,
                start + self._updates_in_window,
                neighbourhood,
            )
        )
        self._window_index += 1
        self._updates_in_window = 0
        self._current = self._fresh_instance()

    def process_item(self, item):
        edge = item.edge
        self._current.process_batch(np.array([edge.a]), np.array([edge.b]))
        self._updates_in_window += 1
        if self._updates_in_window == self.window:
            self._close_window()

    def run(self, stream):
        for item in stream:
            self.process_item(item)
        if self._updates_in_window > 0 or (
            not self.completed and self._window_index == 0
        ):
            self._close_window()
        return self.completed


def fingerprint_legacy(completed):
    return [
        (
            index,
            start,
            end,
            None if nb is None else (nb.vertex, nb.witnesses),
        )
        for index, start, end, nb in completed
    ]


def fingerprint_new(windows):
    return [
        (
            w.window_index,
            w.start_update,
            w.end_update,
            None if w.value is None else (w.value.vertex, w.value.witnesses),
        )
        for w in windows
    ]


def alg2(n, d, alpha):
    return RegistryWindowFactory.of(
        "insertion-only", {"n": n, "d": d, "alpha": alpha}
    )


def tumbling_alg2(n, d, alpha, window, seed):
    return WindowedProcessor(alg2(n, d, alpha), TumblingPolicy(window), seed=seed)


class TestTumblingLegacyEquivalence:
    @pytest.mark.parametrize("chunk", (1, CHUNK, 10**6))
    @pytest.mark.parametrize("window", (37, 100, 256))
    @pytest.mark.parametrize("seed", (0, 19))
    def test_engine_path_bit_identical_to_legacy_loop(self, window, seed, chunk):
        stream = zipf_frequency_columnar(
            GeneratorConfig(n=48, m=1500, seed=61), 1500, exponent=1.3
        )
        legacy = LegacyTumblingWindow(48, 30, 2, window, seed=seed)
        legacy_windows = legacy.run(stream)

        refactored = tumbling_alg2(48, 30, 2, window, seed)
        refactored.process(stream.chunks(chunk))
        assert fingerprint_new(refactored.finalize()) == fingerprint_legacy(
            legacy_windows
        )

    def test_chunk_size_one_bit_identical_to_legacy_loop(self):
        stream = planted_star_graph(
            GeneratorConfig(n=32, m=256, seed=7), star_degree=60,
            background_degree=3,
        )
        legacy_windows = LegacyTumblingWindow(32, 20, 2, 50, seed=5).run(stream)
        refactored = tumbling_alg2(32, 20, 2, 50, seed=5)
        refactored.process(ColumnarEdgeStream.from_edge_stream(stream).chunks(1))
        assert fingerprint_new(refactored.finalize()) == fingerprint_legacy(
            legacy_windows
        )

    def test_empty_stream_still_records_one_empty_window(self):
        legacy_windows = LegacyTumblingWindow(8, 2, 1, 4, seed=0).run([])
        refactored = tumbling_alg2(8, 2, 1, 4, seed=0)
        assert fingerprint_new(refactored.finalize()) == fingerprint_legacy(
            legacy_windows
        )


# ----------------------------------------------------------------------
# Sliding (smooth histogram) accuracy at 1/2/4 workers.
# ----------------------------------------------------------------------


def full_storage_factory(n, m, seed):
    return FullStorage(n, m)


@pytest.fixture(scope="module")
def monitoring_stream():
    """Insertion-only stream, one distinct witness per update, so every
    vertex's exact count over any suffix is checkable directly."""
    rng = np.random.default_rng(23)
    a = rng.integers(0, 24, size=4000)
    b = np.arange(4000, dtype=np.int64)
    return ColumnarEdgeStream(a, b, n=24, m=4000, validate=False)


WINDOW = 700
RATIO = 0.25


def sliding_wrapper():
    return WindowedProcessor(
        functools.partial(full_storage_factory, 24, 4000),
        SlidingPolicy(WINDOW, bucket_ratio=RATIO),
        seed=9,
    )


def degrees_of(store):
    return {v: len(ws) for v, ws in store._neighbours.items() if ws}


def exact_suffix_counts(stream, length):
    tail = stream.a[len(stream) - length:]
    return {int(v): int(c) for v, c in zip(*np.unique(tail, return_counts=True))}


class TestSlidingAccuracy:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_one_plus_eps_bucket_bound(self, monitoring_stream, workers):
        """The sliding estimate is an exact recompute over a span within
        the (1+eps) bucket bound of the requested window."""
        runner = ShardedRunner(
            {"win": sliding_wrapper()}, n_workers=workers, chunk_size=CHUNK
        )
        answer = runner.run(monitoring_stream)["win"]
        policy = SlidingPolicy(WINDOW, bucket_ratio=RATIO)
        # Span: within one bucket of the requested window...
        assert WINDOW <= answer.span <= WINDOW + policy.bucket
        assert answer.span <= math.ceil((1 + RATIO) * WINDOW)
        # ...and the summary over that span is exact: sandwiched between
        # the exact recompute at the window and at the bucket bound.
        estimate = degrees_of(answer.processor)
        assert estimate == exact_suffix_counts(monitoring_stream, answer.span)
        lower = exact_suffix_counts(monitoring_stream, WINDOW)
        upper = exact_suffix_counts(
            monitoring_stream, WINDOW + policy.bucket
        )
        for vertex in range(24):
            assert lower.get(vertex, 0) <= estimate.get(vertex, 0)
            assert estimate.get(vertex, 0) <= upper.get(vertex, 0)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_sharded_bit_identical_to_single_core(
        self, monitoring_stream, workers
    ):
        single = FanoutRunner(
            {"win": sliding_wrapper()}, chunk_size=CHUNK
        ).run(monitoring_stream)["win"]
        sharded = ShardedRunner(
            {"win": sliding_wrapper()}, n_workers=workers, chunk_size=CHUNK
        ).run(monitoring_stream)["win"]
        assert (sharded.start_update, sharded.end_update) == (
            single.start_update,
            single.end_update,
        )
        assert (
            sharded.processor._neighbours == single.processor._neighbours
        )

    @pytest.mark.parametrize("workers", WORKERS)
    def test_accuracy_holds_from_mmap_file(
        self, monitoring_stream, tmp_path_factory, workers
    ):
        from repro.streams.persist import dump_stream

        path = tmp_path_factory.mktemp("windows") / "monitoring.npz"
        dump_stream(monitoring_stream, path, format="v2")
        answer = ShardedRunner(
            {"win": sliding_wrapper()},
            n_workers=workers,
            chunk_size=CHUNK,
            mmap=True,
        ).run(str(path))["win"]
        assert WINDOW <= answer.span <= math.ceil((1 + RATIO) * WINDOW)
        assert degrees_of(answer.processor) == exact_suffix_counts(
            monitoring_stream, answer.span
        )


class TestDecaySharded:
    @pytest.mark.parametrize("workers", (2, 4))
    def test_recent_and_tail_match_single_core(self, monitoring_stream, workers):
        def wrapper():
            return WindowedProcessor(
                functools.partial(full_storage_factory, 24, 4000),
                DecayPolicy(bucket_size=300, keep=3),
                seed=4,
            )

        single = FanoutRunner(
            {"win": wrapper()}, chunk_size=CHUNK
        ).run(monitoring_stream)["win"]
        sharded = ShardedRunner(
            {"win": wrapper()}, n_workers=workers, chunk_size=CHUNK
        ).run(monitoring_stream)["win"]
        assert [
            (r.window_index, r.start_update, r.end_update)
            for r in sharded.recent
        ] == [
            (r.window_index, r.start_update, r.end_update)
            for r in single.recent
        ]
        assert sharded.has_tail == single.has_tail
        assert (
            sharded.tail_processor._neighbours
            == single.tail_processor._neighbours
        )
        assert (sharded.tail_start_update, sharded.tail_end_update) == (
            single.tail_start_update,
            single.tail_end_update,
        )


class TestWindowedAlgorithm2Sharded:
    """The production shape: Algorithm 2 under a sliding policy through
    the sharded runner — every bucket is seeded by global index, so any
    worker count reports the same trailing-window verdict."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_sliding_alg2_consistent_across_workers(self, workers):
        rng = np.random.default_rng(31)
        phases = []
        for hot in (3, 9):
            a = np.full(800, hot, dtype=np.int64)
            a[:500] = rng.integers(12, 32, size=500)
            rng.shuffle(a)
            phases.append(a)
        a = np.concatenate(phases)
        b = np.arange(len(a), dtype=np.int64)
        stream = ColumnarEdgeStream(a, b, n=32, m=len(a), validate=False)

        def wrapper():
            return WindowedProcessor(
                alg2(32, 200, 2),
                SlidingPolicy(800, bucket_ratio=0.25),
                seed=6,
            )

        single = FanoutRunner({"w": wrapper()}, chunk_size=CHUNK).run(stream)["w"]
        sharded = ShardedRunner(
            {"w": wrapper()}, n_workers=workers, chunk_size=CHUNK
        ).run(stream)["w"]
        assert single.value is not None
        assert single.value.vertex == 9  # the recent phase's hot vertex
        assert sharded.value is not None
        assert sharded.value.vertex == single.value.vertex
        assert sharded.value.witnesses == single.value.witnesses
        assert sharded.span == single.span
