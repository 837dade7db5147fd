"""Unit tests for the window-policy subsystem (repro.engine.windows)."""

import functools
import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import CountMinSketch, FullStorage
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    SlidingPolicy,
    TumblingPolicy,
    WindowedProcessor,
    derive_bucket_seed,
    ensure_mergeable,
)
from repro.engine import windows
from repro.pipeline.registry import RegistryWindowFactory
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.edge import DELETE


def full_storage_factory(n, m, seed):
    """Module-level (picklable) inner factory for a deterministic inner."""
    return FullStorage(n, m)


def make_full(n=16, m=2000):
    return functools.partial(full_storage_factory, n, m)


def frozen_queries():
    """The integration suite's frozen legacy window queries."""
    path = (
        Path(__file__).parents[1]
        / "integration"
        / "test_window_query_equivalence.py"
    )
    spec = importlib.util.spec_from_file_location("frozen_window_queries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alg2(n, d, alpha):
    """Per-bucket Algorithm 2 through the registry."""
    return RegistryWindowFactory.of(
        "insertion-only", {"n": n, "d": d, "alpha": alpha}
    )


def make_stream(count, n=16, m=None, seed=3):
    m = m or count
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=count)
    b = np.arange(count, dtype=np.int64)
    return ColumnarEdgeStream(a, b, n=n, m=m, validate=False)


class TestPolicyValidation:
    def test_tumbling_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            TumblingPolicy(0)

    def test_sliding_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="bucket_ratio"):
            SlidingPolicy(100, bucket_ratio=0.0)
        with pytest.raises(ValueError, match="bucket_ratio"):
            SlidingPolicy(100, bucket_ratio=1.5)

    def test_decay_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="bucket_size"):
            DecayPolicy(0)
        with pytest.raises(ValueError, match="keep"):
            DecayPolicy(10, keep=0)

    def test_sliding_bucket_arithmetic(self):
        policy = SlidingPolicy(600, bucket_ratio=0.25)
        assert policy.bucket == 150
        assert policy.retained == 5
        tiny = SlidingPolicy(3, bucket_ratio=0.01)
        assert tiny.bucket >= 1

    def test_wrapper_rejects_non_policy(self):
        with pytest.raises(TypeError, match="WindowPolicy"):
            WindowedProcessor(make_full(), policy=object())


class TestInnerValidation:
    """The ensure_stream_processor / WindowedProcessor interaction."""

    def test_nested_window_routing_is_a_clear_conflict(self):
        """A window-routed inner processor (e.g. another windowed
        wrapper) cannot be nested: the outer wrapper already owns the
        ('window', bucket) partition."""
        factory = functools.partial(
            _tumbling_inner_factory, 16, 4, 2, 8
        )
        with pytest.raises(ValueError, match="cannot be nested"):
            WindowedProcessor(factory, TumblingPolicy(32))
        with pytest.raises(ValueError, match=r"\('window', 8\)"):
            WindowedProcessor(factory, SlidingPolicy(32))

    def test_vertex_routed_inner_is_fine(self):
        # Algorithm 2 declares "vertex" routing; inside a bucket there
        # is no further sharding, so the wrapper accepts it.
        WindowedProcessor(alg2(16, 4, 2), TumblingPolicy(8))

    def test_nonconforming_inner_reports_missing_methods(self):
        with pytest.raises(TypeError, match="process_batch"):
            WindowedProcessor(lambda seed: object(), TumblingPolicy(8))

    def test_sliding_requires_mergeable_inner(self):
        with pytest.raises(TypeError, match="no merge"):
            WindowedProcessor(
                lambda seed: _UnmergeableProcessor(), SlidingPolicy(8)
            )

    def test_tumbling_accepts_unmergeable_inner(self):
        # Tumbling finalizes buckets at close; it never merges inners.
        WindowedProcessor(lambda seed: _UnmergeableProcessor(), TumblingPolicy(8))


def _tumbling_inner_factory(n, d, alpha, window, seed):
    return WindowedProcessor(alg2(n, d, alpha), TumblingPolicy(window), seed=seed)


class _UnmergeableProcessor:
    def process_batch(self, a, b, sign=None):
        pass

    def finalize(self):
        return None


class TestSeedDerivation:
    def test_matches_pre_refactor_formula(self):
        assert derive_bucket_seed(7, 3) == (7 * 1_000_003 + 3) & 0xFFFFFFFF

    def test_buckets_get_global_index_seeds(self):
        seen = []

        def recording_factory(seed):
            seen.append(seed)
            return FullStorage(8, 64)

        wrapper = WindowedProcessor(recording_factory, TumblingPolicy(4), seed=5)
        stream = make_stream(12, n=8, m=64)
        wrapper.process_batch(stream.a, stream.b, stream.sign)
        assert seen == [derive_bucket_seed(5, i) for i in range(4)]


class TestTumblingPolicy:
    def test_records_match_boundaries(self):
        wrapper = WindowedProcessor(make_full(), TumblingPolicy(5), seed=0)
        stream = make_stream(12)
        wrapper.process_batch(stream.a, stream.b, stream.sign)
        records = wrapper.finalize()
        assert [(r.window_index, r.start_update, r.end_update) for r in records] == [
            (0, 0, 5), (1, 5, 10), (2, 10, 12)
        ]

    def test_empty_stream_records_one_empty_window(self):
        wrapper = WindowedProcessor(make_full(), TumblingPolicy(5), seed=0)
        records = wrapper.finalize()
        assert len(records) == 1
        assert records[0].end_update == 0

    def test_chunk_size_invariance(self):
        results = []
        for chunk in (1, 3, 7, 100):
            wrapper = WindowedProcessor(make_full(), TumblingPolicy(5), seed=0)
            stream = make_stream(23)
            for a, b, sign in stream.chunks(chunk):
                wrapper.process_batch(a, b, sign)
            results.append(
                [
                    (r.window_index, sorted(
                        (v, tuple(sorted(ws)))
                        for v, ws in r.value._neighbours.items()
                    ))
                    for r in wrapper.finalize()
                ]
            )
        assert all(result == results[0] for result in results)


class TestSlidingPolicy:
    def test_span_within_bucket_bound(self):
        policy = SlidingPolicy(600, bucket_ratio=0.25)
        wrapper = WindowedProcessor(make_full(16, 3000), policy, seed=0)
        stream = make_stream(2500, m=3000)
        answer = wrapper.process(stream).finalize()
        assert 600 <= answer.span <= 600 + policy.bucket
        assert answer.end_update == 2500

    def test_merged_summary_is_exact_over_span(self):
        policy = SlidingPolicy(600, bucket_ratio=0.25)
        wrapper = WindowedProcessor(make_full(16, 3000), policy, seed=0)
        stream = make_stream(2500, m=3000)
        answer = wrapper.process(stream).finalize()
        tail = stream.a[-answer.span:]
        exact = {
            int(v): int(c) for v, c in zip(*np.unique(tail, return_counts=True))
        }
        got = {
            v: len(ws)
            for v, ws in answer.processor._neighbours.items()
            if ws
        }
        assert got == exact

    def test_short_stream_covers_everything(self):
        policy = SlidingPolicy(600, bucket_ratio=0.25)
        wrapper = WindowedProcessor(make_full(), policy, seed=0)
        stream = make_stream(100)
        answer = wrapper.process(stream).finalize()
        assert answer.start_update == 0
        assert answer.span == 100

    def test_memory_is_bounded_by_retained(self):
        policy = SlidingPolicy(100, bucket_ratio=0.25)
        wrapper = WindowedProcessor(make_full(16, 5000), policy, seed=0)
        stream = make_stream(5000, m=5000)
        wrapper.process(stream)
        assert len(wrapper._state) <= policy.retained

    def test_finalize_is_repeatable(self):
        # Buckets stay live (the merge runs over copies), so a second
        # finalize reports the same answer.
        policy = SlidingPolicy(60, bucket_ratio=0.5)
        wrapper = WindowedProcessor(make_full(16, 500), policy, seed=0)
        stream = make_stream(400, m=500)
        first = wrapper.process(stream).finalize()
        second = wrapper.finalize()
        assert first.span == second.span
        assert first.processor._neighbours == second.processor._neighbours


class TestDecayPolicy:
    def test_recent_plus_tail_partition_the_stream(self):
        policy = DecayPolicy(bucket_size=100, keep=3)
        wrapper = WindowedProcessor(make_full(16, 1000), policy, seed=0)
        stream = make_stream(950, m=1000)
        answer = wrapper.process(stream).finalize()
        assert [r.window_index for r in answer.recent] == [7, 8, 9]
        assert answer.recent[-1].end_update == 950
        assert answer.has_tail
        assert (answer.tail_start_update, answer.tail_end_update) == (0, 700)
        # Tail + recent cover every update exactly once.
        tail_degrees = {
            v: len(ws)
            for v, ws in answer.tail_processor._neighbours.items()
            if ws
        }
        exact = {
            int(v): int(c)
            for v, c in zip(*np.unique(stream.a[:700], return_counts=True))
        }
        assert tail_degrees == exact

    def test_no_tail_until_keep_exceeded(self):
        policy = DecayPolicy(bucket_size=100, keep=5)
        wrapper = WindowedProcessor(make_full(16, 500), policy, seed=0)
        stream = make_stream(450, m=500)
        answer = wrapper.process(stream).finalize()
        assert not answer.has_tail
        assert len(answer.recent) == 5


class TestMergeableLayer:
    def test_wrapper_passes_ensure_mergeable(self):
        wrapper = WindowedProcessor(make_full(), SlidingPolicy(40), seed=0)
        ensure_mergeable(wrapper)
        assert wrapper.shard_routing == ("window", SlidingPolicy(40).bucket)

    def test_split_after_processing_raises(self):
        wrapper = WindowedProcessor(make_full(), TumblingPolicy(4), seed=0)
        stream = make_stream(6)
        wrapper.process_batch(stream.a, stream.b, stream.sign)
        with pytest.raises(RuntimeError, match="before processing"):
            wrapper.split(2)

    def test_merge_rejects_policy_mismatch(self):
        one = WindowedProcessor(make_full(), TumblingPolicy(4), seed=0)
        other = WindowedProcessor(make_full(), TumblingPolicy(8), seed=0)
        with pytest.raises(ValueError, match="different policies or seeds"):
            one.merge(other)

    def test_merge_rejects_seed_mismatch(self):
        one = WindowedProcessor(make_full(), SlidingPolicy(40), seed=1)
        other = WindowedProcessor(make_full(), SlidingPolicy(40), seed=2)
        with pytest.raises(ValueError, match="different policies or seeds"):
            one.merge(other)

    def test_split_merge_equals_single_pass(self):
        stream = make_stream(1000, m=1000)
        single = WindowedProcessor(make_full(16, 1000), SlidingPolicy(300), seed=0)
        single_answer = single.process(stream).finalize()

        shards = WindowedProcessor(
            make_full(16, 1000), SlidingPolicy(300), seed=0
        ).split(3)
        # Feed each shard exactly its own buckets, as window routing does.
        bucket = SlidingPolicy(300).bucket
        for start in range(0, 1000, bucket):
            owner = (start // bucket) % 3
            shards[owner].process_batch(
                stream.a[start:start + bucket],
                stream.b[start:start + bucket],
                stream.sign[start:start + bucket],
            )
        merged = shards[0].merge(shards[1]).merge(shards[2])
        merged_answer = merged.finalize()
        assert merged_answer.span == single_answer.span
        assert (
            merged_answer.processor._neighbours
            == single_answer.processor._neighbours
        )


class TestFanoutIntegration:
    def test_windowed_and_plain_processors_share_one_pass(self):
        stream = make_stream(500, m=500)
        results = FanoutRunner(
            {
                "sliding": WindowedProcessor(
                    make_full(16, 500), SlidingPolicy(120), seed=0
                ),
                "whole": FullStorage(16, 500),
            },
            chunk_size=64,
        ).run(stream)
        assert results["sliding"].span >= 120
        whole = {
            int(v): int(c)
            for v, c in zip(*np.unique(stream.a, return_counts=True))
        }
        got = {
            v: len(ws)
            for v, ws in results["whole"]._neighbours.items()
            if ws
        }
        assert got == whole


class TestMidStreamQuery:
    """WindowedProcessor.query(): answers at any point, no state change."""

    def _fed(self, policy, count=500):
        processor = WindowedProcessor(make_full(16, 500), policy, seed=0)
        stream = make_stream(count, m=500)
        processor.process_batch(stream.a, stream.b, stream.sign)
        return processor

    def test_sliding_query_covers_up_to_current_update(self):
        policy = SlidingPolicy(120)
        processor = WindowedProcessor(make_full(16, 500), policy, seed=0)
        stream = make_stream(500, m=500)
        # Feed to a position that is NOT a bucket boundary.
        position = 4 * policy.bucket + 7
        processor.process_batch(
            stream.a[:position], stream.b[:position], stream.sign[:position]
        )
        answer = processor.query()
        assert answer.end_update == position
        assert 120 <= answer.span <= 120 + policy.bucket
        # The merged summary is exact over the covered span.
        covered = slice(answer.start_update, answer.end_update)
        expect = {
            int(v): int(c)
            for v, c in zip(*np.unique(stream.a[covered], return_counts=True))
        }
        got = {
            v: len(ws)
            for v, ws in answer.processor._neighbours.items()
            if ws
        }
        assert got == expect

    def test_query_does_not_disturb_the_final_answer(self):
        policy = SlidingPolicy(120)
        probed = WindowedProcessor(make_full(16, 500), policy, seed=0)
        plain = WindowedProcessor(make_full(16, 500), policy, seed=0)
        stream = make_stream(500, m=500)
        step = 83
        for start in range(0, 500, step):
            stop = min(start + step, 500)
            for processor in (probed, plain):
                processor.process_batch(
                    stream.a[start:stop], stream.b[start:stop],
                    stream.sign[start:stop],
                )
            probed.query()  # repeated queries must be side-effect free
            probed.query()
        final_probed = probed.finalize()
        final_plain = plain.finalize()
        assert final_probed.span == final_plain.span
        assert (
            final_probed.processor._neighbours
            == final_plain.processor._neighbours
        )

    def test_tumbling_query_reports_completed_windows_only(self):
        processor = self._fed(TumblingPolicy(150), count=500)
        records = processor.query()
        # 500 updates = 3 closed windows + 50 in flight: the historical
        # "query the completed windows" semantics.
        assert [record.window_index for record in records] == [0, 1, 2]
        assert processor.query() == records

    def test_decay_query_includes_partial_bucket(self):
        processor = self._fed(DecayPolicy(100, keep=2), count=250)
        answer = processor.query()
        # Buckets 0..1 closed and retained (folding starts beyond
        # keep); bucket 2 in flight appears as the newest recent entry,
        # so recent transiently shows keep + 1 buckets.
        assert [record.end_update for record in answer.recent] == [100, 200, 250]
        assert not answer.has_tail
        final = processor.finalize()
        # finalize closes bucket 2 for real and folds bucket 0 away.
        assert final.has_tail
        assert [record.end_update for record in final.recent] == [200, 250]

    def test_decay_probes_reuse_the_tail_value_memo(self, monkeypatch):
        """Probes with no fold between them finalize the folded tail
        once: the tail-value memo lands in the live state."""
        processor = self._fed(DecayPolicy(100, keep=2), count=450)
        tail = processor._state["tail"]
        tail_copies = []
        finalized = []
        real_clone = windows.clone_summary
        real_finalize = FullStorage.finalize

        def clone(instance):
            duplicate = real_clone(instance)
            if instance is tail:
                tail_copies.append(duplicate)
            return duplicate

        def finalize(store):
            if store is tail or any(store is copy for copy in tail_copies):
                finalized.append(store)
            return real_finalize(store)

        monkeypatch.setattr(windows, "clone_summary", clone)
        monkeypatch.setattr(FullStorage, "finalize", finalize)
        legacy_decay_query = frozen_queries().legacy_decay_query

        def fingerprint(answer):
            return (
                [(r.end_update, r.value._neighbours) for r in answer.recent],
                answer.tail_value._neighbours,
                answer.tail_end_update,
            )

        stream = make_stream(500, m=500)
        for stop in (460, 470, 480):  # all inside bucket 4: no fold
            processor.process_batch(
                stream.a[stop - 10 : stop], stream.b[stop - 10 : stop]
            )
            assert fingerprint(processor.query()) == fingerprint(
                legacy_decay_query(processor)
            )
        assert processor._state["tail"] is tail
        assert len(finalized) == 1  # once per tail span, not per probe
        assert processor._state["_tail_record"][0] == (0, 200)

    def test_query_on_empty_processor(self):
        sliding = WindowedProcessor(make_full(16, 500), SlidingPolicy(120),
                                    seed=0)
        assert sliding.query() is None
        tumbling = WindowedProcessor(make_full(16, 500), TumblingPolicy(100),
                                     seed=0)
        assert tumbling.query() == []


def star_burst(vertex, degree, b_offset):
    """One vertex's burst of ``degree`` edges (distinct witnesses)."""
    a = np.full(degree, vertex, dtype=np.int64)
    b = np.arange(b_offset, b_offset + degree, dtype=np.int64)
    return a, b


def bursts(*specs, m=300):
    a, b = zip(*(star_burst(*spec) for spec in specs))
    a, b = np.concatenate(a), np.concatenate(b)
    return ColumnarEdgeStream(a, b, n=10, m=m, validate=False)


class TestAlgorithm2Tumbling:
    """Algorithm 2 restarted per window, each window answering alone."""

    def test_per_window_heavy_item_changes(self):
        stream = bursts((0, 10, 0), (1, 10, 100), (2, 10, 200))
        wrapper = WindowedProcessor(alg2(10, 10, 1), TumblingPolicy(10), seed=1)
        records = wrapper.process(stream).finalize()
        assert [r.value.vertex for r in records if r.found] == [0, 1, 2]
        assert records[-1].value.vertex == 2  # the latest window's answer

    def test_window_without_heavy_item_reports_none(self):
        a = np.arange(8, dtype=np.int64)
        stream = ColumnarEdgeStream(a, a, n=10, m=10, validate=False)
        wrapper = WindowedProcessor(alg2(10, 5, 1), TumblingPolicy(4), seed=2)
        records = wrapper.process(stream).finalize()
        assert len(records) == 2
        assert not any(record.found for record in records)

    def test_flush_closes_partial_window(self):
        wrapper = WindowedProcessor(alg2(10, 2, 1), TumblingPolicy(4), seed=3)
        wrapper.process(bursts((0, 6, 0), m=10))
        assert len(wrapper.query()) == 1  # completed windows only
        wrapper.flush()
        assert [r.end_update for r in wrapper.query()] == [4, 6]

    def test_flush_on_exact_boundary_records_nothing(self):
        wrapper = WindowedProcessor(alg2(10, 2, 1), TumblingPolicy(4), seed=4)
        wrapper.process(bursts((0, 4, 0), m=10))
        wrapper.flush()
        assert len(wrapper.query()) == 1

    def test_witnesses_come_from_own_window(self):
        stream = bursts((0, 8, 0), (0, 8, 50), m=100)
        wrapper = WindowedProcessor(alg2(10, 8, 1), TumblingPolicy(8), seed=6)
        first, second = wrapper.process(stream).finalize()
        assert first.value.witnesses <= set(range(8))
        assert second.value.witnesses <= set(range(50, 58))

    def test_space_is_live_instance_plus_latest_found_answer(self):
        stream = bursts((0, 10, 0), (1, 3, 10), m=100)
        wrapper = WindowedProcessor(alg2(10, 10, 2), TumblingPolicy(10), seed=7)
        wrapper.process(stream)
        found, pending = wrapper.query()[0], wrapper._current
        assert found.found
        assert wrapper.space_words() == (
            pending.space_words() + 1 + 2 * found.value.size
        )


#: (registry entry, params, a boundary-crossing chunk it rejects).
REJECTING_INNERS = {
    "alg2-deletion": (
        "insertion-only", {"n": 10, "d": 2, "alpha": 1},
        (np.arange(6) % 10, np.arange(6), np.array([1, 1, 1, 1, 1, DELETE])),
    ),
    "alg3-out-of-range": (
        "insertion-deletion", {"n": 10, "m": 16, "d": 2, "alpha": 1},
        (np.arange(6), np.array([0, 1, 2, 3, 4, 16]), None),
    ),
}

POLICIES = {
    "tumbling": TumblingPolicy(4),
    "sliding": SlidingPolicy(8, bucket_ratio=0.5),
    "decay": DecayPolicy(4, keep=2),
}


class TestRejectedChunk:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("inner", sorted(REJECTING_INNERS))
    def test_crossing_chunk_is_rejected_whole(self, inner, policy):
        """A chunk spanning two buckets is checked before it is split:
        it raises with no bucket closed, and the wrapper can still
        split."""
        name, params, (a, b, sign) = REJECTING_INNERS[inner]
        wrapper = WindowedProcessor(
            RegistryWindowFactory.of(name, params), POLICIES[policy], seed=0
        )
        assert len(a) > wrapper.policy.bucket
        before = pickle.dumps(wrapper)
        with pytest.raises(ValueError):
            wrapper.process_batch(a, b, sign)
        assert pickle.dumps(wrapper) == before
        assert len(wrapper.split(2)) == 2


def seed_recording_count_min(seen, seed):
    seen.append(seed)
    return CountMinSketch(0.1, 0.1, seed=seed)


class TestEqualSeedInner:
    """An inner whose merge needs equal seeds gets bucket 0's seed in
    every bucket under sliding and decay."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bucket_seeds(self, policy):
        seen = []
        factory = functools.partial(seed_recording_count_min, seen)
        wrapper = WindowedProcessor(factory, POLICIES[policy], seed=5)
        stream = make_stream(12, n=8, m=64)
        wrapper.process(stream).finalize()
        if policy == "tumbling":
            assert seen == [derive_bucket_seed(5, i) for i in range(4)]
        else:
            assert seen == [derive_bucket_seed(5, 0)] * 4

    def test_sliding_answer_equals_one_sketch_over_the_span(self):
        stream = make_stream(50, n=8, m=64)
        wrapper = WindowedProcessor(
            functools.partial(seed_recording_count_min, []),
            SlidingPolicy(16, bucket_ratio=0.25), seed=5,
        )
        answer = wrapper.process(stream.chunks(7)).finalize()
        span = slice(answer.start_update, answer.end_update)
        whole = CountMinSketch(0.1, 0.1, seed=derive_bucket_seed(5, 0))
        whole.process_batch(stream.a[span], stream.b[span])
        assert np.array_equal(answer.processor._table, whole._table)


def recording_alg2(seen, seed):
    seen.append(seed)
    return alg2(16, 4, 2)(seed)


class TestSplitBuilds:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_each_shard_builds_only_its_first_bucket(self, policy):
        """``split(W)`` makes W factory calls, one per shard, seeded
        with that shard's first global bucket index."""
        seen = []
        wrapper = WindowedProcessor(
            functools.partial(recording_alg2, seen), POLICIES[policy], seed=5
        )
        seen.clear()
        shards = wrapper.split(3)
        assert seen == [derive_bucket_seed(5, offset) for offset in range(3)]
        assert [shard._bucket_index for shard in shards] == [0, 1, 2]
