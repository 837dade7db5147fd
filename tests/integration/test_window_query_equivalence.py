"""Frozen-legacy equivalence for the cached window query path.

``WindowedProcessor.query()`` got a fast path this PR: sliding states
carry a suffix-merge cache (:class:`SuffixCacheList`) so repeated
probes re-clone one memoized fold instead of re-merging every retained
bucket, ``clone_summary`` prefers a structure-provided ``clone()`` over
``copy.deepcopy``, and the decay policy memoizes closed-bucket records
and the tail value.

These tests pin the cached path against *frozen copies of the legacy
query semantics* embedded below — a plain ``copy.deepcopy`` left-fold
with no caches anywhere — not against the current policy code, so a
cache that leaks state between probes (or between a probe and the
final answer) cannot pass by being compared to itself.

Coverage per the acceptance criterion: sliding and decay policies, the
probe-under-load path at several ``probe_every`` intervals (manual
chunk loops and the real ``Pipeline.run(probe_every=...)`` hook, which
is fanout-only by design), and post-run merged-wrapper queries at 1, 2
and 4 :class:`ShardedRunner` workers including mmap file sources —
over both a deepcopy-cloned inner (FullStorage) and a ``clone()``-fast-
path inner (Algorithm 2).  Every registry entry that builds under a
sliding window is pinned the same way, and a steady-state probe is held
to two clones per processor: merges leave their argument alone, so a
fold clones only the summary it merges into.
"""

import copy
import functools
import math
import pickle

import numpy as np
import pytest

from repro.baselines import (
    CountMinSketch,
    CountSketch,
    FullStorage,
    MisraGries,
    SpaceSaving,
)
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    ShardedRunner,
    SlidingPolicy,
    WindowedProcessor,
)
from repro.engine import windows
from repro.engine.windows import (
    Bucket,
    DecayAnswer,
    SlidingWindowAnswer,
    WindowRecord,
)
from repro.pipeline.registry import RegistryWindowFactory
from repro.sketch.bloom import BloomDedup
from repro.sketch.l0 import L0EdgeBank
from repro.streams.columnar import ColumnarEdgeStream

WORKERS = (1, 2, 4)
CHUNK = 173
WINDOW = 700
RATIO = 0.25
PROBE_INTERVALS = (97, 613)


# ----------------------------------------------------------------------
# Frozen legacy query semantics (pre-cache deepcopy left-folds).
# ----------------------------------------------------------------------


def _legacy_partial(wrapper):
    if wrapper._updates <= 0:
        return None
    start = wrapper._bucket_index * wrapper.policy.bucket
    return Bucket(
        wrapper._bucket_index,
        start,
        start + wrapper._updates,
        copy.deepcopy(wrapper._current),
    )


def legacy_sliding_query(wrapper):
    """Frozen pre-cache sliding query: backward span scan, then a plain
    ``copy.deepcopy`` left-fold over the suffix — no suffix cache, no
    ``clone()`` fast path.  Never mutates the wrapper (all folds run on
    deep copies), so it can shadow a live probed wrapper."""
    policy = wrapper.policy
    state = list(wrapper._state)
    partial = _legacy_partial(wrapper)
    n_state = len(state)
    if n_state == 0 and partial is None:
        return None
    covered = partial.count if partial is not None else 0
    start = n_state
    if covered < policy.window:
        while start > 0:
            start -= 1
            covered += state[start].count
            if covered >= policy.window:
                break
    merged = None
    if start < n_state:
        merged = copy.deepcopy(state[start].instance)
        for bucket in state[start + 1 :]:
            merged = merged.merge(copy.deepcopy(bucket.instance))
    if merged is None:
        merged = copy.deepcopy(partial.instance)
    elif partial is not None:
        merged = merged.merge(copy.deepcopy(partial.instance))
    return SlidingWindowAnswer(
        window=policy.window,
        bucket=policy.bucket,
        start_update=state[start].start if start < n_state else partial.start,
        end_update=partial.end if partial is not None else state[-1].end,
        n_buckets=(n_state - start) + (1 if partial is not None else 0),
        processor=merged,
        value=merged.finalize(),
    )


def legacy_decay_query(wrapper):
    """Frozen pre-memo decay query: the in-progress bucket rides along
    as the newest recent bucket, every record re-finalized from a deep
    copy — no record memo, no tail-value memo."""
    state = wrapper._state
    buckets = list(state["recent"])
    partial = _legacy_partial(wrapper)
    if partial is not None:
        buckets.append(partial)
    recent = [
        WindowRecord(
            bucket.index, bucket.start, bucket.end,
            copy.deepcopy(bucket.instance).finalize(),
        )
        for bucket in buckets
    ]
    tail = state["tail"]
    return DecayAnswer(
        recent=recent,
        tail_processor=tail,
        tail_value=None if tail is None else copy.deepcopy(tail).finalize(),
        tail_start_update=state["tail_start"],
        tail_end_update=state["tail_end"],
    )


# ----------------------------------------------------------------------
# Fixtures and fingerprints.
# ----------------------------------------------------------------------


def full_storage_factory(n, m, seed):
    return FullStorage(n, m)


@pytest.fixture(scope="module")
def monitoring_stream():
    rng = np.random.default_rng(23)
    a = rng.integers(0, 24, size=4000)
    b = np.arange(4000, dtype=np.int64)
    return ColumnarEdgeStream(a, b, n=24, m=4000, validate=False)


def sliding_wrapper():
    return WindowedProcessor(
        functools.partial(full_storage_factory, 24, 4000),
        SlidingPolicy(WINDOW, bucket_ratio=RATIO),
        seed=9,
    )


def decay_wrapper():
    return WindowedProcessor(
        functools.partial(full_storage_factory, 24, 4000),
        DecayPolicy(bucket_size=300, keep=3),
        seed=4,
    )


def alg2(n, d, alpha):
    return RegistryWindowFactory.of(
        "insertion-only", {"n": n, "d": d, "alpha": alpha}
    )


def alg2_sliding_wrapper():
    return WindowedProcessor(
        alg2(24, 200, 2),
        SlidingPolicy(WINDOW, bucket_ratio=RATIO),
        seed=6,
    )


def degrees_of(store):
    return {v: len(ws) for v, ws in store._neighbours.items() if ws}


def neighbourhood_fp(value):
    return None if value is None else (value.vertex, value.witnesses)


def sliding_fp(answer, inner="storage"):
    if answer is None:
        return None
    value = (
        degrees_of(answer.processor)
        if inner == "storage"
        else neighbourhood_fp(answer.value)
    )
    return (
        answer.window,
        answer.bucket,
        answer.start_update,
        answer.end_update,
        answer.n_buckets,
        value,
    )


def decay_fp(answer):
    return (
        [
            (r.window_index, r.start_update, r.end_update, degrees_of(r.value))
            for r in answer.recent
        ],
        None if answer.tail_processor is None else degrees_of(answer.tail_processor),
        answer.tail_start_update,
        answer.tail_end_update,
    )


def probe_positions(wrapper, stream, probe_every, on_probe):
    """Drive the wrapper chunk by chunk, probing exactly where
    ``Pipeline.run(probe_every=...)`` does (quantized to chunk ends)."""
    position, next_probe = 0, probe_every
    for a, b, sign in stream.chunks(CHUNK):
        wrapper.process_batch(a, b, sign)
        position += len(a)
        if position >= next_probe:
            on_probe(position)
            while next_probe <= position:
                next_probe += probe_every


# ----------------------------------------------------------------------
# Probe-under-load: cached query vs frozen fold at every probe point.
# ----------------------------------------------------------------------


class TestProbeUnderLoad:
    @pytest.mark.parametrize("probe_every", PROBE_INTERVALS)
    def test_sliding_probes_match_frozen_fold(
        self, monitoring_stream, probe_every
    ):
        wrapper = sliding_wrapper()
        probed = []

        def check(position):
            first = wrapper.query()
            again = wrapper.query()  # served from the suffix cache
            expected = legacy_sliding_query(wrapper)
            assert sliding_fp(first) == sliding_fp(expected)
            assert sliding_fp(again) == sliding_fp(expected)
            assert first.end_update == position
            probed.append(position)

        probe_positions(wrapper, monitoring_stream, probe_every, check)
        assert len(probed) >= 5
        # probing never perturbs the final answer
        clean = sliding_wrapper().process(monitoring_stream)
        assert sliding_fp(wrapper.finalize()) == sliding_fp(clean.finalize())

    @pytest.mark.parametrize("probe_every", PROBE_INTERVALS)
    def test_decay_probes_match_frozen_fold(
        self, monitoring_stream, probe_every
    ):
        wrapper = decay_wrapper()

        def check(position):
            assert decay_fp(wrapper.query()) == decay_fp(
                legacy_decay_query(wrapper)
            )
            assert decay_fp(wrapper.query()) == decay_fp(
                legacy_decay_query(wrapper)
            )

        probe_positions(wrapper, monitoring_stream, probe_every, check)
        clean = decay_wrapper().process(monitoring_stream)
        assert decay_fp(wrapper.finalize()) == decay_fp(clean.finalize())

    def test_clone_fast_path_matches_frozen_deepcopy_fold(self):
        """Algorithm 2 provides clone(); the cached query must agree
        with the all-deepcopy legacy fold at every probe."""
        rng = np.random.default_rng(31)
        a = rng.integers(0, 24, size=2400)
        a[1600:] = np.where(rng.random(800) < 0.4, 7, a[1600:])
        b = np.arange(2400, dtype=np.int64)
        stream = ColumnarEdgeStream(a, b, n=24, m=2400, validate=False)
        wrapper = alg2_sliding_wrapper()

        def check(position):
            assert sliding_fp(wrapper.query(), inner="alg2") == sliding_fp(
                legacy_sliding_query(wrapper), inner="alg2"
            )

        probe_positions(wrapper, stream, 311, check)

    def test_pipeline_probe_hook_matches_frozen_fold(self, monitoring_stream):
        """The real ``Pipeline.run(probe_every=...)`` path (fanout-only
        by design): every recorded probe answer must equal the frozen
        fold of a shadow wrapper fed the same quantized chunks."""
        from repro.pipeline import Pipeline

        probe_every, chunk_size = 512, 256
        result = (
            Pipeline.builder()
            .memory(monitoring_stream)
            .chunk_size(chunk_size)
            .processor("insertion-only", label="alg2", n=24, d=8, alpha=2)
            .window("sliding", 500, seed=1, bucket_ratio=0.25)
            .build()
            .run(probe_every=probe_every)
        )
        assert result.probes
        shadow = WindowedProcessor(
            alg2(24, 8, 2),
            SlidingPolicy(500, bucket_ratio=0.25),
            seed=1,
        )
        expected = {}
        position = 0
        for a, b, sign in monitoring_stream.chunks(chunk_size):
            shadow.process_batch(a, b, sign)
            position += len(a)
            if position % probe_every == 0:
                expected[position] = sliding_fp(
                    legacy_sliding_query(shadow), inner="alg2"
                )
        for probe in result.probes:
            assert probe.position in expected
            assert (
                sliding_fp(probe.answers["alg2"], inner="alg2")
                == expected[probe.position]
            )


# ----------------------------------------------------------------------
# Sharded workers: merged-wrapper queries vs the frozen fold.
# ----------------------------------------------------------------------


class TestShardedQueryEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_sliding_merged_query_matches_frozen_fold(
        self, monitoring_stream, workers
    ):
        runner = ShardedRunner(
            {"win": sliding_wrapper()}, n_workers=workers, chunk_size=CHUNK
        )
        answer = runner.run(monitoring_stream)["win"]
        merged = runner["win"]  # the post-run merged wrapper
        cached = merged.query()
        assert sliding_fp(cached) == sliding_fp(legacy_sliding_query(merged))
        # the run's own answer came through the same cached fold
        assert sliding_fp(answer) == sliding_fp(cached)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_decay_merged_query_matches_frozen_fold(
        self, monitoring_stream, workers
    ):
        runner = ShardedRunner(
            {"win": decay_wrapper()}, n_workers=workers, chunk_size=CHUNK
        )
        answer = runner.run(monitoring_stream)["win"]
        merged = runner["win"]
        assert decay_fp(merged.query()) == decay_fp(legacy_decay_query(merged))
        assert decay_fp(answer) == decay_fp(merged.query())

    @pytest.mark.parametrize("workers", WORKERS)
    def test_mmap_file_source_matches_frozen_fold(
        self, monitoring_stream, tmp_path_factory, workers
    ):
        from repro.streams.persist import dump_stream

        path = tmp_path_factory.mktemp("probes") / "monitoring.npz"
        dump_stream(monitoring_stream, path, format="v2")
        runner = ShardedRunner(
            {"win": sliding_wrapper()},
            n_workers=workers,
            chunk_size=CHUNK,
            mmap=True,
        )
        answer = runner.run(str(path))["win"]
        merged = runner["win"]
        assert sliding_fp(merged.query()) == sliding_fp(
            legacy_sliding_query(merged)
        )
        assert WINDOW <= answer.span <= math.ceil((1 + RATIO) * WINDOW)

    def test_worker_counts_agree_with_each_other(self, monitoring_stream):
        fingerprints = []
        for workers in WORKERS:
            runner = ShardedRunner(
                {"win": sliding_wrapper()},
                n_workers=workers,
                chunk_size=CHUNK,
            )
            runner.run(monitoring_stream)
            fingerprints.append(sliding_fp(runner["win"].query()))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]


# ----------------------------------------------------------------------
# Cache hygiene: copies and checkpoints never carry derived state.
# ----------------------------------------------------------------------


class TestQueryCacheHygiene:
    def test_pickle_and_deepcopy_drop_caches_but_not_answers(
        self, monitoring_stream
    ):
        import pickle

        wrapper = sliding_wrapper()
        for a, b, sign in monitoring_stream.chunks(CHUNK):
            wrapper.process_batch(a, b, sign)
        baseline = sliding_fp(wrapper.query())  # populates the cache
        assert wrapper._state.suffix
        for round_trip in (
            copy.deepcopy,
            lambda w: pickle.loads(pickle.dumps(w)),
        ):
            dup = round_trip(wrapper)
            assert not dup._state.suffix  # pure derived data, dropped
            assert sliding_fp(dup.query()) == baseline

        decay = decay_wrapper()
        for a, b, sign in monitoring_stream.chunks(CHUNK):
            decay.process_batch(a, b, sign)
        expected = decay_fp(decay.query())
        assert decay._state["_records"]
        dup = pickle.loads(pickle.dumps(decay))
        assert "_records" not in dup._state
        assert "_tail_record" not in dup._state
        assert decay_fp(dup.query()) == expected


# ----------------------------------------------------------------------
# Every window-capable registry processor vs the frozen fold.
# ----------------------------------------------------------------------

#: label -> (registry entry, params): every entry at test sizes, plus
#: the configurations whose merge needs equal seeds (the wrapper seeds
#: their buckets alike under sliding and decay).
WINDOWED_ENTRIES = {
    "full-storage": ("full-storage", {"n": 24, "m": 1600}),
    "insertion-only": ("insertion-only", {"n": 24, "d": 8, "alpha": 2}),
    "topk": ("topk", {"n": 24, "d": 8, "alpha": 2, "k": 2}),
    "star-detection": ("star-detection", {"n_vertices": 1600, "alpha": 2}),
    "star-detection-turnstile": (
        "star-detection",
        {"n_vertices": 32, "alpha": 2, "eps": 1.0,
         "model": "insertion-deletion", "scale": 0.01},
    ),
    "insertion-deletion": (
        "insertion-deletion", {"n": 24, "m": 1600, "d": 8, "alpha": 2}
    ),
    "insertion-deletion-scale-0.05": (
        "insertion-deletion",
        {"n": 24, "m": 1600, "d": 8, "alpha": 2, "scale": 0.05},
    ),
    "l0-bank": ("l0-bank", {"n": 24, "m": 1600, "count": 8}),
    "l0-bank-exact": (
        "l0-bank", {"n": 24, "m": 1600, "count": 2, "mode": "exact"}
    ),
    "misra-gries": ("misra-gries", {"k": 6}),
    "space-saving": ("space-saving", {"k": 6}),
    "count-min": ("count-min", {"epsilon": 0.1, "delta": 0.1}),
    "count-sketch": ("count-sketch", {"width": 16}),
    "bloom-dedup": ("bloom-dedup", {"n": 24, "m": 1600, "capacity": 2000}),
}


@pytest.fixture(scope="module")
def registry_stream(monitoring_stream):
    """The first 1600 updates: 9 buckets, enough to slide and decay."""
    a, b = monitoring_stream.a[:1600], monitoring_stream.b[:1600]
    return ColumnarEdgeStream(a, b, n=24, m=1600, validate=False)


#: Labels fed B-ids folded into ``[0, width)``: a turnstile Star
#: Detection over 1600 vertices deep-copies hundreds of sampler banks
#: per probe, so it runs on a 32-vertex double cover.
NARROW_B = {"star-detection-turnstile": 32}


def entry_stream(stream, label):
    width = NARROW_B.get(label)
    if width is None:
        return stream
    return ColumnarEdgeStream(
        stream.a, stream.b % width, n=stream.n, m=width, validate=False
    )


def registry_wrapper(label, policy):
    name, params = WINDOWED_ENTRIES[label]
    return WindowedProcessor(
        RegistryWindowFactory.of(name, params), policy, seed=5
    )


def answer_fp(value):
    """Comparable form of any windowed entry's ``finalize`` output."""
    if isinstance(value, FullStorage):
        return {v: sorted(ws) for v, ws in value._neighbours.items() if ws}
    if isinstance(value, SpaceSaving):
        return (
            list(value._counters.items()),
            list(value._overestimates.items()),
            value._length,
        )
    if isinstance(value, MisraGries):
        return list(value._counters.items()), value._length
    if isinstance(value, L0EdgeBank):
        return copy.deepcopy(value).sample_all()
    if isinstance(value, (CountMinSketch, CountSketch)):
        return value._table.tolist()
    if isinstance(value, BloomDedup):
        return value.admitted, value.suppressed, bytes(value._filter._bloom._bits)
    return value  # None, or frozen-dataclass answers (lists of them)


def fed_in_chunks(wrapper, stream):
    """The unprobed twin: same chunks (counter baselines' batch folds
    depend on chunk boundaries), no queries."""
    for a, b, sign in stream.chunks(CHUNK):
        wrapper.process_batch(a, b, sign)
    return wrapper


def registry_sliding_fp(answer):
    if answer is None:
        return None
    return (
        answer.start_update,
        answer.end_update,
        answer.n_buckets,
        answer_fp(answer.value),
    )


def registry_decay_fp(answer):
    return (
        [
            (r.window_index, r.start_update, r.end_update, answer_fp(r.value))
            for r in answer.recent
        ],
        answer_fp(answer.tail_value),
        answer.tail_start_update,
        answer.tail_end_update,
    )


class TestRegistryProcessors:
    @pytest.mark.parametrize("name", sorted(WINDOWED_ENTRIES))
    def test_sliding_probes_match_frozen_fold(self, registry_stream, name):
        registry_stream = entry_stream(registry_stream, name)
        policy = SlidingPolicy(WINDOW, bucket_ratio=RATIO)
        wrapper = registry_wrapper(name, policy)
        probed = []

        def check(position):
            first = wrapper.query()
            expected = registry_sliding_fp(legacy_sliding_query(wrapper))
            assert registry_sliding_fp(first) == expected
            assert registry_sliding_fp(wrapper.query()) == expected
            probed.append(position)

        probe_positions(wrapper, registry_stream, PROBE_INTERVALS[0], check)
        assert probed[0] < policy.bucket  # the clone-once branch ran
        clean = fed_in_chunks(registry_wrapper(name, policy), registry_stream)
        assert registry_sliding_fp(wrapper.finalize()) == registry_sliding_fp(
            clean.finalize()
        )

    @pytest.mark.parametrize("name", sorted(WINDOWED_ENTRIES))
    def test_finalize_after_boundary_probe(self, registry_stream, name):
        """A probe at a bucket boundary caches the fold; the finalize
        right after it is served from that cache."""
        registry_stream = entry_stream(registry_stream, name)
        policy = SlidingPolicy(WINDOW, bucket_ratio=RATIO)
        wrapper = registry_wrapper(name, policy)
        stop = 8 * policy.bucket
        a, b = registry_stream.a[:stop], registry_stream.b[:stop]
        for start in range(0, stop, policy.bucket):
            end = start + policy.bucket
            wrapper.process_batch(a[start:end], b[start:end])
            probe = wrapper.query()
        assert wrapper._state.suffix
        expected = registry_sliding_fp(legacy_sliding_query(wrapper))
        assert registry_sliding_fp(probe) == expected
        assert registry_sliding_fp(wrapper.finalize()) == expected
        clean = registry_wrapper(name, policy)
        clean.process_batch(a, b)
        assert registry_sliding_fp(clean.finalize()) == expected

    @pytest.mark.parametrize("name", sorted(WINDOWED_ENTRIES))
    def test_decay_probes_match_frozen_fold(self, registry_stream, name):
        registry_stream = entry_stream(registry_stream, name)
        policy = DecayPolicy(bucket_size=300, keep=3)
        wrapper = registry_wrapper(name, policy)

        def check(position):
            expected = registry_decay_fp(legacy_decay_query(wrapper))
            assert registry_decay_fp(wrapper.query()) == expected
            assert registry_decay_fp(wrapper.query()) == expected

        probe_positions(wrapper, registry_stream, PROBE_INTERVALS[0], check)
        clean = fed_in_chunks(registry_wrapper(name, policy), registry_stream)
        # Probes finalize copies: the retained summaries stay exactly
        # those of the unprobed twin (finalize may draw and memoise).
        assert pickle.dumps(wrapper) == pickle.dumps(clean)
        assert registry_decay_fp(wrapper.finalize()) == registry_decay_fp(
            clean.finalize()
        )

    @pytest.mark.parametrize(
        "name",
        ("insertion-deletion", "l0-bank", "l0-bank-exact",
         "star-detection-turnstile"),
    )
    def test_clone_probes_match_a_deepcopy_twin(
        self, registry_stream, name, monkeypatch
    ):
        """Algorithm 3, the l0 bank and turnstile Star Detection clone
        their banks, supports and draw generators instead of being deep
        copied: a sliding run probed after every bucket answers exactly
        as a twin whose probes deep-copy."""
        registry_stream = entry_stream(registry_stream, name)
        policy = SlidingPolicy(WINDOW, bucket_ratio=RATIO)

        def probed_answers():
            wrapper = registry_wrapper(name, policy)
            answers = []
            for a, b, sign in registry_stream.chunks(policy.bucket):
                wrapper.process_batch(a, b, sign)
                answers.append(registry_sliding_fp(wrapper.query()))
            answers.append(registry_sliding_fp(wrapper.finalize()))
            return wrapper, answers

        wrapper, cloned = probed_answers()
        assert callable(getattr(wrapper._current, "clone", None))
        monkeypatch.setattr(windows, "clone_summary", copy.deepcopy)
        _, deep_copied = probed_answers()
        assert cloned == deep_copied

    def test_probe_clone_counts(self, monitoring_stream, monkeypatch):
        """Clones per probe of the benchmark's two windowed processors.

        Before any bucket closes, a probe clones the live instance once.
        A probe right after a close clones the fold seed and the cached
        fold it hands out (2 per processor); the other buckets merge in
        uncloned.  A later probe in the same bucket clones only the
        cached fold and merges the live instance in.
        """
        calls = []

        def counting_clone(instance):
            calls.append(type(instance).__name__)
            return real_clone(instance)

        real_clone = windows.clone_summary
        monkeypatch.setattr(windows, "clone_summary", counting_clone)
        policy = SlidingPolicy(1024, bucket_ratio=0.25)
        wrappers = [
            registry_wrapper("insertion-only", policy),
            registry_wrapper("space-saving", policy),
        ]
        half = policy.bucket // 2
        per_probe = []
        for start in range(0, 30 * half, half):
            a = monitoring_stream.a[start : start + half]
            b = monitoring_stream.b[start : start + half]
            for wrapper in wrappers:
                wrapper.process_batch(a, b)
            calls.clear()
            for wrapper in wrappers:
                wrapper.query()
            per_probe.append(len(calls))
        assert per_probe[0] == 2  # one live-instance clone each
        steady = per_probe[2 * policy.retained :]
        assert steady[0::2] == [2] * len(steady[0::2])  # mid-bucket, cache hit
        assert steady[1::2] == [4] * len(steady[1::2])  # after a close


# ----------------------------------------------------------------------
# Every registry entry under every policy, from a spec.
# ----------------------------------------------------------------------

#: label -> (registry entry, params) over a 24 x 64 random bipartite
#: source: every entry, plus the configurations whose merge needs
#: equal seeds.
SPEC_ENTRIES = {
    "bloom-dedup": ("bloom-dedup", {"n": 24, "m": 64, "capacity": 1000}),
    "count-min": ("count-min", {"epsilon": 0.1, "delta": 0.1}),
    "count-sketch": ("count-sketch", {"width": 16}),
    "full-storage": ("full-storage", {"n": 24, "m": 64}),
    "insertion-deletion": (
        "insertion-deletion",
        {"n": 24, "m": 64, "d": 8, "alpha": 2, "scale": 0.05},
    ),
    "insertion-only": ("insertion-only", {"n": 24, "d": 8, "alpha": 2}),
    "l0-bank": ("l0-bank", {"n": 24, "m": 64, "count": 8}),
    "l0-bank-exact": (
        "l0-bank", {"n": 24, "m": 64, "count": 2, "mode": "exact"}
    ),
    "misra-gries": ("misra-gries", {"k": 6}),
    "space-saving": ("space-saving", {"k": 6}),
    "star-detection": ("star-detection", {"n_vertices": 64, "alpha": 2}),
    "star-detection-turnstile": (
        "star-detection",
        {"n_vertices": 64, "alpha": 2, "eps": 1.0,
         "model": "insertion-deletion", "scale": 0.01},
    ),
    "topk": ("topk", {"n": 24, "d": 8, "alpha": 2, "k": 2}),
}

SPEC_SOURCE = {
    "kind": "generator",
    "generator": "random-bipartite",
    "params": {"n": 24, "m": 64, "edges": 600, "seed": 3},
    "chunk_size": 37,
}

SPEC_WINDOWS = {
    "tumbling": {"policy": "tumbling", "window": 128},
    "sliding": {"policy": "sliding", "window": 256, "bucket_ratio": 0.25},
    "decay": {"policy": "decay", "window": 128, "keep": 2},
}


def window_answer_fp(answer):
    if isinstance(answer, list):
        return [
            (r.window_index, r.start_update, r.end_update, answer_fp(r.value))
            for r in answer
        ]
    if isinstance(answer, SlidingWindowAnswer):
        return registry_sliding_fp(answer)
    return registry_decay_fp(answer)


class TestEveryEntryFromSpec:
    def test_spec_entries_cover_the_registry(self):
        from repro.pipeline import PROCESSORS

        assert {name for name, _ in SPEC_ENTRIES.values()} == set(
            PROCESSORS.names()
        )

    @pytest.mark.parametrize("policy", sorted(SPEC_WINDOWS))
    @pytest.mark.parametrize("label", sorted(SPEC_ENTRIES))
    def test_runs_to_completion(self, label, policy):
        """No entry fails a bucket merge mid-run, and tumbling and
        sliding answers are the same on two shard workers."""
        from repro.pipeline import run_spec

        name, params = SPEC_ENTRIES[label]
        spec = {
            "source": SPEC_SOURCE,
            "processors": [{"name": name, "params": params}],
            "window": {**SPEC_WINDOWS[policy], "seed": 4},
        }
        fanout = run_spec(spec)[name]
        assert fanout is not None
        if policy == "decay":
            return
        sharded = run_spec(
            {**spec, "execution": {"backend": "sharded", "workers": 2}}
        )[name]
        assert window_answer_fp(sharded) == window_answer_fp(fanout)
