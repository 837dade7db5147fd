"""Mergeable-summary layer conformance across the whole library."""

import random

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
from repro.core.topk import TopKFEwW
from repro.engine import (
    SHARD_ANY,
    SHARD_BY_VERTEX,
    SHARD_BY_WINDOW,
    MergeableStreamProcessor,
    TumblingPolicy,
    WindowedProcessor,
    combined_routing,
    ensure_mergeable,
    shard_routing_of,
)
from repro.pipeline.registry import RegistryWindowFactory


def every_structure():
    return [
        InsertionOnlyFEwW(16, 4, 2, seed=0),
        InsertionDeletionFEwW(16, 16, 4, 2, seed=0, scale=0.1),
        SharedDegreeRuns(16, [DegResSampling(2, 2, 4, random.Random(0))]),
        StarDetection(16, 2, seed=0),
        TopKFEwW(16, 4, 2, k=2, seed=0),
        WindowedProcessor(
            RegistryWindowFactory.of(
                "insertion-only", {"n": 16, "d": 4, "alpha": 2}
            ),
            TumblingPolicy(8),
            seed=0,
        ),
        MisraGries(4),
        MisraGriesWithWitnesses(4, 4),
        SpaceSaving(4),
        CountMinSketch(0.1, 0.1, seed=0),
        CountSketch(16, rows=3, seed=0),
        FullStorage(16, 16),
        FirstKWitnessCollector(16, 4),
    ]


@pytest.mark.parametrize(
    "structure", every_structure(), ids=lambda s: type(s).__name__
)
def test_conforms_to_mergeable_protocol(structure):
    assert isinstance(structure, MergeableStreamProcessor)
    assert ensure_mergeable(structure) is structure
    routing = shard_routing_of(structure)
    assert routing in (SHARD_ANY, SHARD_BY_VERTEX) or (
        routing[0] == SHARD_BY_WINDOW and routing[1] >= 1
    )


@pytest.mark.parametrize(
    "structure", every_structure(), ids=lambda s: type(s).__name__
)
def test_split_produces_independent_conforming_shards(structure):
    shards = structure.split(3)
    assert len(shards) == 3
    for shard in shards:
        assert shard is not structure
        ensure_mergeable(shard)
    # shards are state-independent: feeding one never touches another
    a = np.array([1, 2], dtype=np.int64)
    b = np.array([3, 4], dtype=np.int64)
    shards[0].process_batch(a, b, np.ones(2, dtype=np.int64))
    merged = shards[1].merge(shards[2])
    merged.finalize()  # the untouched shards merge to an empty summary


@pytest.mark.parametrize(
    "structure", every_structure(), ids=lambda s: type(s).__name__
)
def test_split_then_merge_roundtrips_a_small_stream(structure):
    shards = structure.split(2)
    a = np.array([0, 1, 2, 3], dtype=np.int64)
    b = np.array([4, 5, 6, 7], dtype=np.int64)
    sign = np.ones(4, dtype=np.int64)
    shards[0].process_batch(a[:2], b[:2], sign[:2])
    shards[1].process_batch(a[2:], b[2:], sign[2:])
    merged = shards[0].merge(shards[1])
    merged.finalize()  # must not raise


class TestCompatibilityErrors:
    def test_space_saving_k_mismatch(self):
        with pytest.raises(ValueError, match="k=4 with k=8"):
            SpaceSaving(4).merge(SpaceSaving(8))

    def test_count_sketch_seed_mismatch(self):
        left = CountSketch(16, rows=3, seed=1)
        right = CountSketch(16, rows=3, seed=2)
        assert not left.shares_hashes_with(right)
        with pytest.raises(ValueError, match="same seed"):
            left.merge(right)

    def test_type_mismatch_is_a_value_error(self):
        with pytest.raises(ValueError, match="cannot merge"):
            MisraGries(4).merge(SpaceSaving(4))
        with pytest.raises(ValueError, match="cannot merge"):
            CountMinSketch(0.1, 0.1, seed=0).merge(MisraGries(4))

    def test_algorithm2_parameter_mismatch(self):
        with pytest.raises(ValueError, match="cannot merge Algorithm 2"):
            InsertionOnlyFEwW(16, 4, 2, seed=0).merge(
                InsertionOnlyFEwW(16, 8, 2, seed=0)
            )

    def test_algorithm3_strategy_mismatch(self):
        from repro.core.insertion_deletion import SamplingStrategy

        left = InsertionDeletionFEwW(16, 16, 4, 2, seed=0, scale=0.1)
        right = InsertionDeletionFEwW(
            16, 16, 4, 2, seed=0, scale=0.1,
            strategy=SamplingStrategy.EDGE,
        )
        with pytest.raises(ValueError, match="cannot merge Algorithm 3"):
            left.merge(right)

    def test_algorithm1_parameter_mismatch(self):
        with pytest.raises(ValueError, match="cannot merge Deg-Res-Sampling"):
            SharedDegreeRuns(16, [DegResSampling(2, 2, 4, random.Random(0))]).merge(
                SharedDegreeRuns(16, [DegResSampling(3, 2, 4, random.Random(0))])
            )


class TestSpaceSavingMergeGuarantee:
    def test_merged_estimates_bracket_true_counts(self):
        rng = random.Random(5)
        left, right = SpaceSaving(8), SpaceSaving(8)
        true = {}
        for _ in range(400):
            item = rng.randrange(30)
            (left if rng.random() < 0.5 else right).update(item)
            true[item] = true.get(item, 0) + 1
        merged = left.merge(right)
        assert merged._length == 400
        for item, count in true.items():
            estimate = merged.estimate(item)
            if estimate:
                assert estimate >= merged.guaranteed_count(item)
                assert estimate <= count + 400 / 8
        # every true heavy hitter survives the merge
        for item, count in true.items():
            if count > 400 / 8:
                assert merged.estimate(item) >= count

    def test_merge_of_disjoint_small_streams_exact(self):
        left, right = SpaceSaving(10), SpaceSaving(10)
        for item in [1, 1, 2]:
            left.update(item)
        for item in [1, 3]:
            right.update(item)
        merged = left.merge(right)
        assert merged.estimate(1) == 3
        assert merged.estimate(2) == 1
        assert merged.estimate(3) == 1
        assert merged.guaranteed_count(1) == 3


def test_combined_routing_rules():
    assert combined_routing([SHARD_ANY, SHARD_ANY]) == SHARD_ANY
    assert combined_routing([SHARD_ANY, SHARD_BY_VERTEX]) == SHARD_BY_VERTEX
    assert combined_routing([("window", 8), SHARD_ANY]) == ("window", 8)
    with pytest.raises(ValueError, match="incompatible"):
        combined_routing([SHARD_BY_VERTEX, ("window", 8)])
    with pytest.raises(ValueError, match="incompatible"):
        combined_routing([("window", 8), ("window", 16)])
