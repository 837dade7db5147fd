"""Chunk-size invariance for Star Detection, and one fanout pass
feeding the extension wrappers.

Driving Star Detection through the batch engine at any chunk size
produces *bit-identical* output to feeding it one update per chunk —
same winners, same witness sets, same per-guess reservoir states, same
space accounting.  Top-k and tumbling windows are pinned the same way
by ``test_registry_process.py`` and ``test_window_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core.star_detection import StarDetection
from repro.core.topk import TopKFEwW
from repro.engine import FanoutRunner, TumblingPolicy, WindowedProcessor
from repro.pipeline.registry import RegistryWindowFactory
from repro.streams.adapters import bipartite_double_cover_columnar
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    GeneratorConfig,
    planted_star_graph,
    planted_star_undirected,
)

#: Each is compared against chunk size 1, one update per chunk.
CHUNK_SIZES = (7, 100, 10**6)


def undirected_instance(seed=11, n_vertices=48, n_edges=260, star_degree=30):
    u, v = planted_star_undirected(n_vertices, n_edges, star_degree, seed=seed)
    cover = bipartite_double_cover_columnar(u, v, n_vertices)
    pairs = list(zip(u.tolist(), v.tolist()))
    return pairs, cover


class TestStarDetectionEquivalence:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_insertion_only_bit_identical(self, chunk_size):
        pairs, cover = undirected_instance()
        per_item = StarDetection(cover.n, alpha=2, eps=0.5, seed=3)
        per_item.process(cover.chunks(1))
        engine = StarDetection(cover.n, alpha=2, eps=0.5, seed=3)
        for a, b, sign in cover.chunks(chunk_size):
            engine.process_batch(a, b, sign)
        # Bit-identical state: every guess's every run holds the same
        # reservoir (same vertices, same witness lists, same order).
        assert per_item.guesses == engine.guesses
        for inner_a, inner_b in zip(per_item._shared.runs, engine._shared.runs):
            assert inner_a._reservoir == inner_b._reservoir
        result_item = per_item.result()
        result_engine = engine.result()
        assert result_item.vertex == result_engine.vertex
        assert result_item.winning_guess == result_engine.winning_guess
        assert (
            result_item.neighbourhood.witnesses
            == result_engine.neighbourhood.witnesses
        )
        assert per_item.space_words() == engine.space_words()

    def test_process_undirected_matches_chunk_size_one(self):
        pairs, cover = undirected_instance(seed=12)
        reference = StarDetection(cover.n, alpha=2, eps=0.5, seed=4)
        reference.process(cover.chunks(1))
        through_adapter = StarDetection(cover.n, alpha=2, eps=0.5, seed=4)
        through_adapter.process_undirected(pairs)
        assert reference.result().vertex == through_adapter.result().vertex
        assert (
            reference.result().neighbourhood.witnesses
            == through_adapter.result().neighbourhood.witnesses
        )

    def test_insertion_deletion_model_through_engine(self):
        pairs, cover = undirected_instance(seed=13, n_edges=200)
        per_item = StarDetection(
            cover.n, alpha=2, eps=0.5, model="insertion-deletion",
            seed=5, scale=0.3,
        )
        per_item.process(cover.chunks(1))
        engine = StarDetection(
            cover.n, alpha=2, eps=0.5, model="insertion-deletion",
            seed=5, scale=0.3,
        )
        engine.process(cover)
        assert per_item.result().vertex == engine.result().vertex
        assert (
            per_item.result().neighbourhood.witnesses
            == engine.result().neighbourhood.witnesses
        )

    def test_insertion_only_model_rejects_deletions(self):
        detector = StarDetection(8, alpha=2, seed=0)
        with pytest.raises(ValueError, match="deletions"):
            detector.process_batch(
                np.array([0]), np.array([1]), np.array([-1])
            )


class TestFanoutAcrossWrappers:
    def test_one_pass_feeds_all_three_wrappers(self):
        """The headline engine scenario: star + top-k + windows, one pass."""
        stream = planted_star_graph(
            GeneratorConfig(n=40, m=600, seed=41),
            star_degree=32,
            background_degree=3,
        )
        columnar = ColumnarEdgeStream.from_edge_stream(stream)
        runner = FanoutRunner(
            {
                "topk": TopKFEwW(stream.n, 16, 2, k=2, seed=2),
                "windows": WindowedProcessor(
                    RegistryWindowFactory.of(
                        "insertion-only", {"n": stream.n, "d": 8, "alpha": 2}
                    ),
                    TumblingPolicy(100),
                    seed=3,
                ),
            },
            chunk_size=64,
        )
        results = runner.run(columnar)
        assert results["topk"], "planted star not found by top-k"
        assert results["topk"][0].vertex == 0
        assert results["windows"], "no windows completed"
        # Solo runs from the same seeds are bit-identical.
        solo = TopKFEwW(stream.n, 16, 2, k=2, seed=2).process(stream)
        assert [nb.vertex for nb in results["topk"]] == [
            nb.vertex for nb in solo.results()
        ]
