"""Coverage of remaining small code paths across modules."""

import pytest

from repro.comm.protocol import MessageLog
from repro.core.neighbourhood import AlgorithmFailed
from repro.pipeline import GENERATORS, UnknownNameError
from repro.spacemeter import SpaceBreakdown


class TestWorkloadRegistry:
    def test_unknown_workload_raises(self):
        params = {"n": 8, "m": 8, "d": 2, "alpha": 1, "seed": 0}
        with pytest.raises(UnknownNameError, match="mystery"):
            GENERATORS.build("mystery", params)


class TestMessageLogOrdering:
    def test_messages_preserve_send_order(self):
        log = MessageLog()
        log.record(0, 1, 10)
        log.record(1, 2, 5)
        log.record(2, 3, 20)
        assert [entry[0] for entry in log.messages] == [0, 1, 2]
        assert [entry[2] for entry in log.messages] == [10, 5, 20]


class TestSpaceBreakdownChaining:
    def test_nested_merges_accumulate(self):
        leaf = SpaceBreakdown({"cells": 4})
        middle = SpaceBreakdown({"hash": 2})
        middle.merge(leaf, prefix="row0 ")
        top = SpaceBreakdown()
        top.merge(middle, prefix="sampler0 ")
        top.merge(middle, prefix="sampler1 ")
        assert top.components == {
            "sampler0 hash": 2,
            "sampler0 row0 cells": 4,
            "sampler1 hash": 2,
            "sampler1 row0 cells": 4,
        }
        assert top.total_words() == 12


class TestStarDetectionGuessEdge:
    def test_single_vertex_graph_guesses(self):
        from repro.core.star_detection import degree_guesses

        guesses = degree_guesses(1, 0.5)
        assert guesses[0] == 1
