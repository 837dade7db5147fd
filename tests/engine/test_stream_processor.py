"""StreamProcessor protocol conformance across the whole library."""

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
    BatchIngest,
    StreamProcessor,
    TumblingPolicy,
    WindowedProcessor,
    ensure_stream_processor,
)
from repro.pipeline.registry import RegistryWindowFactory


def every_structure():
    return [
        InsertionOnlyFEwW(16, 4, 2, seed=0),
        InsertionDeletionFEwW(16, 16, 4, 2, seed=0, scale=0.1),
        SharedDegreeRuns(16, [DegResSampling(2, 2, 4, 0)]),
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
def test_conforms_to_stream_processor(structure):
    assert isinstance(structure, StreamProcessor)
    assert ensure_stream_processor(structure) is structure
    assert isinstance(structure, BatchIngest)  # the shared process(source)


@pytest.mark.parametrize(
    "structure", every_structure(), ids=lambda s: type(s).__name__
)
def test_finalize_never_raises_on_empty_stream(structure):
    structure.process_batch(
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
    )
    structure.finalize()  # must not raise AlgorithmFailed


def test_ensure_reports_missing_methods():
    class NotAProcessor:
        pass

    with pytest.raises(TypeError, match="process_batch, finalize"):
        ensure_stream_processor(NotAProcessor(), "bad")
    assert not isinstance(NotAProcessor(), StreamProcessor)


def test_ensure_reports_non_callable_attributes():
    """A data field shadowing a protocol method is reported as such —
    not as a missing method (`isinstance` checks attribute presence
    only, so this is exactly the case the helper exists for)."""

    class FinalizeIsAField:
        finalize = 42

        def process_batch(self, a, b, sign=None):
            pass

    with pytest.raises(TypeError, match="non-callable int"):
        ensure_stream_processor(FinalizeIsAField(), "bad")

    class BothWrong:
        process_batch = "not a method"
        finalize = None

    with pytest.raises(
        TypeError, match="non-callable str.*non-callable NoneType"
    ):
        ensure_stream_processor(BothWrong(), "bad")


def test_ensure_reports_missing_and_non_callable_together():
    class HalfBroken:
        finalize = 3.14

    with pytest.raises(
        TypeError, match="missing process_batch; has finalize"
    ):
        ensure_stream_processor(HalfBroken(), "bad")
