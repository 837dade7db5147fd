"""The paper's primary contribution: streaming algorithms for FEwW.

* :class:`DegResSampling` — one run of Algorithm 1, degree-based
  reservoir sampling (``Deg-Res-Sampling(d1, d2, s)``), driven by
  :class:`SharedDegreeRuns`, which owns the one degree table for any
  number of runs;
* :class:`InsertionOnlyFEwW` — Algorithm 2, the α-approximation for
  insertion-only streams (Theorem 3.2);
* :class:`InsertionDeletionFEwW` — Algorithm 3, the α-approximation for
  insertion-deletion streams built on ℓ₀-samplers (Theorem 5.4);
* :class:`StarDetection` — the Lemma 3.3 wrapper solving Star Detection
  with ``O(log_{1+ε} n)`` parallel guesses of Δ (Corollaries 3.4 / 5.5);
* :class:`Neighbourhood` — the output type: an A-vertex plus witnesses.

All algorithms share the same lifecycle: construct with parameters,
``process(stream)`` (or feed column chunks via ``process_batch``; one
update is a length-1 chunk), then ``result()`` which returns a
:class:`Neighbourhood` or raises :class:`AlgorithmFailed`.
"""

from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood, verify_neighbourhood
from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.insertion_deletion import InsertionDeletionFEwW, SamplingStrategy
from repro.core.star_detection import StarDetection, StarDetectionResult
from repro.core.topk import TopKFEwW

__all__ = [
    "AlgorithmFailed",
    "DegResSampling",
    "InsertionDeletionFEwW",
    "InsertionOnlyFEwW",
    "Neighbourhood",
    "SamplingStrategy",
    "SharedDegreeRuns",
    "StarDetection",
    "StarDetectionResult",
    "TopKFEwW",
    "verify_neighbourhood",
]
