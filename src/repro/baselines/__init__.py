"""Classical frequent-elements baselines (without witnesses) and naive
witness-collecting baselines.

The paper's §1.3 contrasts FEwW with the classical FE literature: FE
algorithms use space ``~ m/d`` (rarer threshold → *more* space), while
FEwW trivially needs ``Ω(d/α)`` (higher threshold → more space, because
witnesses must be stored).  This package implements the four classical
algorithms the paper cites — Misra–Gries [37], SpaceSaving [35/36],
Count-Min [17] and CountSketch [15] — plus two naive witness baselines
(:class:`FullStorage`, :class:`FirstKWitnessCollector`) so benchmark
E10 can reproduce that contrast quantitatively.

All baselines consume (item, witness) streams via the same
``process_batch`` / ``process(stream)`` interface as the core
algorithms (witnesses are simply ignored by the witness-free sketches)
and are space-metered.  Misra-Gries and SpaceSaving also keep their
scalar ``update(item, weight)``, the algorithms of record; their
``process(stream)`` runs the weight-collapsed batch path.
"""

from repro.baselines.misra_gries import MisraGries
from repro.baselines.mg_witness import MisraGriesWithWitnesses
from repro.baselines.space_saving import SpaceSaving
from repro.baselines.count_min import CountMinSketch
from repro.baselines.count_sketch import CountSketch
from repro.baselines.naive import FirstKWitnessCollector, FullStorage

__all__ = [
    "CountMinSketch",
    "CountSketch",
    "FirstKWitnessCollector",
    "FullStorage",
    "MisraGries",
    "MisraGriesWithWitnesses",
    "SpaceSaving",
]
