"""The four benchmark workloads: inputs, processors, backend, sizes.

Each workload names the registry processors it runs (with their
parameters), the execution backend, the chunk size its closed-loop
caller hands over, and the input it is generated from.  Processor seeds
come from the run's ``--seed``, so one seed fixes inputs and answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Registry name -> benchmark layer name (module path of the structure).
LAYERS = {
    "insertion-only": "core.insertion_only",
    "topk": "core.topk",
    "insertion-deletion": "core.insertion_deletion",
    "star-detection": "core.star_detection",
    "misra-gries": "baselines.misra_gries",
    "space-saving": "baselines.space_saving",
    "count-min": "baselines.count_min",
    "count-sketch": "baselines.count_sketch",
    "l0-bank": "sketch.l0_bank",
}

#: Tail percentiles tried from the top; the tail is the highest one
#: that leaves at least TAIL_BEYOND samples above it in a single pass.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "fanout" or "sharded"
    chunk: int
    params: Dict[str, Any]
    processors: Tuple[Tuple[str, Dict[str, Any]], ...]
    window: Optional[Dict[str, Any]] = None
    probe_every: Optional[int] = None
    workers: int = 1

    @property
    def updates(self) -> int:
        p = self.params
        if "updates" in p:
            return p["updates"]
        if "background" in p:
            return 2 * p["background"] + p["star_degree"]
        return 2 * p["n_edges"]

    @property
    def chunks_per_pass(self) -> int:
        """Chunk-latency samples one pass yields (per worker, summed)."""
        return self.workers * -(-self.updates // self.chunk)

    @property
    def tail_percentile(self) -> float:
        for pct in TAIL_LADDER:
            if self.chunks_per_pass * (1 - pct / 100) >= TAIL_BEYOND:
                return pct
        return 50.0

    def processor_specs(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        """(registry name, params) pairs with the run seed filled in.

        Under a window spec the buckets are seeded from the window's
        seed instead, and processor-level seeds are left out.
        """
        specs = []
        for name, params in self.processors:
            bound = {k: v for k, v in params.items() if k != "seed"}
            if "seed" in params and self.window is None:
                bound["seed"] = run_seed(seed)
            specs.append((name, bound))
        return specs


def run_seed(seed: int) -> int:
    """The processor seed a benchmark seed maps to."""
    return seed % (1 << 31)


_ZIPF_N = 4096
_TURN = {"n": 64, "m": 4096, "background": 59_000, "star_degree": 2_000}
_STAR = {
    "n_vertices": 65_536,
    "n_edges": 2_000_000,
    "star_degree": 4_096,
    "tiny_updates": 4_096,
}
_SLIDE = {"n": 4096, "updates": 524_288, "exponent": 1.2}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="insert-zipf-fanout",
            backend="fanout",
            chunk=16_384,
            params={"n": _ZIPF_N, "updates": 1_048_576, "exponent": 1.2},
            processors=(
                ("insertion-only",
                 {"n": _ZIPF_N, "d": 1024, "alpha": 2, "seed": "run"}),
                ("topk",
                 {"n": _ZIPF_N, "d": 1024, "alpha": 2, "k": 8, "seed": "run"}),
                ("misra-gries", {"k": 64}),
                ("space-saving", {"k": 64}),
                ("count-min",
                 {"epsilon": 0.001, "delta": 0.001, "seed": "run"}),
                ("count-sketch", {"width": 2048, "rows": 5, "seed": "run"}),
            ),
        ),
        Workload(
            name="turnstile-churn-exact",
            backend="fanout",
            chunk=2_048,
            params=dict(_TURN),
            processors=(
                ("insertion-deletion",
                 {"n": _TURN["n"], "m": _TURN["m"], "d": _TURN["star_degree"],
                  "alpha": 2, "scale": 0.05, "seed": "run"}),
                ("l0-bank",
                 {"n": _TURN["n"], "m": _TURN["m"], "count": 8,
                  "delta": 0.05, "mode": "exact", "seed": "run"}),
            ),
        ),
        Workload(
            name="star-file-sharded",
            backend="sharded",
            chunk=65_536,
            workers=2,
            params=dict(_STAR),
            processors=(
                ("star-detection",
                 {"n_vertices": _STAR["n_vertices"], "alpha": 4, "eps": 3.0,
                  "seed": "run"}),
                ("insertion-only",
                 {"n": _STAR["n_vertices"], "d": _STAR["star_degree"],
                  "alpha": 2, "seed": "run"}),
            ),
        ),
        Workload(
            name="sliding-zipf-probes",
            backend="fanout",
            chunk=4_096,
            params=dict(_SLIDE),
            processors=(
                ("insertion-only",
                 {"n": _SLIDE["n"], "d": 256, "alpha": 2, "seed": "run"}),
                ("space-saving", {"k": 64}),
            ),
            window={"policy": "sliding", "window": 16_384,
                    "bucket_ratio": 0.25},
            probe_every=4_096,
        ),
    )
}
