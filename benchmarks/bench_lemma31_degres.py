"""E1 — Lemma 3.1: Deg-Res-Sampling success probability.

Paper claim: on a graph with at most ``n1`` vertices of degree >= d1 and
at least ``n2`` vertices of degree >= d1 + d2 - 1, the run succeeds with
probability at least ``1 - (1 - s/n1)^{n2}``.

We plant exactly that profile, sweep the reservoir size ``s``, and print
the measured success rate next to the paper's bound.  Shape check: the
measured rate dominates the bound (within noise) for every ``s``, and is
monotone in ``s``.
"""

import random

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.streams.edge import Edge
from repro.streams.stream import stream_from_edges
from repro.theory.bounds import deg_res_success_lower_bound

from _tables import fmt, render_table

N1, N2 = 24, 4
D1, D2 = 2, 4
N, M = 40, 600
TRIALS = 250


def build_instance(order_seed: int):
    """n1 candidate vertices, the first n2 of them heavy (deg d1+d2-1)."""
    edges = []
    for a in range(N1):
        degree = D1 + D2 - 1 if a < N2 else D1
        edges.extend(Edge(a, a * 20 + j) for j in range(degree))
    random.Random(order_seed).shuffle(edges)
    return stream_from_edges(edges, N, M)


def success_rate(s: int) -> float:
    successes = 0
    for seed in range(TRIALS):
        stream = build_instance(order_seed=seed)
        algorithm = SharedDegreeRuns(
            N, [DegResSampling(D1, D2, s, random.Random(1000 + seed))]
        )
        algorithm.process(stream)
        successes += algorithm.successful
    return successes / TRIALS


def test_e1_success_probability_vs_bound(benchmark):
    rows = []
    measured = []
    for s in (1, 2, 4, 8, 16, 32):
        bound = deg_res_success_lower_bound(N1, N2, s)
        rate = success_rate(s)
        measured.append(rate)
        rows.append((s, fmt(bound), fmt(rate), "yes" if rate >= bound - 0.07 else "NO"))
    print(
        render_table(
            f"E1 / Lemma 3.1 — Deg-Res-Sampling(d1={D1}, d2={D2}, s) success "
            f"(n1={N1}, n2={N2}, {TRIALS} trials)",
            ("s", "paper bound", "measured", "meets bound"),
            rows,
        )
    )
    # Shape: measured rate >= paper bound (within noise), monotone in s.
    for (_, _, _, verdict) in rows:
        assert verdict == "yes"
    assert measured[-1] >= measured[0]
    assert measured[-1] == 1.0  # s >= n1: reservoir stores every candidate

    stream = build_instance(order_seed=0)

    def run_once():
        SharedDegreeRuns(N, [DegResSampling(D1, D2, 8, random.Random(7))]).process(
            stream
        )

    benchmark(run_once)
