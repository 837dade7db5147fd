"""E11 — Ablation: why Algorithm 2 needs alpha parallel threshold runs.

The proof of Theorem 3.2 shows some run must face a bounded candidate
ratio; a *single* run cannot guarantee that.  On a geometric degree
cascade, each individual threshold's Deg-Res-Sampling has only moderate
success probability with the theorem's reservoir size divided across
runs, while the parallel union succeeds almost always.

Shape checks: the full algorithm's success rate strictly exceeds the
best single run's on the cascade, and the union rate is near 1.
"""

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.streams.generators import GeneratorConfig, degree_cascade_graph

from _tables import fmt, render_table

N, M = 512, 512
D, ALPHA = 64, 4
TRIALS = 60
SMALL_RESERVOIR = 3  # stress regime: tiny reservoirs make single runs fail


def test_e11_parallel_runs_ablation(benchmark):
    stream = degree_cascade_graph(
        GeneratorConfig(n=N, m=M, seed=31), d=D, alpha=ALPHA, ratio=8.0
    )
    # Per-threshold success with a tiny reservoir.
    single_rates = []
    d2 = -(-D // ALPHA)
    for i in range(ALPHA):
        d1 = max(1, (i * D) // ALPHA)
        successes = 0
        for seed in range(TRIALS):
            run = SharedDegreeRuns(
                N, [DegResSampling(d1, d2, SMALL_RESERVOIR, seed)]
            )
            run.process(stream)
            successes += run.successful
        single_rates.append(successes / TRIALS)
    # Full algorithm with the same tiny reservoir per run.
    union_successes = 0
    for seed in range(TRIALS):
        algorithm = InsertionOnlyFEwW(
            N, D, ALPHA, seed=seed, reservoir_override=SMALL_RESERVOIR
        )
        algorithm.process(stream)
        union_successes += algorithm.successful
    union_rate = union_successes / TRIALS

    rows = [
        (f"single run i={i} (d1={max(1, (i * D) // ALPHA)})", fmt(rate))
        for i, rate in enumerate(single_rates)
    ]
    rows.append(("parallel union (Algorithm 2)", fmt(union_rate)))
    print(
        render_table(
            f"E11 / ablation — single-threshold runs vs Algorithm 2 on a "
            f"degree cascade (d={D}, alpha={ALPHA}, s={SMALL_RESERVOIR}, "
            f"{TRIALS} trials)",
            ("configuration", "success rate"),
            rows,
        )
    )
    assert union_rate >= max(single_rates)
    assert union_rate >= 0.9

    def run_once():
        InsertionOnlyFEwW(
            N, D, ALPHA, seed=0, reservoir_override=SMALL_RESERVOIR
        ).process(stream)

    benchmark(run_once)
