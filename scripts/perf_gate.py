#!/usr/bin/env python3
"""Benchmark gate: every perfbench workload under named per-layer ceilings.

Usage, from the repository root::

    python scripts/perf_gate.py

Runs each workload of ``BENCHMARK.json`` once, traced, at seed 1 for
one second (``perfbench/run.py --trace 1``) and exits 1 when a run
exits non-zero, an answer fails its oracle check, or a gated per-layer
metric is above its ceiling, missing or 0.  perfbench reports 0 for a
layer the workload does not run, so a renamed span must not pass as a
fast one.  Each run writes its span trace to
``perfbench/_out/trace-<workload>-1.jsonl``: the breakdown behind a
tripped ceiling.

Ceilings are 5-10x the traced values measured at seed 1 on a 2-vCPU
host (Python 3.11, NumPy 2.4), so only a kernel that falls back to a
per-item Python loop, or a layer that stops running, trips them; the
benchmark's ``BENCHMARK.json`` bounds judge smaller moves.  The exact
ℓ₀ bank's three ceilings also hold its layout: ``sketch.l0_bank.build_ms``
(8 ms, about 8x its measured 1.0 ms) trips if a bank draws hashes per
cell again or builds its power tables one sampler at a time, and
``sketch.l0_bank.sample_ms`` (80 ms, about 8x 9.5 ms) and
``core.insertion_deletion.finalize_ms`` (80 ms, about 7x 11.3 ms) trip
if a read expands each coordinate across levels and rows again or
Algorithm 3's banks go back to one support each.  Algorithm 1's three
ingest ceilings, ``core.insertion_only.ingest_s`` (0.3 s, about 7x
0.041 s), ``core.topk.ingest_s`` (0.4 s, about 7x 0.054 s) and
``core.star_detection.ingest_s`` (2.0 s, about 7.5x 0.27 s), trip if a
run goes back to a Python step per crossing, resident or witness.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: (workload, per-layer metric) -> the highest value that passes.
CEILINGS: Dict[Tuple[str, str], float] = {
    ("insert-zipf-fanout", "core.insertion_only.ingest_s"): 0.3,
    ("insert-zipf-fanout", "core.topk.ingest_s"): 0.4,
    ("insert-zipf-fanout", "baselines.misra_gries.ingest_s"): 0.3,
    ("insert-zipf-fanout", "baselines.space_saving.ingest_s"): 1.0,
    ("insert-zipf-fanout", "baselines.count_min.ingest_s"): 0.5,
    ("insert-zipf-fanout", "baselines.count_sketch.ingest_s"): 0.5,
    ("turnstile-churn-exact", "core.insertion_deletion.ingest_s"): 0.3,
    ("turnstile-churn-exact", "core.insertion_deletion.finalize_ms"): 80.0,
    ("turnstile-churn-exact", "sketch.l0_bank.ingest_s"): 0.015,
    ("turnstile-churn-exact", "sketch.l0_bank.sample_ms"): 80.0,
    ("turnstile-churn-exact", "sketch.l0_bank.build_ms"): 8.0,
    ("star-file-sharded", "core.star_detection.ingest_s"): 2.0,
    ("star-file-sharded", "core.star_detection.finalize_ms"): 3.0,
    ("sliding-zipf-probes", "engine.windows.ingest_s"): 0.25,
    ("sliding-zipf-probes", "engine.windows.query_ms"): 19.0,
    ("sliding-zipf-probes", "engine.windows.query_tail_ms"): 23.0,
}


def workloads() -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in spec["workloads"]]


def check(workload: str, returncode: int, result: Optional[dict]) -> List[str]:
    """Every reason ``workload``'s run fails the gate; empty if it passes."""
    problems = []
    if returncode != 0:
        problems.append(f"{workload}: perfbench exited {returncode}")
    if result is None:
        return problems + [f"{workload}: no JSON result line"]
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        problems.append(f"{workload}: {result.get('failed')} of "
                        f"{result.get('attempted')} answers failed the oracle")
    metrics = result.get("metrics", {})
    for (name, metric), ceiling in CEILINGS.items():
        if name != workload:
            continue
        value = metrics.get(metric, {}).get("value")
        if value is None:
            problems.append(f"{workload}: {metric} is missing")
        elif not value > 0:
            problems.append(f"{workload}: {metric} reads {value}; "
                            f"its layer did not run or its span was renamed")
        elif value > ceiling:
            problems.append(f"{workload}: {metric} = {value:.4g} is above "
                            f"its ceiling {ceiling:g}")
    return problems


def last_json(stdout: str) -> Optional[dict]:
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def run(workload: str) -> Tuple[int, Optional[dict]]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", "1"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    result = last_json(completed.stdout)
    lines = completed.stdout.strip().splitlines()
    # The JSON line repeats the table above it.
    print("\n".join(lines[:-1] if result else lines), flush=True)
    return completed.returncode, result


def main() -> int:
    problems = []
    for workload in workloads():
        problems += check(workload, *run(workload))
    for problem in problems:
        print(f"perf gate: FAIL {problem}")
    if not problems:
        print(f"perf gate: {len(CEILINGS)} per-layer ceilings held")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
