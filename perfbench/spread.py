"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload insert-zipf-fanout \\
        --seeds 1 2 3 4 5 --seconds 10

For every end-to-end metric prints the median of the per-seed values
and the distance between their first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` allows.  Exits non-zero if a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every seed's value")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    status = 0
    for workload in args.workload:
        values: dict = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}  ({len(args.seeds)} seeds, {seconds:g} s)")
        for name, series in values.items():
            mid = statistics.median(series)
            if len(series) >= 2 and mid:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(mid)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            print(f"  {name:<40} median {mid:14.6g}  spread {spread:7.3f}"
                  + (f"  bound {bound}" if bound is not None else ""))
            if args.verbose:
                print("      " + " ".join(f"{value:.4g}" for value in series))
    return status


if __name__ == "__main__":
    sys.exit(main())
