"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload insert-zipf-fanout --seed 1 \\
        --seconds 10 --trace 0

Generates (or reuses) the seeded inputs of the workload in one child
process (``inputs.py``), then measures it in a fresh one
(``measure.py``), so that peak resident memory covers the measured
passes and their workers only, not input generation.  The measuring
child's last stdout line is the JSON result; the exit code is non-zero
when any answer check failed or anything broke.
Workloads: see ``workloads.py`` and ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Both children must finish well inside the 180 s a run may take.
DEADLINE_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description="repro streaming benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Inputs are generated in a process of their own: a child inherits
    # its parent's peak RSS through fork, so this process stays small.
    prepare = [sys.executable, str(HERE / "inputs.py"), args.workload,
               str(args.seed)]
    status = _run(prepare, env, deadline)
    if status != 0:
        return status
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return _run(command, env, deadline)


def _run(command, env, deadline: float) -> int:
    # A process group of its own, so a timeout can stop the child's
    # workers too.
    child = subprocess.Popen(command, env=env, process_group=0)
    try:
        return child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"benchmark: {Path(command[1]).name} timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
