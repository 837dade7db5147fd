#!/usr/bin/env python3
"""Regenerate every experiment table (E1-E19) into a single report.

Runs the benchmark suite in analysis mode (timings disabled, stdout
captured) and writes the concatenated paper-vs-measured tables to
``experiments_report.txt``.  This is the artifact EXPERIMENTS.md's
numbers were copied from.

Usage:  python scripts/run_all_experiments.py [output_path]
"""

import pathlib
import subprocess
import sys


def main() -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    output_path = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else repo_root / "experiments_report.txt"
    )
    completed = subprocess.run(
        [
            sys.executable, "-m", "pytest",
            *sorted(str(path.relative_to(repo_root))
                    for path in repo_root.glob("benchmarks/bench_*.py")),
            "--benchmark-disable", "-s", "-q",
        ],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    output_path.write_text(completed.stdout)
    tables = completed.stdout.count(" / ")
    print(f"wrote {output_path} ({len(completed.stdout.splitlines())} lines, "
          f"~{tables} table headers); pytest exit code {completed.returncode}")
    return completed.returncode


if __name__ == "__main__":
    raise SystemExit(main())
