"""Quick throughput benchmark: per-item vs engine (batch) vs sharded.

Reuses the contender list and measurement loops from
``benchmarks/bench_throughput.py`` (single source of truth for the
workloads and the acceptance bars), runs

* the standard Zipf workload through every streaming structure in both
  modes,
* end-to-end Star Detection (the full Lemma 3.3 degree-guess ladder
  over a 10^6-update bipartite double cover) per-item vs as a single
  engine pass, and
* Algorithm 3's exact-mode ℓ₀ sampler bank (the stacked s-sparse
  recovery kernels) over a dedup'd random edge stream, per-item (short
  prefix) vs batch, and
* the multi-core pass: Algorithm 2 over a 10^6-update Zipf stream
  persisted as a v2 file and memory-mapped, through a ShardedRunner at
  1, 2 and 4 workers, and
* the windowed pass: Algorithm 2 under the engine's window policies
  (tumbling, and the smooth-histogram sliding window) over the same
  Zipf workload, and
* the spec-driven pass: a declarative JSON job spec executed through
  ``repro.pipeline.Pipeline.from_dict`` (generator source resolved by
  registry, sliding window, fanout backend), recording that the
  pipeline front door sustains engine rates,

then writes a ``BENCH_throughput.json`` artifact (by default into the
repository root) so the performance trajectory can be tracked across
PRs.  Every entry carries host metadata (python, machine, effective
core count) and the sharded entries carry their worker counts plus a
``gated`` flag — a worker count the host cannot physically scale to
(``effective_cores < workers``, or no fork) is recorded but excluded
from the scaling gate and the trend report.

The artifact is an *appendable run history*: the top level mirrors the
latest run (so older readers keep working) and a ``history`` array
accumulates one entry per run — each stamped with host + git metadata
— via the same crash-safe tmp+replace writer.  ``repro bench report``
prints the per-structure trend across those entries.

Exits non-zero if the batch engine loses its required speedup on the
hash-heavy sketches / Algorithm 2 (5x), on end-to-end star detection
(3x), or — on hosts with at least 4 effective cores — if the 4-worker
sharded pass drops below 1.5x single-core.  Independently of those
*relative* gates, every structure must clear its absolute
``FLOOR_UPDATES_PER_S`` batch-rate floor — enforced even under
``--smoke`` (the ci.yml gate), disable with ``--no-floors``.

Run:  PYTHONPATH=src python scripts/bench_quick.py [--records N]
          [--only STRUCTURE ...]
          [--star-updates N | --skip-star] [--skip-exact-bank]
          [--sharded-updates N | --skip-sharded]
          [--skip-windowed] [--smoke] [--profile] [--out PATH]

``--smoke`` shrinks every workload and disables the speedup gates — the
CI-sized sanity pass that still exercises all three pipelines.
``--only <structure>`` (repeatable) runs only the passes whose name
contains the given case-insensitive substring — the iteration loop when
tuning one structure: ``--only "exact bank"`` re-measures just the ℓ₀
bank, ``--only sliding --only probes`` just the windowed + probe
passes.  Floors and speedup gates apply only to what actually ran.
``--profile`` runs the single-core measurement passes (Zipf contenders,
star detection, exact bank) under cProfile, prints the top 20
functions by cumulative time, and writes the full report next to the
artifact (``--profile-out``; ci.yml uploads it from the smoke job) —
the first stop when a floor trips.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_throughput import (  # noqa: E402 (needs the path tweak above)
    ALPHA,
    CHUNK,
    D,
    FLOOR_PROBES_PER_S,
    FLOOR_UPDATES_PER_S,
    N,
    REQUIRED_ON,
    EXACT_BANK_COUNT,
    EXACT_BANK_DELTA,
    EXACT_BANK_N,
    make_exact_bank_stream,
    measure_exact_bank_rates,
    REQUIRED_EXACT_BANK_SPEEDUP,
    REQUIRED_SHARDED_SPEEDUP,
    REQUIRED_SPEEDUP,
    REQUIRED_STAR_SPEEDUP,
    SHARDED_GATE_MIN_CORES,
    SHARDED_WORKERS,
    sharded_gate_applies,
    STAR_ALPHA,
    STAR_DEGREE,
    STAR_EPS,
    STAR_VERTICES,
    make_sharded_file,
    make_star_cover,
    make_stream,
    measure_probe_rates,
    measure_rates,
    measure_sharded_rates,
    measure_star_rates,
    measure_window_rates,
    WINDOW_FLOOR_UPDATES_PER_S,
    WINDOW_RATIO,
    WINDOW_SPAN,
)

from repro.engine import effective_cores  # noqa: E402
from repro.pipeline import Pipeline  # noqa: E402
from repro.streams.columnar import ColumnarEdgeStream  # noqa: E402


def git_metadata(repo_root: Path) -> dict:
    """Commit + branch of the benched tree (best-effort; CI detached
    heads and non-git checkouts degrade to nulls, never to a failure)."""
    import subprocess

    def capture(*argv):
        try:
            return subprocess.run(
                ["git", "-C", str(repo_root), *argv],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except Exception:
            return None

    return {
        "commit": capture("rev-parse", "--short", "HEAD"),
        "branch": capture("rev-parse", "--abbrev-ref", "HEAD"),
        "dirty": bool(capture("status", "--porcelain")),
    }


def append_history(out: Path, entry: dict, keep: int = 50) -> list:
    """The run history with ``entry`` appended (latest last).

    Reads the previous artifact when present; a pre-history artifact
    (one bare run dict) is adopted as the first history element, so
    converting the format loses nothing.  ``keep`` bounds the file's
    growth.
    """
    history = []
    if out.exists():
        try:
            previous = json.loads(out.read_text())
        except (OSError, ValueError):
            previous = None
        if isinstance(previous, dict):
            if isinstance(previous.get("history"), list):
                history = previous["history"]
            elif "results" in previous:
                history = [previous]
    history.append(entry)
    return history[-keep:]


def pipeline_spec(records: int, span: int) -> dict:
    """The JSON job spec of the declarative-pipeline pass: the zipf
    workload resolved through the generator registry, Algorithm 2 under
    the sliding window, one fanout pass.  Exactly what a user would put
    in a ``repro run --spec job.json`` file.

    The registry workload derives ``n_records = min(m, 8 * d)`` (the
    CLI's sizing rule), so the generator ``d`` is set to ``records/8``
    to make the stream exactly ``records`` updates long — comparable
    with the other passes.  The processor keeps the benchmark's real
    threshold ``D``.  No processor seed: windowed specs seed buckets
    from ``window.seed``.
    """
    return {
        "source": {
            "kind": "generator",
            "generator": "zipf",
            "params": {"n": N, "m": records,
                       "d": max(D, -(-records // 8)), "alpha": ALPHA,
                       "seed": 61},
            "chunk_size": CHUNK,
        },
        "processors": [
            {
                "name": "insertion-only",
                "label": "alg2",
                "params": {"n": N, "d": D, "alpha": ALPHA},
            }
        ],
        "window": {
            "policy": "sliding",
            "window": span,
            "bucket_ratio": WINDOW_RATIO,
            "seed": 3,
        },
    }


def measure_pipeline(records: int, span: int) -> dict:
    """Run the spec-driven pass and summarise it for the artifact."""
    spec = pipeline_spec(records, span)
    result = Pipeline.from_dict(spec).run()
    answer = result["alg2"]
    assert answer is not None, "spec-driven sliding pass produced no answer"
    return {
        "spec": spec,
        "updates_per_s": result.report.updates_per_s,
        "updates": result.report.n_updates,
        "answer": result.to_dict()["answers"]["alg2"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=30000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--only", action="append", metavar="STRUCTURE",
        help="run only passes whose name contains this case-insensitive "
             "substring (repeatable).  Matches the Zipf contender names "
             "(e.g. 'CountMin', 'Algorithm 2') and the pass names "
             "'star', 'exact bank', 'windowed', 'probes', 'pipeline', "
             "'sharded'.  Floors/gates apply only to what ran.")
    parser.add_argument("--star-updates", type=int, default=1_000_000)
    parser.add_argument("--skip-star", action="store_true",
                        help="skip the end-to-end star detection pass")
    parser.add_argument("--skip-exact-bank", action="store_true",
                        help="skip the exact-mode ℓ₀ sampler-bank pass")
    parser.add_argument("--profile", action="store_true",
                        help="run the single-core measurement passes "
                             "under cProfile and print the top 20 "
                             "functions by cumulative time")
    parser.add_argument(
        "--profile-out", type=Path, default=None,
        help="where to write the full cProfile report when --profile "
             "is on (default: BENCH_profile.txt next to --out; ci.yml "
             "uploads it as an artifact from the smoke job)")
    parser.add_argument("--sharded-updates", type=int, default=1_000_000)
    parser.add_argument("--skip-sharded", action="store_true",
                        help="skip the multi-core sharded pass")
    parser.add_argument("--skip-windowed", action="store_true",
                        help="skip the window-policy pass")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: tiny workloads, no speedup gates")
    parser.add_argument("--no-floors", action="store_true",
                        help="skip the absolute per-structure "
                             "updates_per_s floors (enforced even in "
                             "--smoke otherwise)")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_throughput.json"
    )
    args = parser.parse_args()

    if args.smoke:
        args.records = min(args.records, 4000)
        args.star_updates = min(args.star_updates, 50_000)
        args.sharded_updates = min(args.sharded_updates, 50_000)
        args.repeats = 1

    def wants(*names: str) -> bool:
        """True when the pass survives the ``--only`` filter."""
        if not args.only:
            return True
        return any(
            pattern.lower() in name.lower()
            for pattern in args.only
            for name in names
        )

    cores = effective_cores()
    host = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
        "effective_cores": cores,
    }

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()

    def profiled(fn, *fn_args, **fn_kwargs):
        """One measurement pass, under the profiler when asked.

        Only the single-core laggard passes run profiled (the sharded
        pass forks workers the parent profiler cannot see, and the
        windowed/pipeline passes are engine-dominated) — exactly the
        passes a tripped floor points at.
        """
        if profiler is None:
            return fn(*fn_args, **fn_kwargs)
        profiler.enable()
        try:
            return fn(*fn_args, **fn_kwargs)
        finally:
            profiler.disable()

    stream = make_stream(args.records)
    columnar = ColumnarEdgeStream.from_edge_stream(stream)
    item_rates, batch_rates = profiled(
        measure_rates, stream, columnar, args.repeats, only=args.only
    )
    results = {
        name: {
            "item_updates_per_s": item_rates[name],
            "batch_updates_per_s": batch_rates[name],
            "batch_speedup": batch_rates[name] / item_rates[name],
        }
        for name in item_rates
    }
    import time as time_module

    artifact = {
        "benchmark": "throughput_zipf",
        "config": {
            "n": N,
            "records": args.records,
            "d": D,
            "alpha": ALPHA,
            "chunk_size": CHUNK,
            "repeats": args.repeats,
            "smoke": args.smoke,
        },
        "host": host,
        "git": git_metadata(REPO_ROOT),
        "timestamp": time_module.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # kept for backwards compatibility with older artifact readers
        "python": host["python"],
        "machine": host["machine"],
        "results": results,
    }

    run_star = not args.skip_star and wants(
        "star", "StarDetection (end-to-end)"
    )
    if run_star:
        cover = make_star_cover(n_updates=args.star_updates)
        star_item, star_batch = profiled(measure_star_rates, cover)
        star_row = {
            "item_updates_per_s": star_item,
            "batch_updates_per_s": star_batch,
            "batch_speedup": star_batch / star_item,
        }
        artifact["star_detection"] = {
            "config": {
                "n_vertices": STAR_VERTICES,
                "star_degree": STAR_DEGREE,
                "alpha": STAR_ALPHA,
                "eps": STAR_EPS,
                "updates": len(cover),
                "guesses": "geometric ladder over [1, n]",
            },
            **star_row,
        }
        results["StarDetection (end-to-end)"] = dict(star_row)

    run_exact_bank = not args.skip_exact_bank and wants(
        "exact bank", "exact-bank", "Algorithm 3 (FEwW, exact bank)"
    )
    if run_exact_bank:
        bank_columnar = make_exact_bank_stream(args.records)
        bank_item, bank_batch = profiled(
            measure_exact_bank_rates, bank_columnar
        )
        bank_row = {
            "item_updates_per_s": bank_item,
            "batch_updates_per_s": bank_batch,
            "batch_speedup": bank_batch / bank_item,
        }
        artifact["exact_bank"] = {
            "config": {
                "n": EXACT_BANK_N,
                "m": EXACT_BANK_N,
                "count": EXACT_BANK_COUNT,
                "delta": EXACT_BANK_DELTA,
                "updates": len(bank_columnar),
                "mode": "exact (stacked s-sparse recovery kernels)",
            },
            **bank_row,
        }
        results["Algorithm 3 (FEwW, exact bank)"] = dict(bank_row)

    window_rates = None
    if not args.skip_windowed and wants("windowed", "tumbling", "sliding"):
        # Smoke runs shrink the stream, so shrink the window with it to
        # keep several buckets in play.
        span = min(WINDOW_SPAN, max(64, args.records // 8))
        window_rates = measure_window_rates(columnar, span=span)
        artifact["windowed"] = {
            "config": {
                "n": N,
                "records": args.records,
                "d": D,
                "alpha": ALPHA,
                "window": span,
                "bucket_ratio": WINDOW_RATIO,
                "chunk_size": CHUNK,
            },
            "host": host,
            "entries": [
                {"policy": name, "updates_per_s": rate}
                for name, rate in window_rates.items()
            ],
        }

    # Probe-latency pass: cached sliding query() calls per second at
    # chunk-quantized probe points (the Pipeline probe_every hook).
    probe_rate = None
    if not args.skip_windowed and wants("probes", "probe latency"):
        probe_span = min(WINDOW_SPAN, max(64, args.records // 8))
        probe_every = max(256, min(CHUNK, args.records // 8))
        probe_rate = measure_probe_rates(
            columnar, span=probe_span, probe_every=probe_every
        )
        artifact["probes"] = {
            "config": {
                "n": N,
                "records": args.records,
                "window": probe_span,
                "bucket_ratio": WINDOW_RATIO,
                "probe_every": probe_every,
            },
            "host": host,
            "probes_per_s": probe_rate,
        }

    # Spec-driven pass: the same workload family through a JSON job
    # spec (Pipeline.from_dict), so the artifact records that the
    # declarative front door sustains engine rates.
    pipeline_row = None
    if wants("pipeline", "spec"):
        pipeline_span = min(WINDOW_SPAN, max(64, args.records // 8))
        pipeline_row = measure_pipeline(args.records, pipeline_span)
        artifact["pipeline"] = {"host": host, **pipeline_row}

    sharded_rates = None
    if not args.skip_sharded and wants("sharded"):
        with tempfile.TemporaryDirectory() as tmp:
            path = make_sharded_file(
                Path(tmp) / "sharded.npz", n_updates=args.sharded_updates
            )
            sharded_rates = measure_sharded_rates(path, SHARDED_WORKERS)
        def sharded_entry(workers: int) -> dict:
            """One worker count's record, honest about hosts that can't
            scale to it: a ``speedup_vs_single`` measured with more
            workers than effective cores is timesharing overhead, not a
            scaling result, so such entries are flagged ``gated: false``
            (excluded from the scaling gate and the trend report)."""
            entry = {
                "workers": workers,
                "updates_per_s": sharded_rates[workers],
                "speedup_vs_single": sharded_rates[workers] / sharded_rates[1],
            }
            if cores < workers:
                entry["gated"] = False
                entry["gate_skip_reason"] = (
                    f"host has {cores} effective core(s) < {workers} "
                    f"workers; timesharing ratio, not a scaling result"
                )
            elif not sharded_gate_applies():
                entry["gated"] = False
                entry["gate_skip_reason"] = (
                    f"scaling gate needs >= {SHARDED_GATE_MIN_CORES} "
                    f"effective cores and a fork-capable platform"
                )
            else:
                entry["gated"] = True
            return entry

        artifact["sharded"] = {
            "config": {
                "n": N,
                "d": D,
                "alpha": ALPHA,
                "updates": args.sharded_updates,
                "chunk_size": CHUNK,
                "source": "v2 file, mmap, workers self-read",
            },
            "host": host,
            "entries": [
                sharded_entry(workers) for workers in sorted(sharded_rates)
            ],
        }

    # Appendable run history: the top level mirrors this run (older
    # readers keep finding `results` where they always did) and the
    # `history` array accumulates every run, this one last.  Atomic
    # publish: a run interrupted mid-write must never leave a torn
    # artifact where a previous good one stood.
    out = Path(args.out)
    published = dict(artifact)
    published["history"] = append_history(out, artifact)
    scratch = out.with_name(out.name + ".tmp")
    scratch.write_text(json.dumps(published, indent=2) + "\n")
    os.replace(scratch, out)

    header = f"{'structure':32s} {'item k-upd/s':>13s} {'batch k-upd/s':>14s} {'speedup':>8s}"
    print(header)
    print("-" * len(header))
    for name, row in results.items():
        print(
            f"{name:32s} {row['item_updates_per_s'] / 1e3:13.1f} "
            f"{row['batch_updates_per_s'] / 1e3:14.1f} "
            f"{row['batch_speedup']:7.1f}x"
        )
    if window_rates is not None:
        print(f"\nwindowed Algorithm 2 ({args.records} updates, window "
              f"{artifact['windowed']['config']['window']}):")
        for name, rate in window_rates.items():
            print(f"  {name:10s} {rate / 1e3:10.1f} k-upd/s")
    if probe_rate is not None:
        print(f"\nprobe latency (cached sliding query() at "
              f"{artifact['probes']['config']['probe_every']}-update "
              f"probe points): {probe_rate:10.1f} probes/s")
    if pipeline_row is not None:
        print(f"\nspec-driven pipeline (sliding window over "
              f"{pipeline_row['updates']} zipf updates): "
              f"{pipeline_row['updates_per_s'] / 1e3:10.1f} k-upd/s")
    if sharded_rates is not None:
        print(f"\nsharded Algorithm 2 ({args.sharded_updates} updates, "
              f"mmap v2 file, {cores} effective core(s)):")
        for workers in sorted(sharded_rates):
            print(f"  {workers} worker(s): "
                  f"{sharded_rates[workers] / 1e3:10.1f} k-upd/s "
                  f"({sharded_rates[workers] / sharded_rates[1]:.2f}x vs 1)")
    print(f"\nartifact written to {args.out}")

    if profiler is not None:
        import pstats

        print("\n--profile: top 20 by cumulative time "
              "(zipf contenders + star + exact-bank passes)")
        pstats.Stats(profiler, stream=sys.stdout) \
            .sort_stats("cumulative").print_stats(20)
        # Full report to disk so CI can keep it as an artifact (the
        # smoke job uploads it) — the terminal shows the top 20, the
        # file keeps everything a regression hunt needs.
        profile_out = args.profile_out or out.with_name("BENCH_profile.txt")
        with open(profile_out, "w") as handle:
            pstats.Stats(profiler, stream=handle) \
                .sort_stats("cumulative").print_stats()
        print(f"full profile written to {profile_out}")

    # Absolute floors apply in every mode, smoke included — ci.yml's
    # smoke step is what gates them on every push.
    if not args.no_floors:
        below = [
            f"{name} ({results[name]['batch_updates_per_s'] / 1e3:.0f} "
            f"< {floor / 1e3:.0f} k-upd/s)"
            for name, floor in FLOOR_UPDATES_PER_S.items()
            if name in results
            and results[name]["batch_updates_per_s"] < floor
        ]
        if window_rates is not None:
            below.extend(
                f"windowed/{policy} ({window_rates[policy] / 1e3:.0f} "
                f"< {floor / 1e3:.0f} k-upd/s)"
                for policy, floor in WINDOW_FLOOR_UPDATES_PER_S.items()
                if policy in window_rates and window_rates[policy] < floor
            )
        if probe_rate is not None and probe_rate < FLOOR_PROBES_PER_S:
            below.append(
                f"probe latency ({probe_rate:.0f} < "
                f"{FLOOR_PROBES_PER_S} probes/s)"
            )
        if below:
            print(
                "FAIL: batch throughput below the absolute floor for: "
                + ", ".join(below),
                file=sys.stderr,
            )
            return 1

    if args.smoke:
        print("smoke mode: relative speedup gates skipped "
              "(absolute floors enforced)")
        return 0

    failed = [
        name
        for name in REQUIRED_ON
        if name in results
        and results[name]["batch_speedup"] < REQUIRED_SPEEDUP
    ]
    if run_star:
        star_speedup = results["StarDetection (end-to-end)"]["batch_speedup"]
        if star_speedup < REQUIRED_STAR_SPEEDUP:
            failed.append(
                f"StarDetection (end-to-end, {REQUIRED_STAR_SPEEDUP}x bar)"
            )
    if run_exact_bank:
        bank_speedup = results["Algorithm 3 (FEwW, exact bank)"][
            "batch_speedup"
        ]
        if bank_speedup < REQUIRED_EXACT_BANK_SPEEDUP:
            failed.append(
                f"exact ℓ₀ bank ({REQUIRED_EXACT_BANK_SPEEDUP}x bar)"
            )
    if sharded_rates is not None:
        best = max(sharded_rates)
        sharded_speedup = sharded_rates[best] / sharded_rates[1]
        if sharded_gate_applies():
            if sharded_speedup < REQUIRED_SHARDED_SPEEDUP:
                failed.append(
                    f"ShardedRunner ({best} workers, "
                    f"{REQUIRED_SHARDED_SPEEDUP}x bar)"
                )
        else:
            print(
                f"sharded gate skipped: needs >= {SHARDED_GATE_MIN_CORES} "
                f"effective cores (host has {cores}) and a fork-capable "
                f"platform (rates recorded regardless)"
            )
    if failed:
        print(
            "FAIL: speedup below the required bar for: " + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
