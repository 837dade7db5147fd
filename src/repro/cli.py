"""Command-line interface: a thin client of :mod:`repro.pipeline`.

Subcommands:

* ``run`` — run one declarative :class:`~repro.pipeline.Pipeline`.
  The flags (workload/file source × optional window policy ×
  fanout-or-sharded backend × algorithm) compile to the spec dict a
  ``--spec job.json`` file holds (:func:`spec_from_args`), and one
  body validates, runs and maps every input problem to exit code 2.
  A flag run adds ``--save-stream`` (persist the workload), a source
  line, ground-truth verification and the space breakdown; a spec run
  prints its JSON result.  ``--mmap`` memory-maps a v2 stream file;
  ``--window-policy tumbling|sliding|decay`` (with ``--window``,
  ``--bucket-ratio``, ``--decay-keep``) reports per-window answers;
  ``--checkpoint-dir``/``--checkpoint-every``/``--resume`` and
  ``--retries``/``--timeout-s``/``--on-failure`` override either
  entry's checkpoint and execution sections;
* ``pipeline describe`` — print the processor/generator registries
  (every name a spec can reference, with parameters);
* ``persist`` — inspect (``info``) and convert (``convert``) persisted
  stream files between the v1 text and v2 columnar NPZ formats;
* ``bounds`` — print the paper's predicted space bounds for given
  parameters (both models, upper and lower);
* ``analyze`` — run the static invariant linter + registry contract
  auditor over the package sources (``--strict`` is the CI gate,
  ``--json`` the machine-readable report, ``--diff REV`` restricts to
  files changed since a revision; see :mod:`repro.analysis`);
* ``figures`` — print the paper's three figures as executable
  constructions (delegates to the same code the tests assert on).

Examples::

    python -m repro run --workload star --n 1000 --d 200 --alpha 2
    python -m repro run --workload churn --algorithm insertion-deletion
    python -m repro run --workload zipf --save-stream zipf.npz
    python -m repro run --stream-file zipf.npz --d 64
    python -m repro run --stream-file zipf.npz --d 64 --workers 4 --mmap
    python -m repro run --workload zipf --window-policy sliding --window 2048
    python -m repro run --workload star --window-policy tumbling --window 4096 --workers 4
    python -m repro run --spec job.json
    python -m repro run --spec job.json --checkpoint-dir ckpt --checkpoint-every 8
    python -m repro run --spec job.json --checkpoint-dir ckpt --resume
    python -m repro run --stream-file zipf.npz --workers 4 --retries 3 --timeout-s 60
    python -m repro pipeline describe
    python -m repro persist info zipf.npz
    python -m repro persist convert zipf.npz zipf.txt
    python -m repro bounds --n 4096 --d 128 --alpha 2
    python -m repro analyze --strict
    python -m repro analyze --diff HEAD~1 --json
    python -m repro figures
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.neighbourhood import AlgorithmFailed, verify_neighbourhood
from repro.engine.sharded import ON_FAILURE_POLICIES, ShardedWorkerError
from repro.pipeline import (
    GENERATORS,
    PROCESSORS,
    WINDOW_POLICIES,
    OpenSource,
    Pipeline,
    SourceSpec,
    SpecError,
    open_source,
)
from repro.streams.columnar import DEFAULT_CHUNK_SIZE
from repro.streams.persist import (
    StreamFormatError,
    detect_version,
    dump_stream,
    load_columnar,
)
from repro.theory.bounds import (
    insertion_deletion_lower_bound_words,
    insertion_deletion_space_words,
    insertion_only_lower_bound_words,
    insertion_only_space_words,
)

WORKLOADS = ("star", "cascade", "adversarial", "zipf", "churn")
ALGORITHMS = ("insertion-only", "insertion-deletion")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Frequent Elements with Witnesses — paper reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run an algorithm on a workload")
    run.add_argument("--spec", type=Path, metavar="PATH",
                     help="run a JSON pipeline spec (see the README's "
                          "Pipeline API section); only the fault-tolerance "
                          "flags apply on top of it")
    run.add_argument("--workload", choices=WORKLOADS, default="star")
    run.add_argument("--algorithm", choices=ALGORITHMS, default="insertion-only")
    run.add_argument("--n", type=int, default=512, help="number of items (A-vertices)")
    run.add_argument("--m", type=int, default=4096, help="number of witnesses (B-vertices)")
    run.add_argument("--d", type=int, default=128, help="degree threshold")
    run.add_argument("--alpha", type=int, default=2, help="approximation factor")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale", type=float, default=0.25,
                     help="sampler-count scale for insertion-deletion runs")
    run.add_argument("--stream-file", type=Path, metavar="PATH",
                     help="replay a persisted stream (v1 text or v2 NPZ) "
                          "instead of generating --workload")
    run.add_argument("--save-stream", type=Path, metavar="PATH",
                     help="persist the workload before running it "
                          "(.npz suffix selects the columnar v2 format)")
    run.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                     help="updates per engine chunk")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes; >1 shards the stream through "
                          "a multiprocessing ShardedRunner and merges the "
                          "per-shard summaries")
    run.add_argument("--mmap", action="store_true",
                     help="memory-map the v2 stream file instead of loading "
                          "it (requires --stream-file; the out-of-core path)")
    run.add_argument("--window-policy", choices=WINDOW_POLICIES,
                     help="run the algorithm under an engine window policy "
                          "and report per-window answers")
    run.add_argument("--window", type=int, default=4096,
                     help="window span in updates (tumbling/sliding), or "
                          "bucket size (decay)")
    run.add_argument("--bucket-ratio", type=float, default=0.25,
                     help="sliding only: smooth-histogram bucket ratio "
                          "epsilon; the answer covers the last L updates "
                          "with window <= L <= (1+epsilon)*window")
    run.add_argument("--decay-keep", type=int, default=4,
                     help="decay only: recent buckets kept at full "
                          "resolution before folding into the tail")
    fault = run.add_argument_group(
        "fault tolerance",
        "checkpoint/resume and shard-failure policy; with --spec these "
        "override the spec's own checkpoint/execution settings",
    )
    fault.add_argument("--checkpoint-dir", type=Path, metavar="DIR",
                       help="snapshot processor summaries + stream offset "
                            "into DIR as the run progresses (file sources "
                            "only)")
    fault.add_argument("--checkpoint-every", type=int, metavar="N",
                       help="source chunks between snapshots (requires "
                            "--checkpoint-dir or a spec checkpoint)")
    fault.add_argument("--resume", action="store_true",
                       help="continue from the snapshots in the checkpoint "
                            "directory instead of starting over; a resumed "
                            "run's answers are bit-identical to an "
                            "uninterrupted one")
    fault.add_argument("--retries", type=int, metavar="K",
                       help="sharded runs: respawn a dead/timed-out shard "
                            "worker up to K times with exponential backoff")
    fault.add_argument("--timeout-s", type=float, metavar="S",
                       help="sharded runs: per-shard-attempt wall-clock "
                            "timeout in seconds")
    fault.add_argument("--on-failure", choices=ON_FAILURE_POLICIES,
                       help="sharded runs: what to do with a shard that "
                            "still fails after K retries (raise, retry = "
                            "fail fast only after retries, serial_fallback "
                            "= re-run the shard in-process)")

    persist = subparsers.add_parser(
        "persist", help="inspect and convert persisted stream files"
    )
    persist_commands = persist.add_subparsers(dest="persist_command", required=True)
    info = persist_commands.add_parser(
        "info", help="print a stream file's format, dimensions, and stats"
    )
    info.add_argument("file", type=Path)
    convert = persist_commands.add_parser(
        "convert", help="re-encode a stream file (v1 text <-> v2 NPZ)"
    )
    convert.add_argument("source", type=Path)
    convert.add_argument("destination", type=Path)
    convert.add_argument("--format", choices=("v1", "v2", "auto"), default="auto",
                         help="target format (auto: .npz suffix means v2)")

    bounds = subparsers.add_parser("bounds", help="print the paper's space bounds")
    bounds.add_argument("--n", type=int, default=4096)
    bounds.add_argument("--m", type=int, default=4096)
    bounds.add_argument("--d", type=int, default=128)
    bounds.add_argument("--alpha", type=int, default=2)

    pipeline = subparsers.add_parser(
        "pipeline", help="inspect the declarative pipeline registries"
    )
    pipeline_commands = pipeline.add_subparsers(
        dest="pipeline_command", required=True
    )
    pipeline_commands.add_parser(
        "describe",
        help="print every registered processor and generator with its "
             "parameters",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="static invariant linter + registry contract auditor",
    )
    analyze.add_argument(
        "paths", nargs="*", type=Path, metavar="PATH",
        help="files or directories to lint (default: the installed "
             "repro package sources)",
    )
    analyze.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable report instead of text",
    )
    analyze.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on advisory notes too — the CI gate",
    )
    analyze.add_argument(
        "--diff", metavar="REV", default=None,
        help="only report findings in files changed since REV "
             "(committed or not); skips the registry passes for fast "
             "incremental feedback",
    )
    analyze.add_argument(
        "--no-audit", action="store_true",
        help="skip the runtime contract auditor (static rules only)",
    )

    subparsers.add_parser("figures", help="print the paper's Figures 1-3")
    return parser


def spec_from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The spec dict a flag-driven ``run`` describes: the same dict a
    ``--spec`` file holds, with the processor sized from the flags."""
    if args.stream_file is not None:
        source: Dict[str, Any] = {"kind": "file", "path": str(args.stream_file)}
    else:
        source = {"kind": "generator", "generator": args.workload,
                  "params": {"n": args.n, "m": args.m, "d": args.d,
                             "alpha": args.alpha, "seed": args.seed}}
    source.update(chunk_size=args.chunk_size, mmap=args.mmap)
    params = {"n": args.n, "d": args.d, "alpha": args.alpha}
    if args.algorithm == "insertion-deletion":
        params.update(m=args.m, scale=args.scale)
    spec: Dict[str, Any] = {
        "source": source,
        "processors": [
            {"name": args.algorithm, "label": "algorithm", "params": params}
        ],
        "execution": {"backend": "sharded" if args.workers > 1 else "fanout",
                      "workers": args.workers},
    }
    if args.window_policy is None:
        # Windowed runs seed per-bucket instances from window.seed; a
        # processor-level seed there is a validation conflict.
        params["seed"] = args.seed
    else:
        spec["window"] = {"policy": args.window_policy, "window": args.window,
                          "bucket_ratio": args.bucket_ratio,
                          "keep": args.decay_keep, "seed": args.seed}
    return spec


def _override_fault_flags(data: Any, args: argparse.Namespace) -> None:
    """Merge the fault-tolerance flags into a spec dict's execution and
    checkpoint sections, in place, before the whole is validated.  A
    section that is not an object is left for ``from_dict`` to
    diagnose."""
    if not isinstance(data, dict):
        return
    directory = None if args.checkpoint_dir is None else str(args.checkpoint_dir)
    for section, flags in (
        ("execution", {"retries": args.retries, "timeout_s": args.timeout_s,
                       "on_failure": args.on_failure}),
        ("checkpoint", {"dir": directory, "every": args.checkpoint_every}),
    ):
        given = {key: value for key, value in flags.items() if value is not None}
        base = data.get(section)
        if given and (base is None or isinstance(base, dict)):
            data[section] = {**(base or {}), **given}


def _load_spec_file(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SpecError(f"spec is not valid JSON: {error}") from error


def _open_flag_source(args: argparse.Namespace, data: Dict[str, Any]) -> OpenSource:
    """Open a flag run's source and size its processor from it: the
    source's dimensions, and a generated zipf workload's maximum degree
    as ``d``."""
    source = open_source(SourceSpec.from_dict(data["source"]))
    params = data["processors"][0]["params"]
    params["n"] = source.n
    if "m" in params:
        params["m"] = source.m
    if args.workload == "zipf" and args.stream_file is None:
        params["d"] = source.stream.max_degree()
    return source


def _announce_source(args: argparse.Namespace, source: OpenSource) -> None:
    stream = source.stream
    if stream is None:
        print(f"file {args.stream_file} (mmap): feww-stream v2 "
              f"n={source.n} m={source.m}, {len(source)} updates")
        return
    if args.save_stream is not None:
        dump_stream(stream, args.save_stream, format="auto",
                    trailer=f"workload={args.workload} seed={args.seed}")
        print(f"stream saved to {args.save_stream}")
    label = (f"file {args.stream_file}" if args.stream_file is not None
             else f"workload '{args.workload}'")
    print(f"{label}: {stream.stats()}")


def command_run(args: argparse.Namespace) -> int:
    """Flags or a ``--spec`` file become one spec dict, which runs
    through one body; every input problem exits with code 2."""
    if args.spec is None and args.stream_file and args.save_stream:
        print("error: --save-stream only applies to generated workloads; "
              "use `persist convert` to re-encode an existing stream file",
              file=sys.stderr)
        return 2
    source: Optional[OpenSource] = None
    try:
        data = (_load_spec_file(args.spec) if args.spec is not None
                else spec_from_args(args))
        _override_fault_flags(data, args)
        # Everything that does not depend on the source is validated
        # before a flag run builds a workload or loads a file.
        pipeline = Pipeline.from_dict(data)
        if args.spec is None:
            source = _open_flag_source(args, data)
            pipeline = Pipeline.from_dict(data)
            _announce_source(args, source)
        result = pipeline.run(source=source, resume=args.resume)
    except ShardedWorkerError as error:
        # Input problems inside a worker exit friendly; bugs propagate.
        if not error.is_stream_error:
            raise
        print(f"error: {error.cause_type} in worker:\n{error}",
              file=sys.stderr)
        return 2
    except (StreamFormatError, OSError, ValueError) as error:
        # ValueError covers SpecError and the input mismatches a spec
        # cannot express statically, such as a corrupt mmap chunk.
        where = (f"invalid spec {args.spec}: "
                 if args.spec is not None and isinstance(error, SpecError)
                 else "")
        print(f"error: {where}{error}", file=sys.stderr)
        return 2
    if args.spec is not None:
        print(f"spec: {args.spec}")
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    return report_run(args, result, pipeline.spec.processors[0].params["d"])


def report_run(args: argparse.Namespace, result: Any, d: int) -> int:
    """A flag run's human report; returns 1 when the algorithm fails."""
    algorithm = result.processors["algorithm"]
    report = result.report
    if report.workers > 1:
        print(f"sharded over {report.workers} workers "
              f"(routing: {report.routing!r})")
    if report.checkpoint is not None:
        verb = "resumed from" if report.resumed else "checkpointed to"
        print(f"{verb} {report.checkpoint['dir']}")
    if report.shard_retries:
        print(f"shard retries: {report.shard_retries}")
    if report.shard_fallbacks:
        print(f"shard fallbacks: {report.shard_fallbacks}")
    if args.window_policy is not None:
        report_windowed(args.window_policy, result["algorithm"])
        print(f"space: {algorithm.space_words()} words")
        return 0
    # result() is queried directly (not via the finalized answer) so
    # the failure diagnostics reach the user.
    try:
        answer = algorithm.result()
    except AlgorithmFailed as failure:
        print(f"algorithm reported fail: {failure}")
        return 1
    print(f"reported: {answer}")
    threshold = f"threshold d/alpha = {d / args.alpha:.1f}"
    if result.stream is not None:
        verify_neighbourhood(answer, result.stream.to_edge_stream(), d, args.alpha)
        print(f"{threshold}; verified against ground truth: OK")
    else:
        print(f"{threshold}; ground-truth verification skipped (mmap mode "
              f"never materialises the stream)")
    print(f"space: {algorithm.space_words()} words")
    print(algorithm.space_breakdown())
    return 0


def _describe_window_value(value) -> str:
    """Human line for one window's finalized answer."""
    if value is None:
        return "no qualifying vertex"
    if hasattr(value, "vertex") and hasattr(value, "size"):
        return f"vertex {value.vertex} with {value.size} witnesses"
    return repr(value)


def report_windowed(policy_name: str, answer) -> None:
    """Print a window policy's end-of-stream answer."""
    if policy_name == "tumbling":
        print(f"{len(answer)} completed window(s):")
        for record in answer:
            print(f"  window {record.window_index} "
                  f"[{record.start_update}, {record.end_update}): "
                  f"{_describe_window_value(record.value)}")
        return
    if policy_name == "sliding":
        print(f"sliding window (smooth histogram, {answer.n_buckets} "
              f"bucket(s) of {answer.bucket}):")
        print(f"  covered updates [{answer.start_update}, "
              f"{answer.end_update}) — span {answer.span} for a "
              f"requested window of {answer.window}")
        print(f"  answer: {_describe_window_value(answer.value)}")
        return
    print(f"decay: {len(answer.recent)} recent bucket(s)"
          + (", plus decayed tail" if answer.has_tail else ", no tail yet"))
    for record in answer.recent:
        print(f"  bucket {record.window_index} "
              f"[{record.start_update}, {record.end_update}): "
              f"{_describe_window_value(record.value)}")
    if answer.has_tail:
        print(f"  tail [{answer.tail_start_update}, "
              f"{answer.tail_end_update}): "
              f"{_describe_window_value(answer.tail_value)}")


def command_persist(args: argparse.Namespace) -> int:
    try:
        if args.persist_command == "info":
            version = detect_version(args.file)
            stream = load_columnar(args.file)
            print(f"{args.file}: feww-stream v{version} "
                  f"n={stream.n} m={stream.m}")
            print(f"  {stream.stats()}")
            return 0
        stream = load_columnar(args.source)
        dump_stream(stream, args.destination, format=args.format)
        print(f"wrote {args.destination} "
              f"(feww-stream v{detect_version(args.destination)}, "
              f"{len(stream)} updates)")
        return 0
    except (StreamFormatError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def command_pipeline(args: argparse.Namespace) -> int:
    """``pipeline describe``, its only subcommand."""
    print("processors:")
    for line in PROCESSORS.describe().splitlines():
        print(f"  {line}")
    print("generators:")
    for line in GENERATORS.describe().splitlines():
        print(f"  {line}")
    return 0


def command_bounds(args: argparse.Namespace) -> int:
    n, m, d, alpha = args.n, args.m, args.d, args.alpha
    print(f"paper bounds for n={n}, m={m}, d={d}, alpha={alpha} (words):")
    print(f"  insertion-only upper  (Thm 3.2): "
          f"{insertion_only_space_words(n, d, alpha)}")
    if alpha >= 2:
        print(f"  insertion-only lower  (Thm 4.1+4.8): "
              f"{insertion_only_lower_bound_words(n, d, alpha):.0f}")
    print(f"  insertion-del. upper  (Thm 5.4): "
          f"{insertion_deletion_space_words(n, m, d, alpha)}")
    print(f"  insertion-del. lower  (Thm 6.4): "
          f"{insertion_deletion_lower_bound_words(n, d, alpha):.0f}")
    return 0


def command_analyze(args: argparse.Namespace) -> int:
    """``repro analyze``: run the invariant linter + contract auditor.

    Exit codes: 0 clean, 1 findings (advisory notes only fail under
    ``--strict``), 2 usage/environment error (bad path, bad ``--diff``
    revision).
    """
    import subprocess

    from repro.analysis import analyze as run_analysis
    from repro.analysis import render_json, render_text

    package_dir = Path(__file__).resolve().parent
    paths = [Path(p) for p in args.paths] or [package_dir]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    # Repo root for display paths and --diff: the directory holding
    # src/ when running from a checkout, else the package parent.
    root = (
        package_dir.parent.parent
        if package_dir.parent.name == "src"
        else package_dir.parent
    )
    try:
        report = run_analysis(
            paths,
            root=root,
            audit=not args.no_audit,
            diff_rev=args.diff,
        )
    except subprocess.CalledProcessError as error:
        stderr = (error.stderr or "").strip()
        print(
            f"error: git failed resolving --diff {args.diff!r}"
            + (f": {stderr}" if stderr else ""),
            file=sys.stderr,
        )
        return 2
    if args.as_json:
        print(json.dumps(render_json(
            report.diagnostics, files_scanned=report.files_scanned
        ), indent=2))
    else:
        print(render_text(report.diagnostics))
        print(f"({report.files_scanned} file(s) scanned)")
    return report.exit_code(strict=args.strict)


def command_figures(_: argparse.Namespace) -> int:
    from repro.comm.figures import render_figures

    print(render_figures())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "run": command_run, "persist": command_persist,
        "pipeline": command_pipeline, "bounds": command_bounds,
        "analyze": command_analyze, "figures": command_figures,
    }[args.command]
    return command(args)


if __name__ == "__main__":
    raise SystemExit(main())
