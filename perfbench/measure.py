"""Measure one workload at one seed (run in a fresh process by run.py).

Usage: ``python3 perfbench/measure.py --workload NAME --seed N
--seconds S --trace 0|1``, after ``inputs.py NAME N`` has generated
the inputs.

The caller is a closed loop: one process hands the next chunk over
only after the previous call returns, and a pass ends when every
answer exists — ``finalize()`` for every processor and
``sample_edges()`` for the ℓ₀ bank, whose ``finalize()`` leaves
consolidation pending.  Passes repeat until ``--seconds`` is spent,
after one discarded warm-up pass.  Each pass starts with a timed
set-up (spec validation, processor construction, source open).  Every
answer of every pass is checked against the oracle after the last
pass, untimed.

With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced ones, and the spans are written to
``perfbench/_out/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import FanoutRunner, ShardedRunner, WindowedProcessor
from repro.engine.merge import tree_reduce
from repro.engine.protocol import combined_routing, shard_routing_of
from repro.engine.sharded import route_chunk_all
from repro.pipeline import (
    PROCESSORS,
    ExecSpec,
    Pipeline,
    PipelineSpec,
    ProcessorSpec,
    RegistryWindowFactory,
    SourceSpec,
    WindowSpec,
    make_window_policy,
)
from repro.streams import ChunkedStreamReader, ColumnarEdgeStream

import inputs
import oracle
import workloads as wl
from tracing import NULL, Stamped, Traced, TracedFactory, Tracer

OUT = Path(__file__).resolve().parent / "_out"
clock = time.perf_counter

END_TO_END = (
    ("updates_per_s", "1/s"),
    ("chunk_p50_ms", "ms"),
    ("chunk_tail_ms", "ms"),
    ("finalize_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("space_words", "words"),
)

#: Spacemeter labels: every registry processor any workload runs.
SPACE_LABELS = tuple(wl.LAYERS)

PER_LAYER = (
    ("core.insertion_only.ingest_s", "s"),
    ("core.topk.ingest_s", "s"),
    ("baselines.misra_gries.ingest_s", "s"),
    ("baselines.space_saving.ingest_s", "s"),
    ("baselines.count_min.ingest_s", "s"),
    ("baselines.count_sketch.ingest_s", "s"),
    ("engine.runner.self_s", "s"),
    ("engine.runner.chunks", "count"),
    ("core.insertion_deletion.ingest_s", "s"),
    ("core.insertion_deletion.finalize_ms", "ms"),
    ("sketch.l0_bank.ingest_s", "s"),
    ("sketch.l0_bank.sample_ms", "ms"),
    ("sketch.l0_bank.build_ms", "ms"),
    ("sketch.l0_bank.live_ratio", "ratio"),
    ("sketch.l0_bank.midstream_flushes", "count"),
    ("streams.chunk_s", "s"),
    ("streams.read_bytes", "bytes"),
    ("streams.persist.open_ms", "ms"),
    ("engine.sharded.route_s", "s"),
    ("engine.sharded.shard_skew", "ratio"),
    ("engine.sharded.summary_bytes", "bytes"),
    ("engine.sharded.fixed_ms", "ms"),
    ("engine.sharded.w1_run_s", "s"),
    ("engine.merge.tree_reduce_ms", "ms"),
    ("core.star_detection.ingest_s", "s"),
    ("core.star_detection.finalize_ms", "ms"),
    ("engine.windows.ingest_s", "s"),
    ("engine.windows.buckets_closed", "count"),
    ("engine.windows.finalize_ms", "ms"),
    ("engine.windows.query_ms", "ms"),
    ("engine.windows.query_tail_ms", "ms"),
    ("pipeline.build_ms", "ms"),
) + tuple(
    (f"spacemeter.{label}.space_words", "words") for label in SPACE_LABELS
) + (("trace.overhead_pct", "%"),)


class Pass:
    """What one pass measured and answered."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.finalize_s = 0.0
        self.chunk_ms: List[float] = []
        self.probe_ms: List[float] = []
        self.probes: List[Tuple[int, Dict[str, Any]]] = []
        self.answers: Dict[str, Any] = {}
        self.space: Dict[str, int] = {}


# ----------------------------------------------------------------------
# Set-up: spec validation, processor construction, source open.
# ----------------------------------------------------------------------


def make_pipeline(work: wl.Workload, seed: int, source: Any) -> Pipeline:
    if work.backend == "sharded":
        source_spec = SourceSpec.from_file(source, chunk_size=work.chunk, mmap=True)
        execution = ExecSpec(backend="sharded", workers=work.workers)
    else:
        source_spec = SourceSpec.memory(source, chunk_size=work.chunk)
        execution = ExecSpec()
    window = None
    if work.window is not None:
        window = WindowSpec(
            work.window["policy"], work.window["window"],
            bucket_ratio=work.window["bucket_ratio"], seed=wl.run_seed(seed),
        )
    processors = tuple(
        ProcessorSpec(name, params, label=name)
        for name, params in work.processor_specs(seed)
    )
    return Pipeline(PipelineSpec(source_spec, processors, window, execution))


def setup(work: wl.Workload, seed: int, source: Any) -> Tuple[Pipeline, Dict[str, Any], Dict[str, float]]:
    """The timed set-up of one pass; returns the pipeline, its live
    processors and the set-up's parts in seconds."""
    start = clock()
    pipeline = make_pipeline(work, seed, source)
    processors = pipeline.build_processors()
    built = clock()
    if work.backend == "sharded":
        ChunkedStreamReader(source, mmap=True)
    else:
        pipeline.open_source()
    end = clock()
    return pipeline, processors, {
        "setup": end - start, "build": built - start, "open": end - built
    }


def traced_processors(
    pipeline: Pipeline, processors: Dict[str, Any], tracer: Tracer
) -> Tuple[Dict[str, Any], List[TracedFactory]]:
    """The same processors with every layer call recorded as a span.

    Windowed processors are rebuilt the way ``Pipeline`` builds them,
    with a bucket factory whose products are traced too.
    """
    window = pipeline.spec.window
    traced: Dict[str, Any] = {}
    factories: List[TracedFactory] = []
    for spec in pipeline.spec.processors:
        label, layer = spec.effective_label, wl.LAYERS[spec.name]
        if window is None:
            traced[label] = Traced(processors[label], tracer, layer)
            continue
        factory = TracedFactory(
            RegistryWindowFactory.of(spec.name, dict(spec.params)), tracer, layer
        )
        factories.append(factory)
        wrapper = WindowedProcessor(
            factory, make_window_policy(window), seed=window.seed
        )
        traced[label] = Traced(wrapper, tracer, "engine.windows")
    return traced, factories


def unwrap(processor: Any) -> Any:
    return processor.inner if isinstance(processor, Traced) else processor


def pending_updates(processor: Any) -> Optional[int]:
    """Updates the exact ℓ₀ bank holds unconsolidated (None if the
    bank does not buffer)."""
    bank = getattr(unwrap(processor), "_bank", None)
    return getattr(bank, "_pending_len", None)


# ----------------------------------------------------------------------
# Passes.
# ----------------------------------------------------------------------


def fanout_pass(work: wl.Workload, stream: ColumnarEdgeStream,
                processors: Dict[str, Any], tracer: Any) -> Pass:
    result = Pass()
    runner = FanoutRunner(processors, chunk_size=work.chunk)
    bank = processors.get("l0-bank")
    pending = 0
    position, next_probe = 0, work.probe_every
    chunks = stream.chunks(work.chunk)
    start = clock()
    while True:
        with tracer.span("streams.chunk"):
            chunk = next(chunks, None)
        if chunk is None:
            break
        began = clock()
        with tracer.span("engine.runner.process_chunk"):
            runner.process_chunk(*chunk)
        position += len(chunk[0])
        if next_probe is not None and position >= next_probe:
            probe_start = clock()
            answers = {}
            for label, processor in processors.items():
                with tracer.span("engine.windows.query"):
                    answers[label] = processor.query()
            result.probe_ms.append((clock() - probe_start) * 1e3)
            # Keep only what the oracle reads: the probe's merged
            # processor would pin a whole summary per probe.
            result.probes.append((position, {
                label: oracle.Window(a.start_update, a.end_update, a.value)
                for label, a in answers.items()
            }))
            while next_probe <= position:
                next_probe += work.probe_every
        result.chunk_ms.append((clock() - began) * 1e3)
        if bank is not None and tracer.enabled:
            now = pending_updates(bank)
            if now is not None and now < pending + len(chunk[0]):
                tracer.count("sketch.l0_bank.midstream_flushes", 1)
            pending = now or 0
    last_update = clock()
    for label, processor in processors.items():
        result.answers[label] = processor.finalize()
        if label == "l0-bank":
            with tracer.span("sketch.l0_bank.sample"):
                result.answers["l0-bank.samples"] = processor.sample_edges()
    end = clock()
    result.wall_s = end - start
    result.finalize_s = end - last_update
    result.space = space_words({l: unwrap(p) for l, p in processors.items()})
    # Keep only what the oracle reads, so retained answers do not grow
    # peak memory pass by pass: the bank's answer is the whole bank
    # (its samples are kept), a window answer pins a merged summary.
    result.answers.pop("l0-bank", None)
    for label, answer in result.answers.items():
        if hasattr(answer, "start_update"):
            result.answers[label] = oracle.Window(
                answer.start_update, answer.end_update, answer.value
            )
    return result


def sharded_pass(work: wl.Workload, path: Path, processors: Dict[str, Any]) -> Pass:
    """The real multi-process pass.  Chunk ingest happens in the
    workers, so chunk latency and the last update's time come from the
    stamps each shard carries home."""
    result = Pass()
    stamped = {label: Stamped(p) for label, p in processors.items()}
    runner = ShardedRunner(
        stamped, n_workers=work.workers, chunk_size=work.chunk, mmap=True
    )
    start = clock()
    result.answers = runner.run(path)
    end = clock()
    merged = {label: runner[label] for label in runner.names()}
    last_update = max(
        stamp[1]
        for processor in merged.values()
        for shard in processor.stamps
        for stamp in shard
    )
    # A worker's chunk cycle: from one chunk's hand-over to the next
    # (read, route and every processor's ingest), timed at the first
    # processor; the last chunk ends when its ingest returns.
    first = next(iter(merged.values()))
    for shard in first.stamps:
        starts = [stamp[0] for stamp in shard]
        cycles = np.diff(starts).tolist() + [shard[-1][1] - shard[-1][0]]
        result.chunk_ms.extend(cycle * 1e3 for cycle in cycles)
    result.wall_s = end - start
    result.finalize_s = end - last_update
    result.space = space_words({l: p.inner for l, p in merged.items()})
    return result


def emulated_sharded_pass(work: wl.Workload, path: Path,
                          processors: Dict[str, Any], tracer: Any) -> Pass:
    """The sharded pass replayed in this process through the same
    public steps — split, ``route_chunk_all``, per-shard
    ``FanoutRunner.process_chunk``, pickled summaries, ``tree_reduce``,
    ``finalize`` — so each step can be a span.  Every update is read
    and routed once here, where each real worker reads the whole file."""
    result = Pass()
    routing = combined_routing(
        [shard_routing_of(p, label) for label, p in processors.items()]
    )
    workers = work.workers
    pieces = {label: p.split(workers) for label, p in processors.items()}

    def wrap(label: str, piece: Any) -> Any:
        return Traced(piece, tracer, wl.LAYERS[label]) if tracer.enabled else piece

    shards = [
        {label: wrap(label, pieces[label][w]) for label in processors}
        for w in range(workers)
    ]
    runners = [FanoutRunner(shard, chunk_size=work.chunk) for shard in shards]
    routed = [0] * workers
    read_bytes = 0
    start = clock()
    reader = ChunkedStreamReader(path, mmap=True)
    chunks = reader.chunks(work.chunk)
    index = position = 0
    while True:
        with tracer.span("streams.chunk"):
            chunk = next(chunks, None)
        if chunk is None:
            break
        began = clock()
        read_bytes += sum(column.nbytes for column in chunk)
        with tracer.span("engine.sharded.route"):
            parts = route_chunk_all(chunk, routing, workers, index, position)
        for worker, part in enumerate(parts):
            if part is None:
                continue
            with tracer.span("engine.runner.process_chunk"):
                runners[worker].process_chunk(*part)
            routed[worker] += len(part[0])
        index += 1
        position += len(chunk[0])
        result.chunk_ms.append((clock() - began) * 1e3)
    last_update = clock()
    with tracer.span("engine.sharded.summary"):
        blobs = [
            pickle.dumps({label: unwrap(p) for label, p in shard.items()})
            for shard in shards
        ]
        homes = [pickle.loads(blob) for blob in blobs]
    with tracer.span("engine.merge.tree_reduce"):
        merged = {
            label: tree_reduce(
                [home[label] for home in homes],
                lambda mine, theirs: mine.merge(theirs),
            )
            for label in processors
        }
    for label, processor in merged.items():
        with tracer.span(wl.LAYERS[label] + ".finalize"):
            result.answers[label] = processor.finalize()
    end = clock()
    tracer.count("streams.read_bytes", read_bytes)
    tracer.count("engine.sharded.summary_bytes", sum(len(b) for b in blobs))
    tracer.count(
        "engine.sharded.shard_skew", max(routed) / (sum(routed) / workers)
    )
    result.wall_s = end - start
    result.finalize_s = end - last_update
    result.space = space_words(merged)
    return result


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------


class Checker:
    """Checks one workload's answers against the oracle, pass by pass."""

    def __init__(self, work: wl.Workload, seed: int, columns: Dict[str, np.ndarray]):
        self.work = work
        self.seed = seed
        self.tally = oracle.Tally()
        self.live_ratio: List[float] = []
        a, b, sign = columns["a"], columns["b"], columns["sign"]
        self.a = a
        p = work.params
        if work.name == "star-file-sharded":
            self.truth = oracle.Truth(a, b, sign, p["n_vertices"])
        elif work.name == "turnstile-churn-exact":
            self.truth = oracle.Truth(a, b, sign, p["m"])
        elif work.name == "insert-zipf-fanout":
            self.truth = oracle.Truth(a, b, sign, len(a))

    def check(self, result: Pass) -> None:
        answers, tally = result.answers, self.tally
        specs = dict(self.work.processor_specs(self.seed))
        if self.work.name == "sliding-zipf-probes":
            self._check_window(result, specs)
            return
        truth = self.truth
        for label, answer in answers.items():
            params = specs.get(label)
            if label in ("insertion-only", "insertion-deletion"):
                oracle.check_neighbourhood(
                    tally, truth, answer, params["d"], params["alpha"], label
                )
            elif label == "topk":
                if truth.max_degree >= params["d"]:
                    tally.check(bool(answer), "topk: empty answer list")
                for rank, neighbourhood in enumerate(answer):
                    oracle.check_neighbourhood(
                        tally, truth, neighbourhood, params["d"],
                        params["alpha"], f"topk[{rank}]",
                    )
            elif label == "star-detection":
                guess = oracle.star_guess(
                    truth.max_degree, params["n_vertices"], params["eps"]
                )
                oracle.check_neighbourhood(
                    tally, truth,
                    None if answer is None else answer.neighbourhood,
                    guess, params["alpha"], label,
                )
            elif label == "misra-gries":
                oracle.check_counters(tally, truth, label, answer, "mg",
                                      truth.total / (params["k"] + 1))
            elif label == "space-saving":
                oracle.check_counters(tally, truth, label, answer, "ss",
                                      truth.total / params["k"])
            elif label == "count-min":
                oracle.check_counters(tally, truth, label, answer, "cm",
                                      params["epsilon"] * truth.total)
            elif label == "count-sketch":
                oracle.check_counters(
                    tally, truth, label, answer, "cs",
                    oracle.count_sketch_bound(truth, params["width"]),
                )
            elif label == "l0-bank.samples":
                self.live_ratio.append(
                    oracle.check_samples(tally, truth, answer, "l0-bank")
                )

    def _check_window(self, result: Pass, specs: Dict[str, Dict[str, Any]]) -> None:
        window = self.work.window
        bucket = math.ceil(window["window"] * window["bucket_ratio"])
        checks = list(result.probes) + [(len(self.a), result.answers)]
        alg2 = specs["insertion-only"]
        for position, answers in checks:
            oracle.check_window(
                self.tally, self.a, answers["insertion-only"], position,
                window["window"], bucket, alg2["d"], alg2["alpha"], None,
                f"insertion-only@{position}",
            )
            oracle.check_window(
                self.tally, self.a, answers["space-saving"], position,
                window["window"], bucket, 0, 1, specs["space-saving"]["k"],
                f"space-saving@{position}",
            )


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"  peak RSS: caller {own / 1024:.1f} MB, workers {workers / 1024:.1f} MB")
    return max(own, workers) / 1024.0


def space_words(processors: Dict[str, Any]) -> Dict[str, int]:
    return {label: int(p.space_words()) for label, p in processors.items()}


def per_pass_median(series: List[List[float]], pct: float) -> float:
    """Each pass's percentile of a latency series, then the median over
    passes — one pass caught in a slow spell of the host cannot set the
    figure for the whole run."""
    return median([float(np.percentile(s, pct)) for s in series if len(s)])


def best_per_step(series: List[List[float]]) -> np.ndarray:
    """Each step's lowest latency over the passes.  Every pass hands
    over the same chunks in the same order, so step ``i`` does the same
    work in each; the host's slow spells only add to it."""
    return np.min(np.array(series, dtype=np.float64), axis=0)


class Measurement:
    """One run: repeated passes of one workload at one seed."""

    def __init__(self, work: wl.Workload, seed: int, trace: bool) -> None:
        self.work, self.seed, self.trace = work, seed, trace
        self.inputs = inputs.cache_dir(work.name, seed)
        if work.backend == "sharded":
            self.source: Any = self.inputs / "stream.npz"
        else:
            columns = inputs.load_columns(self.inputs)
            self.source = ColumnarEdgeStream(
                columns["a"], columns["b"], columns["sign"],
                n=work.params["n"],
                m=work.params.get("m", len(columns["a"])),
                validate=False,
            )
        self.tracer = Tracer()
        self.setups: List[Dict[str, float]] = []
        self.plain: List[Pass] = []
        self.traced: List[Tuple[int, Pass]] = []
        self.buckets_closed: List[int] = []
        self.bank_builds: List[float] = []

    def one_pass(self, trace_it: bool) -> None:
        work = self.work
        # Earlier passes' retained answers are the benchmark's objects,
        # not the library's: keep them out of every later collection.
        gc.collect()
        gc.freeze()
        pipeline, processors, parts = setup(work, self.seed, self.source)
        self.setups.append(parts)
        tracer: Any = NULL
        if trace_it:
            self.tracer.run_id += 1
            tracer = self.tracer
        if work.backend == "sharded":
            if self.trace:
                result = emulated_sharded_pass(
                    work, self.source, processors, tracer
                )
            else:
                result = sharded_pass(work, self.source, processors)
        elif trace_it:
            processors, factories = traced_processors(
                pipeline, processors, tracer
            )
            if "l0-bank" in processors:
                params = dict(work.processor_specs(self.seed))["l0-bank"]
                began = clock()
                PROCESSORS.build("l0-bank", params)
                self.bank_builds.append(clock() - began)
            result = fanout_pass(work, self.source, processors, tracer)
            if factories:
                # Every close builds the next bucket; the last is open.
                self.buckets_closed.append(sum(f.built - 1 for f in factories))
        else:
            result = fanout_pass(work, self.source, processors, tracer)
        if trace_it:
            self.traced.append((tracer.run_id, result))
        else:
            self.plain.append(result)

    def measure(self, seconds: float) -> None:
        # One discarded pass first: page cache, lazy imports and the
        # allocator warm up before anything is timed.
        self.one_pass(False)
        self.plain.clear()
        self.setups.clear()
        begin = clock()
        while True:
            self.one_pass(False)
            if self.trace:
                self.one_pass(True)
            if clock() - begin >= seconds:
                break
        # Every set-up sample follows a full collection, as the
        # per-pass ones do; short runs add samples up to nine.
        while len(self.setups) < 9:
            gc.collect()
            self.setups.append(setup(self.work, self.seed, self.source)[2])

    def check(self) -> Checker:
        checker = Checker(self.work, self.seed, inputs.load_columns(self.inputs))
        for result in self.plain + [result for _, result in self.traced]:
            checker.check(result)
        return checker

    def end_to_end(self, rss_mb: float) -> Dict[str, float]:
        """Timings are each the best over the run's passes (step by step
        for the chunk latencies) and set-ups: the host slows every
        process on it by up to 1.7x in spells of a tenth of a second and
        longer, and best times are the figures those spells move least
        (see README.md, "Why best times")."""
        passes, work = self.plain, self.work
        steps = best_per_step([p.chunk_ms for p in passes])
        return {
            "updates_per_s": max(work.updates / p.wall_s for p in passes),
            "chunk_p50_ms": float(np.percentile(steps, 50)),
            "chunk_tail_ms": float(np.percentile(steps, work.tail_percentile)),
            "finalize_ms": min(p.finalize_s for p in passes) * 1e3,
            "setup_s": min(s["setup"] for s in self.setups),
            "peak_rss_mb": rss_mb,
            "space_words": median(
                [float(sum(p.space.values())) for p in passes]
            ),
        }

    def per_layer(self, checker: Checker) -> Dict[str, float]:
        """Medians over traced passes of each span's per-pass total
        (self time for the runner), plus counts."""
        work, tracer = self.work, self.tracer
        tables = tracer.per_run()
        runs = [run_id for run_id, _ in self.traced]

        def per_pass(name: str, field: str = "total") -> float:
            return median(
                [tables.get(r, {}).get(name, {}).get(field, 0.0) for r in runs]
            )

        def count(name: str) -> float:
            return median([tracer.counts[r].get(name, 0.0) for r in runs])

        m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
        for layer in wl.LAYERS.values():
            m[f"{layer}.ingest_s"] = per_pass(layer + ".ingest")
        # The window's own share: its buckets' ingest is counted above.
        m["engine.windows.ingest_s"] = per_pass("engine.windows.ingest", "self")
        m["engine.runner.self_s"] = per_pass("engine.runner.process_chunk", "self")
        m["engine.runner.chunks"] = per_pass("engine.runner.process_chunk", "n")
        for layer in ("core.insertion_deletion", "core.star_detection",
                      "engine.windows"):
            m[f"{layer}.finalize_ms"] = per_pass(layer + ".finalize") * 1e3
        m["sketch.l0_bank.sample_ms"] = per_pass("sketch.l0_bank.sample") * 1e3
        m["sketch.l0_bank.build_ms"] = median(self.bank_builds) * 1e3
        m["sketch.l0_bank.live_ratio"] = median(checker.live_ratio)
        for name in ("sketch.l0_bank.midstream_flushes", "streams.read_bytes",
                     "engine.sharded.shard_skew",
                     "engine.sharded.summary_bytes"):
            m[name] = count(name)
        m["streams.chunk_s"] = per_pass("streams.chunk")
        m["engine.sharded.route_s"] = per_pass("engine.sharded.route")
        m["engine.merge.tree_reduce_ms"] = per_pass(
            "engine.merge.tree_reduce"
        ) * 1e3
        m["engine.windows.buckets_closed"] = median(self.buckets_closed)
        # One probe point queries every windowed processor.
        probes = [
            np.asarray(tracer.durations("engine.windows.query", r))
            .reshape(-1, len(work.processors)).sum(axis=1) * 1e3
            for r in runs
        ]
        m["engine.windows.query_ms"] = per_pass_median(probes, 50)
        m["engine.windows.query_tail_ms"] = per_pass_median(
            probes, work.tail_percentile
        )
        m["pipeline.build_ms"] = median([s["build"] for s in self.setups]) * 1e3
        if work.backend == "sharded":
            m["streams.persist.open_ms"] = median(
                [s["open"] for s in self.setups]
            ) * 1e3
            m["engine.sharded.w1_run_s"], m["engine.sharded.fixed_ms"] = (
                self.sharded_baselines()
            )
        for label in SPACE_LABELS:
            m[f"spacemeter.{label}.space_words"] = median(
                [p.space[label] for _, p in self.traced if label in p.space]
            )
        untraced = median([p.wall_s for p in self.plain])
        traced = median([p.wall_s for _, p in self.traced])
        m["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        return m

    def sharded_baselines(self) -> Tuple[float, float]:
        """The same job on one worker (the single-process baseline), and
        the full worker count over a tiny file (the fixed cost)."""
        work, path = self.work, self.source
        _, processors, _ = setup(work, self.seed, path)
        runner = ShardedRunner(processors, n_workers=1, chunk_size=work.chunk,
                               mmap=True)
        began = clock()
        runner.run(path)
        w1 = clock() - began
        fixed = []
        tiny = self.inputs / "tiny.npz"
        for _ in range(3):
            _, processors, _ = setup(work, self.seed, tiny)
            runner = ShardedRunner(processors, n_workers=work.workers,
                                   chunk_size=work.chunk, mmap=True)
            began = clock()
            runner.run(tiny)
            fixed.append(clock() - began)
        return w1, median(fixed) * 1e3


def report(measurement: Measurement, metrics: Dict[str, float], checker: Checker) -> None:
    work, passes = measurement.work, measurement.plain
    units = dict(PER_LAYER if measurement.trace else END_TO_END)
    tally = checker.tally
    print(f"workload {work.name}  seed {measurement.seed}  passes {len(passes)}"
          f"  updates/pass {work.updates}  chunk {work.chunk}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:16.6g} {units[name]}")
    tail = work.tail_percentile
    if not measurement.trace:
        print(f"  chunk_*: p50 and p{tail:g} over {len(passes[0].chunk_ms)} "
              f"steps of each step's best time in {len(passes)} passes")
        probes = [p.probe_ms for p in passes]
        if probes[0]:
            best = best_per_step(probes)
            print(f"  probe_p50_ms {np.percentile(best, 50):.6g} ms, "
                  f"probe_tail_ms (p{tail:g}) {np.percentile(best, tail):.6g} "
                  f"ms, of each probe's best time")
    print(f"  fail_rate {tally.failed}/{tally.attempted}")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def run(args: argparse.Namespace) -> int:
    measurement = Measurement(wl.WORKLOADS[args.workload], args.seed, bool(args.trace))
    measurement.measure(args.seconds)
    rss_mb = peak_rss_mb()
    # Checks come last, so the oracle's memory stays out of peak RSS.
    checker = measurement.check()
    if measurement.trace:
        metrics = measurement.per_layer(checker)
        OUT.mkdir(exist_ok=True)
        measurement.tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = measurement.end_to_end(rss_mb)
    report(measurement, metrics, checker)
    return 0 if checker.tally.failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
