"""Algorithm 1 state is bit-identical however the stream is delivered.

For the three registry structures built on Algorithm 1 — Algorithm 2
(``insertion-only``), ``topk`` and ``star-detection`` — every
Algorithm 1 run reachable from the processor (slots, admission
ordinals, witness lists, candidate count, seed word and Generator
state) and every degree table must be equal

* across chunk sizes 1, 7, 2,048 and the whole stream;
* across a pickle round trip, and a checkpoint/resume at a random
  offset (in process, and through ``FanoutRunner.resume``);
* between a 2-way split run in process (routed shards, pickled and
  tree-merged) and a 2-worker :class:`ShardedRunner`;

with no window and under every window policy.  The stream is dense
enough that every structure's reservoirs evict, so the draws matter.
"""

import collections
import functools
import pickle

import numpy as np
import pytest

from repro.core.deg_res_sampling import DegResSampling, SharedDegreeRuns
from repro.core.neighbourhood import Neighbourhood
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    ShardedRunner,
    SlidingPolicy,
    TumblingPolicy,
    WindowedProcessor,
)
from repro.engine.faults import FaultPlan
from repro.engine.merge import tree_reduce
from repro.engine.protocol import shard_routing_of
from repro.engine.sharded import fork_available, route_chunk_all
from repro.pipeline.registry import PROCESSORS, RegistryWindowFactory
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.persist import dump_stream

N = 160
UPDATES = 3000
SEED = 23
SPECS = {
    "insertion-only": {"n": N, "d": 30, "alpha": 2},
    "topk": {"n": N, "d": 30, "alpha": 2, "k": 1},
    "star-detection": {"n_vertices": N, "alpha": 2, "eps": 1.0},
}
POLICIES = {
    "none": None,
    "tumbling": TumblingPolicy(700),
    "sliding": SlidingPolicy(600, bucket_ratio=0.25),
    "decay": DecayPolicy(300, keep=2),
}
CHUNK_SIZES = (1, 7, 2048, UPDATES)

structures = pytest.mark.parametrize("name", sorted(SPECS))
policies = pytest.mark.parametrize("policy", sorted(POLICIES))


@functools.lru_cache(maxsize=None)
def stream_columns():
    rng = np.random.default_rng(5)
    heavy = np.minimum(rng.zipf(1.3, size=UPDATES) - 1, N - 1)
    a = np.where(rng.random(UPDATES) < 0.5, heavy, rng.integers(0, N, size=UPDATES))
    b = rng.integers(0, N, size=UPDATES).astype(np.int64)
    return a.astype(np.int64), b


def build(name, policy):
    if POLICIES[policy] is None:
        return PROCESSORS.build(name, dict(SPECS[name], seed=SEED))
    factory = RegistryWindowFactory.of(name, SPECS[name])
    return WindowedProcessor(factory, POLICIES[policy], seed=SEED)


def feed(processor, a, b, chunk, start=0, stop=None):
    stop = len(a) if stop is None else stop
    for low in range(start, stop, chunk):
        high = min(low + chunk, stop)
        processor.process_batch(a[low:high], b[low:high])
    return processor


def alg1_state(processor):
    """Every Algorithm 1 run's state, degree table and answer reachable
    from ``processor``, in traversal order."""
    found, seen = [], set()

    def walk(node):
        if id(node) in seen or isinstance(node, (str, bytes, np.ndarray)):
            return
        seen.add(id(node))
        if isinstance(node, DegResSampling):
            found.append(node.state())
            return
        if isinstance(node, Neighbourhood):
            found.append(node)
            return
        if isinstance(node, SharedDegreeRuns):
            found.append(node._degrees._degrees.tolist())
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, (list, tuple, collections.deque)):
            for value in node:
                walk(value)
        elif hasattr(node, "__dict__"):
            walk(vars(node))

    walk(processor)
    return found


def drew(state):
    """Whether some run drew: the equalities then compare draws."""
    return any(getattr(run, "generator", None) is not None for run in state)


@pytest.fixture
def columns():
    return stream_columns()


@functools.lru_cache(maxsize=None)
def chunk_one_state(name, policy):
    """The state after feeding the stream one update at a time."""
    return alg1_state(feed(build(name, policy), *stream_columns(), 1))


@structures
@policies
class TestChunkingAndSnapshots:
    @pytest.fixture
    def reference(self, name, policy):
        state = chunk_one_state(name, policy)
        assert drew(state)
        return state

    @pytest.mark.parametrize("chunk", CHUNK_SIZES[1:])
    def test_chunk_sizes(self, columns, name, policy, reference, chunk):
        a, b = columns
        assert alg1_state(feed(build(name, policy), a, b, chunk)) == reference

    def test_pickle_and_resume_at_random_offset(self, columns, name, policy, reference):
        a, b = columns
        offset = int(np.random.default_rng(len(name) + len(policy)).integers(1, UPDATES))
        first = feed(build(name, policy), a, b, 7, stop=offset)
        resumed = pickle.loads(pickle.dumps(first))
        assert alg1_state(resumed) == alg1_state(first)
        feed(resumed, a, b, 7, start=offset)
        assert alg1_state(resumed) == reference

    def test_runner_crash_and_resume(self, columns, name, policy, tmp_path):
        # run() finalizes (a tumbling window closes its last bucket),
        # so the reference is an uninterrupted runner pass.
        a, b = columns
        path = str(tmp_path / "stream.npz")
        dump_stream(ColumnarEdgeStream(a, b, n=N, m=N, validate=False), path, format="v2")
        clean = FanoutRunner({"x": build(name, policy)}, chunk_size=113)
        clean.run(path)
        crashing = FanoutRunner(
            {"x": build(name, policy)},
            chunk_size=113,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=3,
            fault_plan=FaultPlan.read_error(worker=0, chunk=10),
        )
        with pytest.raises(OSError, match="injected read error"):
            crashing.run(path)
        resumed = FanoutRunner.resume(tmp_path / "ckpt")
        assert resumed.start_position > 0
        resumed.run()
        assert alg1_state(resumed["x"]) == alg1_state(clean["x"])


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
@structures
@policies
def test_sharded_workers_match_in_process_split(columns, name, policy):
    a, b = columns
    stream = ColumnarEdgeStream(a, b, n=N, m=N, validate=False)
    chunk = 97
    parent = build(name, policy)
    routing = shard_routing_of(parent, name)
    shards = parent.split(2)
    runners = [FanoutRunner({"x": shard}, chunk_size=chunk) for shard in shards]
    for index, low in enumerate(range(0, UPDATES, chunk)):
        part = (a[low : low + chunk], b[low : low + chunk], np.ones(min(chunk, UPDATES - low), dtype=np.int64))
        for runner, piece in zip(runners, route_chunk_all(part, routing, 2, index, low)):
            if piece is not None:
                runner.process_chunk(*piece)
    homes = [pickle.loads(pickle.dumps(runner["x"])) for runner in runners]
    in_process = tree_reduce(homes, lambda mine, theirs: mine.merge(theirs))
    # A tumbling window keeps only the answers of closed buckets, so
    # there the answers carry the comparison.
    assert drew(alg1_state(in_process)) or policy == "tumbling"
    answer = in_process.finalize()
    workers = ShardedRunner({"x": build(name, policy)}, n_workers=2, chunk_size=chunk)
    assert alg1_state(workers.run(stream)["x"]) == alg1_state(answer)
    assert alg1_state(workers["x"]) == alg1_state(in_process)
