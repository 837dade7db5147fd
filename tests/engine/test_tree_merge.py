"""Tree-reduction merge: schedule, order contract, process pool.

The contract under test (see :mod:`repro.engine.merge`): shard
summaries combine along a binomial reduction tree whose shape is a
fixed function of the worker count, the receiver is always the lower
shard index, and for associative merges the result is bit-identical to
the sequential left-fold — which makes the parent-side merge of the
process pool's shard summaries indistinguishable from in-process shard
runs and from a single-core pass for every linear/exact structure.
"""

import numpy as np
import pytest

from repro.baselines import CountMinSketch, CountSketch, FullStorage
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.engine import (
    CheckpointStore,
    FanoutRunner,
    FaultPlan,
    ShardedRunner,
    as_chunks,
)
from repro.engine.merge import tree_reduce, tree_rounds
from repro.engine.sharded import (
    RUN_TAG,
    ShardedWorkerError,
    fork_available,
    shard_checkpoint_tag,
)
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.persist import dump_stream

CHUNK = 173


# ----------------------------------------------------------------------
# The schedule.
# ----------------------------------------------------------------------


class TestTreeRounds:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_every_shard_sends_exactly_once_except_zero(self, n):
        senders = [s for pairs in tree_rounds(n) for _, s in pairs]
        assert sorted(senders) == list(range(1, n))

    @pytest.mark.parametrize("n", range(1, 18))
    def test_receiver_is_always_the_lower_index(self, n):
        for pairs in tree_rounds(n):
            for receiver, sender in pairs:
                assert receiver < sender

    @pytest.mark.parametrize("n", range(2, 18))
    def test_log_depth(self, n):
        assert len(tree_rounds(n)) == (n - 1).bit_length()

    def test_receives_precede_the_send(self):
        # A shard's send round is the lowest set bit of its index; it
        # only receives in strictly earlier rounds, so it is fully
        # merged by the time it is folded into its receiver.
        n = 13
        for k, pairs in enumerate(tree_rounds(n)):
            for receiver, sender in pairs:
                assert sender % (2 ** (k + 1)) == 2**k
                assert receiver % (2 ** (k + 1)) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_rounds(0)


# ----------------------------------------------------------------------
# The in-process reduction.
# ----------------------------------------------------------------------


class TestTreeReduce:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_matches_left_fold_for_associative_merge(self, n):
        # Tuple concatenation is associative but not commutative, so
        # this checks both the result and the left-to-right order.
        items = [(i,) for i in range(n)]
        assert tree_reduce(items, lambda x, y: x + y) == tuple(range(n))

    def test_pairing_shape(self):
        # Non-associative merge exposes the exact tree: for five
        # shards, ((0+1)+(2+3))+4.
        shape = tree_reduce(list(range(5)), lambda x, y: (x, y))
        assert shape == (((0, 1), (2, 3)), 4)

    def test_single_item_returned_unmerged(self):
        marker = object()
        assert tree_reduce([marker], lambda x, y: None) is marker

    def test_receiver_is_left_operand(self):
        calls = []

        def merge(x, y):
            calls.append((x, y))
            return x

        tree_reduce([0, 1, 2, 3], merge)
        assert calls == [(0, 1), (2, 3), (0, 2)]


# ----------------------------------------------------------------------
# The process pool, merged in the parent, over either chunk source.
# ----------------------------------------------------------------------


def _stream():
    rng = np.random.default_rng(19)
    a = rng.integers(0, 64, size=2400)
    b = rng.integers(0, 4000, size=2400)
    # Insertion-only streams must not re-insert a live edge; keep the
    # first occurrence of every (a, b) pair.
    _, first = np.unique(a * 4000 + b, return_index=True)
    first.sort()
    return ColumnarEdgeStream(a[first], b[first], n=64, m=4000)


def _factory():
    return {
        "cm": CountMinSketch(0.05, 0.05, seed=5),
        "cs": CountSketch(256, 5, seed=9),
        "alg2": InsertionOnlyFEwW(64, 80, 2, seed=13),
        "full": FullStorage(64, 4000),
    }


class _PoisonSketch(CountMinSketch):
    """Raises midway through its shard: exercises pool fail-fast."""

    def process_batch(self, a, b, sign=None):
        if np.any(np.asarray(a) == 63):
            raise ValueError("poison vertex observed")
        super().process_batch(a, b, sign)


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    stream = _stream()
    path = tmp_path_factory.mktemp("tree") / "stream.npz"
    dump_stream(stream, path, format="v2")
    return stream, str(path)


def _source(stream_file, kind):
    """The file path, or the in-memory stream the workers inherit."""
    stream, path = stream_file
    return path if kind == "file" else stream


@needs_fork
@pytest.mark.parametrize("kind", ("file", "memory"))
class TestProcessPoolTree:
    @pytest.mark.parametrize("workers", (2, 3, 4, 5))
    def test_matches_single_core_bit_identically(
        self, stream_file, workers, kind
    ):
        single = FanoutRunner(_factory(), chunk_size=CHUNK)
        single.run(stream_file[0])
        runner = ShardedRunner(
            _factory(), n_workers=workers, chunk_size=CHUNK
        )
        runner.run(_source(stream_file, kind))
        assert np.array_equal(single["cm"]._table, runner["cm"]._table)
        assert np.array_equal(single["cs"]._table, runner["cs"]._table)
        assert single["full"]._neighbours == runner["full"]._neighbours

    @pytest.mark.parametrize("workers", (2, 3, 4, 5))
    def test_matches_in_process_shards(
        self, stream_file, workers, kind, monkeypatch
    ):
        in_process = ShardedRunner(
            _factory(), n_workers=workers, chunk_size=CHUNK
        )
        with monkeypatch.context() as patch:
            patch.setattr("repro.engine.sharded._fork_context", lambda: None)
            in_process.run(stream_file[1])
        process = ShardedRunner(
            _factory(), n_workers=workers, chunk_size=CHUNK
        )
        process.run(_source(stream_file, kind))
        assert np.array_equal(in_process["cm"]._table, process["cm"]._table)
        assert np.array_equal(in_process["cs"]._table, process["cs"]._table)
        for left, right in zip(
            in_process["alg2"].runs, process["alg2"].runs
        ):
            assert left.state().candidates_seen == right.state().candidates_seen
            assert left.state().reservoir == right.state().reservoir

    def test_worker_error_fails_fast_with_root_cause(self, stream_file, kind):
        runner = ShardedRunner(
            {"poison": _PoisonSketch(0.05, 0.05, seed=5)},
            n_workers=4,
            chunk_size=CHUNK,
        )
        with pytest.raises(ShardedWorkerError) as excinfo:
            runner.run(_source(stream_file, kind))
        # The reported cause must be the worker's actual exception,
        # not the death of the workers the parent then terminates.
        assert excinfo.value.cause_type == "ValueError"
        assert "poison vertex observed" in str(excinfo.value)


def _assert_same_shards(mine, theirs):
    assert np.array_equal(mine["cm"]._table, theirs["cm"]._table)
    assert np.array_equal(mine["cs"]._table, theirs["cs"]._table)
    assert mine["full"]._neighbours == theirs["full"]._neighbours
    for left, right in zip(mine["alg2"].runs, theirs["alg2"].runs):
        assert left.state().candidates_seen == right.state().candidates_seen
        assert left.state().reservoir == right.state().reservoir


@needs_fork
class TestInProcessShards:
    """Without fork every shard runs in-process through the same drive
    loop; the answers stay bit-identical to the process pool."""

    def test_one_shot_in_memory_source_is_replayed(
        self, stream_file, monkeypatch
    ):
        process = ShardedRunner(_factory(), n_workers=3, chunk_size=CHUNK)
        process.run(stream_file[0])
        monkeypatch.setattr("repro.engine.sharded._fork_context", lambda: None)
        in_process = ShardedRunner(_factory(), n_workers=3, chunk_size=CHUNK)
        # A chunk iterator can be consumed once; every shard still sees
        # the whole stream.
        in_process.run(as_chunks(stream_file[0], CHUNK))
        _assert_same_shards(in_process, process)
        assert in_process.fallbacks_used == 3

    def test_checkpoint_resume_matches_process_pool(
        self, stream_file, tmp_path, monkeypatch
    ):
        process = ShardedRunner(_factory(), n_workers=3, chunk_size=CHUNK)
        process.run(stream_file[1])
        monkeypatch.setattr("repro.engine.sharded._fork_context", lambda: None)
        ckpt = tmp_path / "ckpt"
        crashing = ShardedRunner(
            _factory(), n_workers=3, chunk_size=CHUNK,
            checkpoint_dir=ckpt, checkpoint_every=2,
            fault_plan=FaultPlan.read_error(worker=1, chunk=5),
        )
        with pytest.raises(OSError, match="injected"):
            crashing.run(stream_file[1])
        # Older run manifests carry a "backend" key; resume ignores it.
        store = CheckpointStore(ckpt)
        manifest = store.load(RUN_TAG)
        store.save(
            RUN_TAG, manifest.state, chunk_index=0, position=0,
            meta={**manifest.meta, "backend": "serial"},
        )
        assert store.load(shard_checkpoint_tag(0)).complete
        assert store.load(shard_checkpoint_tag(1)).chunk_index == 4
        resumed = ShardedRunner.resume(ckpt)
        resumed.run()
        _assert_same_shards(resumed, process)
