"""Bit-identity of the fused guess ladder against the legacy wrapper.

Star Detection's batch path hoists the per-guess work across the whole
``O(log_{1+ε} n)`` ladder: insertion-only, one
:class:`~repro.core.deg_res_sampling.SharedDegreeRuns` drives every
rung's runs (one degree table, one sorted grouping, one threshold-LUT
crossing scan, one witness gather); insertion-deletion, one netting
pass feeds every rung.  The
contract is that none of this hoisting is observable: the resulting
state is bit-identical to the pre-fusion wrapper, which ran one fully
independent algorithm instance per degree guess and fed the whole
stream to each of them separately.

The legacy wrapper is embedded here as the frozen reference
(:class:`_LegacyLadder`): it reproduces the original seeding discipline
exactly — one ``random.Random(seed)`` root, ``getrandbits(64)`` per
guess in ascending ladder order — so every per-run RNG trajectory
coincides with the fused wrapper's and any state divergence is a real
equivalence break, not seed skew.
"""

import random

import numpy as np
import pytest

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.star_detection import StarDetection, degree_guesses
from repro.engine import FanoutRunner, ShardedRunner
from repro.engine.sharded import fork_available
from repro.streams.adapters import bipartite_double_cover_columnar
from repro.streams.persist import dump_stream

N = 512
ALPHA = 2
EPS = 1.0
SEED = 29


class _LegacyLadder:
    """The pre-fusion Star Detection: independent per-guess instances.

    Every rung is a standalone algorithm — each Algorithm 2 rung is its
    own :class:`InsertionOnlyFEwW` with its own degree table — and each
    rung consumes the whole stream on its own.  This is the exact execution the fused
    wrapper replaced; its seeding (root RNG, 64 bits per guess in ladder
    order) matches ``StarDetection.__init__``.
    """

    def __init__(self, n, alpha, eps, seed, model="insertion-only", scale=1.0):
        self.n_vertices = n
        self.model = model
        self.guesses = degree_guesses(n, eps)
        root = random.Random(seed)
        self._runs = []
        for guess in self.guesses:
            run_seed = root.getrandbits(64)
            if model == "insertion-only":
                algorithm = InsertionOnlyFEwW(n, guess, alpha, seed=run_seed)
            else:
                algorithm = InsertionDeletionFEwW(
                    n, n, guess, alpha, seed=run_seed, scale=scale
                )
            self._runs.append((guess, algorithm))

    def process_cover(self, cover):
        for _, algorithm in self._runs:
            algorithm.process(cover)

    def result(self):
        best = None
        for guess, algorithm in self._runs:
            neighbourhood = algorithm.finalize()
            if neighbourhood is None:
                continue
            if best is None or neighbourhood.size > best[0].size:
                best = (neighbourhood, guess)
        return best


def _ladder_state(rungs):
    """Every rung's full reservoir-sampling state, in ladder order;
    ``rungs`` lists ``(guess, runs)`` pairs."""
    out = []
    for guess, runs in rungs:
        for run in runs:
            out.append(
                (
                    guess,
                    run.d1,
                    run._candidates_seen,
                    dict(run._reservoir),
                    list(run._resident),
                )
            )
    return out


def _insertion_stream(seed=7, n=N, size=6000):
    """Simple undirected edges: no self-loops, no duplicate pairs."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=size)
    v = rng.integers(0, n, size=size)
    keep = u != v
    u, v = u[keep], v[keep]
    key = np.minimum(u, v) * n + np.maximum(u, v)
    _, first = np.unique(key, return_index=True)
    first.sort()
    return u[first], v[first]


@pytest.fixture(scope="module")
def cover():
    u, v = _insertion_stream()
    return bipartite_double_cover_columnar(u, v, N, None)


class TestInsertionOnlyLadder:
    # Chunk size 1 is pinned against larger chunks for the whole
    # detector in test_engine_equivalence.py.
    @pytest.mark.parametrize("chunk", (37, 100_000))
    def test_fused_batch_matches_legacy_ladder(self, cover, chunk):
        fused = StarDetection(N, ALPHA, eps=EPS, seed=SEED)
        legacy = _LegacyLadder(N, ALPHA, EPS, SEED)
        for lo in range(0, len(cover.a), chunk):
            fused.process_batch(
                cover.a[lo : lo + chunk],
                cover.b[lo : lo + chunk],
                cover.sign[lo : lo + chunk],
            )
        legacy.process_cover(cover)
        fused_rungs = [
            (guess, fused._shared.runs[rung]) for guess, rung in fused._rungs
        ]
        legacy_rungs = [(guess, alg.runs) for guess, alg in legacy._runs]
        assert _ladder_state(fused_rungs) == _ladder_state(legacy_rungs)
        # The shared ladder counter must equal every legacy rung's own
        # counter (they all observed the identical stream).
        for _, algorithm in legacy._runs:
            assert np.array_equal(
                fused._shared._degrees._degrees, algorithm._degrees._degrees
            )
        ours, theirs = fused.result(), legacy.result()
        assert theirs is not None
        assert (ours.vertex, ours.winning_guess, sorted(ours.neighbourhood.witnesses)) == (
            theirs[0].vertex,
            theirs[1],
            sorted(theirs[0].witnesses),
        )

    def test_split_merge_degree_table_matches_single_pass(self, cover):
        shards = StarDetection(N, ALPHA, eps=EPS, seed=SEED).split(2)
        mask = (cover.a % 2) == 0
        shards[0].process_batch(cover.a[mask], cover.b[mask], cover.sign[mask])
        shards[1].process_batch(
            cover.a[~mask], cover.b[~mask], cover.sign[~mask]
        )
        merged = shards[0].merge(shards[1])
        single = StarDetection(N, ALPHA, eps=EPS, seed=SEED)
        single.process_batch(cover.a, cover.b, cover.sign)
        assert np.array_equal(
            merged._shared._degrees._degrees, single._shared._degrees._degrees
        )
        assert merged._updates_seen == single._updates_seen


class TestInsertionDeletionLadder:
    @pytest.mark.parametrize("chunk", (1, 97, 100_000))
    def test_netting_hoist_matches_legacy_ladder(self, chunk):
        u, v = _insertion_stream(seed=11, n=64, size=800)
        cover = bipartite_double_cover_columnar(u, v, 64, None)
        fused = StarDetection(
            64, 4, eps=2.0, model="insertion-deletion", seed=5, scale=0.02
        )
        legacy = _LegacyLadder(
            64, 4, 2.0, 5, model="insertion-deletion", scale=0.02
        )
        for lo in range(0, len(cover.a), chunk):
            fused.process_batch(
                cover.a[lo : lo + chunk],
                cover.b[lo : lo + chunk],
                cover.sign[lo : lo + chunk],
            )
        legacy.process_cover(cover)
        for (g1, mine), (g2, theirs) in zip(fused._rungs, legacy._runs):
            assert g1 == g2
            assert mine._updates_seen == theirs._updates_seen
            # The banks' query draws are deterministic functions of
            # their (seeded) state; one read of every bank must coincide.
            assert list(mine._support.items()) == list(theirs._support.items())
            assert np.array_equal(mine._sampled_edges(), theirs._sampled_edges())


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@needs_fork
class TestShardedLadder:
    """The fused wrapper through the sharded engine: the hoisted ladder
    must survive vertex-routed splitting and the tree-reduction merge
    with its shared degree table exact."""

    @pytest.fixture(scope="class")
    def star_stream(self, tmp_path_factory):
        rng = np.random.default_rng(3)
        hub = 0
        spokes = np.unique(rng.integers(1, N, size=200))
        nu = rng.integers(1, N, size=3000)
        nv = rng.integers(1, N, size=3000)
        keep = nu != nv
        nu, nv = nu[keep], nv[keep]
        key = np.minimum(nu, nv) * N + np.maximum(nu, nv)
        _, first = np.unique(key, return_index=True)
        first.sort()
        u = np.concatenate([np.full(len(spokes), hub), nu[first]])
        v = np.concatenate([spokes, nv[first]])
        cover = bipartite_double_cover_columnar(u, v, N, None)
        path = tmp_path_factory.mktemp("ladder") / "cover.npz"
        dump_stream(cover, path, format="v2")
        return cover, str(path)

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_degree_table_and_winner_match_single_core(
        self, star_stream, workers
    ):
        stream, path = star_stream
        single = FanoutRunner(
            {"star": StarDetection(N, ALPHA, eps=EPS, seed=SEED)}
        )
        single.run(stream)
        sharded = ShardedRunner(
            {"star": StarDetection(N, ALPHA, eps=EPS, seed=SEED)},
            n_workers=workers,
        )
        sharded.run(path)
        assert np.array_equal(
            single["star"]._shared._degrees._degrees,
            sharded["star"]._shared._degrees._degrees,
        )
        assert single["star"]._updates_seen == sharded["star"]._updates_seen
        ours, theirs = single["star"].result(), sharded["star"].result()
        # Vertex 0 is a planted hub in the double cover; both paths
        # must find a star centred there.
        assert ours.vertex == theirs.vertex
