"""ℓ₀-samplers: uniform sampling from the support of a signed vector.

An ℓ₀-sampler processes a stream of signed coordinate updates to an
implicit vector of dimension ``dim`` and, at query time, outputs a
(near-)uniform member of the final support — correct even when updates
cancel.  The paper's insertion-deletion algorithm (Algorithm 3) consumes
these as a black box, citing Jowhari–Sağlam–Tardos [26] for the bound
``O(log²(dim) · log(1/δ))`` bits per sampler.

:class:`L0Sampler` is the textbook sampler of Cormode and Firmani, "A
unifying framework for ℓ₀-sampling algorithms" (2014): ``R``
independent repetitions, each a pairwise level hash over ``L =
ceil(log2 dim) + 1`` nested geometric levels and one 1-sparse cell
(:mod:`repro.sketch.onesparse`) per level.

Layout
------
Coordinate ``x`` survives level ``l`` of repetition ``r`` when the low
``l`` bits of ``h_r(x)`` are zero, so levels are nested with survival
probabilities 1, 1/2, 1/4, ...  Each update lands ONCE per repetition,
in the cell of its deepest level ``min(trailing_zeros(h_r(x)), L - 1)``;
the nested level-``l`` cell is the suffix sum of the cells at levels
``>= l``.  A repetition therefore succeeds exactly when its deepest
non-empty cell is 1-sparse: that cell equals the nested cell at its
level, every deeper nested level is empty, and every shallower one
holds a superset.  It returns that cell's coordinate, the unique
coordinate of maximal level.  The sampler answers with its first
successful repetition (independent repetitions, so the first success is
as uniform as each one), or fails when none succeeds.

A bank of samplers keeps every cell in three ``(sampler, repetition,
level)`` planes, so a batch is one scatter of ``samplers × R`` entries
per netted coordinate and a read is one argmax (deepest non-empty cell)
plus one fingerprint check per (sampler, repetition).

Repetitions
-----------
``R = ceil(ln δ / ln(1 - p))`` with ``p = 1/2`` (:data:`REPETITION_SUCCESS`),
a lower bound on one repetition's success probability.  Under a fully
random level hash, a repetition succeeds when the maximum of ``k =
|support|`` independent Geometric(1/2) levels is unique: probability 1
at ``k = 1``, exactly 2/3 at ``k = 2`` (pairwise independence already
gives this), 0.714 at ``k = 3``, and within 0.721 ± 0.003 for every
``k >= 4`` (limit ``1 / (2 ln 2)``).  For larger supports a pairwise
hash only guarantees 2/9 by the second Bonferroni bound at the level
``l`` with ``k 2^-l`` in ``[1/3, 2/3]``; the measured per-repetition
rate of the pairwise hashes used here is 0.67 at two live coordinates
and 0.71–0.72 at 8 to 2,000 (``tests/sketch/test_l0_claims.py``), so
``p = 1/2`` leaves a margin below the ideal value and the claims test
guards it.  At
``dim = 2**18``: ``R = 5`` and 296 words at δ = 0.05, ``R = 71`` and
4,190 words at δ = 4.3e-22.

Fingerprints
------------
Every cell of a sampler fingerprints with ONE base ``z``.  A cell whose
vector is not the single coordinate it decodes to (or is non-empty but
reads as all-zero) passes with probability at most ``dim / (2^61 - 1)``
(a non-zero polynomial of degree below ``dim`` has at most that many
roots), so a union bound over the ``R · L`` cells bounds a misread of
any cell of a sampler: at ``dim = 2**18`` and δ = 0.05, ``95 · 2^18 /
(2^61 - 1) ≈ 1.1e-11``.  ``z^x`` is read from a windowed power table
(3 × 64 entries at ``dim = 2**18``) derived from ``z`` and not charged.

Draw order: per sampler, its ``R`` level hashes (repetition by
repetition), then its base ``z``; a bank draws its samplers in order,
so sampler ``i`` of a bank equals an :class:`L0Sampler` built after
``i`` others from the same ``random.Random``.  A sampler is charged 3
words per cell, 2 per level hash and 1 for ``z``.

:class:`L0SamplerBank` holds the many real samplers Algorithm 3 needs
in the stacked planes above; update columns are buffered and netted
together before one kernel pass.  :class:`FastL0Bank` stands in for it
when the owner tracks the exact support once (simulator state, not
charged): it is a count, δ and a 64-bit seed word, and its NumPy
``Generator`` is built from the seed at the first non-empty read.  A
read draws from the sorted support the owner hands it: a δ failure mask
from ``random(count)`` then ``count`` uniform picks with ``integers``.
Distributionally this matches a bank of ideal ℓ₀-samplers; space is
*accounted* with the paper's formula (:func:`l0_sampler_space_words`).
Algorithm 3 keeps one support for all of its banks; :class:`L0EdgeBank`
keeps the one of a standalone bank.  Owners pick the class once from
their ``mode`` value with :func:`bank_class`.

Both classes answer with ``sample_column``, an ``int64`` column with -1
for a failed sampler; ``sample_all`` is its list view.
"""

from __future__ import annotations

import copy
import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.protocol import BatchIngest
from repro.sketch.exact import ExactSupport, check_columns, net_updates
from repro.sketch.hashing import PRIME_61, _fold61, degree1_field, random_kwise
from repro.sketch.onesparse import (
    build_power_table,
    one_sparse_cells,
    scatter_cells,
    signed_terms,
    table_powers,
)
from repro.streams.edge import check_edge_range, insert_signs


#: Exact-mode banks buffer update columns and consolidate them with one
#: kernel pass once this many coordinates are pending (or at the next
#: query/merge/pickle).  Linearity makes the final state independent of
#: when the buffered updates land.
_BANK_FLUSH_PENDING = 1 << 18
#: Cell contributions per kernel slice (netted coordinates × samplers ×
#: repetitions), bounding the transient entry arrays.
_BANK_ENTRY_CHUNK = 1 << 20
#: Per-repetition success lower bound ``p`` (see the module docstring).
REPETITION_SUCCESS = 0.5


def l0_sampler_space_words(dim: int, delta: float) -> int:
    """Paper-accounted words for one ℓ₀-sampler.

    Jowhari et al. give ``O(log²(dim) · log(1/δ))`` bits; we account
    ``ceil(log2(dim))² · ceil(log2(1/δ))`` bits rounded up to words,
    with constant 1 (the comparisons in the benchmarks are about shape,
    not constants).
    """
    if dim <= 1:
        log_dim = 1
    else:
        log_dim = math.ceil(math.log2(dim))
    log_delta = max(1, math.ceil(math.log2(1.0 / delta)))
    bits = log_dim * log_dim * log_delta
    return max(1, math.ceil(bits / 64))


class L0SamplerBank:
    """A bank of ``count`` independent exact ℓ₀-samplers over one vector.

    Args:
        dim: vector dimension shared by all samplers.
        count: number of samplers.
        delta: per-sampler failure probability.
        rng: randomness source.
    """

    def __init__(
        self, dim: int, count: int, delta: float, rng: random.Random
    ) -> None:
        _check_shape(dim, count)
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.dim = dim
        self.count = count
        self.delta = delta
        # L = ceil(log2 dim) + 1 levels, R = ceil(ln δ / ln(1 - p)).
        self.n_levels = max(1, math.ceil(math.log2(dim)) + 1)
        self.n_reps = max(
            1, math.ceil(math.log(delta) / math.log(1 - REPETITION_SUCCESS))
        )
        coefficients, bases = [], []
        for _ in range(count):
            for _ in range(self.n_reps):
                coefficients.append(
                    random_kwise(2, 1 << self.n_levels, rng).coefficients
                )
            bases.append(rng.randrange(2, PRIME_61))
        pairs = np.array(coefficients, dtype=np.uint64).reshape(
            count, self.n_reps, 2
        )
        self._level_a, self._level_b = pairs[..., 0], pairs[..., 1]
        self._z = np.array(bases, dtype=np.uint64)
        # Derived from the bases, not charged.
        self._table = build_power_table(self._z, dim)
        shape = (count, self.n_reps, self.n_levels)
        self._weight = np.zeros(shape, dtype=np.int64)
        self._dot = np.zeros(shape, dtype=np.int64)
        self._fingerprint = np.zeros(shape, dtype=np.uint64)
        # Buffered (indices, deltas, already-netted) update columns,
        # consolidated by _flush_updates (see _BANK_FLUSH_PENDING).
        self._pending: List[Tuple[np.ndarray, np.ndarray, bool]] = []
        self._pending_len = 0

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------

    def update(self, index: int, delta: int) -> None:
        """Queue ``vector[index] += delta`` for every sampler."""
        self.update_batch(
            np.array([index], dtype=np.int64), np.array([delta], dtype=np.int64)
        )

    def update_batch(
        self,
        indices: np.ndarray,
        deltas: np.ndarray,
        netted: bool = False,
    ) -> None:
        """Queue a batch of signed updates for every sampler.

        The columns are validated, copied (callers may reuse chunk
        buffers) and buffered; consolidation nets every buffered chunk
        per coordinate in one pass and absorbs the net updates with one
        kernel pass (:meth:`_absorb`), at :data:`_BANK_FLUSH_PENDING`
        pending coordinates or at the next read, merge or pickle.
        ``netted=True`` promises ``indices`` are already unique with
        per-coordinate net ``deltas``, which lets a lone buffered chunk
        skip re-netting.  Every sampler is a linear sketch, so the state
        equals applying the updates one by one.
        """
        check_columns(indices, deltas)
        if len(indices) == 0 or not self.count:
            return
        indices = np.asarray(indices)
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        self._pending.append(
            (
                np.array(indices, dtype=np.int64),
                np.array(np.asarray(deltas), dtype=np.int64),
                bool(netted),
            )
        )
        self._pending_len += len(indices)
        if self._pending_len >= _BANK_FLUSH_PENDING:
            self._flush_updates()

    def _flush_updates(self) -> None:
        """Net every buffered batch and absorb it in one kernel pass."""
        if not self._pending:
            return
        pending, self._pending, self._pending_len = self._pending, [], 0
        if len(pending) == 1 and pending[0][2]:
            unique, net = pending[0][0], pending[0][1]
        else:
            unique, net = net_updates(
                np.concatenate([batch[0] for batch in pending]),
                np.concatenate([batch[1] for batch in pending]),
                self.dim,
            )
        step = max(1, _BANK_ENTRY_CHUNK // (self.count * self.n_reps))
        for start in range(0, len(unique), step):
            self._absorb(unique[start : start + step], net[start : start + step])

    def _levels(self, indices: np.ndarray) -> np.ndarray:
        """Deepest level of every index in every (sampler, repetition):
        an ``int64`` array shaped ``(count, R, len(indices))``.

        The level is the trailing-zero count of the level hash's field
        value (the low bits of ``h(x) mod 2^L`` are those of ``h(x)``),
        capped at ``L - 1``; the lowest set bit ``v & -v`` is a power of
        two below 2^61, so its float64 exponent is exact.
        """
        field = degree1_field(
            self._level_a[:, :, np.newaxis],
            self._level_b[:, :, np.newaxis],
            indices[np.newaxis, np.newaxis, :],
        )
        lowest = field & (~field + np.uint64(1))
        zeros = np.frexp(lowest.astype(np.float64))[1].astype(np.int64) - 1
        top = self.n_levels - 1
        return np.where((zeros < 0) | (zeros > top), top, zeros)

    def _absorb(self, unique: np.ndarray, net: np.ndarray) -> None:
        """Add netted updates to every sampler: each coordinate lands
        once per (sampler, repetition), in its deepest level's cell."""
        count, reps, levels = self._weight.shape
        samplers = np.arange(count, dtype=np.int64)
        terms = signed_terms(
            table_powers(self._table, unique[np.newaxis, :], samplers[:, np.newaxis]),
            net[np.newaxis, :],
        )
        rows = samplers[:, np.newaxis] * reps + np.arange(reps, dtype=np.int64)
        addr = rows[:, :, np.newaxis] * levels + self._levels(unique)
        shape = addr.shape
        scatter_cells(
            self._weight.reshape(-1),
            self._dot.reshape(-1),
            self._fingerprint.reshape(-1),
            addr.ravel(),
            np.broadcast_to(net, shape).ravel(),
            np.broadcast_to(unique * net, shape).ravel(),
            np.broadcast_to(terms[:, np.newaxis, :], shape).ravel(),
        )

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def merge(self, other: "L0SamplerBank") -> "L0SamplerBank":
        """Add the cell planes of a same-seed bank over a disjoint
        sub-stream of the same vector."""
        _check_mergeable(self, other)
        if not (
            np.array_equal(self._level_a, other._level_a)
            and np.array_equal(self._level_b, other._level_b)
            and np.array_equal(self._z, other._z)
        ):
            raise ValueError(
                "cannot merge l0-samplers with different level hashes or "
                "fingerprint bases; split both from the same seeded structure"
            )
        self._flush_updates()
        other._flush_updates()
        self._weight += other._weight
        self._dot += other._dot
        self._fingerprint[:] = _fold61(self._fingerprint + other._fingerprint)
        return self

    def clone(self) -> "L0SamplerBank":
        """An independent copy.  The cell planes and the buffer list are
        copied; the hash coefficients, bases and power tables are never
        written, so they are shared."""
        dup = object.__new__(type(self))
        dup.__dict__.update(self.__dict__)
        dup._weight = self._weight.copy()
        dup._dot = self._dot.copy()
        dup._fingerprint = self._fingerprint.copy()
        dup._pending = list(self._pending)
        return dup

    def __getstate__(self):
        # Pickles and deep copies carry consolidated planes only.
        self._flush_updates()
        return self.__dict__

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    def sample_column(self) -> np.ndarray:
        """Every sampler's answer, -1 where it failed.

        Per (sampler, repetition) the deepest non-empty cell is found
        with one argmax over the reversed level axis and classified with
        one vectorized 1-sparse check; each sampler answers with its
        first successful repetition.
        """
        self._flush_updates()
        if not self.count:
            return np.zeros(0, dtype=np.int64)
        live = (self._weight != 0) | (self._dot != 0) | (self._fingerprint != 0)
        deepest = self.n_levels - 1 - np.argmax(live[:, :, ::-1], axis=2)
        at = deepest[:, :, np.newaxis]
        samplers = np.arange(self.count, dtype=np.int64)[:, np.newaxis]
        index, success = one_sparse_cells(
            np.take_along_axis(self._weight, at, axis=2)[:, :, 0],
            np.take_along_axis(self._dot, at, axis=2)[:, :, 0],
            np.take_along_axis(self._fingerprint, at, axis=2)[:, :, 0],
            self.dim,
            self._table,
            samplers,
        )
        success &= live.any(axis=2)
        first = np.argmax(success, axis=1)
        column = index[samplers[:, 0], first]
        column[~success.any(axis=1)] = -1
        return column

    def distinct_samples(self) -> np.ndarray:
        """The sorted distinct coordinates one read returns."""
        column = self.sample_column()
        return np.unique(column[column >= 0])

    def sample_all(self) -> List[Optional[int]]:
        """:meth:`sample_column` as a list, None where a sampler failed."""
        return [None if s < 0 else s for s in self.sample_column().tolist()]

    def space_words(self) -> int:
        """Every sampler's cells (3 words each), level hashes (2 words
        each) and base."""
        per_sampler = self.n_reps * (3 * self.n_levels + 2) + 1
        return self.count * per_sampler


class FastL0Bank:
    """A bank of ``count`` ideal ℓ₀-samplers, simulated by draws from
    the sorted support its owner tracks (see the module docstring).

    Holds ``dim``, ``count``, ``delta`` and one seed word, a
    ``getrandbits(64)`` from ``rng``; a bank that was never read (and
    every clone of it) has no ``Generator``.
    """

    def __init__(
        self, dim: int, count: int, delta: float, rng: random.Random
    ) -> None:
        _check_shape(dim, count)
        self.dim = dim
        self.count = count
        self.delta = delta
        self.seed = rng.getrandbits(64)
        self._generator: Optional[np.random.Generator] = None

    def generator(self) -> np.random.Generator:
        """The draw generator, built from the seed word at first use."""
        if self._generator is None:
            self._generator = np.random.default_rng(self.seed)
        return self._generator

    def merge(self, other: "FastL0Bank") -> "FastL0Bank":
        """A fast bank holds no vector (its owner merges the supports)
        and keeps its own generator, so a bank reassembled from
        same-seed shards answers bit-identically to a single pass."""
        _check_mergeable(self, other)
        return self

    def clone(self) -> "FastL0Bank":
        """An independent copy: the seed word, and the generator state
        once a read has built the generator."""
        dup = copy.copy(self)
        if self._generator is not None:
            dup._generator = copy.deepcopy(self._generator)
        return dup

    def _draw_picks(self, support: np.ndarray) -> np.ndarray:
        """One read over ``support``: sampler ``i`` answers
        ``support[picks[i]]`` or fails where ``picks[i]`` is -1.

        Two calls on the draw generator: a failure mask from
        ``random(count)`` (each sampler fails with probability
        ``delta``), then ``count`` uniform positions in the sorted
        support from ``integers``.  An empty support fails every sampler
        without drawing.
        """
        if len(support) == 0:
            return np.full(self.count, -1, dtype=np.int64)
        generator = self.generator()
        failed = generator.random(self.count) < self.delta
        picks = generator.integers(0, len(support), size=self.count)
        picks[failed] = -1
        return picks

    def sample_column(self, support: np.ndarray) -> np.ndarray:
        """A fresh ``int64`` column drawn from ``support`` (the sorted
        live coordinates), -1 where a sampler failed."""
        picks = self._draw_picks(support)
        drawn = picks >= 0
        picks[drawn] = support[picks[drawn]]
        return picks

    def distinct_samples(self, support: np.ndarray) -> np.ndarray:
        """The sorted distinct coordinates one read returns: the draws
        of :meth:`sample_column`, counted per support position with one
        ``bincount`` instead of sorted."""
        picks = self._draw_picks(support)
        return support[np.bincount(picks[picks >= 0], minlength=len(support)) > 0]

    def sample_all(self, support: np.ndarray) -> List[Optional[int]]:
        """:meth:`sample_column` as a list, None where a sampler failed."""
        return [None if s < 0 else s for s in self.sample_column(support).tolist()]

    def space_words(self) -> int:
        """The paper's formula per sampler."""
        return self.count * l0_sampler_space_words(self.dim, self.delta)


#: The bank class behind each ``mode`` / ``sampler_mode`` value.
BANK_CLASSES = {"exact": L0SamplerBank, "fast": FastL0Bank}


def bank_class(mode: str) -> type:
    """The bank class an owner builds for ``mode``."""
    if mode not in BANK_CLASSES:
        raise ValueError(
            f"l0 bank mode must be one of {tuple(BANK_CLASSES)}, got {mode!r}"
        )
    return BANK_CLASSES[mode]


def _check_shape(dim: int, count: int) -> None:
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")


def _check_mergeable(bank, other) -> None:
    def shape(b):
        return type(b).__name__, getattr(b, "dim", None), getattr(b, "count", None)

    if shape(other) != shape(bank):
        raise ValueError(f"cannot merge bank {shape(bank)} with bank {shape(other)}")


class L0Sampler(L0SamplerBank):
    """A single ℓ₀-sampler over vectors of dimension ``dim``: an exact
    bank of one (see the module docstring for the structure).

    Args:
        dim: vector dimension.
        delta: failure probability; sets the repetition count.
        rng: randomness source (R level hashes, then the base).
    """

    def __init__(self, dim: int, delta: float, rng: random.Random) -> None:
        super().__init__(dim, 1, delta, rng)

    def sample(self) -> Optional[int]:
        """A near-uniform support coordinate, or None on failure or an
        empty vector."""
        (answer,) = self.sample_all()
        return answer


class L0EdgeBank(BatchIngest):
    """Engine adapter: an ℓ₀ bank over the edge vector.

    Presents the bank as a pipeline-registrable
    :class:`~repro.engine.protocol.MergeableStreamProcessor`: each
    ``(a, b, sign)`` update becomes a signed update to coordinate
    ``a * m + b`` of the implicit n×m edge-incidence vector — exactly
    the vector Algorithm 3's samplers observe.  ``mode`` picks an
    :class:`L0SamplerBank` (``"exact"``) or a :class:`FastL0Bank`
    (``"fast"``), whose support lives here (an
    :class:`~repro.sketch.exact.ExactSupport`).
    ``finalize`` returns the adapter itself, so callers keep querying
    (:meth:`sample_all`, :meth:`space_words`) after the run, like the
    other query-style summaries.

    Every sampler is a linear sketch (and the fast support a plain sum),
    so updates may be partitioned arbitrarily across shards
    (``shard_routing = "any"``); a bank reassembled from same-seed
    shards answers :meth:`sample_all` bit-identically to a single-pass
    bank.
    """

    #: Linear sketches merge under any stream partition.
    shard_routing = "any"
    #: Only same-seed twins merge: windows seed every bucket alike.
    merge_needs_equal_seeds = True

    def __init__(
        self,
        n: int,
        m: int,
        count: int,
        delta: float = 0.05,
        seed: int = 0,
        mode: str = "fast",
    ) -> None:
        if n < 1 or m < 1:
            raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
        self.n = n
        self.m = m
        self.seed = seed
        self._started = False
        bank = bank_class(mode)
        self._bank = bank(n * m, count, delta, random.Random(seed))
        self._support = ExactSupport(n * m) if bank is FastL0Bank else None

    def check_batch(
        self, a: np.ndarray, b: np.ndarray, sign: Optional[np.ndarray] = None
    ) -> None:
        """Reject a chunk with an endpoint outside ``[0, n) x [0, m)``."""
        check_edge_range(a, b, self.n, self.m)

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        if len(a) == 0:
            return
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        self.check_batch(a, b, sign)
        self._started = True
        indices = a * np.int64(self.m) + b
        deltas = (
            insert_signs(len(a))
            if sign is None
            else np.asarray(sign, dtype=np.int64)
        )
        if self._support is not None:
            self._support.update_batch(indices, deltas)
        else:
            self._bank.update_batch(indices, deltas)

    def finalize(self) -> "L0EdgeBank":
        return self

    def clone(self) -> "L0EdgeBank":
        """An independent copy (bank and support cloned, not deep-copied)."""
        dup = object.__new__(L0EdgeBank)
        dup.__dict__.update(self.__dict__)
        dup._bank = self._bank.clone()
        if self._support is not None:
            dup._support = self._support.clone()
        return dup

    def split(self, n_shards: int) -> List["L0EdgeBank"]:
        """``n_shards`` same-seed empty shard banks (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._started:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    def merge(self, other: "L0EdgeBank") -> "L0EdgeBank":
        if not isinstance(other, L0EdgeBank) or (self.n, self.m) != (
            other.n, other.m
        ):
            raise ValueError(
                "cannot merge incompatible l0 edge banks; split both from "
                "the same seeded structure"
            )
        self._bank.merge(other._bank)
        if self._support is not None and other._support is not None:
            self._support.merge(other._support)
        self._started = self._started or other._started
        return self

    def sample_all(self) -> List[Optional[int]]:
        """Every sampler's flat edge index (``a * m + b``), None on failure."""
        if self._support is None:
            return self._bank.sample_all()
        return self._bank.sample_all(self._support.support_array())

    def sample_edges(self) -> List[Optional[tuple]]:
        """Every sampler's sampled edge as an ``(a, b)`` pair."""
        return [
            None if index is None else (int(index // self.m), int(index % self.m))
            for index in self.sample_all()
        ]

    def space_words(self) -> int:
        return self._bank.space_words()
