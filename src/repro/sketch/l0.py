"""ℓ₀-samplers: uniform sampling from the support of a signed vector.

An ℓ₀-sampler processes a stream of signed coordinate updates to an
implicit vector of dimension ``dim`` and, at query time, outputs a
(near-)uniform member of the final support — correct even when updates
cancel.  The paper's insertion-deletion algorithm (Algorithm 3) consumes
these as a black box, citing Jowhari–Sağlam–Tardos [26] for the bound
``O(log²(dim) · log(1/δ))`` bits per sampler.

:class:`L0Sampler` is the real structure: nested geometric subsampling
levels, an s-sparse recovery per level, and a min-hash tiebreak so that
the returned coordinate is uniform over the support.

Layout
------
All ``n_levels`` recoveries share one sparsity/row geometry, so their
accumulator planes are stacked into single 3-D ``(n_levels, n_rows,
n_buckets)`` arrays, and every cell of every level fingerprints with ONE
random base ``z`` per sampler (see :mod:`repro.sketch.ssparse` for the
soundness bound: at ``dim = 2**18`` and δ = 0.05 a sampler has 2,964
cells, and a collision cell passes its fingerprint check with
probability at most ``2964 * 2**18 / (2**61 - 1) ≈ 3.4e-10``).  A batch
computes ``delta * z^x`` once per coordinate from the sampler's
windowed power table (3 × 64 entries, 1.5 KB, at ``dim = 2**18``) and
broadcasts it across the levels and rows the coordinate lands in; ONE
scatter-add per plane absorbs every level (level membership is nested,
so each level's surviving subset is a prefix-filtered view of the
previous one).  ``decode``/``merge`` build per-level
:class:`SSparseRecovery` views over the stacked planes.  A sampler is
charged 3 words per cell, its row hashes, the one base, and its level
and tiebreak hashes.

:class:`L0SamplerBank` manages the many independent samplers Algorithm 3
needs.  It has two modes:

* ``"exact"`` — every sampler is a real :class:`L0Sampler`; updates fan
  out to each of them.  The bank stacks all samplers' planes into 4-D
  arrays, their level hashes into one
  :class:`~repro.sketch.hashing.KWiseHashStack` and their power tables
  on a trailing axis, so a consolidated chunk is one fused kernel pass.
* ``"fast"`` — the bank tracks the exact support once (simulator state,
  not charged) and at query time draws every sampler's output with
  two NumPy calls on a seeded ``Generator``: a δ failure mask from
  ``random(count)``, then ``count`` uniform picks from the sorted
  support with ``integers``.  Distributionally this matches a bank of
  ideal ℓ₀-samplers; space is *accounted* with the paper's formula via
  :func:`l0_sampler_space_words`.  This keeps Algorithm 3 runnable at
  benchmark sizes in pure Python.  The equivalence of the two modes is
  property-tested in ``tests/sketch/test_l0.py``.

Both modes answer with :meth:`L0SamplerBank.sample_column`, an ``int64``
column with -1 for a failed sampler; :meth:`L0SamplerBank.sample_all`
is its list view.
"""

from __future__ import annotations

import copy
import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.protocol import BatchIngest
from repro.sketch.exact import ExactSupport, check_columns
from repro.sketch.hashing import (
    PRIME_61,
    KWiseHash,
    KWiseHashStack,
    _fold61,
    degree1_field,
    random_kwise,
)
from repro.sketch.ssparse import (
    SSparseRecovery,
    build_power_table,
    recovery_rows,
    scatter_cell_updates,
    signed_terms,
    table_powers,
)
from repro.streams.edge import check_edge_range, insert_signs


#: Exact-mode banks buffer update columns and consolidate them with one
#: fused bank-wide kernel pass once this many coordinates are pending
#: (or at the next query/merge/pickle).  Mirrors ExactSupport's deferred
#: netting: linearity makes the final state independent of when the
#: buffered updates land.
_BANK_FLUSH_PENDING = 1 << 18
#: Netted coordinates are absorbed in slices of this size so the fused
#: kernel's expanded (sampler, item, level) entry arrays stay small.
_BANK_COORD_CHUNK = 1 << 16
#: Entry-axis slice size inside one fused pass — bounds the transient
#: (entries, n_rows) matrices to a few MB.
_BANK_ENTRY_CHUNK = 1 << 16


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


class L0Sampler:
    """A single ℓ₀-sampler over vectors of dimension ``dim``.

    Args:
        dim: vector dimension.
        delta: failure probability target; drives the per-level sparse
            recovery size.
    """

    def __init__(self, dim: int, delta: float, rng: random.Random) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.dim = dim
        self.delta = delta
        self.n_levels = max(1, math.ceil(math.log2(dim)) + 1)
        self._sparsity = max(2, math.ceil(math.log2(2.0 / delta)))
        self._recovery_delta = delta / (2 * self.n_levels)
        self._n_rows = recovery_rows(self._sparsity, self._recovery_delta)
        self._n_buckets = 2 * self._sparsity
        # Draw order: level hash, tiebreak hash, every level's row
        # hashes (level by level), then the one fingerprint base shared
        # by all levels, rows and buckets.
        self._level_hash: KWiseHash = random_kwise(2, 1 << self.n_levels, rng)
        self._tiebreak: KWiseHash = random_kwise(2, 1 << 61, rng)
        self._row_hashes: List[List[KWiseHash]] = [
            [random_kwise(2, self._n_buckets, rng) for _ in range(self._n_rows)]
            for _ in range(self.n_levels)
        ]
        self._row_stacks: List[KWiseHashStack] = [
            KWiseHashStack(hashes) for hashes in self._row_hashes
        ]
        self._z = rng.randrange(2, PRIME_61)
        # Derived from _z, not charged (see SSparseRecovery).
        self._table = build_power_table(self._z, dim)
        shape = (self.n_levels, self._n_rows, self._n_buckets)
        self._weight = np.zeros(shape, dtype=np.int64)
        self._dot = np.zeros(shape, dtype=np.int64)
        self._fingerprint = np.zeros(shape, dtype=np.uint64)
        # Row-hash coefficients stacked as (n_levels, n_rows) matrices so
        # the fused batch path evaluates every (level, row) bucket with
        # one broadcast degree1_field pass (all row hashes are pairwise
        # independent, i.e. degree-1 polynomials).
        self._row_a = np.array(
            [[h.coefficients[0] for h in hashes] for hashes in self._row_hashes],
            dtype=np.uint64,
        )
        self._row_b = np.array(
            [[h.coefficients[1] for h in hashes] for hashes in self._row_hashes],
            dtype=np.uint64,
        )
        # Sample memo: sample() is a pure function of the stacked
        # planes, so the result is served from cache until an update or
        # merge dirties the sampler (probe-heavy pipelines re-query
        # unchanged samplers constantly).
        self._dirty = True
        self._sample_cached = False
        self._sample_memo: Optional[int] = None

    def _recovery(self, level: int) -> SSparseRecovery:
        """A view-backed :class:`SSparseRecovery` over one level's planes.

        The views share the sampler's fingerprint base and power table
        and write through to the stacked arrays, so scalar updates,
        decoding and merging through the view mutate the sampler state.
        Views are transient — never stored — so ``deepcopy`` of the
        sampler only ever copies the stacked planes.
        """
        recovery = SSparseRecovery.__new__(SSparseRecovery)
        recovery.dim = self.dim
        recovery.s = self._sparsity
        recovery.delta = self._recovery_delta
        recovery.n_buckets = self._n_buckets
        recovery.n_rows = self._n_rows
        recovery._hashes = self._row_hashes[level]
        recovery._stack = self._row_stacks[level]
        recovery._z = self._z
        recovery._table = self._table
        recovery._weight = self._weight[level]
        recovery._dot = self._dot[level]
        recovery._fingerprint = self._fingerprint[level]
        # The view is transient, so its decode memo never survives; the
        # durable memo lives on the sampler (see sample()).
        recovery._dirty = True
        recovery._decode_cached = False
        recovery._decode_cache = None
        return recovery

    @property
    def _recoveries(self) -> List[SSparseRecovery]:
        """Per-level recovery views (see :meth:`_recovery`)."""
        return [self._recovery(level) for level in range(self.n_levels)]

    def _level_of(self, index: int) -> int:
        """Deepest level at which ``index`` survives nested subsampling.

        Index survives level ``l`` iff the low ``l`` bits of its level
        hash are zero, so survival probabilities are 1, 1/2, 1/4, ...
        and levels are nested.
        """
        value = self._level_hash(index)
        level = 0
        while level + 1 < self.n_levels and value % (1 << (level + 1)) == 0:
            level += 1
        return level

    def update(self, index: int, delta: int) -> None:
        """Apply ``vector[index] += delta``."""
        self._dirty = True
        deepest = self._level_of(index)
        for level in range(deepest + 1):
            self._recovery(level).update(index, delta)

    def _levels_of_batch(self, indices: np.ndarray) -> np.ndarray:
        """Deepest surviving level for every index, vectorized."""
        values = self._level_hash.batch(indices)
        levels = np.zeros(len(indices), dtype=np.int64)
        for level in range(1, self.n_levels):
            survives = (levels == level - 1) & (values % (1 << level) == 0)
            levels[survives] = level
        return levels

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Apply a batch of signed updates.

        The level of every index is computed with one vectorized hash
        evaluation.  An index surviving to level ``l``
        updates levels ``0..l``, so the batch expands into flat
        ``(item, level)`` entries carrying the item's one fingerprint
        term ``delta * z^x``; every entry's bucket and cell address are
        computed with broadcast passes over the stacked planes and ALL
        levels are absorbed with one exact
        scatter per accumulator plane — no Python loop over levels or
        recovery objects.  Final state matches item-by-item updates
        exactly — the sketch is linear.
        """
        check_columns(indices, deltas)
        if len(indices) == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        deltas = np.ascontiguousarray(deltas, dtype=np.int64)
        self._dirty = True
        levels = self._levels_of_batch(indices)
        # One fingerprint term delta * z^x per item, shared by every
        # level and row the item lands in.
        terms = signed_terms(table_powers(self._table, indices), deltas)
        # Expand to one entry per (item, level <= deepest(item)).  Entry
        # e carries item index x[e], delta d[e], term t[e] and level
        # lab[e].
        counts = levels + 1
        starts = np.cumsum(counts) - counts
        n_entries = int(counts[-1] + starts[-1])
        x = np.repeat(indices, counts)
        lab = np.arange(n_entries, dtype=np.int64) - np.repeat(starts, counts)
        d = np.repeat(deltas, counts)
        t = np.repeat(terms, counts)
        rows = np.arange(self._n_rows, dtype=np.int64)[np.newaxis, :]
        # Degree-1 hashes with per-entry coefficients — bit-identical to
        # each level's KWiseHash on its surviving subset.
        field = degree1_field(self._row_a[lab], self._row_b[lab], x[:, np.newaxis])
        buckets = (field % np.uint64(self._n_buckets)).astype(np.int64)
        addr = (lab[:, np.newaxis] * self._n_rows + rows) * self._n_buckets + buckets
        shape = addr.shape
        scatter_cell_updates(
            self._weight.reshape(-1),
            self._dot.reshape(-1),
            self._fingerprint.reshape(-1),
            addr.ravel(),
            np.broadcast_to(d[:, np.newaxis], shape).ravel(),
            np.broadcast_to((x * d)[:, np.newaxis], shape).ravel(),
            np.broadcast_to(t[:, np.newaxis], shape).ravel(),
        )

    def merge(self, other: "L0Sampler") -> "L0Sampler":
        """Level-wise merge of two samplers over disjoint sub-streams.

        Valid only for samplers split from the same seeded instance
        (identical level/tiebreak hashes); all levels are linear
        sketches, so the merged sampler equals the single-pass sampler
        exactly.
        """
        if (
            not isinstance(other, L0Sampler)
            or (self.dim, self.n_levels) != (other.dim, other.n_levels)
            or self._level_hash.coefficients != other._level_hash.coefficients
            or self._tiebreak.coefficients != other._tiebreak.coefficients
        ):
            raise ValueError(
                "cannot merge incompatible l0-samplers; split both from the "
                "same seeded structure"
            )
        for mine, theirs in zip(self._row_hashes, other._row_hashes):
            for my_hash, their_hash in zip(mine, theirs):
                if my_hash.coefficients != their_hash.coefficients:
                    raise ValueError(
                        "cannot merge s-sparse recoveries with different row "
                        "hashes; split both from the same seeded structure"
                    )
        if self._z != other._z:
            raise ValueError(
                "cannot merge l0-samplers with different fingerprint bases; "
                "split both from the same seeded structure"
            )
        self._dirty = True
        self._weight += other._weight
        self._dot += other._dot
        # In place: when this sampler belongs to an exact-mode bank its
        # planes are views into the bank's stacked 4-D accumulators;
        # rebinding would silently detach them.
        self._fingerprint[:] = _fold61(self._fingerprint + other._fingerprint)
        return self

    def sample(self) -> Optional[int]:
        """Return a near-uniform support coordinate, or None on failure.

        Scans levels from deepest to shallowest; at the first level whose
        recovery decodes to a non-empty set, returns the coordinate with
        the smallest tiebreak hash.  Returns None when every level fails
        or the vector is empty.

        The result is a pure function of the stacked planes, so it is
        memoized until the next update or merge dirties the sampler.
        """
        if not self._dirty and self._sample_cached:
            return self._sample_memo
        result: Optional[int] = None
        for level in range(self.n_levels - 1, -1, -1):
            decoded = self._recovery(level).decode()
            if decoded is None:
                continue
            if decoded:
                result = min(decoded, key=self._tiebreak)
                break
        self._sample_memo = result
        self._sample_cached = True
        self._dirty = False
        return result

    def space_words(self) -> int:
        """Actual words retained: every level's cells and row hashes,
        the one fingerprint base, and the level and tiebreak hashes."""
        return (
            3 * self._weight.size
            + sum(h.space_words() for hashes in self._row_hashes for h in hashes)
            + 1
            + self._level_hash.space_words()
            + self._tiebreak.space_words()
        )


class L0SamplerBank:
    """A bank of ``count`` independent ℓ₀-samplers over one vector.

    Args:
        dim: vector dimension shared by all samplers.
        count: number of samplers.
        delta: per-sampler failure probability.
        rng: randomness source.
        mode: ``"exact"`` (real sketches) or ``"fast"`` (support-tracking
            simulation with analytically accounted space — see module
            docstring).
    """

    MODES = ("exact", "fast")

    def __init__(
        self,
        dim: int,
        count: int,
        delta: float,
        rng: random.Random,
        mode: str = "fast",
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.dim = dim
        self.count = count
        self.delta = delta
        self.mode = mode
        if mode == "exact":
            self._samplers: List[L0Sampler] = [
                L0Sampler(dim, delta, rng) for _ in range(count)
            ]
            # One fused evaluation assigns a chunk's subsampling levels
            # for every sampler at once (all share one n_levels).
            self._level_stack: Optional[KWiseHashStack] = (
                KWiseHashStack([sampler._level_hash for sampler in self._samplers])
                if self._samplers
                else None
            )
            self._support: Optional[ExactSupport] = None
            self._draw_rng: Optional[np.random.Generator] = None
            # Buffered (indices, deltas, already-netted) update columns,
            # consolidated by _flush_updates (see _BANK_FLUSH_PENDING).
            self._pending: List[Tuple[np.ndarray, np.ndarray, bool]] = []
            self._pending_len = 0
            self._stack_planes()
        else:
            self._samplers = []
            self._level_stack = None
            self._support = ExactSupport(dim)
            # Exactly one 64-bit draw from the parent rng per fast bank.
            self._draw_rng = np.random.default_rng(rng.getrandbits(64))

    def _stack_planes(self) -> None:
        """Stack all samplers' accumulator planes into bank 4-D arrays.

        The bank-wide fused kernel scatters every sampler's
        contributions in one pass, which needs all accumulators
        contiguous: ``(sampler, level, row, bucket)`` arrays for the
        weight/dot/fingerprint planes, ``(sampler * level, row)``
        matrices for the row-hash coefficients, and the samplers' power
        tables stacked as ``(windows, size, sampler)``.  Each sampler's
        planes are then re-pointed at views of the stacked planes, so
        the per-sampler scalar path, decoding and merging all read and
        write the very same memory — no dual bookkeeping, no divergence.
        Called from ``__init__`` and again after unpickling/deepcopy
        (copying a numpy view materialises an independent array, which
        would silently break the aliasing).
        """
        if not self._samplers:
            self._bank_weight = self._bank_dot = self._bank_fingerprint = None
            self._bank_table = self._bank_row_a = self._bank_row_b = None
            return
        samplers = self._samplers
        self._bank_weight = np.stack([s._weight for s in samplers])
        self._bank_dot = np.stack([s._dot for s in samplers])
        self._bank_fingerprint = np.stack([s._fingerprint for s in samplers])
        self._bank_table = np.stack([s._table for s in samplers], axis=-1)
        for i, sampler in enumerate(samplers):
            sampler._weight = self._bank_weight[i]
            sampler._dot = self._bank_dot[i]
            sampler._fingerprint = self._bank_fingerprint[i]
        n_rows = samplers[0]._n_rows
        self._bank_row_a = np.stack([s._row_a for s in samplers]).reshape(-1, n_rows)
        self._bank_row_b = np.stack([s._row_b for s in samplers]).reshape(-1, n_rows)

    def update(self, index: int, delta: int) -> None:
        """Fan ``vector[index] += delta`` out to every sampler."""
        if self.mode == "exact":
            for sampler in self._samplers:
                sampler.update(index, delta)
        else:
            assert self._support is not None
            self._support.update(index, delta)

    def update_batch(
        self,
        indices: np.ndarray,
        deltas: np.ndarray,
        netted: bool = False,
    ) -> None:
        """Fan a batch of signed updates out to every sampler.

        Every sampler is a linear sketch (and the fast-mode support
        tracker a plain sum), so collapsing a chunk's repeated or
        cancelling updates changes nothing about the final state.  Fast
        mode defers everything to the support tracker's buffered batch
        path.  Exact mode buffers the update columns and consolidates
        them lazily (at :data:`_BANK_FLUSH_PENDING` pending coordinates,
        or at the next query/merge/pickle): consolidation nets every
        buffered chunk per coordinate in one pass and absorbs the net
        updates with the bank-wide fused kernel (:meth:`_apply_batch`).
        ``netted=True`` promises ``indices`` are already unique with
        per-coordinate net ``deltas`` (Algorithm 3 nets a whole chunk
        for all its banks in one pass), which lets a lone buffered chunk
        skip re-netting.  Linearity makes the final state bit-identical
        to eager item-by-item fan-out.
        """
        if self.mode == "fast":
            assert self._support is not None
            self._support.update_batch(indices, deltas)
            return
        check_columns(indices, deltas)
        if len(indices) == 0 or not self._samplers:
            return
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        # Copy both columns: callers (reused chunk buffers, unmapped
        # file views) may overwrite them after this call returns.
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
        """Net every buffered batch and absorb it with the fused kernel."""
        if not self._pending:
            return
        pending, self._pending, self._pending_len = self._pending, [], 0
        if len(pending) == 1 and pending[0][2]:
            unique, net = pending[0][0], pending[0][1]
        else:
            coords = np.concatenate([batch[0] for batch in pending])
            deltas = np.concatenate([batch[1] for batch in pending])
            unique, inverse = np.unique(coords, return_inverse=True)
            net = np.zeros(len(unique), dtype=np.int64)
            np.add.at(net, inverse, deltas)
        live = net != 0
        if not live.any():
            return
        if not live.all():
            unique, net = unique[live], net[live]
        # The fused kernel writes the stacked planes directly, bypassing
        # the samplers' own mutators — invalidate their sample memos.
        for sampler in self._samplers:
            sampler._dirty = True
        for start in range(0, len(unique), _BANK_COORD_CHUNK):
            stop = start + _BANK_COORD_CHUNK
            self._apply_batch(unique[start:stop], net[start:stop])

    def _apply_batch(self, unique: np.ndarray, net: np.ndarray) -> None:
        """Absorb netted updates into every sampler in one fused pass.

        The whole bank is treated as one accumulator indexed by
        ``(sampler, level, row, bucket)``: level assignment for all
        samplers is one stacked hash evaluation; each sampler's
        fingerprint term ``delta * z^x`` is read once per coordinate
        from the stacked power tables (a ``(sampler, item)`` grid); the
        grid expands to one entry per surviving ``(sampler, item,
        level)`` carrying the bank-flat plane index ``sampler * L +
        level`` and its term; buckets are evaluated with one broadcast
        :func:`~repro.sketch.hashing.degree1_field` pass over the
        bank-stacked row coefficients; and all contributions land in the
        4-D planes through ONE bincount scatter per plane and entry
        slice, the term broadcast across the rows.  Every plane update is an exact int64 add or a canonical
        mod-p fold — both commutative and associative — so the final
        state is bit-identical to fanning the same updates out sampler
        by sampler (and item by item).
        """
        template = self._samplers[0]
        n_samplers = len(self._samplers)
        n_levels = template.n_levels
        n_rows = template._n_rows
        n_buckets = template._n_buckets
        assert self._level_stack is not None
        values = self._level_stack.batch_rows(unique)
        levels = np.zeros(values.shape, dtype=np.int64)
        for level in range(1, n_levels):
            survives = (levels == level - 1) & (values % (1 << level) == 0)
            levels[survives] = level
        samplers = np.arange(n_samplers, dtype=np.int64)
        terms = signed_terms(
            table_powers(
                self._bank_table, unique[np.newaxis, :], samplers[:, np.newaxis]
            ),
            net[np.newaxis, :],
        )
        counts = (levels + 1).reshape(-1)
        starts = np.cumsum(counts) - counts
        n_entries = int(starts[-1] + counts[-1])
        x = np.repeat(np.tile(unique, n_samplers), counts)
        d = np.repeat(np.tile(net, n_samplers), counts)
        t = np.repeat(terms.reshape(-1), counts)
        lab = np.arange(n_entries, dtype=np.int64) - np.repeat(starts, counts)
        pair = np.repeat(np.repeat(samplers, len(unique)), counts) * n_levels + lab
        rows = np.arange(n_rows, dtype=np.int64)[np.newaxis, :]
        weight_flat = self._bank_weight.reshape(-1)
        dot_flat = self._bank_dot.reshape(-1)
        fingerprint_flat = self._bank_fingerprint.reshape(-1)
        for begin in range(0, n_entries, _BANK_ENTRY_CHUNK):
            end = min(begin + _BANK_ENTRY_CHUNK, n_entries)
            ex, ed, epair = x[begin:end], d[begin:end], pair[begin:end]
            field = degree1_field(
                self._bank_row_a[epair], self._bank_row_b[epair], ex[:, np.newaxis]
            )
            buckets = (field % np.uint64(n_buckets)).astype(np.int64)
            addr = (epair[:, np.newaxis] * n_rows + rows) * n_buckets + buckets
            shape = addr.shape
            scatter_cell_updates(
                weight_flat,
                dot_flat,
                fingerprint_flat,
                addr.ravel(),
                np.broadcast_to(ed[:, np.newaxis], shape).ravel(),
                np.broadcast_to((ex * ed)[:, np.newaxis], shape).ravel(),
                np.broadcast_to(t[begin:end, np.newaxis], shape).ravel(),
            )

    def merge(self, other: "L0SamplerBank") -> "L0SamplerBank":
        """Merge two banks over disjoint sub-streams of one vector.

        Exact mode merges the underlying linear sketches sampler by
        sampler; fast mode merges the tracked supports (the draw RNG of
        ``self`` is retained, so a bank reassembled from same-seed shards
        answers :meth:`sample_all` bit-identically to a single-pass
        bank).
        """
        if not isinstance(other, L0SamplerBank):
            raise ValueError(
                f"cannot merge L0SamplerBank with {type(other).__name__}"
            )
        if (self.dim, self.count, self.mode) != (other.dim, other.count, other.mode):
            raise ValueError(
                f"cannot merge bank (dim={self.dim}, count={self.count}, "
                f"mode={self.mode}) with bank (dim={other.dim}, "
                f"count={other.count}, mode={other.mode})"
            )
        if self.mode == "exact":
            self._flush_updates()
            other._flush_updates()
            for mine, theirs in zip(self._samplers, other._samplers):
                mine.merge(theirs)
        else:
            assert self._support is not None and other._support is not None
            self._support.merge(other._support)
        return self

    def _draw_picks(self) -> Tuple[np.ndarray, np.ndarray]:
        """One fast-mode read: ``(support, picks)``, sampler ``i``
        answering ``support[picks[i]]`` or failing where ``picks[i]`` is
        -1.

        Two calls on the draw generator: a failure mask from
        ``random(count)`` (each sampler fails with probability
        ``delta``), then ``count`` uniform positions in the sorted live
        support from ``integers``.  An empty support fails every sampler
        without drawing.
        """
        assert self._support is not None and self._draw_rng is not None
        support = self._support.support_array()
        if len(support) == 0:
            return support, np.full(self.count, -1, dtype=np.int64)
        failed = self._draw_rng.random(self.count) < self.delta
        picks = self._draw_rng.integers(0, len(support), size=self.count)
        picks[failed] = -1
        return support, picks

    def sample_column(self) -> np.ndarray:
        """Query every sampler: an ``int64`` column, -1 where one failed.

        Exact mode decodes each sampler (memoized); fast mode draws a
        fresh column on every call (see :meth:`_draw_picks`).
        """
        if self.mode == "exact":
            self._flush_updates()
            samples = [sampler.sample() for sampler in self._samplers]
            return np.array(
                [-1 if sample is None else sample for sample in samples],
                dtype=np.int64,
            )
        support, picks = self._draw_picks()
        drawn = picks >= 0
        picks[drawn] = support[picks[drawn]]
        return picks

    def distinct_samples(self) -> np.ndarray:
        """The sorted distinct coordinates one read returns.

        Consumes exactly the draws of :meth:`sample_column`; fast mode
        counts the picks per support position with one ``bincount``
        instead of sorting them.
        """
        if self.mode == "exact":
            column = self.sample_column()
            return np.unique(column[column >= 0])
        support, picks = self._draw_picks()
        return support[np.bincount(picks[picks >= 0], minlength=len(support)) > 0]

    def sample_all(self) -> List[Optional[int]]:
        """:meth:`sample_column` as a list, None where a sampler failed."""
        return [
            None if sample < 0 else sample for sample in self.sample_column().tolist()
        ]

    def space_words(self) -> int:
        """Exact mode: sum of real structure sizes.  Fast mode: paper formula."""
        if self.mode == "exact":
            # Buffered input columns are transient ingest state, not
            # structure; consolidate before accounting.
            self._flush_updates()
            return sum(sampler.space_words() for sampler in self._samplers)
        return self.count * l0_sampler_space_words(self.dim, self.delta)

    def __deepcopy__(self, memo) -> "L0SamplerBank":
        dup = object.__new__(L0SamplerBank)
        memo[id(self)] = dup
        dup.__dict__.update(copy.deepcopy(self.__getstate__(), memo))
        if dup.mode == "exact":
            dup._stack_planes()
        return dup

    def __getstate__(self):
        # Consolidate buffered updates, then drop the bank-stacked
        # planes/tables: copying or pickling a numpy view materialises a
        # standalone array, which would silently detach the samplers
        # from the bank accumulators.  ``__setstate__`` (and
        # ``__deepcopy__``) re-stack from the samplers' copied planes.
        if self.mode == "exact":
            self._flush_updates()
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.startswith("_bank_")
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self.mode == "exact":
            self._stack_planes()


class L0EdgeBank(BatchIngest):
    """Engine adapter: an :class:`L0SamplerBank` over the edge vector.

    Presents the bank as a pipeline-registrable
    :class:`~repro.engine.protocol.MergeableStreamProcessor`: each
    ``(a, b, sign)`` update becomes a signed update to coordinate
    ``a * m + b`` of the implicit n×m edge-incidence vector — exactly
    the vector Algorithm 3's samplers observe.  ``finalize`` returns
    the adapter itself, so callers keep querying (:meth:`sample_all`,
    :meth:`space_words`) after the run, like the other query-style
    summaries.

    Every sampler is a linear sketch (and the fast mode's support
    tracker a plain sum), so updates may be partitioned arbitrarily
    across shards (``shard_routing = "any"``); a bank reassembled from
    same-seed shards answers :meth:`sample_all` bit-identically to a
    single-pass bank.
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
        self._bank = L0SamplerBank(
            n * m, count, delta, random.Random(seed), mode=mode
        )

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
        self._bank.update_batch(indices, deltas)

    def finalize(self) -> "L0EdgeBank":
        return self

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
        self._started = self._started or other._started
        return self

    def sample_all(self) -> List[Optional[int]]:
        """Every sampler's flat edge index (``a * m + b``), None on failure."""
        return self._bank.sample_all()

    def sample_edges(self) -> List[Optional[tuple]]:
        """Every sampler's sampled edge as an ``(a, b)`` pair."""
        return [
            None if index is None else (int(index // self.m), int(index % self.m))
            for index in self._bank.sample_all()
        ]

    def space_words(self) -> int:
        return self._bank.space_words()
