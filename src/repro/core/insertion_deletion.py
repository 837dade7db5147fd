"""Algorithm 3: the α-approximation for insertion-deletion streams.

The algorithm combines two sampling strategies, both built on
ℓ₀-samplers (Section 5):

* **vertex sampling** — before the stream, sample a uniform subset
  ``A'`` of ``10 x ln n`` A-vertices (``x = max(n/α, √n)``); for each
  sampled vertex run ``10 (d/α) ln n`` ℓ₀-samplers on its incident-edge
  vector.  Succeeds when the graph has at least ``n/x`` vertices of
  degree ``>= d/α`` (Lemma 5.2).
* **edge sampling** — run ``10 (nd/α)(1/x + 1/α) ln(nm)`` ℓ₀-samplers
  on the full edge vector.  Succeeds when the graph has at most ``n/x``
  such vertices, so the maximum-degree vertex owns a large fraction of
  all edges (Lemma 5.3).

Output: any vertex for which the stored sampled edges contain at least
``d/α`` distinct witnesses; otherwise *fail*.  Theorem 5.4: space
``Õ(dn/α²)`` for ``α <= √n`` and ``Õ(√n d/α)`` otherwise, success
w.h.p.

ℓ₀-samplers run with ``δ = 1/(n^10 d)`` as in the paper.  The
``scale`` parameter multiplies the paper's constant 10 (useful to keep
pure-Python benchmark runs fast while preserving the formulas' shape);
``sampler_mode`` picks the bank class once, at construction (see
:mod:`repro.sketch.l0`): real sketches in
:class:`~repro.sketch.l0.L0SamplerBank` (``"exact"``) or the
distributionally equivalent :class:`~repro.sketch.l0.FastL0Bank`
(``"fast"``, default), a count, δ and a seed word each.  Fast mode
keeps ONE exact support of the n·m edge vector (simulator state, not
charged): a chunk is one append to it, and every bank draws from it at
query time — the edge bank from the whole support, vertex ``a``'s bank
from its slice ``[a·m, (a+1)·m)``.
"""

from __future__ import annotations

import copy
import math
import random
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.protocol import BatchIngest
from repro.sketch.exact import ExactSupport, net_updates
from repro.sketch.l0 import FastL0Bank, L0SamplerBank, bank_class
from repro.spacemeter import SpaceBreakdown, vertex_words
from repro.streams.edge import check_edge_range, insert_signs


Bank = Union[L0SamplerBank, FastL0Bank]


class SamplingStrategy(Enum):
    """Which of Algorithm 3's strategies to run (BOTH is the paper's)."""

    VERTEX = "vertex"
    EDGE = "edge"
    BOTH = "both"


def x_parameter(n: int, alpha: float) -> float:
    """The split point ``x = max(n/α, √n)`` from Algorithm 3, step 1."""
    return max(n / alpha, math.sqrt(n))


def vertex_sample_size(n: int, alpha: float, scale: float = 1.0) -> int:
    """``|A'| = 10 x ln n`` (capped at n)."""
    if n < 2:
        return n
    return min(n, math.ceil(scale * 10 * x_parameter(n, alpha) * math.log(n)))


def samplers_per_vertex(n: int, d: int, alpha: float, scale: float = 1.0) -> int:
    """``10 (d/α) ln n`` ℓ₀-samplers per sampled vertex."""
    base = scale * 10 * (d / alpha) * math.log(max(n, 2))
    return max(1, math.ceil(base))


def edge_sampler_count(n: int, m: int, d: int, alpha: float, scale: float = 1.0) -> int:
    """``10 (nd/α)(1/x + 1/α) ln(nm)`` ℓ₀-samplers on the edge vector."""
    x = x_parameter(n, alpha)
    base = scale * 10 * (n * d / alpha) * (1.0 / x + 1.0 / alpha) * math.log(max(n * m, 2))
    return max(1, math.ceil(base))


class InsertionDeletionFEwW(BatchIngest):
    """The paper's Algorithm 3.

    Args:
        n: number of A-vertices.
        m: number of B-vertices.
        d: degree threshold of the FEwW promise.
        alpha: approximation factor (any value >= 1; need not be integral).
        seed: RNG seed for vertex sampling and all ℓ₀-samplers.
        strategy: run vertex sampling, edge sampling, or both (paper).
        scale: multiplier on the paper's constant 10 in all sampler
            counts (1.0 reproduces the paper exactly).
        sampler_mode: ``"fast"`` or ``"exact"`` ℓ₀-sampler banks.
    """

    #: Every sampler bank is a linear sketch of its update vector, so
    #: same-seed shards merge bit-identically for any stream split (see
    #: repro.engine.protocol).
    shard_routing = "any"
    #: Only same-seed twins merge: windows seed every bucket alike.
    merge_needs_equal_seeds = True

    def __init__(
        self,
        n: int,
        m: int,
        d: int,
        alpha: float,
        seed: int | None = None,
        strategy: SamplingStrategy = SamplingStrategy.BOTH,
        scale: float = 1.0,
        sampler_mode: str = "fast",
    ) -> None:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        bank = bank_class(sampler_mode)
        self.n = n
        self.m = m
        self.d = d
        self.alpha = alpha
        self.strategy = strategy
        self.scale = scale
        self.sampler_mode = sampler_mode
        self.threshold = math.ceil(d / alpha)
        self.delta = 1.0 / (max(n, 2) ** 10 * d)
        rng = random.Random(seed)

        self._vertex_banks: Dict[int, Bank] = {}
        self._bank_flags = np.zeros(n, dtype=bool)
        if strategy in (SamplingStrategy.VERTEX, SamplingStrategy.BOTH):
            sample_size = vertex_sample_size(n, alpha, scale)
            sampled = rng.sample(range(n), sample_size)
            per_vertex = samplers_per_vertex(n, d, alpha, scale)
            for a in sampled:
                self._vertex_banks[a] = bank(m, per_vertex, self.delta, rng)
                self._bank_flags[a] = True

        #: Sampled vertex ids in construction (= draw) order.
        self._vertex_ids = np.fromiter(self._vertex_banks, dtype=np.int64)
        # Constant after construction; clone() shares both.
        self._vertex_ids.flags.writeable = False
        self._bank_flags.flags.writeable = False

        self._edge_bank: Optional[Bank] = None
        if strategy in (SamplingStrategy.EDGE, SamplingStrategy.BOTH):
            count = edge_sampler_count(n, m, d, alpha, scale)
            self._edge_bank = bank(n * m, count, self.delta, rng)
        #: Fast mode: the one support every bank draws from.
        self._support: Optional[ExactSupport] = (
            ExactSupport(n * m) if bank is FastL0Bank else None
        )

        self._result_cache: Optional[np.ndarray] = None
        self._updates_seen = 0

    # ------------------------------------------------------------------
    # Stream processing.
    # ------------------------------------------------------------------

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
        """Route a column chunk of signed updates into both structures.

        Fast mode appends the flattened edge coordinates ``a * m + b``
        to the one support.  Exact mode nets the chunk once
        (:func:`~repro.sketch.exact.net_updates`), shared by *both*
        sampling structures: the edge bank takes the netted column, and
        because flat coordinates sort by vertex first, each sampled
        vertex's bank takes a contiguous pre-netted slice.  All sketches
        involved are linear, so the final state is identical at every
        chunk size.
        """
        a = np.ascontiguousarray(a, dtype=np.int64)
        b = np.ascontiguousarray(b, dtype=np.int64)
        self.check_batch(a, b, sign)
        if sign is None:
            sign = insert_signs(len(a))
        else:
            sign = np.ascontiguousarray(sign, dtype=np.int64)
        if len(a) == 0:
            return
        self._updates_seen += len(a)
        self._result_cache = None
        flat = a * self.m + b
        if self._support is not None:
            self._support.update_batch(flat, sign)
            return
        self._apply_netted(*net_updates(flat, sign, self.n * self.m))

    def process_netted(
        self, unique: np.ndarray, net: np.ndarray, n_updates: int
    ) -> None:
        """Feed a pre-netted chunk of flat-coordinate updates.

        ``unique`` must be the sorted distinct flat edge coordinates
        ``a * m + b`` of an already range-checked chunk of ``n_updates``
        signed updates, and ``net`` their nonzero net signs — exactly
        what exact mode's :meth:`process_batch` computes.  Star Detection
        calls this so the netting pass (and the range validation) runs
        once per chunk instead of once per degree guess; every sketch is
        linear, so the state is identical to handing the raw chunk to
        :meth:`process_batch`.
        """
        self._result_cache = None
        self._updates_seen += n_updates
        if len(unique) == 0:
            return
        if self._support is not None:
            self._support.update_batch(unique, net)
        else:
            self._apply_netted(unique, net)

    def _apply_netted(self, unique: np.ndarray, net: np.ndarray) -> None:
        """Exact mode: scatter netted flat-coordinate updates into both
        structures."""
        if self._vertex_banks:
            vertices = unique // self.m
            mask = self._bank_flags[vertices]
            if mask.any():
                selected = np.flatnonzero(mask)
                sampled_vertices = vertices[selected]
                sampled_b = unique[selected] - sampled_vertices * self.m
                sampled_net = net[selected]
                cuts = np.flatnonzero(sampled_vertices[1:] != sampled_vertices[:-1]) + 1
                starts = np.concatenate(([0], cuts))
                ends = np.concatenate((cuts, [len(sampled_vertices)]))
                for group_start, group_end in zip(starts.tolist(), ends.tolist()):
                    bank = self._vertex_banks[int(sampled_vertices[group_start])]
                    bank.update_batch(
                        sampled_b[group_start:group_end],
                        sampled_net[group_start:group_end],
                        netted=True,
                    )
        if self._edge_bank is not None:
            self._edge_bank.update_batch(unique, net, netted=True)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def merge(self, other: "InsertionDeletionFEwW") -> "InsertionDeletionFEwW":
        """Combine two Algorithm 3 states over disjoint sub-streams.

        Both operands must be split from the same seeded instance (same
        sampled vertex set ``A'``, same sampler seeds).  All sampler
        banks are linear, so the merged state — and with it every
        query-time sample — is bit-identical to a single pass over the
        concatenated stream; cross-shard insert/delete cancellations
        resolve at merge time.
        """
        if not isinstance(other, InsertionDeletionFEwW):
            raise ValueError(
                f"cannot merge InsertionDeletionFEwW with "
                f"{type(other).__name__}"
            )
        mine = (self.n, self.m, self.d, self.alpha, self.strategy, self.sampler_mode)
        theirs = (
            other.n, other.m, other.d, other.alpha, other.strategy,
            other.sampler_mode,
        )
        if mine != theirs:
            raise ValueError(
                f"cannot merge Algorithm 3 (n={self.n}, m={self.m}, "
                f"d={self.d}, alpha={self.alpha}, "
                f"strategy={self.strategy.value}, "
                f"sampler_mode={self.sampler_mode}) with (n={other.n}, "
                f"m={other.m}, d={other.d}, alpha={other.alpha}, "
                f"strategy={other.strategy.value}, "
                f"sampler_mode={other.sampler_mode})"
            )
        if set(self._vertex_banks) != set(other._vertex_banks):
            raise ValueError(
                "cannot merge Algorithm 3 states with different sampled "
                "vertex sets; split both from the same seeded instance"
            )
        for vertex, bank in self._vertex_banks.items():
            bank.merge(other._vertex_banks[vertex])
        if (self._edge_bank is None) != (other._edge_bank is None):
            raise ValueError(
                "cannot merge Algorithm 3 states with mismatched edge banks"
            )
        if self._edge_bank is not None and other._edge_bank is not None:
            self._edge_bank.merge(other._edge_bank)
        if self._support is not None and other._support is not None:
            self._support.merge(other._support)
        self._result_cache = None
        self._updates_seen += other._updates_seen
        return self

    def clone(self) -> "InsertionDeletionFEwW":
        """An independent copy without a deepcopy graph walk (window
        probes and folds clone on every query): every bank is cloned
        (cell planes, or a seed word and any generator a read built) and
        so is the support."""
        dup = copy.copy(self)
        dup._vertex_banks = {a: bank.clone() for a, bank in self._vertex_banks.items()}
        if self._edge_bank is not None:
            dup._edge_bank = self._edge_bank.clone()
        if self._support is not None:
            dup._support = self._support.clone()
        return dup

    def split(self, n_shards: int) -> List["InsertionDeletionFEwW"]:
        """``n_shards`` empty same-seed shard instances (sharded runs)."""
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if self._updates_seen:
            raise RuntimeError("split() must be called before processing")
        return [copy.deepcopy(self) for _ in range(n_shards)]

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    def _sampled_edges(self) -> np.ndarray:
        """Every sampler's output as sorted distinct flat edges ``a*m + b``.

        Each bank answers one read with its sorted distinct draws
        (``distinct_samples`` of either bank class), vertex
        banks first in construction order.  Fast mode hands vertex
        ``a``'s bank the support's slice over ``[a·m, (a+1)·m)`` (found
        with one ``searchsorted`` for all vertices), so its draws are
        flat edges already; an exact vertex bank's witnesses ``b``
        become ``a*m + b``.  One ``np.unique`` over the answers leaves
        the distinct sampled edges grouped by vertex.  Sampler queries
        are randomised, so the outcome is computed once and memoised:
        repeated calls to :meth:`result` agree.
        """
        if self._result_cache is None:
            m = self.m
            columns = [np.zeros(0, dtype=np.int64)]
            if self._support is None:
                for a, bank in self._vertex_banks.items():
                    columns.append(bank.distinct_samples() + a * m)
                if self._edge_bank is not None:
                    columns.append(self._edge_bank.distinct_samples())
            else:
                support = self._support.support_array()
                starts = np.searchsorted(support, self._vertex_ids * m).tolist()
                stops = np.searchsorted(support, (self._vertex_ids + 1) * m).tolist()
                for bank, start, stop in zip(self._vertex_banks.values(), starts, stops):
                    columns.append(bank.distinct_samples(support[start:stop]))
                if self._edge_bank is not None:
                    columns.append(self._edge_bank.distinct_samples(support))
            self._result_cache = np.unique(np.concatenate(columns))
        return self._result_cache

    def _groups(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vertices, starts, sizes)``: each sampled vertex (ascending)
        and its run of distinct witnesses in :meth:`_sampled_edges`."""
        vertices = self._sampled_edges() // self.m
        starts = np.flatnonzero(np.diff(vertices, prepend=-1))
        sizes = np.diff(np.append(starts, len(vertices)))
        return vertices[starts], starts, sizes

    def _collected(self) -> Dict[int, Set[int]]:
        """The sampled witnesses as a vertex → set-of-``b`` dict view
        (ascending vertex ids; diagnostics and tests, not the answer
        path)."""
        edges = self._sampled_edges()
        vertices, starts, sizes = self._groups()
        m = self.m
        return {
            vertex: set((edges[start : start + size] - vertex * m).tolist())
            for vertex, start, size in zip(
                vertices.tolist(), starts.tolist(), sizes.tolist()
            )
        }

    @property
    def successful(self) -> bool:
        """True when some vertex accumulated >= ceil(d/α) witnesses."""
        sizes = self._groups()[2]
        return bool(len(sizes)) and int(sizes.max()) >= self.threshold

    def result(self) -> Neighbourhood:
        """A stored neighbourhood of size >= ceil(d/α) (step 4).

        The vertex with the most distinct sampled witnesses wins; ties
        go to the smallest vertex id.

        Raises:
            AlgorithmFailed: when no vertex reached the threshold.
        """
        vertices, starts, sizes = self._groups()
        best = int(np.argmax(sizes)) if len(sizes) else -1
        if best < 0 or int(sizes[best]) < self.threshold:
            raise AlgorithmFailed(
                f"Algorithm 3 failed (n={self.n}, d={self.d}, alpha={self.alpha}, "
                f"strategy={self.strategy.value})"
            )
        vertex, start = int(vertices[best]), int(starts[best])
        edges = self._sampled_edges()[start : start + int(sizes[best])]
        return Neighbourhood.of(vertex, edges - vertex * self.m)

    def finalize(self) -> Optional[Neighbourhood]:
        """Engine hook (:class:`repro.engine.StreamProcessor`): the
        algorithm's answer, or ``None`` instead of raising on failure."""
        try:
            return self.result()
        except AlgorithmFailed:
            return None

    # ------------------------------------------------------------------
    # Space accounting.
    # ------------------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """Sampled vertex ids plus every ℓ₀-sampler bank."""
        breakdown = SpaceBreakdown()
        if self._vertex_banks:
            breakdown.add("sampled vertex ids", vertex_words(len(self._vertex_banks)))
            breakdown.add(
                "vertex-sampling l0 banks",
                sum(bank.space_words() for bank in self._vertex_banks.values()),
            )
        if self._edge_bank is not None:
            breakdown.add("edge-sampling l0 bank", self._edge_bank.space_words())
        return breakdown

    def space_words(self) -> int:
        return self.space_breakdown().total_words()
