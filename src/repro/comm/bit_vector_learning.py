"""Problem 4 (Bit-Vector-Learning) and the Theorem 4.8 reduction.

``Bit-Vector-Learning(p, n, k)``: nested index sets
``[n] = X_1 ⊇ X_2 ⊇ ... ⊇ X_p`` with ``|X_i| = n^{1-(i-1)/(p-1)}``;
party ``i`` holds a fresh uniform ``k``-bit string ``Y^j_i`` for every
``j ∈ X_i``; ``Z_j`` concatenates ``Y^j_1 ∘ Y^j_2 ∘ ...`` over the
parties whose set contains ``j``.  The last party must output some
index ``I`` together with at least ``1.01 k`` bits of ``Z_I``.

A trivial zero-communication protocol outputs exactly ``k`` bits (the
last party's own ``Y^I_p``); Theorem 4.7 shows that crossing to
``1.01 k`` bits forces a message of ``Ω(k n^{1/(p-1)} / p)`` bits, and
Theorem 4.8 transfers that to FEwW via the Figure-2 graph encoding:
party ``i`` encodes bit ``j`` of ``Y^ℓ_i`` as an edge from A-vertex
``ℓ`` to B-vertex ``2k·i + 2·j + bit`` — the B-vertex *parity*
carries the bit, so every witness of the reported vertex reveals one
bit of ``Z_I``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.comm.protocol import MessageLog
from repro.comm.simulate import share_columns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import Edge, StreamItem
from repro.streams.stream import EdgeStream


@dataclass(frozen=True)
class BitVectorLearningInstance:
    """An instance: nested index sets and per-party bit strings.

    Attributes:
        p: number of parties.
        n: size of the first index set ``X_1 = [n]`` (0-indexed here).
        k: bits per string.
        index_sets: ``index_sets[i]`` is party ``i``'s sorted ``X_{i+1}``.
        strings: ``strings[i][j]`` is ``Y^j_i`` as a bit tuple, present
            exactly when ``j ∈ X_{i+1}``.
    """

    p: int
    n: int
    k: int
    index_sets: Tuple[Tuple[int, ...], ...]
    strings: Tuple[Dict[int, Tuple[int, ...]], ...]

    def z_string(self, j: int) -> Tuple[int, ...]:
        """The concatenated string ``Z_j`` over parties containing ``j``."""
        bits: List[int] = []
        for party in range(self.p):
            if j in self.strings[party]:
                bits.extend(self.strings[party][j])
        return tuple(bits)

    def z_bit(self, j: int, party: int, position: int) -> int:
        """Bit ``position`` of ``Y^j_party`` (ground truth for verification)."""
        return self.strings[party][j][position]


def random_instance(
    p: int, n: int, k: int, rng: random.Random
) -> BitVectorLearningInstance:
    """Sample from the input distribution of Problem 4.

    Requires ``n^{1/(p-1)}`` integral (the paper's convenience
    restriction for Baranyai's theorem): ``n`` must be a perfect
    ``(p-1)``-th power.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    root = round(n ** (1.0 / (p - 1)))
    if root ** (p - 1) != n:
        raise ValueError(
            f"n={n} must be a perfect (p-1)={p - 1} power (paper's restriction)"
        )
    index_sets: List[Tuple[int, ...]] = [tuple(range(n))]
    for i in range(2, p + 1):
        target = round(n ** (1.0 - (i - 1) / (p - 1)))
        subset = tuple(sorted(rng.sample(index_sets[-1], target)))
        index_sets.append(subset)
    strings: List[Dict[int, Tuple[int, ...]]] = []
    for party in range(p):
        strings.append(
            {
                j: tuple(rng.randrange(2) for _ in range(k))
                for j in index_sets[party]
            }
        )
    return BitVectorLearningInstance(
        p, n, k, tuple(index_sets), tuple(strings)
    )


def figure1_instance() -> BitVectorLearningInstance:
    """The exact example of the paper's Figure 1 (p=3, n=4, k=5).

    Alice holds X_1 = {1,2,3,4} (0-indexed {0,1,2,3}) with strings
    10010, 01000, 01011, 01111; Bob holds X_2 = {1,4} with 11011 and
    01010; Charlie holds X_3 = {4} with 00011.  The concatenations are
    Z_1 = 1001011011, Z_2 = 01000, Z_3 = 01011, Z_4 = 011110101000011.
    """

    def bits(text: str) -> Tuple[int, ...]:
        return tuple(int(ch) for ch in text)

    index_sets = ((0, 1, 2, 3), (0, 3), (3,))
    strings = (
        {0: bits("10010"), 1: bits("01000"), 2: bits("01011"), 3: bits("01111")},
        {0: bits("11011"), 3: bits("01010")},
        {3: bits("00011")},
    )
    return BitVectorLearningInstance(3, 4, 5, index_sets, strings)


# ----------------------------------------------------------------------
# Figure 2: the graph encoding.
# ----------------------------------------------------------------------


def encode_bit(party: int, position: int, bit: int, k: int) -> int:
    """B-vertex encoding one bit: ``2k·party + 2·position + bit``."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    return 2 * k * party + 2 * position + bit


def decode_witness(b: int, k: int) -> Tuple[int, int, int]:
    """Inverse of :func:`encode_bit`: returns (party, position, bit)."""
    party, rest = divmod(b, 2 * k)
    position, bit = divmod(rest, 2)
    return party, position, bit


def party_edges(instance: BitVectorLearningInstance, party: int) -> List[Edge]:
    """Party ``i``'s edge set ``E_i`` from the proof of Theorem 4.8."""
    edges = []
    for ell in instance.index_sets[party]:
        for position, bit in enumerate(instance.strings[party][ell]):
            edges.append(Edge(ell, encode_bit(party, position, bit, instance.k)))
    return edges


def bvl_graph_stream(instance: BitVectorLearningInstance) -> EdgeStream:
    """The full Figure-2 graph as one insertion-only stream (party order)."""
    items = [
        StreamItem(edge)
        for party in range(instance.p)
        for edge in party_edges(instance, party)
    ]
    return EdgeStream(items, instance.n, 2 * instance.k * instance.p)


@dataclass(frozen=True)
class BvlProtocolResult:
    """Outcome of a Bit-Vector-Learning protocol run."""

    index: int
    learned_bits: Tuple[Tuple[int, int, int], ...]  # (party, position, bit)
    correct: bool
    log: MessageLog

    @property
    def n_bits(self) -> int:
        return len(self.learned_bits)


def solve_bvl_via_feww(
    instance: BitVectorLearningInstance,
    seed: int | None = None,
    alpha: int | None = None,
) -> BvlProtocolResult:
    """Run the Theorem 4.8 protocol with Algorithm 2 as the solver.

    The FEwW threshold is ``d = Δ = k p`` (the element of ``X_p`` has
    one edge per bit per party).  With ``alpha`` defaulting to
    ``floor(p / 1.01)``, a successful run returns at least
    ``ceil(k p / alpha) >= 1.01 k`` witnesses, each decoding to one bit
    of ``Z_I``.

    Returns:
        the reported index, the decoded (party, position, bit) triples,
        whether *all* decoded bits match the instance (protocol
        correctness), and the message log.
    """
    p, k = instance.p, instance.k
    if alpha is None:
        alpha = max(1, math.floor(p / 1.01))
    d = k * p
    algorithm = InsertionOnlyFEwW(instance.n, d, alpha, seed=seed)
    log = MessageLog()
    for party in range(p):
        algorithm.process_batch(*share_columns(party_edges(instance, party)))
        if party < p - 1:
            log.record(party, party + 1, algorithm.space_words())
    try:
        neighbourhood = algorithm.result()
    except AlgorithmFailed:
        return BvlProtocolResult(-1, (), False, log)
    index = neighbourhood.vertex
    learned = tuple(
        (party, position, bit)
        for party, position, bit in sorted(
            decode_witness(b, k) for b in neighbourhood.witnesses
        )
    )
    correct = all(
        party < p
        and index in instance.strings[party]
        and instance.z_bit(index, party, position) == bit
        for party, position, bit in learned
    )
    return BvlProtocolResult(index, learned, correct, log)


def trivial_bvl_protocol(
    instance: BitVectorLearningInstance,
) -> Tuple[int, Tuple[int, ...]]:
    """The zero-communication baseline from Section 4.3.

    The last party outputs its single index ``I ∈ X_p`` together with
    its own ``k``-bit string ``Y^I_p`` — exactly ``k`` bits, never more.
    """
    last = instance.p - 1
    if not instance.index_sets[last]:
        raise ValueError("degenerate instance: X_p is empty")
    index = instance.index_sets[last][0]
    return index, instance.strings[last][index]
