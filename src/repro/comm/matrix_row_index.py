"""Problem 5 (Augmented-Matrix-Row-Index) and the Lemma 6.3 reduction.

``Augmented-Matrix-Row-Index(n, m, k)``: Alice holds a uniform binary
``n × m`` matrix ``X``; Bob holds a uniform row index ``J`` and, for
every other row, a uniform set of ``m - k`` known positions with their
values.  After one message from Alice, Bob must output the entire row
``X_J``.  Theorem 6.2: any protocol with error ε needs
``(n-1)(k-1-εm)`` bits.

Lemma 6.3 solves the problem with an insertion-deletion FEwW algorithm:
``Θ(α log n)`` parallel repetitions, each permuting every row's columns
by fresh public randomness, running the algorithm on the matrix-as-
bipartite-graph with Bob's known 1-entries as *deletions* (leaving
every row except ``J`` with at most ``d/α - 1`` ones), so the reported
vertex must be row ``J`` and each witness reveals a 1-position.  An
inverted-matrix copy of the same machinery recovers the 0-positions,
covering rows with fewer than ``d`` ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.comm.protocol import MessageLog
from repro.comm.simulate import share_columns
from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import DELETE, Edge


@dataclass(frozen=True)
class AmriInstance:
    """One Augmented-Matrix-Row-Index instance.

    Attributes:
        n: number of rows.
        m: number of columns.
        k: number of positions per row *unknown* to Bob (he knows m-k).
        matrix: Alice's matrix, ``matrix[i][j] ∈ {0,1}``.
        target_row: Bob's index ``J``.
        known_positions: for each row ``i != J``, the sorted tuple of the
            ``m - k`` column indices Bob knows (values are read from the
            matrix itself).
    """

    n: int
    m: int
    k: int
    matrix: Tuple[Tuple[int, ...], ...]
    target_row: int
    known_positions: Dict[int, Tuple[int, ...]]

    def known_value(self, row: int, column: int) -> int:
        """Bob's knowledge of position (row, column); must be known."""
        if row == self.target_row or column not in self.known_positions[row]:
            raise KeyError(f"Bob does not know position ({row}, {column})")
        return self.matrix[row][column]

    def target_row_bits(self) -> Tuple[int, ...]:
        """Ground truth: the row Bob must output."""
        return self.matrix[self.target_row]


def random_instance(n: int, m: int, k: int, rng: random.Random) -> AmriInstance:
    """Sample from the input distribution of Problem 5."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    matrix = tuple(
        tuple(rng.randrange(2) for _ in range(m)) for _ in range(n)
    )
    target = rng.randrange(n)
    known = {
        row: tuple(sorted(rng.sample(range(m), m - k)))
        for row in range(n)
        if row != target
    }
    return AmriInstance(n, m, k, matrix, target, known)


def figure3_instance() -> AmriInstance:
    """The paper's Figure 3 example: Augmented-Matrix-Row-Index(4, 6, 2).

    Alice's matrix is the 4x6 matrix shown in the figure; Bob must
    output row 3 (index 2 here, 0-indexed) and knows 6-2 = 4 positions
    in every other row.  The figure does not pin down *which* positions
    Bob knows, so we fix columns {0, 1, 2, 4}, which matches the four
    values printed per known row.
    """
    matrix = (
        (0, 1, 1, 1, 0, 0),
        (1, 1, 0, 0, 1, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 1, 0, 1, 0),
    )
    known = {row: (0, 1, 2, 4) for row in (0, 1, 3)}
    return AmriInstance(4, 6, 2, matrix, 2, known)


@dataclass(frozen=True)
class AmriProtocolResult:
    """Outcome of the Lemma 6.3 protocol."""

    recovered_row: Tuple[int, ...]
    correct: bool
    repetitions: int
    used_inverted: bool
    log: MessageLog


def _run_repetition(
    instance: AmriInstance,
    alpha: float,
    invert: bool,
    rep_seed: int,
    scale: float,
    log: MessageLog,
) -> Set[int]:
    """One parallel repetition: permute, stream, delete, report.

    Returns the set of (un-permuted) columns of the target row learned
    to hold value 1 (or value 0 when ``invert``).  Empty set when the
    FEwW run fails or reports a non-target row (cannot happen for a
    correct run, but we guard anyway).
    """
    n, m = instance.n, instance.m
    d = m // 2  # the reduction instantiates FEwW(n, d) with m = 2d
    rng = random.Random(rep_seed)
    permutations = [list(range(m)) for _ in range(n)]
    for permutation in permutations:
        rng.shuffle(permutation)

    def cell(row: int, column: int) -> int:
        value = instance.matrix[row][column]
        return 1 - value if invert else value

    algorithm = InsertionDeletionFEwW(
        n, m, d, alpha, seed=rng.getrandbits(64), scale=scale
    )
    # Alice: insert an edge for every 1-cell of the permuted matrix.
    alice = [
        Edge(row, permutations[row][column])
        for row in range(n)
        for column in range(m)
        if cell(row, column)
    ]
    algorithm.process_batch(*share_columns(alice))
    log.record(0, 1, algorithm.space_words())
    # Bob: delete the edges at his known 1-positions (rows != J).
    bob = [
        Edge(row, permutations[row][column])
        for row, columns in instance.known_positions.items()
        for column in columns
        if cell(row, column)
    ]
    algorithm.process_batch(*share_columns(bob, DELETE))
    try:
        neighbourhood = algorithm.result()
    except AlgorithmFailed:
        return set()
    if neighbourhood.vertex != instance.target_row:
        return set()
    inverse = {permutations[instance.target_row][c]: c for c in range(m)}
    return {inverse[b] for b in neighbourhood.witnesses}


def solve_amri_via_feww(
    instance: AmriInstance,
    alpha: float = 2.0,
    seed: int | None = None,
    repetition_constant: float = 10.0,
    scale: float = 1.0,
) -> AmriProtocolResult:
    """Run the full Lemma 6.3 protocol.

    Args:
        instance: must satisfy ``k = d/α - 1`` for the reduction's
            degree argument, i.e. ``instance.k <= m/(2α) - 1`` keeps
            every non-target row below the output threshold after Bob's
            deletions.  (Callers construct instances accordingly; the
            function raises otherwise.)
        alpha: approximation factor handed to Algorithm 3.
        seed: master seed for the public randomness.
        repetition_constant: the ``Θ(α log n)`` constant (default 10).
        scale: forwarded to Algorithm 3's sampler counts.

    Returns:
        the recovered row, whether it matches ground truth, repetition
        count, whether the inverted runs decided the output, and the
        message log (one entry per repetition per direction).
    """
    n, m = instance.n, instance.m
    d = m // 2
    threshold = math.ceil(d / alpha)
    if instance.k > threshold - 1:
        raise ValueError(
            f"reduction needs k <= d/alpha - 1 = {threshold - 1}, got k={instance.k}"
        )
    repetitions = max(1, math.ceil(repetition_constant * alpha * math.log(max(n, 2))))
    rng = random.Random(seed)
    log = MessageLog()

    ones: Set[int] = set()
    zeros: Set[int] = set()
    for _ in range(repetitions):
        rep_seed = rng.getrandbits(64)
        ones |= _run_repetition(instance, alpha, False, rep_seed, scale, log)
        zeros |= _run_repetition(instance, alpha, True, rep_seed + 1, scale, log)

    # Decision rule from the proof: if the non-inverted runs certified at
    # least d ones, row J has >= d ones and they were all learned w.h.p.;
    # otherwise the row has <= d-1 ones, the inverted instance satisfied
    # the promise, and all zeros were learned instead.
    if len(ones) >= d:
        recovered = tuple(1 if c in ones else 0 for c in range(m))
        used_inverted = False
    else:
        recovered = tuple(0 if c in zeros else 1 for c in range(m))
        used_inverted = True
    correct = recovered == instance.target_row_bits()
    return AmriProtocolResult(recovered, correct, repetitions, used_inverted, log)
