"""Problem 3 (Set-Disjointness_p) and the Theorem 4.1 reduction.

``Set-Disjointness_p``: ``p`` parties each hold a subset of an
``n``-universe with the promise that the sets are either pairwise
disjoint or share exactly one common element; deciding which requires
some party to send ``Ω(n / p²)`` bits one-way [12].

Theorem 4.1 turns a FEwW streaming algorithm into a protocol: party
``i`` encodes each element ``u`` of its set as ``k`` edges from
A-vertex ``u`` to party-``i``'s private block of B-vertices, so the
common element (if any) reaches degree ``d = k p`` while all other
vertices stay at degree ``k``.  Running the algorithm through all
parties and checking whether the reported neighbourhood exceeds ``k``
decides the promise — hence the algorithm's memory must be
``Ω(n / p²)`` bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.comm.protocol import MessageLog
from repro.comm.simulate import share_columns
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed
from repro.streams.edge import Edge


@dataclass(frozen=True)
class SetDisjointnessInstance:
    """One promise instance: party sets plus the ground truth."""

    universe_size: int
    sets: Tuple[FrozenSet[int], ...]
    intersecting: bool

    @property
    def n_parties(self) -> int:
        return len(self.sets)


def disjoint_instance(
    p: int, n: int, rng: random.Random, set_size: int | None = None
) -> SetDisjointnessInstance:
    """Pairwise-disjoint instance: a random partition slice per party."""
    if p < 2:
        raise ValueError(f"need p >= 2 parties, got {p}")
    size = set_size if set_size is not None else max(1, n // (2 * p))
    if p * size > n:
        raise ValueError(f"cannot fit {p} disjoint sets of size {size} in [{n}]")
    universe = list(range(n))
    rng.shuffle(universe)
    sets = tuple(
        frozenset(universe[i * size : (i + 1) * size]) for i in range(p)
    )
    return SetDisjointnessInstance(n, sets, intersecting=False)


def intersecting_instance(
    p: int, n: int, rng: random.Random, set_size: int | None = None
) -> SetDisjointnessInstance:
    """Uniquely-intersecting instance: disjoint slices plus one shared item."""
    base = disjoint_instance(p, n, rng, set_size)
    used: Set[int] = set().union(*base.sets)
    free = [u for u in range(n) if u not in used]
    if not free:
        raise ValueError("no free universe element for the shared item")
    shared = rng.choice(free)
    sets = tuple(s | {shared} for s in base.sets)
    return SetDisjointnessInstance(n, sets, intersecting=True)


def _party_edges(
    instance: SetDisjointnessInstance, party: int, k: int
) -> List[Edge]:
    """Theorem 4.1's encoding: element ``u`` -> ``k`` edges into the
    party's private B-block ``[party*k, (party+1)*k)``."""
    return [
        Edge(u, party * k + j)
        for u in sorted(instance.sets[party])
        for j in range(k)
    ]


def solve_set_disjointness_via_feww(
    instance: SetDisjointnessInstance,
    k: int = 4,
    seed: int | None = None,
    alpha: int | None = None,
) -> Tuple[bool, MessageLog]:
    """Run the Theorem 4.1 protocol with Algorithm 2 as the FEwW solver.

    Args:
        instance: the promise instance.
        k: per-party edge multiplicity; the FEwW threshold is ``d = k p``.
        seed: seed for the streaming algorithm.
        alpha: approximation factor; defaults to ``p - 1``, the largest
            integral factor for which a reported neighbourhood can still
            separate degree ``k p`` from degree ``k``
            (``ceil(k p / (p-1)) >= k + 1``).

    Returns:
        (answer, log): the protocol's verdict (True = intersecting) and
        the message log whose entries are the algorithm's memory size at
        each party handoff.
    """
    p = instance.n_parties
    if alpha is None:
        alpha = max(1, p - 1)
    d = k * p
    algorithm = InsertionOnlyFEwW(instance.universe_size, d, alpha, seed=seed)
    log = MessageLog()
    for party in range(p):
        algorithm.process_batch(*share_columns(_party_edges(instance, party, k)))
        if party < p - 1:
            log.record(party, party + 1, algorithm.space_words())
    try:
        neighbourhood = algorithm.result()
        answer = neighbourhood.size >= k + 1
    except AlgorithmFailed:
        answer = False
    return answer, log
