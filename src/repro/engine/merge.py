"""Parallel tree-reduction merge: the shard-combine contract.

:class:`~repro.engine.sharded.ShardedRunner` combines its shard
summaries in the parent with :func:`tree_reduce`: a binomial reduction
tree of pairwise :meth:`merge
<repro.engine.protocol.MergeableStreamProcessor.merge>` calls —
``(s0 + s1) + (s2 + s3)`` rather than the left-fold
``((s0 + s1) + s2) + s3`` — which halves the live summaries every
round (log depth).

**Merge-order contract.**  The tree's merge order is a fixed function
of the shard index alone: round ``k`` merges shard ``i + 2**k`` into
shard ``i`` for every ``i`` divisible by ``2**(k+1)``, ascending ``i``,
and the receiver is always the lower index.  Consequences:

* **Linear/exact structures** (ℓ₀-sampler banks, CountSketch,
  AMS/F2, degree tables, exact supports — anything whose merge is
  elementwise addition or disjoint-key union): associativity makes the
  tree *bit-identical* to the sequential left-fold, and with it to the
  single-core reference pass.  This is asserted by
  ``tests/engine/test_tree_merge.py``.
* **Counter/sampled summaries** (Misra-Gries, SpaceSaving, reservoir
  unions): merge is associative in *guarantee* but not always in
  byte-level tie-breaking, so the tree result may differ bit-wise from
  the left-fold while carrying exactly the same error/success bounds —
  the classical mergeable-summaries property (Agarwal et al.).  The
  result is still deterministic: the tree shape depends only on the
  worker count, never on timing.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

__all__ = ["tree_reduce", "tree_rounds"]


def tree_rounds(n: int) -> List[List[Tuple[int, int]]]:
    """The reduction schedule for ``n`` shards: one ``(receiver,
    sender)`` pair list per round.

    Round ``k`` pairs receiver ``i`` (``i % 2**(k+1) == 0``) with
    sender ``i + 2**k`` whenever the sender exists; after
    ``ceil(log2 n)`` rounds only shard 0 is live.  :func:`tree_reduce`
    executes this schedule; it is exposed so tests and benchmarks can
    inspect the exact merge order.
    """
    if n < 1:
        raise ValueError(f"need at least one shard, got {n}")
    rounds: List[List[Tuple[int, int]]] = []
    span = 1
    while span < n:
        rounds.append(
            [(i, i + span) for i in range(0, n, 2 * span) if i + span < n]
        )
        span *= 2
    return rounds


def tree_reduce(items: Sequence[T], merge: Callable[[T, T], T]) -> T:
    """Combine ``items`` pairwise along the binomial reduction tree.

    ``merge(receiver, sender)`` must fold the sender into the receiver
    and return the combined value (the in-place ``merge``-and-return
    convention every processor in this library follows).  For an
    associative merge the result equals the sequential left-fold
    ``merge(merge(items[0], items[1]), ...)``; see the module docstring
    for which structures that makes bit-identical.
    """
    slots: List[T] = list(items)
    for pairs in tree_rounds(len(slots)):
        for receiver, sender in pairs:
            slots[receiver] = merge(slots[receiver], slots[sender])
    return slots[0]
