"""Registry-contract fixture classes.

Imported (via ``sys.modules`` registration, so pickle can resolve
them) by the protocol-lint and contract-auditor tests, which register
them in a throwaway registry with deliberately wrong metadata.
"""

import threading
from typing import Dict, List, Optional


class GoodSummary:
    """Fully conformant mergeable processor."""

    shard_routing = "any"

    def __init__(self, k: int = 4) -> None:
        self.k = k
        self.total = 0

    def process_batch(self, a, b, sign=None) -> None:
        self.total += len(a)

    def finalize(self) -> "GoodSummary":
        return self

    def split(self, n_shards: int) -> List["GoodSummary"]:
        return [type(self)(self.k) for _ in range(n_shards)]

    def merge(self, other: "GoodSummary") -> "GoodSummary":
        self.total += other.total
        return self


class NoBatch:
    """Missing the engine surface entirely."""

    def finalize(self) -> None:
        return None


class BadArity(GoodSummary):
    """split/merge exist but cannot be called the way the engine calls
    them."""

    def split(self) -> List["BadArity"]:  # type: ignore[override]
        return [self]

    def merge(self, other, strategy) -> "BadArity":  # type: ignore[override]
        return self


class SecretlyMergeable(GoodSummary):
    """Conformant class; tests register it with mergeable=False."""


class NotActuallyMergeable:
    """No split/merge; tests register it with mergeable=True."""

    def process_batch(self, a, b, sign=None) -> None:
        pass

    def finalize(self) -> None:
        return None


class RoutingClash(GoodSummary):
    """Class says "any"; tests register it with routing="vertex"."""


class UnpicklableSummary(GoodSummary):
    """Pickle round-trip fails: a thread lock rides on the instance."""

    def __init__(self, k: int = 4) -> None:
        super().__init__(k)
        self.lock: Optional[threading.Lock] = None

    def process_batch(self, a, b, sign=None) -> None:
        # the lock appears once the summary has processed data — the
        # shape the runtime auditor must catch and the static rules
        # cannot (the assignment is reached, not declared)
        self.lock = threading.Lock()
        super().process_batch(a, b, sign)


class BrokenSplit(GoodSummary):
    """split(1) violates the identity contract (wrong count)."""

    def split(self, n_shards: int) -> List["GoodSummary"]:
        return [GoodSummary(self.k) for _ in range(n_shards + 1)]


class ArgumentDrainingMerge(GoodSummary):
    """merge() moves the argument's count instead of adding it: the
    argument answers 0 afterwards."""

    def merge(self, other: "GoodSummary") -> "GoodSummary":
        self.total += other.total
        other.total = 0
        return self


class WitnessAdoptingMerge:
    """merge() adopts the argument's witness list for vertices it has
    not seen instead of copying it, so both summaries share the list."""

    shard_routing = "any"

    def __init__(self, k: int = 4) -> None:
        self.k = k
        self.witnesses: Dict[int, List[int]] = {}

    def process_batch(self, a, b, sign=None) -> None:
        for vertex, witness in zip(a.tolist(), b.tolist()):
            self.witnesses.setdefault(vertex, []).append(witness)

    def finalize(self) -> Dict[int, List[int]]:
        return {vertex: sorted(ws) for vertex, ws in self.witnesses.items()}

    def split(self, n_shards: int) -> List["WitnessAdoptingMerge"]:
        return [type(self)(self.k) for _ in range(n_shards)]

    def merge(self, other: "WitnessAdoptingMerge") -> "WitnessAdoptingMerge":
        for vertex, witnesses in other.witnesses.items():
            stored = self.witnesses.get(vertex)
            if stored is None:
                self.witnesses[vertex] = witnesses
            else:
                stored.extend(witnesses)
        return self


class SeedBoundMerge(GoodSummary):
    """A seeded summary that only merges with a same-seed twin but does
    not say so."""

    def __init__(self, k: int = 4, seed: int = 0) -> None:
        super().__init__(k)
        self.seed = seed

    def split(self, n_shards: int) -> List["SeedBoundMerge"]:
        return [type(self)(self.k, self.seed) for _ in range(n_shards)]

    def merge(self, other: "SeedBoundMerge") -> "SeedBoundMerge":
        if other.seed != self.seed:
            raise ValueError("different hash functions")
        return super().merge(other)


class DeclaredSeedBoundMerge(SeedBoundMerge):
    """The same summary, declaring that its merge needs equal seeds."""

    merge_needs_equal_seeds = True
