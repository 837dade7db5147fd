"""Runtime contract auditor against deliberately broken registries."""

import pytest

from repro.analysis import audit_registry
from repro.pipeline.registry import Entry, Param, Registry


def _rules_for(findings, name):
    return sorted(
        f.rule for f in findings if f"processor {name!r}" in f.problem
    )


def _problems_for(findings, name):
    return [f.problem for f in findings if f"processor {name!r}" in f.problem]


@pytest.fixture()
def audited(import_fixture):
    module = import_fixture("proto_fixture")
    registry = Registry("processor")

    def add(name, cls, *, mergeable, routing=None, params=(Param("k", int, 4),),
            seed_param=None):
        registry.register(
            Entry(
                name=name,
                factory=cls,
                params=params,
                kind="test",
                routing=routing,
                mergeable=mergeable,
                seed_param=seed_param,
            )
        )

    add("good", module.GoodSummary, mergeable=True, routing="any")
    add("unpicklable", module.UnpicklableSummary, mergeable=True, routing="any")
    add("broken-split", module.BrokenSplit, mergeable=True, routing="any")
    add("secretly", module.SecretlyMergeable, mergeable=False)
    add("not-actually", module.NotActuallyMergeable, mergeable=True, params=())
    add("draining", module.ArgumentDrainingMerge, mergeable=True, routing="any")
    add("adopting", module.WitnessAdoptingMerge, mergeable=True, routing="any")
    seeded = (Param("k", int, 4), Param("seed", int, 0))
    add("seed-bound", module.SeedBoundMerge, mergeable=True, routing="any",
        params=seeded, seed_param="seed")
    add("declared", module.DeclaredSeedBoundMerge, mergeable=True,
        routing="any", params=seeded, seed_param="seed")
    add(
        "unbuildable",
        module.GoodSummary,
        mergeable=True,
        routing="any",
        params=(Param("zeta", int),),  # required, no audit value anywhere
    )
    return audit_registry(registry)


class TestBrokenRegistry:
    def test_conformant_entry_is_clean(self, audited):
        assert _rules_for(audited, "good") == []

    def test_pickle_roundtrip_catches_runtime_lock(self, audited):
        # the lock only appears once process_batch has run — exactly the
        # state the static forksafe rules cannot see
        assert "audit/pickle-roundtrip" in _rules_for(audited, "unpicklable")

    def test_split_identity(self, audited):
        assert "audit/split-identity" in _rules_for(audited, "broken-split")

    def test_capability_exceeds_metadata(self, audited):
        assert _rules_for(audited, "secretly") == ["audit/metadata-capability"]

    def test_metadata_exceeds_capability(self, audited):
        assert _rules_for(audited, "not-actually") == [
            "audit/metadata-capability"
        ]

    def test_merge_that_changes_its_argument_is_named(self, audited):
        assert _rules_for(audited, "draining") == ["audit/merge-argument"]
        assert _problems_for(audited, "draining") == [
            "processor 'draining': merge(other) changed other's finalized "
            "answer"
        ]

    def test_merge_that_adopts_argument_lists_is_named(self, audited):
        assert _rules_for(audited, "adopting") == ["audit/merge-argument"]
        assert _problems_for(audited, "adopting") == [
            "processor 'adopting': merge(other)'s result shares mutable "
            "state with other (list x1)"
        ]

    def test_undeclared_seed_bound_merge_is_named(self, audited):
        """Sliding and decay seed an undeclared entry's buckets apart,
        so its merge must take different seeds."""
        assert _rules_for(audited, "seed-bound") == ["audit/seeded-merge"]
        assert _rules_for(audited, "declared") == []

    def test_unbuildable_entry_reported_not_crashed(self, audited):
        assert _rules_for(audited, "unbuildable") == ["audit/unbuildable"]


class TestShippedRegistry:
    def test_processors_registry_passes_the_audit(self):
        assert audit_registry() == []
