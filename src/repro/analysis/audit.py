"""Import-time contract auditor: runtime truth behind the static view.

The static rules reason about source; this auditor imports the real
:data:`~repro.pipeline.registry.PROCESSORS` registry and *exercises*
every entry, so the static and dynamic views cannot drift.  Per entry:

* build at audit parameters (registry defaults plus
  :data:`AUDIT_DEFAULTS` for the required ones; an entry with several
  :data:`AUDIT_PARAMS` override sets runs every check once per set) —
  ``audit/unbuildable`` / ``audit/build-failed``;
* feed a tiny batch through ``process_batch`` — ``audit/batch-failed``;
* pickle round-trip the *loaded* instance and drive the clone through
  another batch + ``finalize`` (the exact path a sharded worker's
  summary takes through a pipe) — ``audit/pickle-roundtrip``;
* mergeable smoke: ``split(1)`` yields exactly one same-type summary
  that still ingests and finalizes (``audit/split-identity``), and a
  ``split(2)`` pair merges (``audit/merge-smoke``);
* merge-argument contract: ``merge(other)`` leaves ``other``'s
  finalized answer unchanged and its result shares no mutable
  container (list, dict, set, array, RNG, object) with ``other`` —
  ``audit/merge-argument``.  Window probes merge live buckets without
  cloning them, so this is what keeps a probe from perturbing the
  stream.  Flushing ``other`` in place is allowed and ``finalize`` is
  outside the contract (it may draw from an RNG or memoise), so
  answers are read from throwaway copies, settled by one more merge;
* seeded merge: an entry whose instance does not declare
  ``merge_needs_equal_seeds`` must merge two builds with different
  seeds, because sliding and decay windows seed its buckets apart —
  ``audit/seeded-merge``;
* metadata ↔ capability agreement: the *instance*'s validated
  ``shard_routing`` must match the registry's declared routing, and
  ``mergeable`` must match what
  :func:`~repro.engine.protocol.ensure_mergeable` accepts —
  ``audit/metadata-capability``.

Diagnostics anchor at the implementing class when one is resolvable,
otherwise at ``<registry>``.
"""

from __future__ import annotations

import copy
import enum
import pickle
import types
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.protocol import _class_location

__all__ = ["AUDIT_DEFAULTS", "AUDIT_PARAMS", "audit_registry"]

#: Name-based values for required parameters (small on purpose: the
#: audit exercises contracts, not accuracy).
AUDIT_DEFAULTS: Dict[str, Any] = {
    "n": 32,
    "m": 64,
    "d": 4,
    "k": 4,
    "count": 2,
    "width": 16,
    "rows": 3,
    "capacity": 128,
    "edges": 64,
    "epsilon": 0.25,
    "delta": 0.25,
    "fp_rate": 0.05,
    "n_vertices": 32,
    "seed": 0,
}

#: Per-entry override sets when the name-based table is not right:
#: the entry is audited once per set.  ``l0-bank`` also runs its exact
#: class, which has its own ``clone``, pickling and ``merge``.
AUDIT_PARAMS: Dict[str, Tuple[Dict[str, Any], ...]] = {
    "l0-bank": ({}, {"mode": "exact"}),
}

#: The tiny audit batches (well inside every AUDIT_DEFAULTS domain).
_BATCH_A = np.array([0, 1, 2, 0], dtype=np.int64)
_BATCH_B = np.array([1, 2, 3, 4], dtype=np.int64)
_BATCH_A2 = np.array([3, 1], dtype=np.int64)
_BATCH_B2 = np.array([5, 2], dtype=np.int64)

#: Denser batches for the merge-argument probe: vertex 0 is heavy in
#: both operands, so witness-collecting structures hold lists to merge.
_MERGE_A = np.array([0, 0, 0, 0, 0, 1, 1, 2], dtype=np.int64)
_MERGE_B = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.int64)
_MERGE_A2 = np.array([0, 0, 0, 0, 3, 3], dtype=np.int64)
_MERGE_B2 = np.array([9, 10, 11, 12, 13, 14], dtype=np.int64)

#: Leaves of the container walk: immutable, or not state at all.
_ATOMIC = (
    int, float, complex, str, bytes, bool, type(None), range, slice,
    np.generic, enum.Enum, type, types.FunctionType,
    types.BuiltinFunctionType, types.MethodType, types.ModuleType,
)


def _settled_answer(processor: Any, settler: Any) -> bytes:
    """Pickled answer of a throwaway copy of ``processor`` after it
    merges a copy of ``settler``.

    ``finalize`` may draw from an RNG or memoise, so it never runs on
    the audited instance.  The extra merge consolidates the copy's
    pending updates, so a summary its own merge argument flushed in
    place reads the same as before the flush.
    """
    probe = copy.deepcopy(processor).merge(copy.deepcopy(settler))
    return pickle.dumps(probe.finalize())


def _mutable_state(root: Any) -> Dict[int, Any]:
    """id -> object for every mutable container reachable from ``root``:
    lists, dicts, sets, arrays, RNGs and objects with attributes.

    NumPy views count as their base array, so two views of one buffer
    are the same container.
    """
    found: Dict[int, Any] = {}
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _ATOMIC) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, dict):
            found[id(obj)] = obj
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, set, bytearray)):
            found[id(obj)] = obj
            stack.extend(obj)
        elif isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
        else:
            found[id(obj)] = obj
            stack.extend(getattr(obj, "__dict__", {}).values())
            for klass in type(obj).__mro__:
                for name in getattr(klass, "__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return found


def _merge_argument_findings(build: Any) -> List[str]:
    """Problems with ``merge(other)``'s treatment of ``other``."""
    left, right = build().split(2)
    left.process_batch(_MERGE_A, _MERGE_B)
    right.process_batch(_MERGE_A2, _MERGE_B2)
    settler = copy.deepcopy(left)
    before = _settled_answer(right, settler)
    merged = left.merge(right)
    problems = []
    if _settled_answer(right, settler) != before:
        problems.append("merge(other) changed other's finalized answer")
    theirs = _mutable_state(right)
    shared = Counter(
        type(obj).__name__
        for key, obj in _mutable_state(merged).items()
        if key in theirs
    )
    if shared:
        kinds = ", ".join(f"{name} x{n}" for name, n in sorted(shared.items()))
        problems.append(
            f"merge(other)'s result shares mutable state with other "
            f"({kinds})"
        )
    return problems


def _audit_params(
    entry: Any, overrides: Dict[str, Any]
) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """(params, missing-required-names) for one entry and override set."""
    params: Dict[str, Any] = {}
    missing: List[str] = []
    for param in entry.params:
        if param.name in overrides:
            params[param.name] = overrides[param.name]
        elif not param.required:
            continue  # let bind() fill the registry default
        elif param.name in AUDIT_DEFAULTS:
            params[param.name] = AUDIT_DEFAULTS[param.name]
        else:
            missing.append(param.name)
    if missing:
        return None, missing
    return params, []


def audit_registry(
    registry: Optional[Any] = None, root: Optional[Path] = None
) -> List[Diagnostic]:
    """Exercise every registry entry; return the complete finding set."""
    if registry is None:
        from repro.pipeline.registry import PROCESSORS

        registry = PROCESSORS
    from repro.engine.protocol import ensure_mergeable, shard_routing_of

    findings: List[Diagnostic] = []
    for entry in registry.entries():
        cls = entry.resolved_class
        if cls is not None:
            path, line = _class_location(cls, root)
        else:
            path, line = "<registry>", 0

        for overrides in AUDIT_PARAMS.get(entry.name, ({},)):
            label = entry.name + "".join(f" {k}={v!r}" for k, v in overrides.items())

            def report(rule: str, problem: str, hint: str) -> None:
                findings.append(
                    Diagnostic(
                        rule=rule,
                        path=path,
                        line=line,
                        problem=f"processor {label!r}: {problem}",
                        hint=hint,
                    )
                )

            params, missing = _audit_params(entry, overrides)
            if params is None:
                report(
                    "audit/unbuildable",
                    f"no audit value for required parameter(s) {missing}",
                    "add the parameter name to repro.analysis.audit."
                    "AUDIT_DEFAULTS (or an AUDIT_PARAMS entry) so the "
                    "contract auditor can instantiate the processor",
                )
                continue
            try:
                processor = entry.build(params)
            except Exception as error:  # noqa: BLE001 — report, don't crash
                report(
                    "audit/build-failed",
                    f"factory raised {type(error).__name__}: {error}",
                    "the registry schema and the factory signature disagree",
                )
                continue
            try:
                processor.process_batch(_BATCH_A, _BATCH_B)
            except Exception as error:  # noqa: BLE001
                report(
                    "audit/batch-failed",
                    f"process_batch raised {type(error).__name__}: {error}",
                    "every processor must ingest a plain int64 (a, b) chunk "
                    "with sign=None",
                )
                continue
            try:
                clone = pickle.loads(pickle.dumps(processor))
                clone.process_batch(_BATCH_A2, _BATCH_B2)
                clone.finalize()
            except Exception as error:  # noqa: BLE001
                report(
                    "audit/pickle-roundtrip",
                    f"pickle round-trip failed with "
                    f"{type(error).__name__}: {error}",
                    "shard summaries and checkpoints travel by pickle; drop "
                    "the unpicklable state (open handles, lambdas, locks) "
                    "or add __getstate__/__setstate__",
                )

            capable = True
            try:
                fresh = entry.build(params)
                ensure_mergeable(fresh)
            except TypeError:
                capable = False
            except Exception as error:  # noqa: BLE001
                report(
                    "audit/build-failed",
                    f"second build raised {type(error).__name__}: {error}",
                    "factories must be repeatable at fixed parameters",
                )
                continue
            if entry.mergeable != capable:
                report(
                    "audit/metadata-capability",
                    f"registered mergeable={entry.mergeable} but the instance "
                    f"{'passes' if capable else 'fails'} ensure_mergeable()",
                    "align the registry metadata with the runtime surface",
                )
            if capable:
                routing = shard_routing_of(entry.build(params))
                if entry.routing is not None and routing != entry.routing:
                    report(
                        "audit/metadata-capability",
                        f"registered routing={entry.routing!r} but the "
                        f"instance reports shard_routing={routing!r}",
                        "the registry routing drives spec validation and "
                        "shard partitioning; it must match the instance",
                    )
                try:
                    parts = entry.build(params).split(1)
                    if len(parts) != 1 or not isinstance(parts[0], type(fresh)):
                        report(
                            "audit/split-identity",
                            f"split(1) returned "
                            f"{[type(part).__name__ for part in parts]!r}",
                            "split(1) must yield exactly one shard instance "
                            "of the processor's own type",
                        )
                    else:
                        parts[0].process_batch(_BATCH_A, _BATCH_B)
                        parts[0].finalize()
                except Exception as error:  # noqa: BLE001
                    report(
                        "audit/split-identity",
                        f"split(1) smoke failed with "
                        f"{type(error).__name__}: {error}",
                        "a single-shard split must behave like the original "
                        "processor",
                    )
                try:
                    left, right = entry.build(params).split(2)
                    merged = left.merge(right)
                    merged.finalize()
                except Exception as error:  # noqa: BLE001
                    report(
                        "audit/merge-smoke",
                        f"split(2)+merge failed with "
                        f"{type(error).__name__}: {error}",
                        "same-configuration shards must always merge; this is "
                        "the exact fold ShardedRunner performs",
                    )
                    continue
                try:
                    problems = _merge_argument_findings(
                        lambda: entry.build(params)
                    )
                except Exception as error:  # noqa: BLE001
                    problems = [
                        f"merge-argument probe failed with "
                        f"{type(error).__name__}: {error}"
                    ]
                for problem in problems:
                    report(
                        "audit/merge-argument",
                        problem,
                        "merge folds into its receiver (or a new summary): it "
                        "may flush its argument but must not change its "
                        "answer, and must copy any container it takes from it "
                        "— window probes merge live buckets without cloning",
                    )
                if entry.seed_param is None or getattr(
                    fresh, "merge_needs_equal_seeds", False
                ):
                    continue
                try:
                    left = entry.build({**params, entry.seed_param: 1})
                    right = entry.build({**params, entry.seed_param: 2})
                    left.process_batch(_BATCH_A, _BATCH_B)
                    right.process_batch(_BATCH_A2, _BATCH_B2)
                    left.merge(right).finalize()
                except Exception as error:  # noqa: BLE001
                    report(
                        "audit/seeded-merge",
                        f"builds with different seeds do not merge "
                        f"({type(error).__name__}: {error})",
                        "set merge_needs_equal_seeds = True on the class so "
                        "sliding and decay windows seed every bucket alike",
                    )
    return findings
