"""Hot-path shape lint: batch entry points must stay vectorized.

Every throughput win in this repo came from replacing per-item Python
loops with whole-chunk NumPy kernels, and every per-layer ceiling in
``scripts/perf_gate.py`` (``baselines.count_min.ingest_s`` and the
rest) assumes the batch entry points stay that way.
``hotpath/scalar-loop`` flags a ``for`` loop inside a
``process_batch`` / ``check_batch`` / ``observe_batch`` /
``update_batch`` body whose
iterable references one of the method's own batch parameters — the
signature of per-item iteration over chunk columns (``zip(a.tolist(),
b.tolist())``, ``range(len(a))``, ``enumerate(deltas)``, ...).

Loops over *derived, collapsed* data are deliberately not flagged:
iterating the distinct keys of an ``np.unique`` netting pass, internal
rung/level/bank fan-out (``for run in self.runs``) and fixed-size limb
loops are all sub-linear in the chunk and are how the fused kernels
are written.

Order-dependent structures that genuinely cannot collapse a chunk
(Misra-Gries decrement-all, Bloom first-arrival admission) annotate
the loop::

    # repro: allow-scalar-loop decrement-all couples counters to arrivals
    for item, witness in zip(a.tolist(), b.tolist()):
        ...

The reason is mandatory — the pragma documents *why* the loop is
irreducible, so a future reader knows the floor gate (not this lint)
is the guard that matters there.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.source import ModuleSource

__all__ = ["HOT_BATCH_METHODS", "check_hotpath"]

#: The engine-driven batch entry points the rule watches.
HOT_BATCH_METHODS: FrozenSet[str] = frozenset(
    {"process_batch", "check_batch", "observe_batch", "update_batch"}
)


def _batch_parameters(method: ast.FunctionDef) -> Set[str]:
    args = method.args
    names = {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    names.discard("self")
    return names


def _references(node: ast.AST, names: Set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node)
    )


def check_hotpath(source: ModuleSource) -> List[Diagnostic]:
    """All hot-path findings of one module (pre-suppression)."""
    findings: List[Diagnostic] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if (
                not isinstance(method, ast.FunctionDef)
                or method.name not in HOT_BATCH_METHODS
            ):
                continue
            params = _batch_parameters(method)
            if not params:
                continue
            for loop in ast.walk(method):
                if not isinstance(loop, ast.For):
                    continue
                if not _references(loop.iter, params):
                    continue
                findings.append(
                    Diagnostic(
                        rule="hotpath/scalar-loop",
                        path=source.display_path,
                        line=loop.lineno,
                        problem=(
                            f"per-item loop over batch parameter(s) in "
                            f"{node.name}.{method.name}"
                        ),
                        hint=(
                            "collapse the chunk with a vectorized kernel "
                            "(np.unique netting, scatter-add, boolean "
                            "masks); if the structure is genuinely "
                            "order-dependent, annotate the loop with "
                            "'# repro: allow-scalar-loop <reason>'"
                        ),
                    )
                )
    return findings
