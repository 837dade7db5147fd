"""Pickle/fork-safety lints: summaries must survive the fork boundary.

:class:`~repro.engine.sharded.ShardedRunner` pickles shard summaries
through pipes, the checkpoint store pickles processor maps to disk, and
spec-driven runs rebuild processors in forked workers.  Anything a
summary object captures therefore has to pickle — and has to still
*mean* something in another process.  These rules guard the two ways
that silently breaks:

* unpicklable state — lambdas and locally-defined functions/classes
  stored on ``self`` (``forksafe/lambda-attribute``,
  ``forksafe/local-def-attribute``);
* process-bound state — open file handles, sockets, subprocesses,
  thread primitives stored on ``self``
  (``forksafe/resource-attribute``): even when such objects pickle,
  the descriptor or lock they wrap does not cross ``fork`` + pickle
  meaningfully.

The rules apply only to classes that actually cross the boundary:
anything exposing the engine surface (``process_batch``, or a
``split``/``merge`` pair).  Readers, runners and other driver-side
classes may hold handles and threads freely.

A fourth rule bans ``multiprocessing.shared_memory.SharedMemory``
segments from the package altogether (``forksafe/shm-outside-engine``):
shard workers inherit their source through ``fork`` and send back only
their summaries, so nothing needs a segment, and one that a killed
process never unlinks outlives the run.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Set

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.source import ModuleSource

__all__ = ["check_forksafe"]

#: Method names marking a class as fork-crossing.
_ENGINE_SURFACE: FrozenSet[str] = frozenset(
    {"process_batch", "observe_batch", "update_batch"}
)

#: Canonical constructors whose instances are process-bound.
_RESOURCE_FACTORIES: FrozenSet[str] = frozenset(
    {
        "builtins.open",
        "io.open",
        "socket.socket",
        "subprocess.Popen",
        "threading.Thread",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "_thread.allocate_lock",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Queue",
        "multiprocessing.Pipe",
        "mmap.mmap",
    }
)

_SHM_FACTORY = "multiprocessing.shared_memory.SharedMemory"


def _is_fork_crossing(node: ast.ClassDef) -> bool:
    """Class exposes the engine surface or the mergeable pair."""
    methods: Set[str] = {
        item.name
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if methods & _ENGINE_SURFACE:
        return True
    return "split" in methods and "merge" in methods


def _self_attribute_target(assign: ast.Assign) -> Optional[str]:
    """Attribute name when the statement assigns ``self.<attr> = ...``."""
    for target in assign.targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
    return None


def _check_method(
    source: ModuleSource,
    class_name: str,
    method: ast.FunctionDef,
    findings: List[Diagnostic],
) -> None:
    local_defs: Set[str] = set()
    local_classes: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not method:
                local_defs.add(node.name)
        elif isinstance(node, ast.ClassDef):
            local_classes.add(node.name)
    for node in ast.walk(method):
        if not isinstance(node, ast.Assign):
            continue
        attr = _self_attribute_target(node)
        if attr is None:
            continue
        value = node.value
        where = f"{class_name}.{method.name} stores self.{attr}"
        if isinstance(value, ast.Lambda):
            findings.append(
                Diagnostic(
                    rule="forksafe/lambda-attribute",
                    path=source.display_path,
                    line=node.lineno,
                    problem=f"{where} = <lambda>; lambdas do not pickle",
                    hint=(
                        "use a module-level function or a frozen-dataclass "
                        "callable (cf. RegistryWindowFactory) so the "
                        "attribute pickles across the fork boundary"
                    ),
                )
            )
            continue
        referenced = value.func if isinstance(value, ast.Call) else value
        if isinstance(referenced, ast.Name):
            if referenced.id in local_defs or referenced.id in local_classes:
                kind = (
                    "class" if referenced.id in local_classes else "function"
                )
                findings.append(
                    Diagnostic(
                        rule="forksafe/local-def-attribute",
                        path=source.display_path,
                        line=node.lineno,
                        problem=(
                            f"{where}, built from locally-defined {kind} "
                            f"{referenced.id!r}; locals do not pickle"
                        ),
                        hint=(
                            "define the helper at module level so pickle "
                            "can import it by qualified name"
                        ),
                    )
                )
                continue
        if isinstance(value, ast.Call):
            canonical = source.resolve_call(value)
            if canonical in _RESOURCE_FACTORIES:
                findings.append(
                    Diagnostic(
                        rule="forksafe/resource-attribute",
                        path=source.display_path,
                        line=node.lineno,
                        problem=(
                            f"{where} = {canonical}(...); OS handles and "
                            f"thread primitives do not survive fork+pickle"
                        ),
                        hint=(
                            "open/create the resource where it is used "
                            "(or in the driver) instead of storing it on "
                            "a summary that crosses worker boundaries"
                        ),
                    )
                )


def check_forksafe(source: ModuleSource) -> List[Diagnostic]:
    """All fork-safety findings of one module (pre-suppression)."""
    findings: List[Diagnostic] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            canonical = source.resolve_call(node)
            if canonical == _SHM_FACTORY:
                findings.append(
                    Diagnostic(
                        rule="forksafe/shm-outside-engine",
                        path=source.display_path,
                        line=node.lineno,
                        problem="SharedMemory segment created",
                        hint=(
                            "hand shard workers data by fork inheritance "
                            "(see repro.engine.sharded) or through a "
                            "stream file; a segment a killed process "
                            "never unlinks leaks past the run"
                        ),
                    )
                )
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_fork_crossing(node):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                _check_method(source, node.name, item, findings)
    return findings
