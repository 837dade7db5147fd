"""Deterministic fault injection for the execution engine.

Recovery code that is never exercised is recovery code that does not
work.  A :class:`FaultPlan` describes, ahead of time, exactly which
misfortunes befall a run — *kill worker 2 before chunk 3*, *raise
``OSError`` on worker 0's first read*, *stall worker 1 for 50 ms*,
*drop worker 3's result message* — and both runners consult it at the
same well-defined points on every execution.  The default plan is a
no-op, so production runs pay one attribute check per chunk; chaos
tests build seeded plans and get bit-reproducible failures, which is
what lets the retry/checkpoint/fallback paths assert *bit-identical*
recovery rather than "it probably recovered".

Faults are scoped by ``(worker, chunk, attempt)``:

* ``worker`` — the shard worker index (``None`` matches any worker;
  the single worker of a :class:`~repro.engine.runner.FanoutRunner`
  pass is worker 0);
* ``chunk`` — chunk-scoped faults (kill/raise/delay) fire immediately
  *before* that chunk is processed, so a kill at chunk ``j`` leaves
  exactly ``j`` chunks absorbed — the same boundary checkpoints are
  written on;
* ``attempt`` — the retry attempt the fault applies to (0 is the first
  run), so a plan can kill attempt 0 and let the respawned attempt 1
  succeed deterministically.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

FAULT_KINDS = ("kill", "raise", "delay", "drop_result", "corrupt_result")

#: Exception classes a ``raise`` fault may inject, by name (names keep
#: :class:`Fault` picklable and JSON-friendly).
_RAISABLE = ("OSError", "RuntimeError", "ValueError", "TimeoutError",
             "StreamFormatError")


def _resolve_exception(name: str):
    if name == "StreamFormatError":
        from repro.streams.persist import StreamFormatError

        return StreamFormatError
    return {
        "OSError": OSError,
        "RuntimeError": RuntimeError,
        "ValueError": ValueError,
        "TimeoutError": TimeoutError,
    }[name]


@dataclass(frozen=True)
class Fault:
    """One planned misfortune; see the module docstring for scoping.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        worker: shard worker index the fault targets (None = any).
        chunk: chunk index chunk-scoped faults fire before (required
            for kill/raise/delay; ignored for result faults).
        attempt: retry attempt the fault applies to.
        exc: exception class name for ``raise`` faults.
        message: message for ``raise`` faults.
        delay_s: sleep length for ``delay`` faults.
    """

    kind: str
    worker: Optional[int] = None
    chunk: Optional[int] = None
    attempt: int = 0
    exc: str = "OSError"
    message: str = "injected fault"
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.kind in ("kill", "raise", "delay") and self.chunk is None:
            raise ValueError(f"{self.kind!r} faults need a chunk index")
        if self.kind == "raise" and self.exc not in _RAISABLE:
            raise ValueError(
                f"raise fault exception must be one of {_RAISABLE}, "
                f"got {self.exc!r}"
            )
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")

    def _matches(self, worker: int, attempt: int) -> bool:
        return (
            (self.worker is None or self.worker == worker)
            and self.attempt == attempt
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of planned faults.

    Compose plans with ``+``::

        plan = FaultPlan.kill(worker=1, chunk=3) + FaultPlan.delay(
            worker=0, chunk=0, delay_s=0.05)

    The empty plan (``FaultPlan()``) is the no-op default.
    """

    faults: Tuple[Fault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    # -- constructors --------------------------------------------------

    @staticmethod
    def kill(worker: Optional[int], chunk: int, attempt: int = 0) -> "FaultPlan":
        """SIGKILL the worker process right before ``chunk``."""
        return FaultPlan((Fault("kill", worker, chunk, attempt),))

    @staticmethod
    def read_error(
        worker: Optional[int],
        chunk: int,
        attempt: int = 0,
        exc: str = "OSError",
        message: str = "injected read error",
    ) -> "FaultPlan":
        """Raise ``exc`` in the worker right before ``chunk``."""
        return FaultPlan(
            (Fault("raise", worker, chunk, attempt, exc=exc, message=message),)
        )

    @staticmethod
    def delay(
        worker: Optional[int], chunk: int, delay_s: float, attempt: int = 0
    ) -> "FaultPlan":
        """Stall the worker for ``delay_s`` seconds before ``chunk``."""
        return FaultPlan(
            (Fault("delay", worker, chunk, attempt, delay_s=delay_s),)
        )

    @staticmethod
    def drop_result(worker: Optional[int], attempt: int = 0) -> "FaultPlan":
        """Swallow the worker's result message (it exits silently)."""
        return FaultPlan((Fault("drop_result", worker, attempt=attempt),))

    @staticmethod
    def corrupt_result(worker: Optional[int], attempt: int = 0) -> "FaultPlan":
        """Replace the worker's result message with garbage."""
        return FaultPlan((Fault("corrupt_result", worker, attempt=attempt),))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + other.faults)

    # -- consultation points -------------------------------------------

    @property
    def is_noop(self) -> bool:
        return not self.faults

    def fire(
        self,
        worker: int,
        chunk_index: int,
        attempt: int = 0,
        *,
        in_process: bool = False,
    ) -> None:
        """Fire every chunk-scoped fault planned for this point.

        Called by :func:`~repro.engine.runner.drive` immediately before
        processing chunk ``chunk_index``.  ``in_process=True`` marks a
        pass running in the caller's process (fanout, or a shard run
        in-process), where a kill fault must not SIGKILL the whole
        process — it raises instead, flagging the plan as mis-scoped.
        """
        for fault in self.faults:
            if fault.chunk != chunk_index or not fault._matches(worker, attempt):
                continue
            if fault.kind == "delay":
                time.sleep(fault.delay_s)
            elif fault.kind == "raise":
                raise _resolve_exception(fault.exc)(fault.message)
            elif fault.kind == "kill":
                if in_process:
                    raise RuntimeError(
                        f"fault-plan kill for worker {worker} at chunk "
                        f"{chunk_index} fired in-process; kill faults "
                        f"require a worker process"
                    )
                os.kill(os.getpid(), signal.SIGKILL)

    def drops_result(self, worker: int, attempt: int = 0) -> bool:
        return any(
            fault.kind == "drop_result" and fault._matches(worker, attempt)
            for fault in self.faults
        )

    def corrupts_result(self, worker: int, attempt: int = 0) -> bool:
        return any(
            fault.kind == "corrupt_result" and fault._matches(worker, attempt)
            for fault in self.faults
        )
