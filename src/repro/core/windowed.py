"""Extension: windowed FEwW (tumbling policy over Algorithm 2).

Monitoring applications care about *recent* frequency: "which
destination received d packets from distinct sources **this hour**,
and from whom?".  The tumbling-window variant partitions the stream
into fixed-size windows and answers FEwW independently per window by
restarting Algorithm 2 at each boundary, retaining the last completed
window's answer for queries that arrive mid-window.

Windowing itself now lives in the engine
(:mod:`repro.engine.windows`): :class:`TumblingWindowFEwW` is the
:class:`~repro.engine.windows.TumblingPolicy` composed with Algorithm 2
through the generic :class:`~repro.engine.windows.WindowedProcessor`,
and is bit-identical to the pre-refactor bespoke loop (equivalence-
tested in ``tests/integration/test_window_equivalence.py``).  Sliding
windows (smooth histograms) and count-based decay come from the same
subsystem — compose :class:`~repro.engine.windows.SlidingPolicy` or
:class:`~repro.engine.windows.DecayPolicy` with any processor factory,
e.g. :class:`Alg2WindowFactory`.

Space is twice Algorithm 2's (current instance + retained answer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.neighbourhood import AlgorithmFailed, Neighbourhood
from repro.engine.windows import TumblingPolicy, WindowedProcessor
from repro.streams.edge import INSERT


@dataclass(frozen=True)
class WindowResult:
    """Answer for one completed window (``neighbourhood`` is None when
    the window held no vertex of degree >= d)."""

    window_index: int
    start_update: int
    end_update: int
    neighbourhood: Optional[Neighbourhood]

    @property
    def found(self) -> bool:
        return self.neighbourhood is not None


@dataclass(frozen=True)
class Alg2WindowFactory:
    """Picklable per-window Algorithm 2 factory for windowed wrappers.

    ``WindowedProcessor`` calls it with each window's derived seed; a
    plain dataclass (not a lambda) so sharded worker processes can
    pickle the wrapper.
    """

    n: int
    d: int
    alpha: int

    def __call__(self, seed: int) -> InsertionOnlyFEwW:
        return InsertionOnlyFEwW(self.n, self.d, self.alpha, seed=seed)


@dataclass(frozen=True)
class Alg3WindowFactory:
    """Picklable per-window Algorithm 3 factory (turnstile windows)."""

    n: int
    m: int
    d: int
    alpha: int
    scale: float = 1.0

    def __call__(self, seed: int) -> InsertionDeletionFEwW:
        return InsertionDeletionFEwW(
            self.n, self.m, self.d, self.alpha, seed=seed, scale=self.scale
        )


class TumblingWindowFEwW(WindowedProcessor):
    """FEwW answered independently on consecutive fixed-size windows.

    Args:
        n: number of A-vertices.
        d: per-window degree threshold.
        alpha: approximation factor.
        window: window length in stream updates.
        seed: master seed; each window's instance gets a derived seed
            (a function of the *global* window index, which is what lets
            sharded executions reproduce single-core window results
            bit for bit).
    """

    def __init__(self, n: int, d: int, alpha: int, window: int,
                 seed: int | None = None) -> None:
        self.n = n
        self.d = d
        self.alpha = alpha
        super().__init__(
            Alg2WindowFactory(n, d, alpha), TumblingPolicy(window), seed=seed
        )

    @property
    def window(self) -> int:
        return self.policy.window

    def _make_record(self, index, start, end, value) -> WindowResult:
        return WindowResult(
            window_index=index,
            start_update=start,
            end_update=end,
            neighbourhood=value,
        )

    # ------------------------------------------------------------------
    # Stream processing (insertion-only guard kept from the pre-engine
    # wrapper: the whole chunk is rejected before any state mutates).
    # ------------------------------------------------------------------

    def process_batch(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sign: Optional[np.ndarray] = None,
    ) -> None:
        if sign is not None and np.any(sign != INSERT):
            raise ValueError("tumbling-window FEwW is insertion-only")
        super().process_batch(a, b, sign)

    # ------------------------------------------------------------------
    # Mergeable-summary layer.
    # ------------------------------------------------------------------

    def _check_merge_compatible(self, other) -> None:
        if not isinstance(other, TumblingWindowFEwW):
            raise ValueError(
                f"cannot merge TumblingWindowFEwW with {type(other).__name__}"
            )
        if (self.n, self.d, self.alpha, self.window, self._seed) != (
            other.n,
            other.d,
            other.alpha,
            other.window,
            other._seed,
        ):
            raise ValueError(
                "cannot merge tumbling-window wrappers with different "
                "parameters or seeds; split both from the same instance"
            )

    def _spawn(self) -> "TumblingWindowFEwW":
        return TumblingWindowFEwW(
            self.n, self.d, self.alpha, self.window, seed=self._seed
        )

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    def completed_windows(self) -> List[WindowResult]:
        """Results of all closed windows, oldest first."""
        return list(self._state)

    def latest(self) -> WindowResult:
        """The most recently completed window's answer.

        Raises:
            AlgorithmFailed: when no window has completed yet.
        """
        if not self._state:
            raise AlgorithmFailed("no window completed yet")
        return self._state[-1]

    def space_words(self) -> int:
        """Current instance plus the retained last answer."""
        retained = 0
        if self._state and self._state[-1].neighbourhood is not None:
            retained = 1 + 2 * self._state[-1].neighbourhood.size
        return self._current.space_words() + retained
