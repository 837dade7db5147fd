"""Peak-space tracking over a stream's lifetime.

``space_words()`` reports *current* retained state, but streaming space
complexity is about the *maximum* over the run.  :class:`SpaceTracker`
wraps any algorithm exposing ``process_batch`` and ``space_words`` and
samples the space at a configurable update interval, recording the peak
and a (time, words) trace for plotting-style analysis in benchmarks.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.engine.runner import as_chunks


class SpaceTracker:
    """Wrap an algorithm and record its space profile during a stream.

    Args:
        algorithm: any object with ``process_batch(a, b, sign)`` and
            ``space_words()``.
        sample_every: measure space every this many updates (1 = every
            update; raise it for long streams).
    """

    def __init__(self, algorithm, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.algorithm = algorithm
        self.sample_every = sample_every
        self._updates = 0
        self.peak_words = algorithm.space_words()
        self.trace: List[Tuple[int, int]] = [(0, self.peak_words)]

    def process(self, source: Any) -> "SpaceTracker":
        """Forward a whole stream, sampling space after every chunk.

        A stream is read in chunks of ``sample_every`` updates, so a
        sample lands on every multiple of ``sample_every`` and after the
        last update.  A chunk iterable is sampled at its own chunk ends.
        """
        for a, b, sign in as_chunks(source, self.sample_every):
            self.algorithm.process_batch(a, b, sign)
            self._updates += len(a)
            words = self.algorithm.space_words()
            self.trace.append((self._updates, words))
            self.peak_words = max(self.peak_words, words)
        return self

    @property
    def updates_seen(self) -> int:
        return self._updates

    def final_words(self) -> int:
        """Space retained after the last update."""
        return self.algorithm.space_words()
