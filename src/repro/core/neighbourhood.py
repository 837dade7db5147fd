"""Output type of FEwW algorithms: a vertex plus a witness set.

A *neighbourhood* ``(a, S)`` (paper §2) is an A-vertex together with a
subset of its B-side neighbours; its size is ``|S|``.  The objective of
``FEwW(n, d)`` with approximation factor α is to output a neighbourhood
of size at least ``d / α``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, FrozenSet, Iterable

import numpy as np

from repro.streams.stream import EdgeStream


class AlgorithmFailed(RuntimeError):
    """Raised by ``result()`` when an algorithm reports *fail*.

    The paper's algorithms are allowed to fail with small probability
    (at most ``1/n`` for Algorithm 2); callers distinguish that outcome
    from a wrong answer, which would be a bug.
    """


class Neighbourhood:
    """A vertex together with a set of witnesses for its degree.

    Immutable and hashable; equal when vertex and witness set are.
    Witnesses handed over as a NumPy array (Algorithm 3 answers with a
    slice of its sampled-edge column) are kept as one sorted, read-only
    ``int64`` array, 8 bytes each where a frozenset of Python ints takes
    about 70, since windows, probes and repeated runs keep many answers
    alive; any other iterable is kept as a frozenset, the cheaper build
    from Python ints.  :attr:`witnesses` reads either as a frozenset.

    Attributes:
        vertex: the reported A-vertex.
        witnesses: B-side neighbours certifying the vertex's degree.
    """

    __slots__ = ("vertex", "_witnesses")

    def __init__(self, vertex: int, witnesses: Iterable[int] = ()) -> None:
        stored: Any
        if isinstance(witnesses, np.ndarray):
            # Sort and drop repeats: ten times faster than np.unique's
            # hash path on answer-sized int64 arrays.
            stored = np.sort(witnesses.astype(np.int64, copy=False))
            if len(stored) > 1:
                stored = stored[np.concatenate(([True], stored[1:] != stored[:-1]))]
            stored.flags.writeable = False
        else:
            stored = frozenset(witnesses)
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "_witnesses", stored)

    @staticmethod
    def of(vertex: int, witnesses: Iterable[int]) -> "Neighbourhood":
        """Convenience constructor accepting any witness iterable
        (duplicates collapse)."""
        return Neighbourhood(vertex, witnesses)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __getstate__(self):
        return (self.vertex, self._witnesses)

    def __setstate__(self, state) -> None:
        vertex, stored = state
        if isinstance(stored, np.ndarray):
            stored.flags.writeable = False
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "_witnesses", stored)

    @property
    def witnesses(self) -> FrozenSet[int]:
        """The witness set."""
        if isinstance(self._witnesses, frozenset):
            return self._witnesses
        return frozenset(self._witnesses.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Neighbourhood):
            return NotImplemented
        return self.vertex == other.vertex and self.witnesses == other.witnesses

    def __hash__(self) -> int:
        return hash((self.vertex, self.witnesses))

    def __repr__(self) -> str:
        return f"Neighbourhood(vertex={self.vertex!r}, witnesses={self.witnesses!r})"

    @property
    def size(self) -> int:
        """Neighbourhood size ``|S|`` (paper §2)."""
        return len(self._witnesses)

    def meets_threshold(self, d: int, alpha: float) -> bool:
        """True when the neighbourhood has size at least ``d / alpha``."""
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return self.size >= d / alpha

    def __str__(self) -> str:
        preview = sorted(self.witnesses)[:8]
        suffix = ", ..." if self.size > 8 else ""
        return f"Neighbourhood(a={self.vertex}, |S|={self.size}, S={preview}{suffix})"


def verify_neighbourhood(
    neighbourhood: Neighbourhood,
    stream: EdgeStream,
    d: int,
    alpha: float,
) -> None:
    """Check a reported neighbourhood against the stream's final graph.

    Verifies the two soundness conditions every FEwW output must meet:
    all witnesses are genuine final-graph neighbours of the vertex, and
    the witness count reaches ``d / alpha``.

    Raises:
        AssertionError: describing the violated condition.
    """
    actual = stream.neighbours_of(neighbourhood.vertex)
    fake = neighbourhood.witnesses - actual
    if fake:
        raise AssertionError(
            f"vertex {neighbourhood.vertex} reported {len(fake)} non-neighbours: "
            f"{sorted(fake)[:5]}"
        )
    if not neighbourhood.meets_threshold(d, alpha):
        raise AssertionError(
            f"neighbourhood size {neighbourhood.size} below threshold "
            f"d/alpha = {d}/{alpha} = {d / alpha:.2f}"
        )
