"""Ground truth for every answer the benchmark checks.

The oracle reads the generated columns, never the program's state.  It
computes the exact final graph net of deletions (live edge keys, exact
degrees, exact item frequencies) and, for windowed probes, the exact
degrees of each covered span.  An answer counts as *attempted* only
where its guarantee applies (true max degree at least the threshold);
every failed check is recorded with a one-line reason.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np


class Window(NamedTuple):
    """The parts of a sliding-window answer the checks read."""

    start_update: int
    end_update: int
    value: Any


class Tally:
    """Attempted/failed answer counts plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(reason)


class Truth:
    """Exact final graph of a stream of ``(a, b, sign)`` updates."""

    def __init__(self, a: np.ndarray, b: np.ndarray, sign: np.ndarray, m: int):
        self.a, self.b, self.m = a, b, m
        keys = a * np.int64(m) + b
        unique, inverse = np.unique(keys, return_inverse=True)
        net = np.bincount(inverse, weights=sign).astype(np.int64)
        self.live = unique[net > 0]  # sorted
        self.degree = np.bincount(self.live // m)
        self.max_degree = int(self.degree.max()) if len(self.degree) else 0
        freq = np.bincount(a, weights=sign).astype(np.int64)
        self.freq = freq
        self.top = int(np.argmax(freq))
        self.total = int(sign.sum())

    def live_edges(self, vertex: int, witnesses: Iterable[int]) -> bool:
        w = np.fromiter(witnesses, dtype=np.int64)
        if len(w) == 0:
            return True
        if w.min() < 0 or w.max() >= self.m:
            return False
        keys = np.int64(vertex) * np.int64(self.m) + w
        found = np.searchsorted(self.live, keys)
        found = np.minimum(found, len(self.live) - 1)
        return bool((self.live[found] == keys).all())


def check_neighbourhood(
    tally: Tally, truth: Truth, answer: Any, d: int, alpha: float, label: str
) -> None:
    """A FEwW answer: non-empty where Δ >= d, at least ⌈d/α⌉ witnesses,
    every witness a live edge of the reported vertex."""
    if truth.max_degree < d:
        return
    need = math.ceil(d / alpha)
    if answer is None:
        tally.check(False, f"{label}: no answer although max degree "
                           f"{truth.max_degree} >= d={d}")
        return
    ok_size = len(answer.witnesses) >= need
    ok_live = truth.live_edges(answer.vertex, answer.witnesses)
    tally.check(
        ok_size and ok_live,
        f"{label}: vertex {answer.vertex} with {len(answer.witnesses)} "
        f"witnesses (need {need}), all live: {ok_live}",
    )


def check_counters(tally: Tally, truth: Truth, label: str, summary: Any,
                   kind: str, bound: float) -> None:
    """Heavy-hitter and frequency summaries, judged on the true top item.

    ``kind``: "mg" (lower estimate within ``bound``), "ss" (upper
    estimate within ``bound``), "cm" (overestimate within ``bound``),
    "cs" (two-sided error within ``bound``).
    """
    f = int(truth.freq[truth.top])
    est = int(summary.estimate(truth.top))
    if kind == "mg":
        ok = est > 0 and f - bound <= est <= f
    elif kind in ("ss", "cm"):
        ok = f <= est <= f + bound
    else:
        ok = abs(est - f) <= bound
    tally.check(ok, f"{label}: top item {truth.top} true {f}, estimate "
                    f"{est}, bound {bound:.1f}")


def count_sketch_bound(truth: Truth, width: int) -> float:
    """Six standard deviations of one row's error on the top item."""
    f = truth.freq.astype(np.float64)
    residual = float((f * f).sum() - f[truth.top] ** 2)
    return 6.0 * math.sqrt(max(residual, 0.0) / width)


def check_samples(tally: Tally, truth: Truth, samples: Sequence[Optional[tuple]],
                  label: str) -> float:
    """Every exact ℓ₀ sample must be a live edge, and at least one must
    come back.  Returns live samples / samplers."""
    live = 0
    for sample in samples:
        if sample is None:
            continue
        ok = truth.live_edges(sample[0], [sample[1]])
        tally.check(ok, f"{label}: sample {sample} is not a live edge")
        live += ok
    tally.check(live > 0, f"{label}: no sampler returned a live edge")
    return live / max(len(samples), 1)


def star_guess(max_degree: int, n_vertices: int, eps: float) -> int:
    """Largest rung of the ``(1+ε)^i`` guess ladder at or below Δ."""
    best, value = 1, 1.0
    while value <= n_vertices * (1 + eps):
        guess = max(1, math.floor(value))
        if guess <= max_degree:
            best = max(best, guess)
        value *= 1 + eps
    return best


def check_window(tally: Tally, a: np.ndarray, answer: Any, position: int,
                 window: int, bucket: int, d: int, alpha: float,
                 ss_bound_k: Optional[int], label: str) -> None:
    """A sliding-window answer over arrival-index witnesses (update
    ``i`` is edge ``(a[i], i)``): the covered span must end at the
    current position and hold between ``window`` and ``window + bucket``
    updates once that many exist; the value is judged on the span."""
    start, end = answer.start_update, answer.end_update
    expected = min(position, window)
    ok_span = end == position and expected <= end - start <= window + bucket
    if not ok_span:
        tally.check(False, f"{label}: span [{start}, {end}) at position "
                           f"{position}")
        return
    counts = np.bincount(a[start:end])
    top = int(np.argmax(counts))
    if ss_bound_k is not None:
        est = int(answer.value.estimate(top))
        f = int(counts[top])
        tally.check(f <= est <= f + (end - start) / ss_bound_k,
                    f"{label}: span top {top} true {f} estimate {est}")
        return
    if int(counts.max()) < d:
        return
    value = answer.value
    need = math.ceil(d / alpha)
    if value is None:
        tally.check(False, f"{label}: no answer on span [{start}, {end})")
        return
    w = np.fromiter(value.witnesses, dtype=np.int64)
    live = bool(len(w) == 0 or (
        (w >= start).all() and (w < end).all() and (a[w] == value.vertex).all()
    ))
    tally.check(len(w) >= need and live,
                f"{label}: vertex {value.vertex} with {len(w)} witnesses "
                f"(need {need}) on span [{start}, {end}), all live: {live}")
