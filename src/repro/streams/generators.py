"""Workload generators for every scenario used by tests and benchmarks.

All generators take an explicit ``rng`` (:class:`random.Random`) so runs
are reproducible, and return :class:`~repro.streams.stream.EdgeStream`
instances (or raw record logs for the application-level generators).

The planted generators are the primary benchmark workloads: they embed a
known heavy A-vertex so correctness (did the algorithm find a vertex of
degree >= d/alpha?) can be checked against ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.stream import EdgeStream


@dataclass(frozen=True)
class GeneratorConfig:
    """Common knobs shared by the graph generators.

    Attributes:
        n: number of A-vertices.
        m: number of B-vertices.
        seed: RNG seed; generators derive their own :class:`random.Random`.
        shuffle: when True, edge arrival order is randomised; when False,
            edges arrive grouped by A-vertex (an adversarial order for
            reservoir-style algorithms).
    """

    n: int
    m: int
    seed: int = 0
    shuffle: bool = True

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def _finish(edges: List[Edge], config: GeneratorConfig) -> EdgeStream:
    """Deduplicate, optionally shuffle, and wrap edges into a stream."""
    unique = list(dict.fromkeys(edges))
    if config.shuffle:
        config.rng().shuffle(unique)
    items = [StreamItem(edge, INSERT) for edge in unique]
    return EdgeStream(items, config.n, config.m)


def planted_star_graph(
    config: GeneratorConfig,
    star_degree: int,
    star_vertex: int = 0,
    background_degree: int = 0,
) -> EdgeStream:
    """Graph with one known heavy A-vertex and uniform background noise.

    Args:
        config: dimensions and seed; requires ``config.m >= star_degree``.
        star_degree: degree planted on ``star_vertex``.
        star_vertex: which A-vertex receives the star.
        background_degree: every other A-vertex receives this many random
            distinct neighbours (must be < star_degree for the star to be
            the unique maximum).
    """
    if star_degree > config.m:
        raise ValueError(f"star_degree {star_degree} exceeds m={config.m}")
    if not 0 <= star_vertex < config.n:
        raise ValueError(f"star_vertex {star_vertex} out of range [0, {config.n})")
    if background_degree >= star_degree:
        raise ValueError(
            f"background_degree {background_degree} must be below star_degree {star_degree}"
        )
    rng = random.Random(config.seed + 1)
    edges = [Edge(star_vertex, b) for b in range(star_degree)]
    for a in range(config.n):
        if a == star_vertex or background_degree == 0:
            continue
        neighbours = rng.sample(range(config.m), background_degree)
        edges.extend(Edge(a, b) for b in neighbours)
    return _finish(edges, config)


def degree_cascade_graph(
    config: GeneratorConfig,
    d: int,
    alpha: int,
    ratio: float = 2.0,
) -> EdgeStream:
    """Geometric degree cascade stressing Algorithm 2's parallel runs.

    Builds, for each level ``i = alpha .. 0``, a block of A-vertices of
    degree ``max(1, i * d // alpha)``, where level ``i`` has roughly
    ``ratio`` times fewer vertices than level ``i-1`` (level ``alpha``
    always has exactly one vertex — the planted heavy element, A-vertex
    0).  This is the profile from Theorem 3.2's analysis in which the
    counts ``n_0 >= n_1 >= ... >= n_alpha >= 1`` all shrink by a bounded
    ratio, so *every* single-threshold run has only a modest success
    probability while the union of runs succeeds.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if d > config.m:
        raise ValueError(f"d={d} exceeds m={config.m}")
    rng = random.Random(config.seed + 2)
    edges: List[Edge] = []
    next_vertex = 0
    for level in range(alpha, -1, -1):
        depth = alpha - level
        block_size = max(1, round(ratio**depth))
        degree = max(1, level * d // alpha) if level > 0 else 1
        for _ in range(block_size):
            if next_vertex >= config.n:
                break
            neighbours = rng.sample(range(config.m), min(degree, config.m))
            edges.extend(Edge(next_vertex, b) for b in neighbours)
            next_vertex += 1
    return _finish(edges, config)


def random_bipartite_graph(config: GeneratorConfig, n_edges: int) -> EdgeStream:
    """Erdos–Renyi-style bipartite graph with ``n_edges`` distinct edges."""
    max_edges = config.n * config.m
    if n_edges > max_edges:
        raise ValueError(f"n_edges {n_edges} exceeds n*m = {max_edges}")
    rng = random.Random(config.seed + 3)
    flat = rng.sample(range(max_edges), n_edges)
    edges = [Edge.from_flat_index(index, config.m) for index in flat]
    return _finish(edges, config)


def zipf_frequency_stream(
    config: GeneratorConfig,
    n_records: int,
    exponent: float = 1.2,
) -> EdgeStream:
    """Item-frequency stream with Zipfian popularity and timestamp witnesses.

    A-vertex ``a`` is drawn with probability proportional to
    ``(a+1)**-exponent``; the witness of each record is its arrival index
    (a fresh B-vertex), matching the router-log motivation where
    witnesses are timestamps.  Requires ``config.m >= n_records``.
    """
    if n_records > config.m:
        raise ValueError(f"need m >= n_records, got m={config.m}, records={n_records}")
    rng = random.Random(config.seed + 4)
    weights = [(a + 1) ** (-exponent) for a in range(config.n)]
    choices = rng.choices(range(config.n), weights=weights, k=n_records)
    items = [StreamItem(Edge(a, t), INSERT) for t, a in enumerate(choices)]
    return EdgeStream(items, config.n, config.m)


def adversarial_interleaved_stream(
    config: GeneratorConfig,
    star_degree: int,
    n_decoys: int,
    decoy_degree: int,
) -> EdgeStream:
    """Order-adversarial stream: decoys reach the threshold before the star.

    ``n_decoys`` A-vertices each receive ``decoy_degree`` edges *first*,
    then the planted star (A-vertex 0) receives ``star_degree`` edges one
    by one, interleaved with nothing.  Reservoir-based algorithms see the
    heavy vertex cross every degree threshold last, after the reservoir
    is already full of decoys — the hardest arrival order for Algorithm 1.
    """
    total_b = n_decoys * decoy_degree + star_degree
    if total_b > config.m:
        raise ValueError(f"need m >= {total_b}, got m={config.m}")
    if n_decoys + 1 > config.n:
        raise ValueError(f"need n >= {n_decoys + 1}, got n={config.n}")
    edges: List[Edge] = []
    b = 0
    for decoy in range(1, n_decoys + 1):
        for _ in range(decoy_degree):
            edges.append(Edge(decoy, b))
            b += 1
    for _ in range(star_degree):
        edges.append(Edge(0, b))
        b += 1
    items = [StreamItem(edge, INSERT) for edge in edges]
    return EdgeStream(items, config.n, config.m)


def deletion_churn_stream(
    config: GeneratorConfig,
    star_degree: int,
    churn_edges: int,
    star_vertex: int = 0,
) -> EdgeStream:
    """Insertion-deletion stream whose churn cancels, leaving one star.

    First, ``churn_edges`` random background edges are inserted; then the
    star edges are inserted; then every background edge is deleted.  The
    final graph is exactly the planted star, but any algorithm that
    commits to early arrivals (e.g. plain reservoir sampling) retains
    deleted noise — this workload separates the insertion-only and
    insertion-deletion algorithms.
    """
    if star_degree > config.m:
        raise ValueError(f"star_degree {star_degree} exceeds m={config.m}")
    rng = random.Random(config.seed + 5)
    max_edges = config.n * config.m
    star_flat = {Edge(star_vertex, b).flat_index(config.m) for b in range(star_degree)}
    available = [index for index in range(max_edges) if index not in star_flat]
    churn = rng.sample(available, min(churn_edges, len(available)))
    churn_items = [StreamItem(Edge.from_flat_index(i, config.m), INSERT) for i in churn]
    star_items = [StreamItem(Edge(star_vertex, b), INSERT) for b in range(star_degree)]
    delete_items = [StreamItem(item.edge, DELETE) for item in churn_items]
    return EdgeStream(churn_items + star_items + delete_items, config.n, config.m)


# ----------------------------------------------------------------------
# Columnar generators: emit NumPy columns directly, never building a
# StreamItem list.  These are the batch-engine counterparts of the
# generators above — same workload shapes, array-native construction, so
# million-update streams materialise in milliseconds.
# ----------------------------------------------------------------------


def zipf_frequency_columnar(
    config: GeneratorConfig,
    n_records: int,
    exponent: float = 1.2,
) -> ColumnarEdgeStream:
    """Columnar counterpart of :func:`zipf_frequency_stream`.

    Same workload shape — Zipfian A-vertex popularity, arrival-index
    witnesses — built directly as columns with NumPy sampling (its own
    seeded generator, so trajectories are reproducible but not update-
    for-update identical to the list-based generator).
    """
    if n_records > config.m:
        raise ValueError(f"need m >= n_records, got m={config.m}, records={n_records}")
    rng = np.random.default_rng(config.seed + 4)
    weights = (np.arange(1, config.n + 1, dtype=np.float64)) ** (-exponent)
    a = rng.choice(config.n, size=n_records, p=weights / weights.sum())
    b = np.arange(n_records, dtype=np.int64)
    return ColumnarEdgeStream(a, b, n=config.n, m=config.m, validate=False)


def random_bipartite_columnar(
    config: GeneratorConfig, n_edges: int
) -> ColumnarEdgeStream:
    """Columnar counterpart of :func:`random_bipartite_graph`.

    Draws ``n_edges`` distinct flat edge indices without replacement
    (materialises an ``n*m`` permutation, so intended for benchmark-scale
    dimensions, not astronomically sparse ones).
    """
    max_edges = config.n * config.m
    if n_edges > max_edges:
        raise ValueError(f"n_edges {n_edges} exceeds n*m = {max_edges}")
    rng = np.random.default_rng(config.seed + 3)
    flat = rng.choice(max_edges, size=n_edges, replace=False)
    a, b = flat // config.m, flat % config.m
    if config.shuffle:
        order = rng.permutation(n_edges)
        a, b = a[order], b[order]
    return ColumnarEdgeStream(a, b, n=config.n, m=config.m, validate=False)


def churn_columnar(
    config: GeneratorConfig,
    star_degree: int,
    churn_edges: int,
    star_vertex: int = 0,
) -> ColumnarEdgeStream:
    """Columnar counterpart of :func:`deletion_churn_stream`.

    Random background edges are inserted, the star arrives, then every
    background edge is deleted — all built as concatenated columns.
    """
    if star_degree > config.m:
        raise ValueError(f"star_degree {star_degree} exceeds m={config.m}")
    if not 0 <= star_vertex < config.n:
        raise ValueError(f"star_vertex {star_vertex} out of range [0, {config.n})")
    rng = np.random.default_rng(config.seed + 5)
    max_edges = config.n * config.m
    star_flat = star_vertex * config.m + np.arange(star_degree, dtype=np.int64)
    candidates = rng.choice(
        max_edges, size=min(max_edges, churn_edges + star_degree), replace=False
    )
    churn = candidates[~np.isin(candidates, star_flat)][:churn_edges]
    a = np.concatenate([churn // config.m, star_flat // config.m, churn // config.m])
    b = np.concatenate([churn % config.m, star_flat % config.m, churn % config.m])
    sign = np.concatenate(
        [
            np.full(len(churn), INSERT, dtype=np.int64),
            np.full(star_degree, INSERT, dtype=np.int64),
            np.full(len(churn), DELETE, dtype=np.int64),
        ]
    )
    return ColumnarEdgeStream(a, b, sign, n=config.n, m=config.m, validate=False)


def planted_star_undirected(
    n_vertices: int,
    n_edges: int,
    star_degree: int,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected simple graph with a planted star, as endpoint columns.

    Vertex 0 is connected to ``star_degree`` distinct neighbours; the
    remaining ``n_edges - star_degree`` edges are uniform random distinct
    pairs.  Arrival order is a uniform shuffle of all edges.  Returns
    ``(u, v)`` columns ready for
    :func:`~repro.streams.adapters.bipartite_double_cover_columnar` —
    each unordered pair appears exactly once, so the doubled stream
    satisfies the simple-graph discipline.  This is the end-to-end Star
    Detection benchmark workload.
    """
    if not 1 <= star_degree <= n_vertices - 1:
        raise ValueError(
            f"star_degree must be in [1, {n_vertices - 1}], got {star_degree}"
        )
    background = n_edges - star_degree
    if background < 0:
        raise ValueError(
            f"n_edges {n_edges} smaller than star_degree {star_degree}"
        )
    capacity = n_vertices * (n_vertices - 1) // 2
    if n_edges > capacity:
        raise ValueError(f"n_edges {n_edges} exceeds {capacity} possible pairs")
    rng = np.random.default_rng(seed)
    star_hi = 1 + rng.choice(n_vertices - 1, size=star_degree, replace=False)
    # Unordered pairs are canonicalised as lo * n + hi (lo < hi); star
    # edges have lo == 0, so their codes are exactly star_hi.
    taken = np.sort(star_hi.astype(np.int64))
    collected: List[np.ndarray] = []
    remaining = background
    while remaining > 0:
        draw = 2 * remaining + 1024
        u = rng.integers(n_vertices, size=draw)
        v = rng.integers(n_vertices, size=draw)
        distinct = u != v
        lo = np.minimum(u[distinct], v[distinct]).astype(np.int64)
        hi = np.maximum(u[distinct], v[distinct]).astype(np.int64)
        codes = np.unique(lo * n_vertices + hi)
        codes = codes[~np.isin(codes, taken)]
        # np.unique sorted the codes; keeping a sorted prefix would bias
        # the sample toward low-id vertices, so shuffle before trimming.
        codes = codes[rng.permutation(len(codes))][:remaining]
        collected.append(codes)
        taken = np.unique(np.concatenate([taken, codes]))
        remaining = background - sum(len(chunk) for chunk in collected)
    background_codes = (
        np.concatenate(collected) if collected else np.zeros(0, dtype=np.int64)
    )
    codes = np.concatenate(
        [star_hi.astype(np.int64), background_codes]  # star: lo = 0
    )
    order = rng.permutation(len(codes))
    codes = codes[order]
    return codes // n_vertices, codes % n_vertices


# ----------------------------------------------------------------------
# Application-level record logs (paper §1 motivating examples).
# ----------------------------------------------------------------------


def dos_attack_log(
    n_hosts: int,
    n_records: int,
    victim: str = "10.0.0.1",
    attack_fraction: float = 0.3,
    seed: int = 0,
) -> List[Tuple[str, str]]:
    """Synthetic router log: (destination IP, source IP) records.

    A fraction ``attack_fraction`` of records target ``victim`` from
    distinct spoofed sources (the DoS pattern from the paper's intro);
    the rest is uniform background traffic.  Feed the result to
    :func:`~repro.streams.adapters.log_records_to_stream`.
    """
    rng = random.Random(seed)
    hosts = [f"10.0.{i // 256}.{i % 256}" for i in range(2, n_hosts + 2)]
    records: List[Tuple[str, str]] = []
    for index in range(n_records):
        if rng.random() < attack_fraction:
            source = f"198.51.{index // 256 % 256}.{index % 256}"
            records.append((victim, source))
        else:
            records.append((rng.choice(hosts), rng.choice(hosts)))
    return records


def database_log_stream(
    n_rows: int,
    n_users: int,
    n_updates: int,
    hot_row: str = "orders:42",
    hot_fraction: float = 0.25,
    seed: int = 0,
) -> List[Tuple[str, str]]:
    """Synthetic database update log: (row key, user) records.

    One hot row receives ``hot_fraction`` of all updates from many
    distinct users; FEwW recovers the hot row *and* the users who wrote
    to it (the paper's first motivating example).
    """
    rng = random.Random(seed)
    rows = [f"orders:{i}" for i in range(n_rows)]
    users = [f"user{i}" for i in range(n_users)]
    records: List[Tuple[str, str]] = []
    for _ in range(n_updates):
        if rng.random() < hot_fraction:
            records.append((hot_row, rng.choice(users)))
        else:
            records.append((rng.choice(rows), rng.choice(users)))
    return records


def social_network_stream(
    n_users: int,
    influencer: int = 0,
    n_followers: int = 100,
    n_background: int = 500,
    seed: int = 0,
) -> Tuple[List[Tuple[int, int]], int]:
    """Friendship-update stream with a planted influencer.

    Returns undirected edges (for
    :func:`~repro.streams.adapters.bipartite_double_cover`) and the
    number of vertices.  The influencer gains ``n_followers`` distinct
    followers; background friendships are uniform pairs.
    """
    if n_followers >= n_users:
        raise ValueError(f"need n_users > n_followers, got {n_users} <= {n_followers}")
    rng = random.Random(seed)
    follower_pool = [u for u in range(n_users) if u != influencer]
    followers = rng.sample(follower_pool, n_followers)
    edges = [(influencer, follower) for follower in followers]
    seen = {tuple(sorted(edge)) for edge in edges}
    attempts = 0
    while len(edges) < n_followers + n_background and attempts < 50 * n_background:
        attempts += 1
        u, v = rng.sample(range(n_users), 2)
        key = (min(u, v), max(u, v))
        if key in seen or influencer in key:
            continue
        seen.add(key)
        edges.append((u, v))
    rng.shuffle(edges)
    return edges, n_users
