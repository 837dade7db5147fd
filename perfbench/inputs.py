"""Seeded workload inputs, generated once per seed and cached on disk.

The generators here use NumPy alone, never the library's own stream
generators: the program under test receives only the columns (or the
v2 file) built here, so a change to ``repro.streams.generators`` cannot
silently change what the benchmark measures.  Inputs are written under
``perfbench/_cache/<workload>/<seed>/`` before any clock starts and are
reused by every later run with the same seed; only the most recent
seeds of each workload are kept.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

import workloads as wl

CACHE = Path(__file__).resolve().parent / "_cache"

#: Cached seeds kept per workload (older ones are deleted).
KEEP_SEEDS = 2

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def zipf_columns(seed: int, n: int, updates: int, exponent: float) -> Columns:
    """Zipf item popularity with arrival-index witnesses: update ``i``
    is edge ``(item_i, i)``, so every update is a distinct edge."""
    rng = _rng(seed, 1)
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
    # Popularity rank is a random permutation of the ids, so the heavy
    # item is not always vertex 0.
    ranks = rng.permutation(n)
    a = ranks[rng.choice(n, size=updates, p=weights / weights.sum())]
    b = np.arange(updates, dtype=np.int64)
    return a.astype(np.int64), b, np.ones(updates, dtype=np.int64)


def churn_columns(
    seed: int, n: int, m: int, background: int, star_degree: int
) -> Columns:
    """Background inserts, a persistent star, then every background
    edge deleted in a fresh random order: the final graph is the star."""
    rng = _rng(seed, 2)
    star_vertex = int(rng.integers(n))
    star_flat = star_vertex * m + rng.choice(m, size=star_degree, replace=False)
    drawn = rng.choice(n * m, size=background + star_degree, replace=False)
    churn = drawn[~np.isin(drawn, star_flat)][:background]
    deletes = rng.permutation(churn)
    flat = np.concatenate([churn, star_flat, deletes]).astype(np.int64)
    sign = np.concatenate(
        [
            np.ones(len(churn) + star_degree, dtype=np.int64),
            -np.ones(len(deletes), dtype=np.int64),
        ]
    )
    return flat // m, flat % m, sign


def star_cover_columns(
    seed: int, n_vertices: int, n_edges: int, star_degree: int
) -> Columns:
    """Bipartite double cover of an undirected simple graph with one
    planted star over uniform random background pairs: undirected edge
    ``i`` becomes updates ``u->v`` at ``2i`` and ``v->u`` at ``2i+1``."""
    rng = _rng(seed, 3)
    centre = int(rng.integers(n_vertices))
    leaves = rng.choice(n_vertices - 1, size=star_degree, replace=False)
    leaves = leaves + (leaves >= centre)
    star = np.minimum(leaves, centre) * n_vertices + np.maximum(leaves, centre)
    needed = n_edges - star_degree
    collected = np.zeros(0, dtype=np.int64)
    while len(collected) < needed:
        draw = 2 * (needed - len(collected)) + 1024
        u = rng.integers(n_vertices, size=draw)
        v = rng.integers(n_vertices, size=draw)
        keep = u != v
        codes = np.minimum(u[keep], v[keep]) * n_vertices + np.maximum(
            u[keep], v[keep]
        )
        codes = np.unique(codes)
        codes = codes[~np.isin(codes, star) & ~np.isin(codes, collected)]
        collected = np.concatenate([collected, rng.permutation(codes)])
    codes = np.concatenate([star, collected[:needed]]).astype(np.int64)
    codes = codes[rng.permutation(len(codes))]
    u, v = codes // n_vertices, codes % n_vertices
    a = np.empty(2 * len(codes), dtype=np.int64)
    b = np.empty(2 * len(codes), dtype=np.int64)
    a[0::2], a[1::2] = u, v
    b[0::2], b[1::2] = v, u
    return a, b, np.ones(len(a), dtype=np.int64)


def _generate(name: str, seed: int) -> Columns:
    p = wl.WORKLOADS[name].params
    if name in ("insert-zipf-fanout", "sliding-zipf-probes"):
        return zipf_columns(seed, p["n"], p["updates"], p["exponent"])
    if name == "turnstile-churn-exact":
        return churn_columns(
            seed, p["n"], p["m"], p["background"], p["star_degree"]
        )
    return star_cover_columns(
        seed, p["n_vertices"], p["n_edges"], p["star_degree"]
    )


def _prune(workload_dir: Path, keep: Path) -> None:
    seeds = sorted(
        (entry for entry in workload_dir.iterdir() if entry.is_dir()),
        key=lambda entry: entry.stat().st_mtime,
        reverse=True,
    )
    for entry in seeds[KEEP_SEEDS:]:
        if entry != keep:
            shutil.rmtree(entry, ignore_errors=True)


def cache_dir(name: str, seed: int) -> Path:
    return CACHE / name / str(seed)


def prepare(name: str, seed: int) -> Path:
    """The cache directory holding ``name``'s inputs for ``seed``,
    generating them first when absent.

    Every workload gets ``columns.npz`` (the benchmark's own copy of
    the stream, which the ground-truth oracle reads).  The file
    workload also gets its v2 stream files, written through the
    library's persistence layer: ``stream.npz`` and a tiny prefix
    ``tiny.npz`` for the fixed-cost probe.
    """
    target = cache_dir(name, seed)
    done = target / "done.json"
    if not done.exists():
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        a, b, sign = _generate(name, seed)
        np.savez(target / "columns.npz", a=a, b=b, sign=sign)
        spec = wl.WORKLOADS[name]
        if spec.backend == "sharded":
            from repro.streams.columnar import ColumnarEdgeStream
            from repro.streams.persist import dump_columnar

            n = spec.params["n_vertices"]
            dump_columnar(
                ColumnarEdgeStream(a, b, n=n, m=n, validate=False),
                target / "stream.npz",
            )
            tiny = spec.params["tiny_updates"]
            dump_columnar(
                ColumnarEdgeStream(a[:tiny], b[:tiny], n=n, m=n, validate=False),
                target / "tiny.npz",
            )
        done.write_text(json.dumps({"updates": int(len(a))}))
    target.touch()
    _prune(target.parent, target)
    return target


def load_columns(directory: Path) -> Dict[str, np.ndarray]:
    with np.load(directory / "columns.npz") as data:
        return {key: data[key] for key in ("a", "b", "sign")}


if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
