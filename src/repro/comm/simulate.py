"""Generic driver: run a streaming algorithm as a one-way protocol.

Every lower-bound reduction in the paper has the same skeleton: split
the input among ``p`` parties, let party 1 run the streaming algorithm
on its share, hand the memory state to party 2, and so on (§2's one-way
model).  This module provides that skeleton generically, so tests and
benchmarks can measure any algorithm's "communication footprint" —
the size of its memory state at each handoff — on any workload.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.comm.protocol import MessageLog
from repro.streams.columnar import ColumnarEdgeStream, Columns
from repro.streams.edge import INSERT, Edge
from repro.streams.stream import EdgeStream

SPLIT_MODES = ("contiguous", "round-robin")


def split_among_parties(
    stream: EdgeStream, p: int, mode: str = "contiguous"
) -> List[EdgeStream]:
    """Partition a stream's updates among ``p`` parties, order preserved.

    Args:
        stream: the full update sequence.
        p: number of parties (>= 1).
        mode: ``"contiguous"`` gives party i the i-th block of updates;
            ``"round-robin"`` deals updates out cyclically (update j
            goes to party j mod p).

    The concatenation of the returned streams in party order replays
    the original update sequence exactly in ``contiguous`` mode; in
    ``round-robin`` mode the global order is permuted, which is only
    valid for order-insensitive inputs (e.g. insertion-only streams
    define the same final graph either way, but the *validity* of a
    turnstile stream can break — callers get validation errors in that
    case rather than silent corruption).
    """
    if p < 1:
        raise ValueError(f"need at least one party, got {p}")
    if mode not in SPLIT_MODES:
        raise ValueError(f"mode must be one of {SPLIT_MODES}, got {mode!r}")
    items = list(stream)
    if mode == "contiguous":
        block = (len(items) + p - 1) // p if items else 0
        shares = [items[i * block : (i + 1) * block] for i in range(p)]
    else:
        shares = [items[i::p] for i in range(p)]
    return [
        EdgeStream(share, stream.n, stream.m, validate=False)
        for share in shares
    ]


def share_columns(edges: Sequence[Edge], sign: int = INSERT) -> Columns:
    """One party's edges, all with ``sign``, as a single column chunk."""
    count = len(edges)
    a = np.fromiter((edge.a for edge in edges), dtype=np.int64, count=count)
    b = np.fromiter((edge.b for edge in edges), dtype=np.int64, count=count)
    return a, b, np.full(count, sign, dtype=np.int64)


def run_streaming_protocol(
    algorithm, party_streams: Sequence[EdgeStream]
) -> Tuple[object, MessageLog]:
    """Drive ``algorithm`` across parties, logging each handoff's size.

    Args:
        algorithm: any object with ``process_batch`` and ``space_words``.
        party_streams: each party's share, in speaking order; a share
            is handed to ``process_batch`` as one chunk.

    Returns:
        the algorithm (having seen the whole input) and the message log
        with one entry per handoff (``p - 1`` total).
    """
    log = MessageLog()
    last = len(party_streams) - 1
    for party, share in enumerate(party_streams):
        columns = ColumnarEdgeStream.from_edge_stream(share)
        algorithm.process_batch(columns.a, columns.b, columns.sign)
        if party < last:
            log.record(party, party + 1, algorithm.space_words())
    return algorithm, log
