"""``process(source)`` over the whole ``PROCESSORS`` registry.

For every entry, every source form :func:`~repro.engine.runner.as_chunks`
accepts (a boxed :class:`EdgeStream`, a :class:`ColumnarEdgeStream`, a
v2 stream file, and a chunk list with empty and length-1 chunks) must
give the answer a :class:`FanoutRunner` pass over the same source gives:
the pickled ``finalize()`` result, which for query-style summaries is
their state, settled by merging an empty twin (a merge consolidates
buffered updates).  The forms chunk differently, so their answers must
also agree with each other, except for the weight-collapsed counters
(Misra-Gries, SpaceSaving).  Streams: insertion-only Zipf, one A-vertex
(``n = 1``), and full cancellation where the model accepts deletions.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.audit import AUDIT_DEFAULTS
from repro.engine import FanoutRunner
from repro.pipeline.registry import PROCESSORS
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.edge import DELETE, INSERT
from repro.streams.persist import dump_stream

WEIGHT_COLLAPSED = {"misra-gries", "space-saving"}

#: Every endpoint stays below this, inside every entry's (n, m) domain.
SIDE = 32


def _zipf():
    rng = np.random.default_rng(5)
    flat = ((rng.zipf(1.4, size=600) - 1) % SIDE) * SIDE + rng.integers(0, SIDE, 600)
    _, first = np.unique(flat, return_index=True)  # a simple graph
    flat = flat[np.sort(first)]
    return flat // SIDE, flat % SIDE, np.full(len(flat), INSERT)


def _one_vertex():
    return np.zeros(SIDE, dtype=np.int64), np.arange(SIDE), np.full(SIDE, INSERT)


def _cancelling():
    rng = np.random.default_rng(9)
    edges = np.unique(rng.integers(0, SIDE * SIDE, size=120))
    flat = np.concatenate([rng.permutation(edges), rng.permutation(edges)])
    return flat // SIDE, flat % SIDE, np.repeat([INSERT, DELETE], len(edges))


STREAMS = {"zipf": _zipf, "one-vertex": _one_vertex, "cancelling": _cancelling}


def _params(name, stream):
    params = {
        param.name: AUDIT_DEFAULTS[param.name]
        for param in PROCESSORS.get(name).params
        if param.required
    }
    if stream == "one-vertex" and "n" in params:
        params["n"] = 1
    return params


def _accepts_deletions(name):
    processor = PROCESSORS.build(name, _params(name, "zipf"))
    zeros = np.zeros(2, dtype=np.int64)
    try:
        processor.process_batch(zeros, zeros, np.array([INSERT, DELETE]))
    except ValueError:
        return False
    return True


CASES = [
    (name, stream)
    for name in PROCESSORS.names()
    for stream in sorted(STREAMS)
    if stream != "cancelling" or _accepts_deletions(name)
]


@pytest.mark.parametrize("name, stream", CASES)
def test_process_matches_a_fanout_pass(name, stream, tmp_path):
    params = _params(name, stream)
    a, b, sign = STREAMS[stream]()
    columnar = ColumnarEdgeStream(a, b, sign, n=params.get("n", SIDE), m=SIDE)
    dump_stream(columnar, tmp_path / "stream.npz", format="v2")
    cuts = [0, 0, 1, 7, 7, 8, len(a)]
    sources = {
        "edge-stream": columnar.to_edge_stream,
        "columnar": lambda: columnar,
        "v2-file": lambda: str(tmp_path / "stream.npz"),
        "chunk-list": lambda: [
            (a[lo:hi], b[lo:hi], sign[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
        ],
    }

    def digest(processor):
        empty = PROCESSORS.build(name, params)
        return pickle.dumps(processor.merge(empty).finalize())

    answers = {}
    for form, source in sources.items():
        reference = PROCESSORS.build(name, params)
        FanoutRunner({name: reference}).run(source())
        answers[form] = digest(PROCESSORS.build(name, params).process(source()))
        assert answers[form] == digest(reference), form
    if name not in WEIGHT_COLLAPSED:
        assert len(set(answers.values())) == 1, sorted(answers)
