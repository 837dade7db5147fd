"""Stream model: edges, signed updates, stream containers, and adapters.

The paper phrases FEwW on bipartite graphs ``G = (A, B, E)`` whose edges
arrive as a stream.  This package provides:

* :class:`Edge` — an (A-vertex, B-vertex) pair;
* :class:`StreamItem` — a signed edge update (+1 insert / -1 delete) for
  insertion-deletion streams;
* :class:`EdgeStream` — an in-memory stream with validity checking
  (simple graph, no deleting absent edges) and summary statistics;
* adapters (:mod:`repro.streams.adapters`) that turn application-level
  item streams (router logs, database logs, friendship updates) into
  bipartite edge streams, and general graphs into the doubled bipartite
  form used by Star Detection (Lemma 3.3);
* workload generators (:mod:`repro.streams.generators`) for every
  scenario used by the tests and benchmarks.
"""

from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.stream import EdgeStream, StreamStats, stream_from_edges
from repro.streams.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarEdgeStream,
)
from repro.streams.adapters import (
    LabelCodec,
    bipartite_double_cover,
    bipartite_double_cover_columnar,
    log_records_to_stream,
)
from repro.streams.persist import (
    ChunkedStreamReader,
    StreamFormatError,
    detect_version,
    dump_columnar,
    dump_stream,
    dumps_stream,
    load_columnar,
    load_stream,
    loads_stream,
)
from repro.streams.transforms import (
    interleaved,
    reversed_stream,
    shuffled,
    subsampled,
    with_duplicates,
)
from repro.streams.generators import (
    GeneratorConfig,
    adversarial_interleaved_stream,
    churn_columnar,
    database_log_stream,
    degree_cascade_graph,
    deletion_churn_stream,
    dos_attack_log,
    planted_star_graph,
    planted_star_undirected,
    random_bipartite_columnar,
    random_bipartite_graph,
    social_network_stream,
    zipf_frequency_columnar,
    zipf_frequency_stream,
)

__all__ = [
    "ChunkedStreamReader",
    "ColumnarEdgeStream",
    "DEFAULT_CHUNK_SIZE",
    "DELETE",
    "Edge",
    "EdgeStream",
    "GeneratorConfig",
    "INSERT",
    "LabelCodec",
    "StreamFormatError",
    "StreamItem",
    "StreamStats",
    "adversarial_interleaved_stream",
    "bipartite_double_cover",
    "bipartite_double_cover_columnar",
    "churn_columnar",
    "database_log_stream",
    "degree_cascade_graph",
    "deletion_churn_stream",
    "detect_version",
    "dos_attack_log",
    "dump_columnar",
    "dump_stream",
    "dumps_stream",
    "interleaved",
    "load_columnar",
    "load_stream",
    "loads_stream",
    "log_records_to_stream",
    "planted_star_graph",
    "planted_star_undirected",
    "random_bipartite_columnar",
    "random_bipartite_graph",
    "reversed_stream",
    "shuffled",
    "social_network_stream",
    "stream_from_edges",
    "subsampled",
    "with_duplicates",
    "zipf_frequency_columnar",
    "zipf_frequency_stream",
]
