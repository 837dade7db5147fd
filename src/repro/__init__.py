"""repro — Frequent Elements with Witnesses in Data Streams.

A full reproduction of Christian Konrad's PODS 2021 paper: the
insertion-only and insertion-deletion streaming algorithms for the
FEwW problem, the Star Detection extension, the sketching substrate
(l0-samplers, sparse recovery, k-wise hashing), classical
frequent-elements baselines, and executable versions of every
lower-bound reduction.

Quickstart::

    from repro import InsertionOnlyFEwW, planted_star_graph, GeneratorConfig

    stream = planted_star_graph(GeneratorConfig(n=1000, m=2000, seed=7),
                                star_degree=200)
    algorithm = InsertionOnlyFEwW(n=1000, d=200, alpha=2, seed=1)
    result = algorithm.process(stream).result()
    print(result.vertex, result.size)   # the heavy vertex + >=100 witnesses

Or declaratively — every run is a serializable spec (source x window x
backend x processors) executed through :class:`repro.Pipeline`::

    from repro import Pipeline

    result = (Pipeline.builder()
              .generator("star", n=1000, m=2000, d=200, seed=7)
              .processor("insertion-only", n=1000, d=200, alpha=2, seed=1)
              .build()
              .run())
    print(result["insertion-only"])     # same answer, plus a RunReport

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced claim.
"""

from repro.core import (
    AlgorithmFailed,
    DegResSampling,
    InsertionDeletionFEwW,
    InsertionOnlyFEwW,
    Neighbourhood,
    SamplingStrategy,
    SharedDegreeRuns,
    StarDetection,
    StarDetectionResult,
    TopKFEwW,
    verify_neighbourhood,
)
from repro.engine import (
    DecayPolicy,
    FanoutRunner,
    MergeableStreamProcessor,
    ShardedRunner,
    SlidingPolicy,
    StreamProcessor,
    TumblingPolicy,
    WindowPolicy,
    WindowedProcessor,
    as_chunks,
    run_fanout,
)
from repro.pipeline import (
    ExecSpec,
    Pipeline,
    PipelineBuilder,
    PipelineResult,
    PipelineSpec,
    ProcessorSpec,
    SourceSpec,
    WindowSpec,
    register_generator,
    register_processor,
    run_spec,
)
from repro.streams import (
    DELETE,
    INSERT,
    ChunkedStreamReader,
    Edge,
    EdgeStream,
    GeneratorConfig,
    LabelCodec,
    StreamItem,
    bipartite_double_cover,
    bipartite_double_cover_columnar,
    dump_columnar,
    dump_stream,
    load_columnar,
    load_stream,
    log_records_to_stream,
    planted_star_graph,
    stream_from_edges,
)
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import (
    adversarial_interleaved_stream,
    churn_columnar,
    database_log_stream,
    degree_cascade_graph,
    deletion_churn_stream,
    dos_attack_log,
    random_bipartite_columnar,
    random_bipartite_graph,
    social_network_stream,
    zipf_frequency_columnar,
    zipf_frequency_stream,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmFailed",
    "ChunkedStreamReader",
    "ColumnarEdgeStream",
    "DELETE",
    "DecayPolicy",
    "DegResSampling",
    "Edge",
    "EdgeStream",
    "ExecSpec",
    "FanoutRunner",
    "GeneratorConfig",
    "INSERT",
    "InsertionDeletionFEwW",
    "InsertionOnlyFEwW",
    "LabelCodec",
    "MergeableStreamProcessor",
    "Neighbourhood",
    "Pipeline",
    "PipelineBuilder",
    "PipelineResult",
    "PipelineSpec",
    "ProcessorSpec",
    "SamplingStrategy",
    "ShardedRunner",
    "SharedDegreeRuns",
    "SlidingPolicy",
    "SourceSpec",
    "StarDetection",
    "StarDetectionResult",
    "StreamItem",
    "StreamProcessor",
    "TopKFEwW",
    "TumblingPolicy",
    "WindowPolicy",
    "WindowSpec",
    "WindowedProcessor",
    "adversarial_interleaved_stream",
    "as_chunks",
    "bipartite_double_cover",
    "bipartite_double_cover_columnar",
    "churn_columnar",
    "database_log_stream",
    "degree_cascade_graph",
    "deletion_churn_stream",
    "dos_attack_log",
    "dump_columnar",
    "dump_stream",
    "load_columnar",
    "load_stream",
    "log_records_to_stream",
    "planted_star_graph",
    "random_bipartite_columnar",
    "random_bipartite_graph",
    "register_generator",
    "register_processor",
    "run_fanout",
    "run_spec",
    "social_network_stream",
    "stream_from_edges",
    "verify_neighbourhood",
    "zipf_frequency_columnar",
    "zipf_frequency_stream",
]
