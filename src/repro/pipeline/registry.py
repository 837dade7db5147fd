"""Named registries with typed parameter schemas.

The declarative pipeline resolves *names* ("insertion-only", "zipf")
into live objects through two registries:

* :data:`PROCESSORS` — every streaming structure a
  :class:`~repro.pipeline.spec.ProcessorSpec` may name: the paper's
  algorithms, the extension wrappers, the classical baselines and the
  sketch summaries.  Entries carry build-time metadata (shard routing,
  mergeability, which parameter is the seed) so specs validate without
  instantiating anything.
* :data:`GENERATORS` — every workload a ``generator`` source may name.
  The five CLI workloads (star / cascade / adversarial / zipf / churn)
  are registered with exactly the parameter derivations the CLI's
  ``--workload`` path has always used, so a spec-driven run reproduces
  a flag-driven run bit for bit.

Each entry declares its parameters as :class:`Param` rows (name, type,
default, doc).  Binding a params mapping against the schema catches
unknown names, missing required values, and type mismatches *eagerly*,
with close-match suggestions for misspelled entry names — the CoreDiag
posture: diagnose the configuration, don't crash the run.

Registration is open: library users add their own structures with
:func:`register_processor` / :func:`register_generator` and they become
spec-addressable exactly like the built-ins.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.pipeline.errors import ParamError, UnknownNameError

#: Sentinel: a parameter with this default is required.
_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One typed parameter of a registry entry."""

    name: str
    type: type
    default: Any = _REQUIRED
    doc: str = ""

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED

    def check(self, value: Any, context: str) -> Any:
        """Validate (and mildly coerce) one supplied value."""
        expected = self.type
        if expected is bool:
            if not isinstance(value, bool):
                raise ParamError(
                    f"{context}: parameter {self.name!r} must be a bool, "
                    f"got {type(value).__name__} {value!r}"
                )
            return value
        if isinstance(value, bool):
            # bool is an int subclass; reject it for numeric params so a
            # JSON "true" never silently becomes 1.
            raise ParamError(
                f"{context}: parameter {self.name!r} must be "
                f"{expected.__name__}, got bool {value!r}"
            )
        if expected is float and isinstance(value, int):
            return float(value)
        if not isinstance(value, expected):
            raise ParamError(
                f"{context}: parameter {self.name!r} must be "
                f"{expected.__name__}, got {type(value).__name__} {value!r}"
            )
        return value


@dataclass(frozen=True)
class Entry:
    """One registered name: factory, parameter schema, metadata.

    Attributes:
        name: registry key.
        factory: called with the bound parameters as keyword arguments.
        params: the typed parameter schema.
        kind: coarse classification ("algorithm", "baseline", "sketch",
            "wrapper", "workload", ...), informational.
        routing: build-time shard-routing metadata (``"vertex"`` /
            ``"any"``), or ``None`` when it depends on the parameters —
            processor entries only.
        mergeable: whether instances implement ``split``/``merge``
            (required for sharded backends and sliding/decay windows) —
            processor entries only.
        seed_param: name of the factory parameter that receives derived
            per-bucket seeds under a window spec; ``None`` for
            deterministic structures.
        doc: one-line description shown by :func:`describe`.
    """

    name: str
    factory: Callable[..., Any]
    params: Tuple[Param, ...] = ()
    kind: str = "other"
    routing: Optional[str] = None
    mergeable: bool = True
    seed_param: Optional[str] = None
    doc: str = ""

    def bind(self, supplied: Mapping[str, Any]) -> Dict[str, Any]:
        """Defaults plus validated supplied values, ready for the factory."""
        context = f"{self.kind} {self.name!r}"
        known = {param.name: param for param in self.params}
        unknown = sorted(set(supplied) - set(known))
        if unknown:
            raise ParamError(
                f"{context}: unknown parameter(s) {unknown}; "
                f"accepted: {sorted(known)}"
            )
        bound: Dict[str, Any] = {}
        missing = []
        for param in self.params:
            if param.name in supplied:
                bound[param.name] = param.check(supplied[param.name], context)
            elif param.required:
                missing.append(param.name)
            else:
                bound[param.name] = param.default
        if missing:
            raise ParamError(
                f"{context}: missing required parameter(s) {missing}"
            )
        return bound

    def build(self, supplied: Mapping[str, Any]) -> Any:
        return self.factory(**self.bind(supplied))

    @property
    def resolved_class(self) -> Optional[type]:
        """The class behind :attr:`factory` when it *is* a class.

        ``None`` for function factories — structural tools (the
        ``repro analyze`` protocol lints) can only reason about class
        entries; the runtime contract auditor covers the rest.
        """
        return self.factory if isinstance(self.factory, type) else None


class Registry:
    """A name -> :class:`Entry` mapping with helpful failure modes."""

    def __init__(self, label: str) -> None:
        self.label = label
        self._entries: Dict[str, Entry] = {}

    def register(self, entry: Entry) -> Entry:
        if entry.name in self._entries:
            raise ValueError(
                f"{self.label} {entry.name!r} is already registered; "
                f"unregister it first to replace it"
            )
        self._entries[entry.name] = entry
        return entry

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> Tuple[Entry, ...]:
        """Every registered :class:`Entry`, in name order — the metadata
        accessor ``repro analyze``'s protocol lints and contract auditor
        iterate."""
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> Entry:
        try:
            return self._entries[name]
        except KeyError:
            suggestions = difflib.get_close_matches(
                name, self._entries, n=3, cutoff=0.5
            )
            hint = (
                f"; did you mean {' / '.join(map(repr, suggestions))}?"
                if suggestions
                else f"; registered: {list(self.names())}"
            )
            raise UnknownNameError(
                f"unknown {self.label} {name!r}{hint}", name, suggestions
            ) from None

    def build(self, name: str, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Resolve ``name`` and build an instance from ``params``."""
        return self.get(name).build(params or {})

    def describe(self) -> str:
        """Human-readable inventory (one line per entry)."""
        lines = []
        for name in self.names():
            entry = self._entries[name]
            signature = ", ".join(
                param.name if param.required
                else f"{param.name}={param.default!r}"
                for param in entry.params
            )
            lines.append(f"{name}({signature}) — {entry.doc}")
        return "\n".join(lines)


#: The two pipeline registries.
PROCESSORS = Registry("processor")
GENERATORS = Registry("generator")


def register_processor(
    name: str,
    factory: Callable[..., Any],
    params: Tuple[Param, ...] = (),
    *,
    kind: str = "other",
    routing: Optional[str] = None,
    mergeable: bool = True,
    seed_param: Optional[str] = None,
    doc: str = "",
) -> Entry:
    """Register a streaming structure under ``name`` (see :class:`Entry`)."""
    return PROCESSORS.register(
        Entry(name, factory, params, kind, routing, mergeable, seed_param, doc)
    )


def register_generator(
    name: str,
    factory: Callable[..., Any],
    params: Tuple[Param, ...] = (),
    *,
    doc: str = "",
) -> Entry:
    """Register a workload generator under ``name``."""
    return GENERATORS.register(
        Entry(name, factory, params, kind="workload", doc=doc)
    )


@dataclass(frozen=True)
class RegistryWindowFactory:
    """Picklable per-bucket factory for windowed registry processors.

    :class:`~repro.engine.windows.WindowedProcessor` calls its factory
    with each bucket's derived seed; this adapter injects that seed into
    the entry's declared ``seed_param`` (or ignores it for deterministic
    structures) and builds through the registry.  Parameters are stored
    as a sorted item tuple so the dataclass stays frozen, hashable and
    picklable — sharded worker processes re-resolve the entry by name
    after import.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @staticmethod
    def of(name: str, params: Mapping[str, Any]) -> "RegistryWindowFactory":
        return RegistryWindowFactory(name, tuple(sorted(params.items())))

    def __call__(self, seed: int) -> Any:
        entry = PROCESSORS.get(self.name)
        params = dict(self.params)
        if entry.seed_param is not None:
            params[entry.seed_param] = seed
        return entry.build(params)


# ----------------------------------------------------------------------
# Built-in processors.
# ----------------------------------------------------------------------


def _builtin_processors() -> None:
    from repro.baselines.count_min import CountMinSketch
    from repro.baselines.count_sketch import CountSketch
    from repro.baselines.misra_gries import MisraGries
    from repro.baselines.naive import FullStorage
    from repro.baselines.space_saving import SpaceSaving
    from repro.core.insertion_deletion import InsertionDeletionFEwW
    from repro.core.insertion_only import InsertionOnlyFEwW
    from repro.core.star_detection import StarDetection
    from repro.core.topk import TopKFEwW

    register_processor(
        "insertion-only",
        InsertionOnlyFEwW,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("d", int, doc="degree threshold"),
            Param("alpha", int, 2, "approximation factor"),
            Param("seed", int, 0),
        ),
        kind="algorithm",
        routing="vertex",
        seed_param="seed",
        doc="the paper's Algorithm 2 (insertion-only FEwW)",
    )
    register_processor(
        "insertion-deletion",
        InsertionDeletionFEwW,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("m", int, doc="number of B-vertices"),
            Param("d", int, doc="degree threshold"),
            Param("alpha", int, 2, "approximation factor"),
            Param("seed", int, 0),
            Param("scale", float, 1.0, "sampler-count scale"),
        ),
        kind="algorithm",
        routing="any",
        seed_param="seed",
        doc="the paper's Algorithm 3 (turnstile FEwW)",
    )
    register_processor(
        "star-detection",
        StarDetection,
        (
            Param("n_vertices", int, doc="vertices of the undirected graph"),
            Param("alpha", int, 2, "approximation factor"),
            Param("eps", float, 0.5, "guess-ladder ratio"),
            Param("model", str, "insertion-only"),
            Param("seed", int, 0),
            Param("scale", float, 1.0),
        ),
        kind="wrapper",
        routing=None,  # vertex for insertion-only, any for turnstile
        seed_param="seed",
        doc="Lemma 3.3 star detection (degree-guess ladder)",
    )
    register_processor(
        "topk",
        TopKFEwW,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("d", int, doc="degree threshold"),
            Param("alpha", int, 2),
            Param("k", int, doc="answers to return"),
            Param("seed", int, 0),
        ),
        kind="wrapper",
        routing="vertex",
        seed_param="seed",
        doc="top-k heavy vertices with witnesses",
    )
    register_processor(
        "misra-gries",
        MisraGries,
        (Param("k", int, doc="counter budget"),),
        kind="baseline",
        routing="any",
        doc="Misra-Gries heavy hitters (no witnesses)",
    )
    register_processor(
        "space-saving",
        SpaceSaving,
        (Param("k", int, doc="counter budget"),),
        kind="baseline",
        routing="any",
        doc="SpaceSaving heavy hitters (no witnesses)",
    )
    register_processor(
        "count-min",
        CountMinSketch,
        (
            Param("epsilon", float, doc="additive error fraction"),
            Param("delta", float, doc="failure probability"),
            Param("seed", int, 0),
        ),
        kind="sketch",
        routing="any",
        seed_param="seed",
        doc="Count-Min frequency sketch",
    )
    register_processor(
        "count-sketch",
        CountSketch,
        (
            Param("width", int, doc="buckets per row"),
            Param("rows", int, 5),
            Param("seed", int, 0),
        ),
        kind="sketch",
        routing="any",
        seed_param="seed",
        doc="CountSketch frequency sketch",
    )
    from repro.sketch.bloom import BloomDedup
    from repro.sketch.l0 import L0EdgeBank

    register_processor(
        "l0-bank",
        L0EdgeBank,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("m", int, doc="number of B-vertices"),
            Param("count", int, doc="number of independent samplers"),
            Param("delta", float, 0.05, "per-sampler failure probability"),
            Param("seed", int, 0),
            Param("mode", str, "fast", "'exact' sketches or 'fast' simulation"),
        ),
        kind="sketch",
        routing="any",
        seed_param="seed",
        doc="bank of l0-samplers over the edge-incidence vector",
    )
    register_processor(
        "bloom-dedup",
        BloomDedup,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("m", int, doc="number of B-vertices"),
            Param("capacity", int, doc="expected distinct pairs"),
            Param("fp_rate", float, 0.01, "false-positive target"),
            Param("seed", int, 0),
        ),
        kind="sketch",
        routing="vertex",
        seed_param="seed",
        doc="Bloom-filter pair dedup (admitted/suppressed counting)",
    )
    register_processor(
        "full-storage",
        FullStorage,
        (
            Param("n", int, doc="number of A-vertices"),
            Param("m", int, doc="number of B-vertices"),
        ),
        kind="baseline",
        routing="vertex",
        doc="exact adjacency storage (the space upper baseline)",
    )


# ----------------------------------------------------------------------
# Built-in generators: the CLI workloads, bit-for-bit.
# ----------------------------------------------------------------------

#: Shared schema of the CLI workload generators (defaults match the
#: CLI's ``run`` flags, so an all-defaults spec equals a bare
#: ``repro run``).
_WORKLOAD_PARAMS = (
    Param("n", int, 512, "number of items (A-vertices)"),
    Param("m", int, 4096, "number of witnesses (B-vertices)"),
    Param("d", int, 128, "degree threshold the workload is sized for"),
    Param("alpha", int, 2, "approximation factor"),
    Param("seed", int, 0),
)


def _workload_star(n: int, m: int, d: int, alpha: int, seed: int) -> Any:
    from repro.streams.generators import GeneratorConfig, planted_star_graph

    return planted_star_graph(
        GeneratorConfig(n=n, m=m, seed=seed),
        star_degree=d,
        background_degree=min(5, d - 1),
    )


def _workload_cascade(n: int, m: int, d: int, alpha: int, seed: int) -> Any:
    from repro.streams.generators import GeneratorConfig, degree_cascade_graph

    return degree_cascade_graph(
        GeneratorConfig(n=n, m=m, seed=seed), d=d, alpha=max(2, alpha)
    )


def _workload_adversarial(n: int, m: int, d: int, alpha: int, seed: int) -> Any:
    from repro.streams.generators import (
        GeneratorConfig,
        adversarial_interleaved_stream,
    )

    return adversarial_interleaved_stream(
        GeneratorConfig(n=n, m=m, seed=seed),
        star_degree=d,
        n_decoys=min(n - 1, 30),
        decoy_degree=max(1, d // 2),
    )


def _workload_zipf(n: int, m: int, d: int, alpha: int, seed: int) -> Any:
    from repro.streams.generators import GeneratorConfig, zipf_frequency_stream

    return zipf_frequency_stream(
        GeneratorConfig(n=n, m=m, seed=seed), n_records=min(m, 8 * d)
    )


def _workload_churn(n: int, m: int, d: int, alpha: int, seed: int) -> Any:
    from repro.streams.generators import GeneratorConfig, deletion_churn_stream

    return deletion_churn_stream(
        GeneratorConfig(n=n, m=m, seed=seed),
        star_degree=d,
        churn_edges=4 * d,
    )


def _workload_random(n: int, m: int, edges: int, seed: int) -> Any:
    from repro.streams.generators import GeneratorConfig, random_bipartite_graph

    return random_bipartite_graph(GeneratorConfig(n=n, m=m, seed=seed), edges)


def _builtin_generators() -> None:
    for name, factory, doc in (
        ("star", _workload_star, "one planted heavy vertex over noise"),
        ("cascade", _workload_cascade, "geometric degree cascade"),
        ("adversarial", _workload_adversarial,
         "heavy vertex interleaved with near-threshold decoys"),
        ("zipf", _workload_zipf, "Zipf-distributed item frequencies"),
        ("churn", _workload_churn,
         "insert/delete churn around a persistent star"),
    ):
        register_generator(name, factory, _WORKLOAD_PARAMS, doc=doc)
    register_generator(
        "random-bipartite",
        _workload_random,
        (
            Param("n", int, 512),
            Param("m", int, 4096),
            Param("edges", int, doc="number of distinct edges"),
            Param("seed", int, 0),
        ),
        doc="uniform random bipartite graph",
    )


_builtin_processors()
_builtin_generators()
