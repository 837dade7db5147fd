"""Registry behaviour: lookup, typed parameter binding, extension."""

import pickle

import pytest

from repro.core.insertion_only import InsertionOnlyFEwW
from repro.pipeline import (
    GENERATORS,
    PROCESSORS,
    Param,
    ParamError,
    RegistryWindowFactory,
    UnknownNameError,
    register_processor,
)


class TestLookup:
    def test_builtin_processors_present(self):
        for name in ("insertion-only", "insertion-deletion", "misra-gries",
                     "count-min", "count-sketch", "space-saving", "topk",
                     "star-detection", "full-storage"):
            assert name in PROCESSORS

    def test_builtin_generators_present(self):
        for name in ("star", "cascade", "adversarial", "zipf", "churn",
                     "random-bipartite"):
            assert name in GENERATORS

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(UnknownNameError) as excinfo:
            PROCESSORS.get("insertion-onli")
        assert "insertion-only" in str(excinfo.value)
        assert "insertion-only" in excinfo.value.suggestions

    def test_unknown_name_without_match_lists_registry(self):
        with pytest.raises(UnknownNameError) as excinfo:
            GENERATORS.get("qqqqq")
        assert "zipf" in str(excinfo.value)  # the full inventory

    def test_describe_lists_every_entry(self):
        text = PROCESSORS.describe()
        for name in PROCESSORS.names():
            assert name in text


class TestParamBinding:
    def test_defaults_applied(self):
        entry = PROCESSORS.get("insertion-only")
        bound = entry.bind({"n": 8, "d": 4})
        assert bound == {"n": 8, "d": 4, "alpha": 2, "seed": 0}

    def test_missing_required_is_reported(self):
        with pytest.raises(ParamError, match=r"missing required.*\['n', 'd'\]"):
            PROCESSORS.get("insertion-only").bind({})

    def test_unknown_param_lists_accepted(self):
        with pytest.raises(ParamError, match=r"unknown parameter.*alphas"):
            PROCESSORS.get("insertion-only").bind({"n": 8, "d": 4, "alphas": 2})

    def test_wrong_type_is_reported(self):
        with pytest.raises(ParamError, match="must be int, got str"):
            PROCESSORS.get("insertion-only").bind({"n": "8", "d": 4})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ParamError, match="must be int, got bool"):
            PROCESSORS.get("insertion-only").bind({"n": True, "d": 4})

    def test_int_accepted_for_float(self):
        bound = PROCESSORS.get("count-min").bind({"epsilon": 1, "delta": 0.1})
        assert bound["epsilon"] == 1.0 and isinstance(bound["epsilon"], float)

    def test_build_constructs_the_real_class(self):
        algorithm = PROCESSORS.build("insertion-only", {"n": 8, "d": 4})
        assert isinstance(algorithm, InsertionOnlyFEwW)
        assert algorithm.n == 8

    def test_workload_defaults_match_cli_flag_defaults(self):
        # The registry promises "an all-defaults spec equals a bare
        # `repro run`"; the values live in two places, so pin them.
        from repro.cli import build_parser

        args = build_parser().parse_args(["run"])
        for name in ("star", "cascade", "adversarial", "zipf", "churn"):
            defaults = {
                param.name: param.default
                for param in GENERATORS.get(name).params
            }
            assert defaults == {"n": args.n, "m": args.m, "d": args.d,
                                "alpha": args.alpha, "seed": args.seed}

    def test_generator_matches_direct_call(self):
        from repro.streams.generators import GeneratorConfig, planted_star_graph

        via_registry = GENERATORS.build(
            "star", {"n": 32, "m": 128, "d": 8, "seed": 3}
        )
        direct = planted_star_graph(
            GeneratorConfig(n=32, m=128, seed=3),
            star_degree=8, background_degree=min(5, 7),
        )
        assert list(via_registry) == list(direct)


class TestExtension:
    def test_register_and_build_custom_entry(self):
        class Doubler:
            def __init__(self, factor):
                self.factor = factor

        entry = register_processor(
            "test-doubler", Doubler, (Param("factor", int, 2),),
            kind="test", routing="any", doc="test entry",
        )
        try:
            assert PROCESSORS.get("test-doubler") is entry
            assert PROCESSORS.build("test-doubler", {}).factor == 2
            with pytest.raises(ValueError, match="already registered"):
                register_processor("test-doubler", Doubler)
        finally:
            PROCESSORS.unregister("test-doubler")
        assert "test-doubler" not in PROCESSORS


class TestWindowFactory:
    def test_injects_derived_seed(self):
        factory = RegistryWindowFactory.of(
            "insertion-only", {"n": 16, "d": 4, "alpha": 2}
        )
        instance = factory(12345)
        assert isinstance(instance, InsertionOnlyFEwW)
        # _seed_entropy is a deterministic function of the seed, so an
        # equal value proves the injected seed reached the constructor.
        direct = InsertionOnlyFEwW(16, 4, 2, seed=12345)
        assert instance._seed_entropy == direct._seed_entropy

    def test_matches_direct_alg2_bit_for_bit(self):
        direct = InsertionOnlyFEwW(16, 4, 2, seed=999)
        modern = RegistryWindowFactory.of(
            "insertion-only", {"n": 16, "d": 4, "alpha": 2}
        )(999)
        assert direct._seed_entropy == modern._seed_entropy
        assert (direct.n, direct.d, direct.alpha) == (
            modern.n, modern.d, modern.alpha
        )

    def test_picklable(self):
        factory = RegistryWindowFactory.of("insertion-only", {"n": 8, "d": 2})
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert isinstance(clone(7), InsertionOnlyFEwW)

    def test_deterministic_entry_ignores_seed(self):
        factory = RegistryWindowFactory.of("misra-gries", {"k": 4})
        summary = factory(31337)
        assert summary.k == 4


class TestSketchEntries:
    """The PR-2 sketches ride the Pipeline like first-class processors."""

    def test_sketch_adapters_registered(self):
        for name in ("l0-bank", "bloom-dedup"):
            assert name in PROCESSORS
            assert PROCESSORS.get(name).kind == "sketch"
            assert name in PROCESSORS.describe()

    def test_build_constructs_the_adapters(self):
        from repro.sketch.bloom import BloomDedup
        from repro.sketch.l0 import L0EdgeBank

        bank = PROCESSORS.build(
            "l0-bank", {"n": 16, "m": 64, "count": 4, "seed": 9}
        )
        assert isinstance(bank, L0EdgeBank)
        dedup = PROCESSORS.build(
            "bloom-dedup", {"n": 16, "m": 64, "capacity": 256}
        )
        assert isinstance(dedup, BloomDedup)

    def test_bloom_dedup_sharded_matches_single_core(self):
        import numpy as np

        from repro.engine import ShardedRunner
        from repro.streams.columnar import ColumnarEdgeStream

        # 200 distinct pairs inserted, 50 deleted and re-inserted —
        # legal turnstile updates, but the *pair* repeats, which is
        # exactly what the dedup counts.
        rng = np.random.default_rng(21)
        a = rng.integers(0, 16, size=200)
        b = np.arange(200, dtype=np.int64)
        repeat = slice(0, 50)
        stream = ColumnarEdgeStream(
            np.concatenate([a, a[repeat], a[repeat]]),
            np.concatenate([b, b[repeat], b[repeat]]),
            np.concatenate([
                np.ones(200, dtype=np.int64),
                -np.ones(50, dtype=np.int64),
                np.ones(50, dtype=np.int64),
            ]),
            n=16,
            m=300,
        )
        params = {"n": 16, "m": 300, "capacity": 1024, "seed": 4}
        single = PROCESSORS.build("bloom-dedup", params)
        single.process_batch(stream.a, stream.b, stream.sign)
        sharded = ShardedRunner(
            {"dedup": PROCESSORS.build("bloom-dedup", params)},
            n_workers=2,
            chunk_size=64,
        ).run(stream)["dedup"]
        # Vertex routing keeps pair key spaces disjoint per shard, so
        # first-arrival decisions — and both counters — are exact.
        assert single.suppressed > 0  # the workload really repeats
        assert sharded.admitted == single.admitted
        assert sharded.suppressed == single.suppressed

    def test_l0_bank_sharded_matches_single_core(self):
        import numpy as np

        from repro.engine import ShardedRunner
        from repro.streams.columnar import ColumnarEdgeStream

        rng = np.random.default_rng(22)
        stream = ColumnarEdgeStream(
            rng.integers(0, 8, size=300),
            np.arange(300, dtype=np.int64),
            n=8,
            m=300,
        )
        params = {"n": 8, "m": 300, "count": 6, "seed": 7, "mode": "exact"}
        single = PROCESSORS.build("l0-bank", params)
        single.process_batch(stream.a, stream.b, stream.sign)
        sharded = ShardedRunner(
            {"bank": PROCESSORS.build("l0-bank", params)},
            n_workers=2,
            chunk_size=32,
        ).run(stream)["bank"]
        # Linear sketches merge exactly: same seeds, same samples.
        assert sharded.sample_edges() == single.sample_edges()
