"""The declarative Pipeline API: one JSON spec, one reproducible run.

Every run in this library — CLI, benchmarks, your scripts — is an
assignment of four coordinates: *source* x *window* x *backend* x
*processors*.  ``repro.pipeline`` makes that assignment a first-class,
validated, serializable object:

1. build a pipeline fluently, or straight from a JSON dict,
2. round-trip it through ``to_dict``/``from_dict`` (the spec *is* the
   experiment artifact — commit it next to your results),
3. run it and get a typed, JSON-serializable ``PipelineResult``,
4. and let validation catch conflicting coordinates eagerly — every
   problem at once, before anything streams.

Run:  python examples/pipeline_spec.py
"""

import json

from repro.pipeline import Pipeline, PipelineValidationError

# The spec a user would keep in a job.json file: the adversarial CLI
# workload (a planted heavy vertex among near-threshold decoys),
# Algorithm 2, a tumbling window, sharded across 2 workers.
JOB = {
    "source": {
        "kind": "generator",
        "generator": "adversarial",
        "params": {"n": 128, "m": 2048, "d": 64, "seed": 5},
    },
    "processors": [
        {
            "name": "insertion-only",
            "label": "alg2",
            "params": {"n": 128, "d": 64, "alpha": 2},
        }
    ],
    "window": {"policy": "tumbling", "window": 1024, "seed": 5},
    "execution": {"backend": "sharded", "workers": 2},
}


def main() -> None:
    pipeline = Pipeline.from_dict(JOB)

    # The spec round-trips exactly: what you archive is what runs.
    assert Pipeline.from_dict(pipeline.to_dict()) == pipeline
    print("job spec (canonical form):")
    print(json.dumps(pipeline.to_dict(), indent=2))

    result = pipeline.run()
    report = result.report
    print(f"\nran {report.n_updates} updates on the {report.backend!r} "
          f"backend x{report.workers} (routing {report.routing!r}) at "
          f"{report.updates_per_s / 1e3:.0f} k-upd/s")
    for window in result["alg2"]:
        verdict = (
            f"vertex {window.value.vertex} with {window.value.size} witnesses"
            if window.found else "no qualifying vertex"
        )
        print(f"  window {window.window_index} "
              f"[{window.start_update}, {window.end_update}): {verdict}")

    # The whole result is JSON too — log it, diff it, archive it.
    payload = json.dumps(result.to_dict(), indent=2)
    print(f"\nresult serializes to {len(payload)} bytes of JSON")

    # A fluent builder produces the same pipeline as the dict above.
    fluent = (
        Pipeline.builder()
        .generator("adversarial", n=128, m=2048, d=64, seed=5)
        .processor("insertion-only", label="alg2", n=128, d=64, alpha=2)
        .window("tumbling", 1024, seed=5)
        .sharded(2)
        .build()
    )
    assert fluent == pipeline
    print("fluent builder and JSON spec agree")

    # Validation is eager and total: a spec full of conflicts reports
    # every one of them at construction time, nothing runs.
    try:
        Pipeline.from_dict({
            "source": {"kind": "generator", "generator": "zipff",
                       "mmap": True},
            "processors": [{"name": "insertion-only",
                            "params": {"n": 64, "d": 8, "alphas": 2}}],
            "execution": {"backend": "fanout", "workers": 4},
        })
    except PipelineValidationError as error:
        print(f"\nconflicting spec rejected with "
              f"{len(error.diagnostics)} diagnostics:")
        for diagnostic in error.diagnostics:
            print(f"  - {diagnostic}")


if __name__ == "__main__":
    main()
