"""The benchmark gate's decision logic, on synthetic perfbench results."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

WORKLOADS = sorted({workload for workload, _ in perf_gate.CEILINGS})


def passing_result(workload, scale=0.5):
    """A perfbench JSON result with every gated metric at ``scale`` x ceiling."""
    metrics = {
        metric: {"value": ceiling * scale, "unit": "s"}
        for (name, metric), ceiling in perf_gate.CEILINGS.items()
        if name == workload
    }
    metrics["trace.overhead_pct"] = {"value": 1.0, "unit": "%"}
    return {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}


def gated(workload):
    return [m for name, m in perf_gate.CEILINGS if name == workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_under_every_ceiling_passes(workload):
    assert perf_gate.check(workload, 0, passing_result(workload)) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_breach_names_workload_and_metric(workload):
    for metric in gated(workload):
        result = passing_result(workload)
        ceiling = perf_gate.CEILINGS[workload, metric]
        result["metrics"][metric]["value"] = ceiling * 1.01
        problems = perf_gate.check(workload, 0, result)
        assert len(problems) == 1
        assert workload in problems[0] and metric in problems[0]
        assert "ceiling" in problems[0]


def test_value_at_ceiling_passes():
    workload = WORKLOADS[0]
    result = passing_result(workload, scale=1.0)
    assert perf_gate.check(workload, 0, result) == []


@pytest.mark.parametrize("field, value", [("correct", False), ("failed", 1)])
def test_oracle_failure_fails(field, value):
    workload = WORKLOADS[0]
    result = passing_result(workload)
    result[field] = value
    problems = perf_gate.check(workload, 1, result)
    assert any("oracle" in p for p in problems)
    assert any("exited 1" in p for p in problems)


def test_nonzero_exit_alone_fails():
    workload = WORKLOADS[0]
    problems = perf_gate.check(workload, 2, passing_result(workload))
    assert problems == [f"{workload}: perfbench exited 2"]


def test_missing_result_fails():
    workload = WORKLOADS[0]
    problems = perf_gate.check(workload, 0, None)
    assert problems == [f"{workload}: no JSON result line"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gated_metric_at_zero_fails(workload):
    for metric in gated(workload):
        result = passing_result(workload)
        result["metrics"][metric]["value"] = 0.0
        problems = perf_gate.check(workload, 0, result)
        assert len(problems) == 1
        assert metric in problems[0] and "did not run" in problems[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gated_metric_absent_fails(workload):
    for metric in gated(workload):
        result = passing_result(workload)
        del result["metrics"][metric]
        problems = perf_gate.check(workload, 0, result)
        assert problems == [f"{workload}: {metric} is missing"]


def test_other_workloads_ceilings_are_not_applied():
    first, second = WORKLOADS[0], WORKLOADS[1]
    assert perf_gate.check(first, 0, passing_result(second)) != []
    assert perf_gate.check(second, 0, passing_result(second)) == []


def test_last_json_reads_the_final_line():
    stdout = "workload x\n  metric 1.0 s\n" + json.dumps({"correct": True}) + "\n"
    assert perf_gate.last_json(stdout) == {"correct": True}
    assert perf_gate.last_json("table only\n") is None
    assert perf_gate.last_json("") is None
    assert perf_gate.last_json("[1, 2]\n") is None


def test_gated_names_are_benchmark_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    for _, metric in perf_gate.CEILINGS:
        assert metric in per_layer, metric


def test_every_benchmark_workload_has_a_ceiling():
    names = perf_gate.workloads()
    assert names
    for name in names:
        assert gated(name), name
    assert set(WORKLOADS) <= set(names)
