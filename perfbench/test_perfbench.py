"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
from hosttrace import HostTracer  # noqa: E402
from workloads import WORKLOADS, TagChurn  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "interaction_map.json").read_text())


def names(section):
    return [entry["name"] for entry in SPEC[section]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_counts(workload):
    first = bench.traced_counts(workload, seed=7, ops=8)
    second = bench.traced_counts(workload, seed=7, ops=8)
    assert first == second
    assert first["failed"] == 0
    assert first["db_bytes_written"] > 0 and first["sim_events"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_completes_at_tiny_size(workload, trace):
    result = bench.measure(workload, seed=3, seconds=0.4, trace=trace,
                           size="tiny", report=lambda _line: None)
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = names("per_layer" if trace else "end_to_end")
    assert sorted(result["metrics"]) == sorted(expected)
    units = {entry["name"]: entry["unit"]
             for entry in SPEC["per_layer"] + SPEC["end_to_end"]}
    for metric, value in result["metrics"].items():
        assert value["unit"] == units[metric]


def test_corrupted_tag_fails_the_tag_churn_check():
    workload, _ = bench.setup_workload("tag-churn", seed=5, size="tiny",
                                       repeats=1)
    workload.run_ops(16)
    victim = workload.names[0]
    workload.service.store.get("state", victim)[TagChurn.SERVICE] \
        .expected_tag = b"\x00" * 32
    problems = workload.check()
    assert any(victim in problem for problem in problems)


def test_a_clean_tag_churn_run_passes_its_check():
    workload, _ = bench.setup_workload("tag-churn", seed=5, size="tiny",
                                       repeats=1)
    workload.run_ops(16)
    assert workload.check() == []


def test_interaction_map_covers_every_per_layer_metric():
    mapped = [metric for row in MAP["per_layer"] for metric in row["metrics"]]
    assert sorted(mapped) == sorted(names("per_layer"))
    assert sorted(MAP["workloads"]) == sorted(names("workloads"))
    end_to_end = set(names("end_to_end"))
    for row in MAP["per_layer"]:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"] + row["not_on"]) <= set(MAP["workloads"])


def test_missing_program_source_fails_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SOURCE", ROOT / "no-such-source")
    status = run.main(["--workload", "startup", "--seed", "1",
                       "--seconds", "1"])
    assert status != 0
    assert "{" not in capsys.readouterr().out


def test_self_time_subtracts_child_spans():
    class Layer:
        def outer(self):
            self.inner()
            return "done"

        def inner(self):
            return sum(range(2000))

    def resumable():
        Layer().inner()
        received = yield "first"
        Layer().inner()
        return received

    module = type(sys)("repro_selftest_module")
    module.resumable = resumable
    sys.modules[module.__name__] = module
    tracer = HostTracer()
    tracer.add(Layer, "outer", "a:outer")
    tracer.add(Layer, "inner", "b:inner")
    tracer.add(module, "resumable", "c:resumable")
    tracer.install()
    try:
        assert Layer().outer() == "done"
        generator = module.resumable()
        assert next(generator) == "first"
        with pytest.raises(StopIteration) as stop:
            generator.send("second")
        assert stop.value.value == "second"
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert Layer.outer.__name__ == "outer"
    spans = tracer.reduce()
    assert spans.calls_of("b:inner") == 3
    assert spans.calls_of("c:resumable") == 2
    outer = spans.total_of("a:outer")
    assert spans.self_of("a") == pytest.approx(
        outer - spans.durations_of("b:inner")[0])
    assert spans.root_time == pytest.approx(
        outer + spans.total_of("c:resumable"))
