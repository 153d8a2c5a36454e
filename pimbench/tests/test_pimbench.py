"""Self-tests of the benchmark harness (run: ``python -m pytest pimbench/tests``)."""

from __future__ import annotations

import cProfile
import dataclasses
import json
import re
from pathlib import Path

import pytest

from pimbench import layers, run
from pimbench.workloads import common_payload

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def small_transfer():
    from repro import Session, SystemConfig

    with Session.open(config=SystemConfig.small_test()) as session:
        yield session.transfer(64 * 1024, sim_cap_bytes=64 * 1024)


class _StubWorkload:
    name = "stub"
    seeded = True
    seed = 1

    def invariants(self, op, result):
        return []

    def payload(self, op, result):
        return common_payload(result)


class _StubOp:
    name = "op"


def test_digest_check_fails_on_a_perturbed_stat(small_transfer):
    recorded_digest = run.digest(common_payload(small_transfer))
    recorded = {"seed": 1, "workloads": {"stub": {"op": recorded_digest}}}

    problems, _ = run.Checker(_StubWorkload(), recorded).check(_StubOp(), small_transfer)
    assert problems == []

    stats = dict(small_transfer.stats)
    key = next(k for k in stats if k.startswith("bw/") and k.endswith("/total_bytes"))
    stats[key] += 64
    perturbed = dataclasses.replace(small_transfer, stats=stats)
    problems, _ = run.Checker(_StubWorkload(), recorded).check(_StubOp(), perturbed)
    assert any("recorded" in problem for problem in problems)


def test_run_twice_check_flags_a_changed_second_run(small_transfer):
    checker = run.Checker(_StubWorkload(), {})  # seed without recorded digests
    assert checker.check(_StubOp(), small_transfer)[0] == []
    stats = dict(small_transfer.stats)
    key = next(k for k in stats if k.startswith("bw/"))
    stats[key] += 64
    perturbed = dataclasses.replace(small_transfer, stats=stats)
    problems, _ = checker.check(_StubOp(), perturbed)
    assert any("first run" in problem for problem in problems)


def test_layer_of_charges_known_files():
    import repro.dram.channel
    import repro.memctrl.controller
    import repro.system

    assert layers.layer_of(repro.memctrl.controller.__file__) == "memctrl"
    assert layers.layer_of(repro.dram.channel.__file__) == "dram"
    assert layers.layer_of(repro.system.__file__) == "system"
    assert layers.layer_of(json.__file__) == "builtins"
    assert layers.layer_of("~") == "builtins"
    assert layers.layer_of(layers.__file__) == "harness"


def test_profile_grouping_charges_a_known_function_to_its_layer():
    from repro.sim.config import DesignPoint, SystemConfig
    from repro.system import build_mapper

    mapper = build_mapper(SystemConfig.small_test(), DesignPoint.BASELINE)
    profiler = cProfile.Profile()
    profiler.enable()
    for line in range(20_000):
        mapper.decode(line * 64)
    profiler.disable()
    seconds, calls = layers.profile_seconds(profiler)
    assert calls >= 20_000
    assert seconds["mapping"] > 0.0
    assert seconds["core"] == 0.0 and seconds["memctrl"] == 0.0
    program_layers = [layer for layer in seconds if layer not in ("builtins", "harness")]
    assert max(program_layers, key=seconds.get) == "mapping"


def test_tracer_counts_rejects_nests_spans_and_restores():
    class Inner:
        def step(self, ok):
            return ok

    class Outer:
        def call(self, inner):
            return [inner.step(True), inner.step(False)]

    original = Inner.__dict__["step"]
    tracer = layers.Tracer({"a.call": [(Outer, "call")], "b.step": [(Inner, "step")]})
    with tracer:
        tracer.trace_id = "op1"
        Outer().call(Inner())
    assert Inner.__dict__["step"] is original
    assert tracer.count("b.step") == 2 and tracer.rejected("b.step") == 1
    outer = next(span for span in tracer.spans if span["name"] == "a.call")
    children = [span for span in tracer.spans if span["name"] == "b.step"]
    assert outer["parent_id"] == 0
    assert all(span["parent_id"] == outer["span_id"] for span in children)
    assert all(span["trace_id"] == "op1" for span in tracer.spans)
    assert tracer.self_s["a.call"] <= outer["end_s"] - outer["start_s"]


def test_every_metric_name_is_well_formed_and_declared():
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [metric["name"] for metric in spec["end_to_end"] + spec["per_layer"]]
    names += [workload["name"] for workload in spec["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64
    assert len(names) == len(set(names))

    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"]

    from pimbench.workloads import WORKLOADS

    assert set(WORKLOADS) == {workload["name"] for workload in spec["workloads"]}


def test_traced_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}

    class _Tracer:
        def count(self, name):
            return 0

        def rejected(self, name):
            return 0

    summary = dict.fromkeys(
        (
            "requests",
            "events",
            "dram.row_hit_ratio",
            "memctrl.lat_p50_ns",
            "memctrl.lat_p99_ns",
            "llm.ttft_p99_ns",
            "llm.iterations",
            "trace.deferred",
            "xfer_gain_err_pct",
            "energy_gain_err_pct",
        ),
        1.0,
    )
    shares = dict.fromkeys(layers.LAYERS, 0.0)
    metrics = run.layer_metrics(summary, _Tracer(), shares, 10, 1.0, 1.1)
    metrics.update(dict.fromkeys(run.GROUP_SHARE_METRICS, 0.0))
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert run.layer_unit(name) == unit, name
