"""Tests for the LLM serving family: traffic compiler, driver, specs, API.

Covers the ``repro.workloads.llm`` traffic compiler (golden numbers for the
tiny preset), the continuous-batching :class:`ServingDriver` (determinism,
completeness, KV accounting), the :class:`~repro.scenarios.serving.ServingSpec`
experiment plumbing (pickling, caching, ``-j2 == -j1`` through
``run_specs``, memory-controller policy contrast) and the request-level
``RunResult`` v2 schema (round-trips, v1 compatibility, ``serve_llm``).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.api import RUN_RESULT_SCHEMA_VERSION, RequestRecord, RunResult, Session
from repro.exp.cache import CACHE_DIR_NAME, ResultCache
from repro.exp.runner import ExperimentProvider, run_specs
from repro.scenarios import SCENARIOS, ServingSpec, render_serving_table
from repro.sim.config import DesignPoint
from repro.workloads.llm import (
    LlmTenantSpec,
    ModelSpec,
    ServingDriver,
    compile_decode_step,
    compile_prefill,
    run_serving,
)

KIB = 1024


def tiny_tenants() -> tuple:
    """Two small request classes (open-loop + closed-loop) for fast runs."""
    return (
        LlmTenantSpec.open_loop(
            "interactive",
            num_requests=12,
            mean_gap_ns=4_000.0,
            prompt_tokens=(8, 16),
            output_tokens=(4, 8),
            seed=1,
        ),
        LlmTenantSpec.closed_loop(
            "batch",
            num_requests=6,
            clients=2,
            prompt_tokens=(48, 64),
            output_tokens=(12, 16),
            think_ns=500.0,
            seed=2,
        ),
    )


def tiny_serving_spec(name="llm-test", policy=None) -> ServingSpec:
    return ServingSpec(
        name=name,
        design_point=DesignPoint.BASE_DHP,
        model=ModelSpec.tiny(),
        tenants=tiny_tenants(),
        max_batch_size=4,
        kv_pool_bytes=64 * KIB,
        memctrl_policy=policy,
    )


class TestModelSpec:
    def test_tiny_preset_geometry(self):
        model = ModelSpec.tiny()
        # 2 layers * 2 (K+V) * 2 kv-heads * 16 head-dim * 2 B/elem
        assert model.kv_bytes_per_token_per_layer == 128
        assert model.kv_bytes_per_token == 256
        assert model.act_bytes_per_token_per_direction == 256
        assert model.weight_bytes == 114_688
        assert model.effective_window == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(name="bad", num_layers=0, hidden_dim=64, num_heads=4,
                      num_kv_heads=2, head_dim=16, ffn_dim=128)
        with pytest.raises(ValueError):
            # GQA requires num_heads % num_kv_heads == 0
            ModelSpec(name="bad", num_layers=2, hidden_dim=64, num_heads=4,
                      num_kv_heads=3, head_dim=16, ffn_dim=128)

    def test_effective_window_clamps_to_context(self):
        model = replace(ModelSpec.tiny(), attention_window=1_000_000)
        assert model.effective_window == model.max_context

    def test_specs_are_hashable_and_picklable(self):
        model = ModelSpec.tiny()
        assert hash(model) == hash(ModelSpec.tiny())
        assert pickle.loads(pickle.dumps(model)) == model


class TestTrafficCompiler:
    def test_decode_step_golden(self):
        # tiny model, context 32, window 16: reads the 16-token window,
        # appends one token, streams activations both ways.
        step = compile_decode_step(ModelSpec.tiny(), context_len=32)
        assert step.tokens == 1
        assert step.kv_read_bytes == 16 * 256
        assert step.kv_write_bytes == 256
        assert step.act_read_bytes == 256
        assert step.act_write_bytes == 256
        assert step.flops == 123_392
        assert step.total_bytes == 4_864
        assert step.num_requests == 76

    def test_decode_window_clamps_short_context(self):
        step = compile_decode_step(ModelSpec.tiny(), context_len=4)
        assert step.kv_read_bytes == 4 * 256

    def test_prefill_golden(self):
        # 24-token prompt against the 16-token window: the closed-form
        # windowed read sum is 16*15/2 + (24-16)*16 = 248 tokens.
        model = ModelSpec.tiny()
        step = compile_prefill(model, prompt_tokens=24)
        assert step.tokens == 24
        assert step.kv_read_bytes == 248 * 256
        assert step.kv_write_bytes == 24 * 256
        assert step.act_read_bytes == 24 * 256
        assert step.act_write_bytes == 24 * 256
        assert step.total_bytes == 81_920
        assert step.num_requests == 1_280

    def test_prefill_within_window_is_dense(self):
        # Prompt shorter than the window: plain causal sum P*(P-1)/2.
        model = ModelSpec.tiny()
        step = compile_prefill(model, prompt_tokens=8)
        assert step.kv_read_bytes == (8 * 7 // 2) * 256

    def test_prefill_equals_summed_decode_steps(self):
        # The closed form must agree with stepping the decode compiler
        # through every prefill position (reads at position i see i tokens).
        model = ModelSpec.tiny()
        prompt = 24
        prefill = compile_prefill(model, prompt)
        summed = sum(
            compile_decode_step(model, context_len=i).kv_read_bytes
            for i in range(prompt)
        )
        assert prefill.kv_read_bytes == summed

    def test_traffic_scales_with_context(self):
        model = ModelSpec.tiny()
        small = compile_prefill(model, prompt_tokens=8)
        large = compile_prefill(model, prompt_tokens=64)
        assert large.total_bytes > small.total_bytes
        assert large.flops > small.flops


class TestTenantSpec:
    def test_request_shapes_are_seeded_and_bounded(self):
        tenant = tiny_tenants()[0]
        shapes = tenant.request_shapes()
        assert shapes == tenant.request_shapes()  # same seed, same draw
        assert len(shapes) == tenant.num_requests
        for prompt, output in shapes:
            assert 8 <= prompt <= 16
            assert 4 <= output <= 8
        reseeded = replace(tenant, seed=99).request_shapes()
        assert reseeded != shapes

    def test_validation(self):
        with pytest.raises(ValueError):
            LlmTenantSpec.open_loop("x", num_requests=0, mean_gap_ns=1.0,
                                    prompt_tokens=(1, 1), output_tokens=(1, 1))
        with pytest.raises(ValueError):
            LlmTenantSpec.closed_loop("x", num_requests=4, clients=0,
                                      prompt_tokens=(1, 1), output_tokens=(1, 1))

    def test_load_labels(self):
        open_tenant, closed_tenant = tiny_tenants()
        assert open_tenant.load_label.endswith("/s")
        assert closed_tenant.load_label == "closed x2"


class TestServingDriver:
    def run_tiny(self, config, policy=None, kv_pool_bytes=64 * KIB):
        if policy is not None:
            config = replace(config, memctrl=replace(config.memctrl, policy=policy))
        return run_serving(
            config,
            DesignPoint.BASE_DHP,
            ModelSpec.tiny(),
            tiny_tenants(),
            max_batch_size=4,
            kv_pool_bytes=kv_pool_bytes,
        )

    def test_all_requests_complete_with_monotone_timestamps(self, small_config):
        outcome = self.run_tiny(small_config)
        assert len(outcome.records) == 18
        for record in outcome.records:
            assert record.completed
            assert record.first_token_ns >= record.arrival_ns
            assert record.completion_ns >= record.first_token_ns
            assert record.output_tokens >= 1
        assert outcome.iterations > 0
        assert outcome.memory_requests > 0
        assert outcome.tokens_per_second > 0

    def test_run_twice_is_bit_identical(self, small_config):
        first = self.run_tiny(small_config)
        second = self.run_tiny(small_config)
        assert first.records == second.records
        assert first.end_ns == second.end_ns
        assert first.memory_requests == second.memory_requests
        assert first.iterations == second.iterations

    def test_kv_pool_accounting(self, small_config):
        outcome = self.run_tiny(small_config)
        assert 0 < outcome.kv_peak_bytes <= outcome.kv_pool_bytes

    def test_kv_pool_too_small_is_rejected(self, small_config):
        with pytest.raises(ValueError):
            self.run_tiny(small_config, kv_pool_bytes=1 * KIB)

    def test_duplicate_tenant_names_are_rejected(self, small_config):
        from repro.system import build_system

        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        tenant = tiny_tenants()[0]
        with pytest.raises(ValueError):
            ServingDriver(system, ModelSpec.tiny(), (tenant, tenant))

    def test_qos_priority_policy_changes_schedule(self, small_config):
        # qos_priority:interactive=1 must actually reorder DRAM service --
        # and never at the interactive tenant's expense (its p99 mean
        # inter-token latency can only improve under priority).
        frfcfs = self.run_tiny(small_config)
        qos = self.run_tiny(small_config, policy="qos_priority:interactive=1")
        assert qos.end_ns != frfcfs.end_ns
        frfcfs_itl = frfcfs.rows()[0]
        qos_itl = qos.rows()[0]
        assert frfcfs_itl["tenant"] == qos_itl["tenant"] == "interactive"
        assert qos_itl["itl_p99_us"] <= frfcfs_itl["itl_p99_us"]

    def test_slo_attainment_counts_both_axes(self, small_config):
        outcome = self.run_tiny(small_config)
        strict = replace(
            tiny_tenants()[0], ttft_slo_ns=1e-3, itl_slo_ns=1e12
        )
        # An impossible TTFT SLO alone must zero the attainment even though
        # every ITL passes.
        assert outcome.slo_attainment(strict) == 0.0

    def test_outcome_is_picklable(self, small_config):
        outcome = self.run_tiny(small_config)
        assert pickle.loads(pickle.dumps(outcome)) == outcome


class TestServingSpecOrchestration:
    def test_spec_is_hashable_and_picklable(self):
        spec = tiny_serving_spec()
        assert hash(spec) == hash(tiny_serving_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_parallel_equals_serial(self, small_config):
        specs = [tiny_serving_spec(), tiny_serving_spec(policy="qos_priority:interactive=1")]
        serial = dict(run_specs(small_config, specs, jobs=1))
        parallel = dict(run_specs(small_config, specs, jobs=2))
        assert serial == parallel

    def test_disk_cache_round_trip(self, small_config, tmp_path):
        cache = ResultCache(tmp_path / CACHE_DIR_NAME)
        spec = tiny_serving_spec()
        provider = ExperimentProvider(small_config, cache=cache)
        first = provider.run(spec)
        assert provider.stats.executed == 1
        rerun = ExperimentProvider(small_config, cache=cache)
        second = rerun.run(spec)
        assert rerun.stats.executed == 0
        assert rerun.stats.disk_hits == 1
        assert first == second

    def test_policy_is_part_of_the_cache_key(self):
        plain = tiny_serving_spec()
        qos = tiny_serving_spec(policy="qos_priority:interactive=1")
        assert repr(plain) != repr(qos)

    def test_registered_llm_scenarios_render(self, small_config):
        scenario = SCENARIOS["llm-serving-frfcfs"]
        assert scenario.family == "llm"
        assert len(scenario.specs) >= 2
        # Render from locally-run tiny specs (the registered ones target the
        # paper config and are exercised by the benchmark tier).
        spec = tiny_serving_spec()
        text = render_serving_table(scenario, [spec.run(small_config)])
        for column in ("tenant", "ttft_p99_us", "itl_p99_us", "slo_pct"):
            assert column in text
        assert "interactive" in text and "batch" in text


class TestRequestLevelResults:
    def record(self) -> RequestRecord:
        return RequestRecord(
            tenant="interactive",
            request_id=3,
            arrival_ns=100.0,
            first_token_ns=250.0,
            completion_ns=850.0,
            prompt_tokens=16,
            output_tokens=4,
        )

    def test_derived_latencies(self):
        record = self.record()
        assert record.ttft_ns == 150.0
        assert record.itl_ns == 200.0  # 600 ns over 3 decode gaps
        assert record.completed
        unfinished = RequestRecord(tenant="x", request_id=0, arrival_ns=0.0)
        assert unfinished.ttft_ns is None
        assert unfinished.itl_ns is None
        assert not unfinished.completed

    def test_v2_round_trip_preserves_records(self):
        result = RunResult(
            kind="serve",
            design_label="Base+D+H+P",
            requested_bytes=4 * KIB,
            start_ns=0.0,
            end_ns=1_000.0,
            request_records=(self.record(),),
        )
        assert result.schema_version == RUN_RESULT_SCHEMA_VERSION == 2
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.request_records == result.request_records
        assert rebuilt == result

    def test_v1_payload_loads_without_records(self):
        payload = RunResult(
            kind="transfer",
            design_label="Base+D+H+P",
            requested_bytes=KIB,
            start_ns=0.0,
            end_ns=10.0,
        ).to_dict()
        # Simulate a v1 producer: no request_records key at all.
        del payload["request_records"]
        payload["schema_version"] = 1
        rebuilt = RunResult.from_dict(payload)
        assert rebuilt.request_records == ()
        assert rebuilt.schema_version == 1

    def test_newer_schema_versions_are_rejected(self):
        payload = RunResult(
            kind="transfer", design_label="x", requested_bytes=1,
            start_ns=0.0, end_ns=1.0,
        ).to_dict()
        payload["schema_version"] = RUN_RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            RunResult.from_dict(payload)

    def test_results_with_records_pickle(self):
        result = RunResult(
            kind="serve", design_label="x", requested_bytes=1,
            start_ns=0.0, end_ns=1.0, request_records=(self.record(),),
        )
        assert pickle.loads(pickle.dumps(result)) == result


class TestSessionServeLlm:
    def test_serve_llm_returns_request_records(self, small_config):
        with Session.open(config=small_config) as session:
            result = session.serve_llm(
                ModelSpec.tiny(),
                tiny_tenants(),
                max_batch_size=4,
                kv_pool_bytes=64 * KIB,
            )
        assert result.kind == "serve"
        assert result.backend is None
        assert len(result.request_records) == 18
        assert all(record.completed for record in result.request_records)
        assert result.extra["iterations"] > 0
        assert result.extra["tokens_per_second"] > 0
        rebuilt = RunResult.from_dict(result.to_dict())
        assert rebuilt.request_records == result.request_records

    def test_serve_llm_is_isolated_from_session_state(self, small_config):
        with Session.open(config=small_config) as session:
            session.transfer(total_bytes=16 * KIB)
            first = session.serve_llm(
                ModelSpec.tiny(), tiny_tenants(),
                max_batch_size=4, kv_pool_bytes=64 * KIB,
            )
            second = session.serve_llm(
                ModelSpec.tiny(), tiny_tenants(),
                max_batch_size=4, kv_pool_bytes=64 * KIB,
            )
        assert first.request_records == second.request_records
        assert first.end_ns == second.end_ns
