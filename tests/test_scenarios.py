"""Tests for the multi-tenant scenario subsystem (tenants, registry, CLI)."""

from __future__ import annotations

import argparse
import pickle

import pytest

from repro.exp.cache import CACHE_DIR_NAME, ResultCache
from repro.exp.cli import main, parse_tenant
from repro.exp.runner import ExperimentProvider, run_specs
from repro.exp.spec import TransferSpec
from repro.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    TenantSpec,
    render_scenario,
    run_scenario,
    select_scenarios,
)
from repro.sim.config import DesignPoint, SystemConfig
from repro.transfer.descriptor import TransferDirection

KIB = 1024


def tiny_mix() -> ScenarioSpec:
    """A deliberately small two-tenant mix (sub-second on the test config)."""
    return ScenarioSpec(
        name="tiny-mix",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic("stream", "uniform", total_bytes=32 * KIB, mean_gap_ns=6.0),
            TenantSpec.synthetic("burst", "bursty", total_bytes=32 * KIB, mean_gap_ns=4.0),
        ),
    )


class TestTenantSpec:
    def test_kind_and_field_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="x", kind="quantum")
        with pytest.raises(ValueError):
            TenantSpec(name="", kind="memcpy", total_bytes=KIB)
        with pytest.raises(ValueError):
            TenantSpec(name="x", kind="transfer", total_bytes=0)
        with pytest.raises(ValueError):
            # trace tenants need exactly one of pattern / trace_path
            TenantSpec(name="x", kind="trace", total_bytes=KIB)
        with pytest.raises(ValueError):
            TenantSpec(name="x", kind="trace", total_bytes=KIB, pattern="fractal")
        with pytest.raises(ValueError):
            TenantSpec.transfer("x", KIB, start_offset_ns=-1.0)

    def test_prim_constructor_caps_input_volume(self):
        tenant = TenantSpec.prim("gemv", "GEMV", cap_bytes=256 * KIB)
        assert tenant.total_bytes == 256 * KIB
        assert tenant.prim_workload == "GEMV"
        assert tenant.kind == "transfer"
        assert "GEMV" in tenant.label

    def test_specs_are_hashable_and_picklable(self):
        spec = tiny_mix()
        assert hash(spec) == hash(tiny_mix())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_trace_file_tenant_digests_content(self, tmp_path):
        from repro.scenarios.trace import save_trace, synthesize_trace

        path = save_trace(
            synthesize_trace("uniform", total_bytes=4 * KIB), tmp_path / "t.jsonl"
        )
        first = TenantSpec.trace_file("replay", str(path))
        assert first.trace_digest is not None
        save_trace(synthesize_trace("skewed", total_bytes=4 * KIB), path)
        second = TenantSpec.trace_file("replay", str(path))
        assert first.trace_digest != second.trace_digest


class TestComposer:
    def test_single_transfer_tenant_matches_plain_transfer_spec(self, small_config):
        """The determinism anchor: a 1-tenant scenario is the plain experiment."""
        size = 64 * KIB
        for design_point in (DesignPoint.BASE_DHP, DesignPoint.BASELINE):
            expected = TransferSpec(
                design_point=design_point,
                direction=TransferDirection.DRAM_TO_PIM,
                total_bytes=size,
            ).run(small_config)
            outcome = ScenarioSpec(
                name="solo",
                design_point=design_point,
                tenants=(TenantSpec.transfer("xfer", size),),
            ).run(small_config)
            tenant = outcome.tenants[0]
            assert tenant.duration_ns == expected.duration_ns
            assert tenant.throughput_gbps == expected.throughput_gbps
            assert tenant.slowdown == 1.0

    def test_scenario_runs_are_deterministic(self, small_config):
        first = tiny_mix().run(small_config)
        second = tiny_mix().run(small_config)
        assert first == second

    def test_multi_tenant_contention_shows_up(self, small_config):
        outcome = tiny_mix().run(small_config)
        assert len(outcome.tenants) == 2
        for tenant in outcome.tenants:
            assert tenant.requests > 0
            assert tenant.p99_latency_ns >= tenant.p50_latency_ns > 0
            assert tenant.slowdown is not None and tenant.slowdown >= 1.0
            assert tenant.isolated_duration_ns is not None
        assert outcome.makespan_ns > 0
        assert outcome.aggregate_throughput_gbps > 0

    def test_start_offsets_delay_tenants(self, small_config):
        outcome = run_scenario(
            small_config,
            DesignPoint.BASE_DHP,
            [
                TenantSpec.synthetic("early", "uniform", total_bytes=16 * KIB),
                TenantSpec.synthetic(
                    "late", "uniform", total_bytes=16 * KIB, start_offset_ns=5_000.0
                ),
            ],
        )
        early, late = outcome.tenants
        assert early.start_ns == 0.0
        assert late.start_ns == 5_000.0

    def test_duplicate_tenant_names_are_rejected(self, small_config):
        with pytest.raises(ValueError):
            run_scenario(
                small_config,
                DesignPoint.BASE_DHP,
                [
                    TenantSpec.memcpy("twin", 16 * KIB),
                    TenantSpec.memcpy("twin", 16 * KIB),
                ],
            )

    def test_empty_scenario_is_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="none", design_point=DesignPoint.BASE_DHP, tenants=())

    def test_outcome_is_picklable(self, small_config):
        outcome = tiny_mix().run(small_config)
        assert pickle.loads(pickle.dumps(outcome)) == outcome


class TestOrchestrationIntegration:
    def test_parallel_equals_serial(self, small_config):
        specs = [
            tiny_mix(),
            ScenarioSpec(
                name="tiny-solo",
                design_point=DesignPoint.BASE_DHP,
                tenants=(TenantSpec.synthetic("solo", "skewed", total_bytes=32 * KIB),),
            ),
        ]
        serial = dict(run_specs(small_config, specs, jobs=1))
        parallel = dict(run_specs(small_config, specs, jobs=2))
        assert serial == parallel

    def test_disk_cache_round_trip(self, small_config, tmp_path):
        cache = ResultCache(tmp_path / CACHE_DIR_NAME)
        spec = tiny_mix()
        provider = ExperimentProvider(small_config, cache=cache)
        first = provider.run(spec)
        assert provider.stats.executed == 1
        rerun = ExperimentProvider(small_config, cache=cache)
        second = rerun.run(spec)
        assert rerun.stats.executed == 0
        assert rerun.stats.disk_hits == 1
        assert first == second


class TestRegistry:
    def test_at_least_five_scenarios_are_registered(self):
        assert len(SCENARIOS) >= 5
        for scenario in SCENARIOS.values():
            assert scenario.spec.tenants
            assert scenario.description
            assert scenario.filename.startswith("scenario_")

    def test_select_scenarios(self):
        assert select_scenarios() == list(SCENARIOS.values())
        assert select_scenarios(["prim-pair"])[0].name == "prim-pair"
        with pytest.raises(KeyError):
            select_scenarios(["does-not-exist"])

    def test_every_scenario_declares_a_family(self):
        families = {scenario.family for scenario in SCENARIOS.values()}
        assert "mix" in families and "llm" in families

    def test_select_scenarios_by_family(self):
        llm = select_scenarios(family="llm")
        assert llm and all(scenario.family == "llm" for scenario in llm)
        mix = select_scenarios(family="mix")
        assert {s.name for s in llm}.isdisjoint({s.name for s in mix})
        with pytest.raises(KeyError):
            select_scenarios(family="does-not-exist")
        with pytest.raises(KeyError):
            # Name exists but belongs to another family.
            select_scenarios(["prim-pair"], family="llm")

    def test_decorator_registration_single_and_tuple(self):
        from repro.scenarios.registry import register_scenario

        @register_scenario("tiny-reg-single", "tier-1 only", family="test")
        def _single():
            return tiny_mix()

        @register_scenario("tiny-reg-sweep", "tier-1 only", family="test")
        def _sweep():
            return (tiny_mix(), tiny_mix())

        try:
            single = SCENARIOS["tiny-reg-single"]
            assert single.specs == (tiny_mix(),)
            assert single.family == "test"
            assert single.filename == "scenario_tiny_reg_single.txt"
            sweep = SCENARIOS["tiny-reg-sweep"]
            assert len(sweep.specs) == 2
            # The decorator hands the factory back unchanged.
            assert _single() == tiny_mix()
        finally:
            SCENARIOS.pop("tiny-reg-single")
            SCENARIOS.pop("tiny-reg-sweep")

    def test_duplicate_registration_is_rejected(self):
        from repro.scenarios.registry import register_scenario

        with pytest.raises(ValueError):
            register_scenario("prim-pair", "clash", tiny_mix())

    def test_legacy_positional_registration_still_works(self):
        from repro.scenarios.registry import register_scenario

        scenario = register_scenario("tiny-reg-legacy", "tier-1 only", tiny_mix())
        try:
            assert SCENARIOS["tiny-reg-legacy"] is scenario
            assert scenario.family == "mix"
        finally:
            SCENARIOS.pop("tiny-reg-legacy")

    def test_render_contains_per_tenant_latency_and_slowdown(self, small_config):
        text = render_scenario(tiny_mix().run(small_config))
        for column in ("tenant", "p50_lat_ns", "p99_lat_ns", "slowdown", "throughput_gbps"):
            assert column in text
        assert "stream" in text and "burst" in text


class TestCli:
    def test_parse_tenant_forms(self):
        transfer = parse_tenant("transfer:64KiB:p2d")
        assert transfer.kind == "transfer"
        assert transfer.total_bytes == 64 * KIB
        assert transfer.direction is TransferDirection.PIM_TO_DRAM
        memcpy = parse_tenant("memcpy:1MiB")
        assert memcpy.kind == "memcpy" and memcpy.total_bytes == KIB * KIB
        prim = parse_tenant("prim:GEMV:128KiB")
        assert prim.prim_workload == "GEMV" and prim.total_bytes == 128 * KIB
        trace = parse_tenant("bursty:32KiB:+2500")
        assert trace.kind == "trace" and trace.pattern == "bursty"
        assert trace.start_offset_ns == 2500.0

    def test_parse_tenant_rejects_malformed_specs(self):
        for bad in ("transfer", "memcpy:lots", "prim:NOPE", "fractal:1KiB", "transfer:1KiB:up"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_tenant(bad)

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_scenarios_list_family_filter(self, capsys):
        assert main(["scenarios", "--list", "--family", "llm"]) == 0
        out = capsys.readouterr().out
        assert "llm-serving-frfcfs" in out
        assert "prim-pair" not in out

    def test_scenarios_rejects_unknown_family(self, capsys):
        assert main(["scenarios", "--family", "quantum"]) == 2
        assert "quantum" in capsys.readouterr().err

    def test_scenarios_rejects_name_outside_family(self, capsys):
        assert main(["scenarios", "prim-pair", "--family", "llm"]) == 2
        assert "prim-pair" in capsys.readouterr().err

    def test_scenarios_rejects_unknown_names(self, capsys):
        assert main(["scenarios", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scenarios_rejects_names_plus_adhoc(self, capsys):
        code = main(["scenarios", "prim-pair", "--tenants", "memcpy:64KiB"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_scenarios_small_config_refuses_default_results_dir(self, capsys):
        assert main(["scenarios", "solo-transfer", "--config", "small"]) == 2
        assert "--results-dir" in capsys.readouterr().err

    def test_adhoc_mix_end_to_end_with_cache(self, tmp_path, capsys):
        argv = [
            "scenarios",
            "--config",
            "small",
            "--tenants",
            "uniform:16KiB",
            "--tenants",
            "skewed:16KiB",
            "--results-dir",
            str(tmp_path / "results"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Scenario 'adhoc'" in first
        assert "t0-uniform" in first and "t1-skewed" in first
        assert "simulations executed: 1" in first
        # The rerun is served from the on-disk cache, byte-identically.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "disk-cache hits: 1" in second
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_no_isolated_applies_to_registered_scenarios(self, tmp_path, capsys):
        from repro.scenarios.registry import register_scenario

        register_scenario("tiny-test-mix", "tier-1 only", tiny_mix())
        try:
            assert (
                main(
                    [
                        "scenarios",
                        "tiny-test-mix",
                        "--config",
                        "small",
                        "--no-cache",
                        "--no-isolated",
                        "--results-dir",
                        str(tmp_path / "results"),
                    ]
                )
                == 0
            )
        finally:
            SCENARIOS.pop("tiny-test-mix")
        table = (tmp_path / "results" / "scenario_tiny_test_mix.txt").read_text()
        # No isolated baselines were run, so the slowdown column is empty.
        assert table.count(" - ") >= 2

    def test_trace_replay_tenant_from_file(self, tmp_path, capsys):
        from repro.scenarios.trace import save_trace, synthesize_trace

        path = save_trace(
            synthesize_trace("uniform", total_bytes=8 * KIB), tmp_path / "t.jsonl"
        )
        argv = [
            "scenarios",
            "--config",
            "small",
            "--no-cache",
            "--trace",
            str(path),
            "--results-dir",
            str(tmp_path / "results"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "t0-replay" in out
