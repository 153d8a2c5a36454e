"""Tests for the pluggable memory-scheduler policy layer."""

from __future__ import annotations

import pytest

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.policies import (
    FcfsPolicy,
    FrFcfsCapPolicy,
    FrFcfsPolicy,
    QosPriorityPolicy,
    available_policies,
    create_policy,
    normalize_policy_name,
    parse_policy_spec,
    parse_qos_priorities,
)
from repro.memctrl.request import MemoryRequest
from repro.registry import Variants
from repro.sim.config import DesignPoint, MemCtrlConfig, MemoryDomainConfig, SystemConfig

GEOMETRY = MemoryDomainConfig.paper_dram()


# --------------------------------------------------------------- registry
class TestRegistry:
    def test_all_four_policies_registered(self):
        assert available_policies() == ["fcfs", "frfcfs", "frfcfs_cap", "qos_priority"]

    def test_config_default_spelling_resolves(self):
        # Table I spells the default "FR-FCFS"; the registry normalises it.
        assert normalize_policy_name(MemCtrlConfig().policy) == "frfcfs"
        assert isinstance(create_policy("FR-FCFS"), FrFcfsPolicy)

    def test_parse_spec_with_args(self):
        assert parse_policy_spec("frfcfs_cap:8") == ("frfcfs_cap", "8")
        assert parse_policy_spec("FCFS") == ("fcfs", None)

    def test_create_with_arguments(self):
        assert isinstance(create_policy("fcfs"), FcfsPolicy)
        policy = create_policy("frfcfs_cap:8")
        assert isinstance(policy, FrFcfsCapPolicy)
        assert policy.cap == 8
        qos = create_policy("qos_priority:a=2,b=1")
        assert isinstance(qos, QosPriorityPolicy)
        assert qos.priorities == {"a": 2, "b": 1}

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            create_policy("round-robin")

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            create_policy("frfcfs_cap:often")
        with pytest.raises(ValueError):
            create_policy("fcfs:3")
        with pytest.raises(ValueError):
            create_policy("qos_priority:broken")

    def test_parse_qos_priorities(self):
        assert parse_qos_priorities(None) == {}
        assert parse_qos_priorities("x=1, y=0") == {"x": 1, "y": 0}


# ------------------------------------------------------------ controller use
def make_controller(engine, stats, policy: str, **kwargs):
    config = MemCtrlConfig(policy=policy, **kwargs)
    return ChannelController(
        engine, DdrChannel(GEOMETRY, 0), config, stats, name="test/ch0"
    )


def decoded(mapping, phys_addr, is_write=False, tenant=None, on_complete=None):
    request = MemoryRequest(
        phys_addr=phys_addr, is_write=is_write, tenant=tenant, on_complete=on_complete
    )
    request.domain = "dram"
    request.dram_addr = mapping.map(phys_addr)
    return request


class TestPolicyBehaviour:
    def test_fcfs_ignores_row_hits(self, engine, stats):
        controller = make_controller(engine, stats, "fcfs")
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        controller.enqueue(decoded(mapping, 0, on_complete=lambda r: order.append("warm")))
        engine.run()
        conflict_addr = GEOMETRY.row_size_bytes * 8
        controller.enqueue(
            decoded(mapping, conflict_addr, on_complete=lambda r: order.append("conflict"))
        )
        controller.enqueue(decoded(mapping, 64, on_complete=lambda r: order.append("hit")))
        engine.run()
        # Unlike FR-FCFS, strict arrival order is preserved.
        assert order == ["warm", "conflict", "hit"]

    def test_frfcfs_cap_limits_row_hit_streaks(self, engine, stats):
        controller = make_controller(engine, stats, "frfcfs_cap:2")
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        controller.enqueue(decoded(mapping, 0, on_complete=lambda r: order.append("warm")))
        engine.run()
        # One conflicting request followed by a stream of row hits: under
        # plain FR-FCFS the conflict would wait behind every hit; with a cap
        # of 2 it is served after at most two consecutive hits.
        conflict_addr = GEOMETRY.row_size_bytes * 8
        controller.enqueue(
            decoded(mapping, conflict_addr, on_complete=lambda r: order.append("conflict"))
        )
        for index in range(6):
            controller.enqueue(
                decoded(mapping, 64 + index * 64, on_complete=lambda r, i=index: order.append(f"hit{i}"))
            )
        engine.run()
        assert order[0] == "warm"
        position = order.index("conflict")
        assert position <= 3, order  # warm + at most two capped hits first

    def test_qos_priority_preempts_lower_class(self, engine, stats):
        controller = make_controller(engine, stats, "qos_priority:vip=1")
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        controller.enqueue(decoded(mapping, 0, on_complete=lambda r: order.append("warm")))
        engine.run()
        # Bulk row hits arrive first; a VIP conflict arrives last but must be
        # served before the remaining bulk requests.
        for index in range(4):
            controller.enqueue(
                decoded(mapping, 64 + index * 64, tenant="bulk",
                        on_complete=lambda r, i=index: order.append(f"bulk{i}"))
            )
        vip_addr = GEOMETRY.row_size_bytes * 8
        controller.enqueue(
            decoded(mapping, vip_addr, tenant="vip", on_complete=lambda r: order.append("vip"))
        )
        engine.run()
        assert order[0] == "warm"
        # The first post-warm decision happens before the VIP request arrived
        # (all submits are at t=0 but service decisions interleave), so allow
        # one bulk request ahead of it.
        assert order.index("vip") <= 2, order

    def test_qos_falls_back_to_frfcfs_within_class(self, engine, stats):
        controller = make_controller(engine, stats, "qos_priority:")
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        controller.enqueue(decoded(mapping, 0, on_complete=lambda r: order.append("warm")))
        engine.run()
        conflict_addr = GEOMETRY.row_size_bytes * 8
        controller.enqueue(
            decoded(mapping, conflict_addr, on_complete=lambda r: order.append("conflict"))
        )
        controller.enqueue(decoded(mapping, 64, on_complete=lambda r: order.append("hit")))
        engine.run()
        assert order == ["warm", "hit", "conflict"]

    def test_reset_clears_policy_state(self, engine, stats):
        controller = make_controller(engine, stats, "qos_priority:vip=1")
        mapping = locality_centric_mapping(GEOMETRY)
        controller.enqueue(decoded(mapping, 0, tenant="vip"))
        engine.run()
        controller.reset()
        engine.reset()
        assert controller.policy._classes == {}
        # The controller accepts traffic again after the reset.
        assert controller.enqueue(decoded(mapping, 64))
        engine.run()
        assert controller.is_idle()


# ------------------------------------------------------------ knob threading
class TestPolicyKnob:
    def test_session_policy_knob(self):
        from repro.api import Session

        with Session.open(
            config=SystemConfig.small_test(),
            design_point=DesignPoint.BASE_DHP,
            variants=Variants(policy="frfcfs_cap:2"),
        ) as session:
            assert session.config.memctrl.policy == "frfcfs_cap:2"
            result = session.transfer(total_bytes=64 * 1024)
            assert result.requested_bytes > 0
            for memory in (session.system.dram, session.system.pim):
                for controller in memory.controllers:
                    assert isinstance(controller.policy, FrFcfsCapPolicy)

    def test_session_rejects_unknown_policy(self):
        from repro.api import Session

        with pytest.raises(KeyError):
            Session.open(
                config=SystemConfig.small_test(),
                variants=Variants(policy="does-not-exist"),
            )

    def test_builder_policy(self):
        from repro.api import Session

        session = Session.builder().small().policy("fcfs").open()
        assert session.config.memctrl.policy == "fcfs"
        session.close()

    def test_transfer_spec_policy(self):
        from repro.exp.spec import TransferSpec
        from repro.transfer.descriptor import TransferDirection

        spec = TransferSpec(
            design_point=DesignPoint.BASE_DHP,
            direction=TransferDirection.DRAM_TO_PIM,
            total_bytes=64 * 1024,
            memctrl_policy="fcfs",
        )
        experiment = spec.run(SystemConfig.small_test())
        assert experiment.throughput_gbps > 0
        # The policy changes scheduling decisions, so fcfs must differ from
        # the default FR-FCFS result on a conflict-heavy workload.
        default = TransferSpec(
            design_point=DesignPoint.BASE_DHP,
            direction=TransferDirection.DRAM_TO_PIM,
            total_bytes=64 * 1024,
        ).run(SystemConfig.small_test())
        assert default.result.end_ns <= experiment.result.end_ns

    def test_cli_policy_parsing(self):
        from repro.exp.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--policy", "frfcfs_cap:8", "--size", "64KiB"]
        )
        assert args.policy == "frfcfs_cap:8"

    def test_qos_priority_mixed_read_write_queues(self, engine, stats):
        """Regression: class buckets are per direction.

        A high-priority WRITE must never be returned when the controller asked
        the policy to pick from the READ queue (that crashed with a KeyError
        before the per-direction buckets).
        """
        controller = make_controller(engine, stats, "qos_priority:vip=1")
        mapping = locality_centric_mapping(GEOMETRY)
        completed = []
        controller.enqueue(
            decoded(mapping, 0, tenant="bulk",
                    on_complete=lambda r: completed.append("read"))
        )
        controller.enqueue(
            decoded(mapping, 4096, is_write=True, tenant="vip",
                    on_complete=lambda r: completed.append("write"))
        )
        engine.run()
        assert sorted(completed) == ["read", "write"]
        assert controller.is_idle()

    def test_qos_priority_mixed_traffic_scenario_completes(self):
        """A qos_priority mix with write-heavy tenants runs to completion."""
        from repro.scenarios.registry import ScenarioSpec
        from repro.scenarios.tenant import TenantSpec

        spec = ScenarioSpec(
            name="qos-writes",
            design_point=DesignPoint.BASE_DHP,
            tenants=(
                TenantSpec.synthetic("lat", "uniform", total_bytes=16 * 1024,
                                     mean_gap_ns=20.0, write_fraction=0.5),
                TenantSpec.synthetic("bulk", "uniform", total_bytes=64 * 1024,
                                     mean_gap_ns=4.0, write_fraction=0.5, seed=1),
            ),
            include_isolated=False,
            memctrl_policy="qos_priority:lat=1",
        )
        outcome = spec.run(SystemConfig.small_test())
        assert len(outcome.tenants) == 2
