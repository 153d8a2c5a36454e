"""Tests for the top-level PimSystem wiring."""

from __future__ import annotations

import pytest

from repro.mapping.system_mapper import DRAM_DOMAIN, PIM_DOMAIN
from repro.memctrl.request import MemoryRequest
from repro.sim.config import DesignPoint
from repro.system import build_mapper, build_system


class TestBuildSystem:
    def test_baseline_uses_homogeneous_mapping(self, paper_config):
        system = build_system(config=paper_config, design_point=DesignPoint.BASELINE)
        assert system.mapper.mapping_for(DRAM_DOMAIN).describe() == "Ch Ra Bg Bk Ro Co"

    def test_hetmap_design_points_use_mlp_dram_mapping(self, small_config):
        for point in (DesignPoint.BASE_DH, DesignPoint.BASE_DHP):
            system = build_system(config=small_config, design_point=point)
            assert "XOR" in system.mapper.mapping_for(DRAM_DOMAIN).describe()

    def test_base_d_keeps_homogeneous_mapping(self, paper_config):
        mapper = build_mapper(paper_config, DesignPoint.BASE_D)
        assert mapper.mapping_for(DRAM_DOMAIN).describe() == "Ch Ra Bg Bk Ro Co"

    def test_default_config_is_table1(self):
        system = build_system()
        assert system.topology.num_dpus == 512
        assert len(system.dram.controllers) == 4
        assert len(system.pim.controllers) == 4

    def test_small_system_topology(self, small_config):
        system = build_system(config=small_config)
        assert system.topology.num_dpus == 32
        assert len(system.dram.controllers) == 2


class TestSubmitAndDecode:
    def test_submit_routes_to_dram_and_pim(self, small_config):
        system = build_system(config=small_config)
        done = []
        dram_req = MemoryRequest(phys_addr=0, is_write=False, on_complete=lambda r: done.append(r))
        pim_req = MemoryRequest(
            phys_addr=system.partition.pim_base,
            is_write=True,
            on_complete=lambda r: done.append(r),
        )
        assert system.submit(dram_req)
        assert system.submit(pim_req)
        system.engine.run()
        assert dram_req.domain == DRAM_DOMAIN
        assert pim_req.domain == PIM_DOMAIN
        assert len(done) == 2
        assert system.is_memory_idle()

    def test_predecoded_request_is_not_redecoded(self, small_config):
        system = build_system(config=small_config)
        request = MemoryRequest(phys_addr=0, is_write=False)
        domain, dram_addr = system.decode(0)
        request.domain, request.dram_addr = domain, dram_addr
        assert system.submit(request)

    def test_retry_when_possible(self, small_config):
        system = build_system(config=small_config)
        # Fill one controller's read queue, then register a retry callback.
        depth = small_config.memctrl.read_queue_depth
        for index in range(depth):
            assert system.submit(MemoryRequest(phys_addr=index * 64, is_write=False))
        blocked = MemoryRequest(phys_addr=depth * 64, is_write=False)
        # Under the locality mapping every address above targets channel 0, so
        # the queue is now full.
        assert not system.submit(blocked)
        woken = []
        system.retry_when_possible(blocked, lambda: woken.append(system.now))
        system.engine.run()
        assert len(woken) == 1

    def test_pim_heap_addr_is_in_pim_region(self, small_config):
        system = build_system(config=small_config)
        addr = system.pim_heap_addr(3, 4096)
        assert system.partition.is_pim(addr)
        domain, decoded = system.decode(addr)
        assert domain == PIM_DOMAIN
        assert system.topology.dpu_for_bank(decoded) == 3

    def test_unknown_domain_rejected(self, small_config):
        system = build_system(config=small_config)
        with pytest.raises(ValueError):
            system.domain_system("flash")


class TestTraceHooks:
    def _hook(self):
        captured = []
        return captured, lambda request, now: captured.append((request, now))

    def test_attach_returns_a_detach_handle(self, small_config):
        system = build_system(config=small_config)
        captured, hook = self._hook()
        handle = system.attach_trace_hook(hook)
        assert handle.attached
        assert system.submit(MemoryRequest(phys_addr=0, is_write=False))
        assert len(captured) == 1
        handle.detach()
        assert not handle.attached
        assert system.submit(MemoryRequest(phys_addr=64, is_write=False))
        assert len(captured) == 1

    def test_detach_is_idempotent(self, small_config):
        system = build_system(config=small_config)
        _, hook = self._hook()
        handle = system.attach_trace_hook(hook)
        handle.detach()
        handle.detach()  # raise-free on double-detach (satellite)
        system.detach_trace_hook(hook)  # and on the direct API too

    def test_detaching_an_unknown_hook_is_a_no_op(self, small_config):
        system = build_system(config=small_config)
        system.detach_trace_hook(lambda request, now: None)


class TestResetState:
    def test_reset_rewinds_the_clock_and_clears_state(self, small_config):
        system = build_system(config=small_config)
        assert system.submit(MemoryRequest(phys_addr=0, is_write=False))
        system.engine.run()
        assert system.now > 0
        system.reset_state()
        assert system.now == 0.0
        assert len(system.engine) == 0
        assert system.dram.read_bytes() == 0  # stats were reset too

    def test_reset_refuses_requests_in_flight(self, small_config):
        system = build_system(config=small_config)
        assert system.submit(MemoryRequest(phys_addr=0, is_write=False))
        with pytest.raises(RuntimeError, match="in flight"):
            system.reset_state()

    def test_reset_refuses_issued_but_unfinished_requests(self, small_config):
        system = build_system(config=small_config)
        finished = []
        request = MemoryRequest(phys_addr=0, is_write=False, on_complete=finished.append)
        assert system.submit(request)
        while request.issue_ns is None:
            assert system.engine.step()
        # The queues are empty again, but the completion has not fired.
        assert not system.is_memory_idle()
        with pytest.raises(RuntimeError, match="in flight"):
            system.reset_state()
        system.engine.run()
        assert finished == [request]
        assert system.is_memory_idle()

    def test_back_to_back_requests_are_bit_identical_to_fresh(self, small_config):
        def burst(system):
            finished = []
            for index in range(32):
                assert system.submit(
                    MemoryRequest(
                        phys_addr=index * 64,
                        is_write=False,
                        on_complete=lambda r: finished.append((r.issue_ns, r.latency_ns)),
                    )
                )
            system.engine.run()
            return finished

        system = build_system(config=small_config)
        first = burst(system)
        system.reset_state()
        second = burst(system)
        fresh = burst(build_system(config=small_config))
        assert first == fresh
        assert second == fresh

    def test_trace_hooks_survive_reset(self, small_config):
        system = build_system(config=small_config)
        captured = []
        system.attach_trace_hook(lambda request, now: captured.append(now))
        assert system.submit(MemoryRequest(phys_addr=0, is_write=False))
        system.engine.run()
        system.reset_state()
        assert system.submit(MemoryRequest(phys_addr=0, is_write=False))
        assert len(captured) == 2
