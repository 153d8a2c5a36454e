"""Tests for the FR-FCFS channel controller and the per-domain memory system."""

from __future__ import annotations

import pytest

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.mapping.mlp import mlp_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest, RequestStream
from repro.memctrl.system import MemorySystem
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig

GEOMETRY = MemoryDomainConfig.paper_dram()


def make_controller(engine, stats, **kwargs):
    config = MemCtrlConfig(**kwargs) if kwargs else MemCtrlConfig()
    channel = DdrChannel(GEOMETRY, 0)
    return ChannelController(engine, channel, config, stats, name="test/ch0")


def decoded_request(mapping, phys_addr, is_write=False, on_complete=None):
    request = MemoryRequest(
        phys_addr=phys_addr,
        is_write=is_write,
        stream=RequestStream.OTHER,
        on_complete=on_complete,
    )
    request.domain = "dram"
    request.dram_addr = mapping.map(phys_addr)
    return request


class TestChannelController:
    def test_requests_complete_with_callbacks(self, engine, stats):
        controller = make_controller(engine, stats)
        mapping = locality_centric_mapping(GEOMETRY)
        completed = []
        for index in range(4):
            request = decoded_request(
                mapping, index * 64, on_complete=lambda req: completed.append(req)
            )
            assert controller.enqueue(request)
        engine.run()
        assert len(completed) == 4
        assert all(req.completion_ns is not None for req in completed)
        assert controller.read_bytes == 4 * 64

    def test_queue_depth_enforced(self, engine, stats):
        controller = make_controller(engine, stats, read_queue_depth=2, write_queue_depth=2)
        mapping = locality_centric_mapping(GEOMETRY)
        assert controller.enqueue(decoded_request(mapping, 0))
        assert controller.enqueue(decoded_request(mapping, 64))
        assert not controller.enqueue(decoded_request(mapping, 128))
        assert not controller.can_accept(is_write=False)
        assert controller.can_accept(is_write=True)

    def test_slot_listener_fires_after_service(self, engine, stats):
        controller = make_controller(engine, stats, read_queue_depth=1)
        mapping = locality_centric_mapping(GEOMETRY)
        controller.enqueue(decoded_request(mapping, 0))
        woken = []
        controller.add_slot_listener(lambda: woken.append(engine.now))
        engine.run()
        assert len(woken) == 1

    def test_fr_fcfs_prioritises_row_hits(self, engine, stats):
        controller = make_controller(engine, stats)
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        # Open row 0 with the first request, then enqueue a conflicting row
        # followed by another row-0 hit: the hit should be served first.
        controller.enqueue(decoded_request(mapping, 0, on_complete=lambda r: order.append("warm")))
        engine.run()
        conflict_addr = GEOMETRY.row_size_bytes * 8
        controller.enqueue(
            decoded_request(mapping, conflict_addr, on_complete=lambda r: order.append("conflict"))
        )
        controller.enqueue(decoded_request(mapping, 64, on_complete=lambda r: order.append("hit")))
        engine.run()
        assert order == ["warm", "hit", "conflict"]

    def test_reads_prioritised_over_writes_until_watermark(self, engine, stats):
        controller = make_controller(
            engine, stats, write_high_watermark=4, write_low_watermark=1
        )
        mapping = locality_centric_mapping(GEOMETRY)
        order = []
        for index in range(3):
            controller.enqueue(
                decoded_request(
                    mapping, 4096 + index * 64, is_write=True,
                    on_complete=lambda r, i=index: order.append(("w", i)),
                )
            )
        controller.enqueue(
            decoded_request(mapping, 0, on_complete=lambda r: order.append(("r", 0)))
        )
        engine.run()
        assert order[0] == ("r", 0)

    def test_write_drain_mode_kicks_in_at_high_watermark(self, engine, stats):
        controller = make_controller(
            engine, stats, write_high_watermark=2, write_low_watermark=0
        )
        mapping = locality_centric_mapping(GEOMETRY)
        completed = []
        for index in range(4):
            controller.enqueue(
                decoded_request(
                    mapping, index * 64, is_write=True,
                    on_complete=lambda r, i=index: completed.append(i),
                )
            )
        engine.run()
        assert len(completed) == 4
        assert controller.write_bytes == 4 * 64

    def test_latency_histogram_collected(self, engine, stats):
        controller = make_controller(engine, stats)
        mapping = locality_centric_mapping(GEOMETRY)
        controller.enqueue(decoded_request(mapping, 0))
        engine.run()
        histogram = stats.histogram("test/ch0/latency_ns")
        assert histogram.count == 1
        assert histogram.mean > 0

    def test_is_idle(self, engine, stats):
        controller = make_controller(engine, stats)
        mapping = locality_centric_mapping(GEOMETRY)
        assert controller.is_idle()
        request = decoded_request(mapping, 0)
        controller.enqueue(request)
        assert not controller.is_idle()
        # Issued, queues empty, completion still pending: not idle yet.
        while request.issue_ns is None:
            assert engine.step()
        assert request.completion_ns is None
        assert not controller.is_idle()
        engine.run()
        assert request.completion_ns is not None
        assert controller.is_idle()


class TestMemorySystem:
    def test_routes_by_decoded_channel(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        mapping = mlp_centric_mapping(GEOMETRY, enable_xor_hash=False)
        finished = []
        for index in range(GEOMETRY.channels):
            request = decoded_request(mapping, index * 64, on_complete=lambda r: finished.append(r))
            assert system.submit(request)
        engine.run()
        assert len(finished) == GEOMETRY.channels
        per_channel = system.per_channel_bytes("read")
        assert all(count == 64 for count in per_channel.values())

    def test_undecoded_request_rejected(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        with pytest.raises(ValueError):
            system.submit(MemoryRequest(phys_addr=0, is_write=False))

    def test_bandwidth_utilization(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        mapping = mlp_centric_mapping(GEOMETRY)
        for index in range(64):
            system.submit(decoded_request(mapping, index * 64))
        engine.run()
        assert system.total_bytes() == 64 * 64
        assert 0.0 < system.bandwidth_utilization(elapsed_ns=1000.0) <= 1.0

    def test_per_channel_direction_validation(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        with pytest.raises(ValueError):
            system.per_channel_bytes("sideways")

    def test_queue_occupancies_reflect_pending_requests(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        mapping = locality_centric_mapping(GEOMETRY)
        occupancies = system.queue_occupancies()
        assert set(occupancies) == set(range(GEOMETRY.channels))
        assert all(entry == {"read": 0, "write": 0} for entry in occupancies.values())
        # Locality-centric mapping keeps consecutive lines on one channel.
        system.submit(decoded_request(mapping, 0))
        system.submit(decoded_request(mapping, 64))
        system.submit(decoded_request(mapping, 128, is_write=True))
        busy = system.queue_occupancies()
        assert sum(entry["read"] for entry in busy.values()) == 2
        assert sum(entry["write"] for entry in busy.values()) == 1
        engine.run()
        drained = system.queue_occupancies()
        assert all(entry == {"read": 0, "write": 0} for entry in drained.values())

    def test_per_tenant_latency_and_bytes_are_bucketed(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        mapping = locality_centric_mapping(GEOMETRY)
        for index, tenant in enumerate(("a", "a", "b", None)):
            request = decoded_request(mapping, index * 64)
            request.tenant = tenant
            assert system.submit(request)
        engine.run()
        assert stats.histogram("tenant/a/latency_ns").count == 2
        assert stats.histogram("tenant/b/latency_ns").count == 1
        assert stats.counter("tenant/a/bytes").value == 128
        assert stats.counter("tenant/b/bytes").value == 64
        assert "tenant/None/latency_ns" not in stats.histograms

    def test_is_idle_tracks_all_controllers(self, engine, stats):
        system = MemorySystem(engine, GEOMETRY, MemCtrlConfig(), stats, name="dram")
        mapping = locality_centric_mapping(GEOMETRY)
        assert system.is_idle()
        system.submit(decoded_request(mapping, 0))
        assert not system.is_idle()
        engine.run()
        assert system.is_idle()
