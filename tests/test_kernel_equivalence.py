"""Scheduler-pick and determinism checks for the channel controller.

The controller finds its FR-FCFS pick through an indexed queue
(:class:`~repro.memctrl.queues.IndexedQueue`) instead of the seed's
front-to-back scan.  These tests enforce that this changes nothing but cost:

* the indexed pick equals a literal reimplementation of the seed's linear
  scan, including on a 10k-deep queue (the seed's O(n^2) regression case);
* the cost of one pick does not grow with queue depth; and
* ``reset_state()`` keeps back-to-back runs bit-identical.
"""

from __future__ import annotations

import sys

import pytest

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.mapping.mlp import mlp_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.policies import FrFcfsPolicy
from repro.memctrl.request import MemoryRequest
from repro.sim.config import DesignPoint, MemCtrlConfig, MemoryDomainConfig, SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry
from repro.system import build_system
from repro.transfer.descriptor import TransferDirection
from repro.workloads.microbench import run_transfer_experiment_on

KIB = 1024
GEOMETRY = MemoryDomainConfig.paper_dram()


class ReferenceLinearScan(FrFcfsPolicy):
    """Literal reimplementation of the seed's front-to-back FR-FCFS scan."""

    def select(self, queue, channel):
        for request in queue.requests():
            if channel.row_state(request.dram_addr) == "hit":
                return request
        return queue.first()


def build_controller(depth, policy=None):
    """A bare controller with ``depth``-deep queues, optionally on ``policy``."""
    engine = SimulationEngine()
    config = MemCtrlConfig(read_queue_depth=depth, write_queue_depth=depth)
    controller = ChannelController(
        engine, DdrChannel(GEOMETRY, 0), config, StatsRegistry(), name="eq/ch0"
    )
    if policy is not None:
        # Every pick then goes through ``policy.select`` instead of the
        # controller's inlined FR-FCFS scan.
        controller.policy = policy
        controller._frfcfs_fast = False
    return engine, controller


class TestIndexedPickEqualsLinearScan:
    def _run(self, requests_factory, policy=None, depth=64):
        engine, controller = build_controller(depth, policy)
        order = []
        for request in requests_factory(lambda r: order.append(r.phys_addr)):
            assert controller.enqueue(request)
        engine.run()
        assert controller.is_idle()
        return order

    def test_10k_deep_queue_matches_reference_scan(self):
        """Regression: deep queues must schedule exactly like the seed scan.

        The seed's ``_pick_request`` walked the whole queue per decision --
        O(n^2) over a 10k-deep drain.  The indexed pick must produce the
        identical service order at O(banks) per decision.
        """
        mapping = locality_centric_mapping(GEOMETRY)
        row_bytes = GEOMETRY.row_size_bytes

        def build(on_complete):
            requests = []
            for index in range(10_000):
                # Conflict-heavy: rotate rows within a handful of banks so the
                # seed path re-scans deep queues on almost every pick.
                phys = (index % 8) * (4 * row_bytes) + (index // 8 % 4) * row_bytes + (
                    index // 32
                ) * 64
                request = MemoryRequest(phys_addr=phys, is_write=False,
                                        on_complete=on_complete)
                request.domain = "dram"
                request.dram_addr = mapping.map(phys)
                requests.append(request)
            return requests

        indexed = self._run(build, depth=10_000)
        reference = self._run(build, policy=ReferenceLinearScan(), depth=10_000)
        assert indexed == reference

    def test_mlp_mapping_matches_reference_scan(self):
        mapping = mlp_centric_mapping(GEOMETRY)

        def build(on_complete):
            requests = []
            for index in range(2_000):
                phys = (index * 7919) % (1 << 22)
                phys -= phys % 64
                request = MemoryRequest(
                    phys_addr=phys, is_write=index % 3 == 0, on_complete=on_complete
                )
                request.domain = "dram"
                request.dram_addr = mapping.map(phys)
                requests.append(request)
            return requests

        assert self._run(build, depth=2_000) == self._run(
            build, policy=ReferenceLinearScan(), depth=2_000
        )


class TestPickCostIsFlatInDepth:
    """The cost of a scheduler pick must not grow with queue depth.

    Drains row-conflicting traffic (eight banks, a new row every eighth
    request) through one controller and counts the Python lines executed
    per served request with ``sys.settrace``: a deterministic measure of
    work, unlike host time.  The indexed pick costs about 243 lines per
    request at every depth; the seed's linear scan (``ReferenceLinearScan``)
    costs 1,463 at depth 512 and 5,109 at depth 4096.
    """

    @staticmethod
    def lines_per_request(depth, policy=None):
        engine, controller = build_controller(depth, policy)
        mapping = locality_centric_mapping(GEOMETRY)
        row_bytes = GEOMETRY.row_size_bytes
        for index in range(depth):
            phys = (index % 8) * 4 * row_bytes + (index // 8) * row_bytes
            request = MemoryRequest(phys_addr=phys, is_write=False)
            request.domain = "dram"
            request.dram_addr = mapping.map(phys)
            assert controller.enqueue(request)
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        previous = sys.gettrace()
        sys.settrace(count_lines)
        try:
            engine.run()
        finally:
            sys.settrace(previous)
        assert controller._served.value == depth
        assert controller.is_idle()
        return lines / depth

    def test_4096_deep_drain_costs_what_a_512_deep_one_does(self):
        shallow = self.lines_per_request(512)
        deep = self.lines_per_request(4096)
        assert deep == pytest.approx(shallow, rel=0.05), (shallow, deep)


class TestDeterminism:
    def test_reset_state_keeps_runs_bit_identical(self):
        system = build_system(
            config=SystemConfig.small_test(), design_point=DesignPoint.BASE_DHP
        )
        outcomes = []
        for _ in range(3):
            experiment = run_transfer_experiment_on(
                system, TransferDirection.DRAM_TO_PIM, 64 * KIB, sim_cap_bytes=64 * KIB
            )
            outcomes.append(
                (experiment.result.start_ns, experiment.result.end_ns,
                 system.stats.snapshot())
            )
            system.reset_state()
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestSlots:
    def test_memory_request_rejects_stray_attributes(self):
        request = MemoryRequest(phys_addr=0, is_write=False)
        with pytest.raises(AttributeError):
            request.totally_new_field = 1

    def test_event_rejects_stray_attributes(self):
        from repro.sim.engine import Event

        event = Event(time=1.0, sequence=0, callback=lambda: None)
        with pytest.raises(AttributeError):
            event.backpointer = object()

    def test_descriptor_rejects_stray_attributes(self):
        from repro.transfer.descriptor import TransferDescriptor

        descriptor = TransferDescriptor.contiguous(
            TransferDirection.DRAM_TO_PIM, dram_base=0,
            size_per_core_bytes=64, pim_core_ids=(0,),
        )
        # On Python 3.11 a frozen+slots dataclass raises TypeError from the
        # generated __setattr__ (the pre-slots class leaks into its super()
        # call); 3.12+ raises FrozenInstanceError (an AttributeError).  Either
        # way stray writes fail loudly.
        with pytest.raises((AttributeError, TypeError)):
            descriptor.scratch = "nope"
