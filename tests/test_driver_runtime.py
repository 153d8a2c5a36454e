"""Tests for the MMIO device driver model and the user-level PIM-MMU runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dce import DataCopyEngine
from repro.core.driver import (
    PimMmuDevice,
    REG_COMPLETED_OPS,
    REG_DESCRIPTOR_COUNT,
    REG_DOORBELL,
    REG_STATUS,
    STATUS_IDLE,
)
from repro.core.runtime import PimMmuOp, PimMmuRuntime
from repro.pim.transpose import transpose_for_pim
from repro.sim.config import DcePolicy, DesignPoint
from repro.system import build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection


def make_device(system) -> PimMmuDevice:
    return PimMmuDevice(dce=DataCopyEngine(system, policy=DcePolicy.PIM_MS))


def descriptor_for(cores=4, size_per_core=256):
    return TransferDescriptor.contiguous(
        TransferDirection.DRAM_TO_PIM,
        dram_base=0,
        size_per_core_bytes=size_per_core,
        pim_core_ids=list(range(cores)),
    )


class TestPimMmuDevice:
    def test_register_defaults(self, small_config):
        device = make_device(build_system(config=small_config, design_point=DesignPoint.BASE_DHP))
        assert device.mmio_read(REG_STATUS) == STATUS_IDLE
        assert device.mmio_read(REG_COMPLETED_OPS) == 0
        assert not device.is_busy

    def test_unmapped_register_rejected(self, small_config):
        device = make_device(build_system(config=small_config, design_point=DesignPoint.BASE_DHP))
        with pytest.raises(ValueError):
            device.mmio_read(0xFF)
        with pytest.raises(ValueError):
            device.mmio_write(0xFF, 1)

    def test_submit_updates_registers_and_raises_interrupt(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        device = make_device(system)
        interrupts = []
        device.register_interrupt_handler(lambda result: interrupts.append(result))
        descriptor = descriptor_for()
        result = device.submit(descriptor)
        assert device.mmio_read(REG_DOORBELL) == 1
        assert device.mmio_read(REG_COMPLETED_OPS) == 1
        assert device.mmio_read(REG_DESCRIPTOR_COUNT) == descriptor.num_cores
        assert device.mmio_read(REG_STATUS) == STATUS_IDLE
        assert interrupts == [result]
        assert device.last_result is result

    def test_multiple_submissions_accumulate(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        device = make_device(system)
        device.submit(descriptor_for())
        device.submit(descriptor_for())
        assert device.completed_ops == 2
        assert device.mmio_read(REG_DOORBELL) == 2


class TestPimMmuOp:
    def test_mirrors_figure10_fields(self):
        op = PimMmuOp(
            type=TransferDirection.DRAM_TO_PIM,
            size_per_pim=4096,
            dram_addr_arr=(0, 4096),
            pim_id_arr=(0, 1),
            pim_base_heap_ptr=128,
        )
        descriptor = op.to_descriptor()
        assert descriptor.size_per_core_bytes == 4096
        assert descriptor.pim_heap_offset == 128
        assert descriptor.pim_core_ids == (0, 1)

    def test_invalid_op_rejected_at_descriptor_build(self):
        op = PimMmuOp(
            type=TransferDirection.DRAM_TO_PIM,
            size_per_pim=100,  # not 64 B aligned
            dram_addr_arr=(0,),
            pim_id_arr=(0,),
        )
        with pytest.raises(ValueError):
            op.to_descriptor()


class TestPimMmuRuntime:
    def test_build_contiguous_op_allocates_dram(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        runtime = PimMmuRuntime(system)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM, size_per_pim=256, pim_core_ids=range(4)
        )
        assert len(op.dram_addr_arr) == 4
        assert op.dram_addr_arr[1] - op.dram_addr_arr[0] == 256

    def test_transfer_records_results(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        runtime = PimMmuRuntime(system)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM, size_per_pim=512, pim_core_ids=range(8)
        )
        result = runtime.pim_mmu_transfer(op)
        assert result.design_label == "Base+D+H+P"
        assert runtime.results == [result]
        assert result.pim_write_bytes == 8 * 512

    def test_functional_roundtrip(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        runtime = PimMmuRuntime(system)
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=4 * 512, dtype=np.uint8)
        push = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM, size_per_pim=512, pim_core_ids=range(4)
        )
        runtime.pim_mmu_transfer(push, host_buffer=data)
        stored = system.topology.dpu(2).host_read(0, 512)
        assert stored == transpose_for_pim(data[2 * 512 : 3 * 512].tobytes())
        pull = runtime.build_contiguous_op(
            TransferDirection.PIM_TO_DRAM, size_per_pim=512, pim_core_ids=range(4)
        )
        out = np.zeros_like(data)
        runtime.pim_mmu_transfer(pull, host_buffer=out)
        assert np.array_equal(out, data)

    def test_small_host_buffer_rejected(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        runtime = PimMmuRuntime(system)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM, size_per_pim=512, pim_core_ids=range(4)
        )
        with pytest.raises(ValueError):
            runtime.pim_mmu_transfer(op, host_buffer=np.zeros(100, dtype=np.uint8))

    def test_serial_policy_runtime(self, small_config):
        system = build_system(config=small_config, design_point=DesignPoint.BASE_D)
        runtime = PimMmuRuntime(system, policy=DcePolicy.SERIAL_PER_CORE)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM, size_per_pim=256, pim_core_ids=range(4)
        )
        result = runtime.pim_mmu_transfer(op)
        assert result.pim_write_bytes == 4 * 256

    def test_old_quickstart_path_matches_session_transfer(self, small_config):
        """build_system + PimMmuRuntime produce the numbers Session.transfer does."""
        from repro import Session

        cores = small_config.num_pim_cores
        size_per_core = 2048
        total = cores * size_per_core

        system = build_system(config=small_config, design_point=DesignPoint.BASE_DHP)
        runtime = PimMmuRuntime(system)
        op = runtime.build_contiguous_op(
            TransferDirection.DRAM_TO_PIM,
            size_per_pim=size_per_core,
            pim_core_ids=range(cores),
            dram_base=0,
        )
        legacy = runtime.pim_mmu_transfer(op)

        with Session.open(config=small_config) as session:
            modern = session.transfer(total_bytes=total, sim_cap_bytes=total)

        raw = modern.raw.result
        assert raw.descriptor == legacy.descriptor
        assert raw.start_ns == legacy.start_ns
        assert raw.end_ns == legacy.end_ns
        assert raw.cpu_core_busy_ns == legacy.cpu_core_busy_ns
        assert raw.pim_write_bytes == legacy.pim_write_bytes
        assert raw.per_channel_pim_bytes == legacy.per_channel_pim_bytes
        assert modern.duration_ns == legacy.duration_ns
        assert modern.throughput_gbps == legacy.throughput_gbps
