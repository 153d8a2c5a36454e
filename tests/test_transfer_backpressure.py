"""Back-pressure behaviour of the two transfer drivers under constant stalls.

* The DCE (PIM-MMU path) is run with data buffers of 4 and 16 entries and
  with the ``Base+D`` serial window of 6, against two-entry controller
  queues, so nearly every pump meets a full queue or a full window.  The
  exact request stream (time, address, direction of every accepted request)
  and the resulting :class:`TransferResult` are pinned by digest.  The same
  is done for the baseline copy threads.  The digests were recorded from the
  rotated-deque DCE and the resubmitting copy threads, whose ordering these
  drivers must reproduce event for event.
* A copy thread never submits into the queue its own pending retry waits on:
  that retry fires on every slot (or first-hop credit) the queue frees, so
  while it is pending the queue is provably full.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core.dce import DataCopyEngine
from repro.sim.config import DcePolicy, DesignPoint, SystemConfig
from repro.system import build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.upmem_runtime.engine import SoftwareTransferEngine

DIRECTIONS = {"d2p": TransferDirection.DRAM_TO_PIM, "p2d": TransferDirection.PIM_TO_DRAM}


def stalling_config(fabric: str, data_buffer_bytes: int = 16 * 1024) -> SystemConfig:
    """The small test system with two-entry controller queues.

    Its 32 PIM cores sit in one channel of two ranks, so that the ingress
    node and the three channel endpoints fit a 2x2 mesh.
    """
    config = SystemConfig.small_test()
    return dataclasses.replace(
        config,
        pim=dataclasses.replace(config.pim, channels=1, ranks_per_channel=2),
        memctrl=dataclasses.replace(
            config.memctrl,
            read_queue_depth=2,
            write_queue_depth=2,
            write_high_watermark=2,
            write_low_watermark=1,
            fabric=fabric,
        ),
        pim_mmu=dataclasses.replace(config.pim_mmu, data_buffer_bytes=data_buffer_bytes),
    )


def descriptor(direction: TransferDirection, cores: int = 32, size_per_core: int = 512):
    return TransferDescriptor.contiguous(
        direction=direction,
        dram_base=0,
        size_per_core_bytes=size_per_core,
        pim_core_ids=list(range(cores)),
    )


def run_digest(system, run) -> str:
    """SHA-256 over the accepted-request stream and the transfer result."""
    stream = []
    system.attach_trace_hook(
        lambda request, now: stream.append((now, request.phys_addr, request.is_write))
    )
    result = run()
    digest = hashlib.sha256(repr(stream).encode())
    digest.update(repr(dataclasses.asdict(result)).encode())
    return digest.hexdigest()


DCE_CASES = {
    # (policy, data_buffer_bytes, direction, fabric): digest
    ("pim-ms", 256, "d2p", "none"): "52fcec604a15e806796e1240aaec7076f465f07d0adad9c7343df87f7fe7f73d",
    ("pim-ms", 256, "p2d", "none"): "8e403302c684cb50e1e100c2bff816a9f67e3430e2058c52f0e216db7399f891",
    ("pim-ms", 1024, "d2p", "none"): "ab351e3db53b87fb6e4053a3ee867da7b1db4263aacd6f6d2830be41b9d9080d",
    ("pim-ms", 1024, "p2d", "none"): "b1706771ed0c397479a2b22bc07a835b76e18de29f7aeb24eaec80c1e6e649b7",
    ("serial", 1024, "d2p", "none"): "1252e0a4bb3269614f57be357799f36afd88dbaafe1c67f1a0a2e7519ef03c97",
    ("serial", 1024, "p2d", "none"): "f85ad4847fe33b0e8dac55c6e2328e5010ac69c58b8e1c7f0279396f6efd6873",
    ("pim-ms", 256, "d2p", "mesh:2x2"): "bf1ce9b3dc3990cdc2135b3790ef7637b4d9d0997bcbb3abe98ebc909a4f6892",
    ("pim-ms", 256, "p2d", "mesh:2x2"): "f5cc91d7fb858cd28f1ae3c4a5173140be010c4e26a960169b7bcfbd491f3566",
    ("pim-ms", 1024, "d2p", "mesh:2x2"): "c93af49d00c5bfb31c1b79cc7ef933f9814ef36e26fea6ac537f13927503e0b0",
    ("pim-ms", 1024, "p2d", "mesh:2x2"): "35683df0a7afe849c22f4aeb7f146c227bea1563cef601aaf953937d2830a8f5",
    ("serial", 1024, "d2p", "mesh:2x2"): "bf2904cc525ab40f89bc2fb89c612ac30da021ef3fa7d58d1bf7f76fafdd481f",
    ("serial", 1024, "p2d", "mesh:2x2"): "0b7ce1fbfb6e1216d8c82152ee90c69926555f33b8cfd62601b764dfa438f1dc",
}

BASE_CASES = {
    # (direction, fabric): digest
    ("d2p", "none"): "a92373a0c2839a49407155c968f0e02b9d4212a486af9fb27faf8fc1e4307e38",
    ("p2d", "none"): "3aef03b4c9b7eeb6a212795fafdb3bdbfb39b96e7102f641ed06bfd46afbc806",
    ("d2p", "mesh:2x2"): "8ab67b1227d995225782965fffe3dbacf3e89a05f9ba496999dfe3d8dfe84873",
    ("p2d", "mesh:2x2"): "100f70266af33ede65acc78ca18c23546daf97d2a5e8dd3840a83b71c3b4aa0c",
}

def case_id(case: tuple) -> str:
    return "-".join(map(str, case))


@pytest.mark.parametrize("case", sorted(DCE_CASES), ids=case_id)
def test_dce_stall_stream_is_pinned(case):
    policy, buffer_bytes, direction, fabric = case
    system = build_system(
        config=stalling_config(fabric, buffer_bytes), design_point=DesignPoint.BASE_DHP
    )
    dce = DataCopyEngine(system, policy=DcePolicy(policy))
    digest = run_digest(system, lambda: dce.execute(descriptor(DIRECTIONS[direction])))
    assert digest == DCE_CASES[case]


@pytest.mark.parametrize("case", sorted(BASE_CASES), ids=case_id)
def test_copy_thread_stall_stream_is_pinned(case):
    direction, fabric = case
    system = build_system(config=stalling_config(fabric), design_point=DesignPoint.BASELINE)
    engine = SoftwareTransferEngine(system)
    digest = run_digest(system, lambda: engine.execute(descriptor(DIRECTIONS[direction])))
    assert digest == BASE_CASES[case]


def _target(request) -> tuple:
    return (request.domain, request.dram_addr.channel, request.is_write)


@pytest.mark.parametrize("fabric", ("none", "mesh:2x2"))
@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_copy_threads_never_submit_into_their_pending_retry_queue(fabric, direction):
    """Every submit a copy thread makes while its retry is pending is a fresh chance.

    Submits are observed at :meth:`PimSystem.submit`, the threads' entry point:
    under a mesh a rejected submit is refused at injection and never reaches
    the channel controller.  Each thread owns one PIM core, so a request's
    ``pim_core_id`` names the thread that made it.
    """
    system = build_system(config=stalling_config(fabric), design_point=DesignPoint.BASELINE)
    pending = {}  # pim_core_id -> target of the thread's unfired retry
    doomed = []
    counts = {"rejected": 0, "retries": 0}

    submit = system.submit

    def observed_submit(request):
        accepted = submit(request)
        if not accepted:
            counts["rejected"] += 1
            if pending.get(request.pim_core_id) == _target(request):
                doomed.append((system.now, request.pim_core_id, _target(request)))
        return accepted

    retry_when_possible = system.retry_when_possible

    def observed_retry(request, callback):
        counts["retries"] += 1
        core = request.pim_core_id
        pending[core] = _target(request)

        def fired():
            del pending[core]
            callback()

        retry_when_possible(request, fired)

    system.submit = observed_submit
    system.retry_when_possible = observed_retry
    result = SoftwareTransferEngine(system).execute(descriptor(DIRECTIONS[direction]))
    assert result.total_bytes == 32 * 512
    assert counts["rejected"] > 0 and counts["retries"] > 0
    assert doomed == []
