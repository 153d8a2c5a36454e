"""Baseline software transfer engine (the model of ``dpu_push_xfer``).

Executes a :class:`~repro.transfer.descriptor.TransferDescriptor` by creating
one :class:`~repro.upmem_runtime.software_xfer.SoftwareCopyThread` per PIM
core and letting the round-robin OS scheduler run at most ``num_cores`` of
them at a time.  Optional contender threads (Figure 13) join the same run
queue.  The engine returns a :class:`~repro.transfer.result.TransferResult`
with wall time, per-channel traffic and CPU busy time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.host.os_scheduler import SchedulableThread
from repro.mapping.partition import pim_core_coordinates
from repro.system import PimSystem
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult
from repro.upmem_runtime.software_xfer import SoftwareCopyThread


def _interleave(primary: Sequence, secondary: Sequence) -> List:
    """Fairly interleave two thread lists so neither monopolises the first quanta."""
    if not secondary:
        return list(primary)
    if not primary:
        return list(secondary)
    result: List = []
    ratio = max(1, round(len(primary) / len(secondary)))
    secondary_iter = iter(secondary)
    for index, item in enumerate(primary):
        result.append(item)
        if (index + 1) % ratio == 0:
            nxt = next(secondary_iter, None)
            if nxt is not None:
                result.append(nxt)
    result.extend(secondary_iter)
    return result


class SoftwareTransferEngine:
    """Runs baseline (CPU-orchestrated) DRAM<->PIM transfers on a system."""

    def __init__(self, system: PimSystem, stop_scheduler_on_finish: bool = True) -> None:
        # The multi-tenant scenario composer runs several engines on one OS
        # scheduler and passes False, so one tenant finishing cannot preempt
        # the copy threads of the others.
        self.system = system
        self.stop_scheduler_on_finish = stop_scheduler_on_finish
        self._finished_threads = 0
        self._total_threads = 0
        self._last_finish_ns = 0.0
        self._descriptor: Optional[TransferDescriptor] = None
        self._baselines: Optional[Dict[str, object]] = None
        self._result: Optional[TransferResult] = None
        self._on_complete: Optional[Callable[[TransferResult], None]] = None

    # ----------------------------------------------------------------- helpers
    def _thread_order(self, threads: List[SoftwareCopyThread]) -> List[SoftwareCopyThread]:
        """Order copy jobs the way the runtime hands them to the OS.

        ``blocked`` (the default, and what the paper's characterization
        observed): consecutive PIM core ids -- which live in the same channel
        -- are adjacent, so the jobs running at any instant tend to hammer a
        single PIM channel.  ``round_robin`` rotates across channels first and
        serves as the better-behaved ablation point.
        """
        policy = self.system.config.os.thread_to_dpu_policy
        if policy == "blocked":
            return threads
        if policy == "round_robin":
            geometry = self.system.config.pim
            keyed = []
            for thread in threads:
                home = pim_core_coordinates(geometry, thread.pim_core_id)
                within = thread.pim_core_id % geometry.banks_per_channel
                keyed.append(((within, home.channel), thread))
            return [thread for _, thread in sorted(keyed, key=lambda item: item[0])]
        raise ValueError(f"unknown thread_to_dpu_policy '{policy}'")

    def _on_thread_finished(self, thread: SoftwareCopyThread) -> None:
        self._finished_threads += 1
        self._last_finish_ns = max(self._last_finish_ns, self.system.now)
        if self._finished_threads >= self._total_threads and self._result is None:
            self._finalize()

    # ----------------------------------------------------------------- execute
    def begin(
        self,
        descriptor: TransferDescriptor,
        contenders: Sequence[SchedulableThread] = (),
        on_complete: Optional[Callable[[TransferResult], None]] = None,
    ) -> None:
        """Start the transfer without blocking.

        Work advances as the simulation engine is stepped (by :meth:`execute`
        or by an external loop such as the multi-tenant scenario composer);
        ``on_complete`` fires with the finished result as soon as the last
        copy thread completes.  ``contenders`` are co-located threads that
        share the CPU run queue (Figure 13); they keep running until the
        measured transfer completes, at which point the scheduler is stopped.
        """
        if self._descriptor is not None:
            raise RuntimeError("the engine is already executing a transfer")
        system = self.system
        start_ns = system.now
        self._descriptor = descriptor
        self._on_complete = on_complete
        self._result = None
        self._baselines = {
            "start_ns": start_ns,
            "cpu_busy": system.cpu.total_core_busy_ns(),
            "dram_read": system.dram.read_bytes(),
            "dram_write": system.dram.write_bytes(),
            "pim_read": system.pim.read_bytes(),
            "pim_write": system.pim.write_bytes(),
            "pim_channel": system.pim.per_channel_bytes("all"),
            "dram_channel": system.dram.per_channel_bytes("all"),
        }

        copy_threads = [
            SoftwareCopyThread(
                system=system,
                direction=descriptor.direction,
                pim_core_id=core_id,
                dram_base_addr=base,
                size_bytes=descriptor.size_per_core_bytes,
                pim_heap_offset=descriptor.pim_heap_offset,
                on_finished=self._on_thread_finished,
                tenant=descriptor.tenant,
            )
            for core_id, base in zip(descriptor.pim_core_ids, descriptor.dram_base_addrs)
        ]
        copy_threads = self._thread_order(copy_threads)
        self._total_threads = len(copy_threads)
        self._finished_threads = 0
        self._last_finish_ns = start_ns

        for thread in _interleave(copy_threads, list(contenders)):
            system.scheduler.add_thread(thread)
        system.scheduler.start()

    def _finalize(self) -> None:
        """Stop the scheduler and assemble the result (last copy thread done)."""
        system = self.system
        assert self._descriptor is not None and self._baselines is not None
        descriptor, baselines = self._descriptor, self._baselines
        if self.stop_scheduler_on_finish:
            system.scheduler.stop()

        end_ns = self._last_finish_ns
        pim_channel1 = system.pim.per_channel_bytes("all")
        dram_channel1 = system.dram.per_channel_bytes("all")
        pim_channel0 = baselines["pim_channel"]
        dram_channel0 = baselines["dram_channel"]
        per_channel_pim: Dict[int, int] = {
            channel: pim_channel1[channel] - pim_channel0.get(channel, 0)
            for channel in pim_channel1
        }
        per_channel_dram: Dict[int, int] = {
            channel: dram_channel1[channel] - dram_channel0.get(channel, 0)
            for channel in dram_channel1
        }
        result = TransferResult(
            descriptor=descriptor,
            design_label=system.design_point.label,
            start_ns=baselines["start_ns"],
            end_ns=end_ns,
            cpu_core_busy_ns=system.cpu.total_core_busy_ns() - baselines["cpu_busy"],
            dram_read_bytes=system.dram.read_bytes() - baselines["dram_read"],
            dram_write_bytes=system.dram.write_bytes() - baselines["dram_write"],
            pim_read_bytes=system.pim.read_bytes() - baselines["pim_read"],
            pim_write_bytes=system.pim.write_bytes() - baselines["pim_write"],
            per_channel_pim_bytes=per_channel_pim,
            per_channel_dram_bytes=per_channel_dram,
        )
        result.extra["llc_accesses"] = float(
            2 * descriptor.total_bytes // 64
        )  # load + store stream through the core/caches
        result.extra["direction"] = 1.0 if descriptor.direction is TransferDirection.DRAM_TO_PIM else 0.0
        self._descriptor = None
        self._baselines = None
        self._result = result
        if self._on_complete is not None:
            self._on_complete(result)

    def execute(
        self,
        descriptor: TransferDescriptor,
        contenders: Sequence[SchedulableThread] = (),
    ) -> TransferResult:
        """Run the transfer to completion and return its result."""
        self.begin(descriptor, contenders=contenders)
        engine = self.system.engine
        while self._result is None:
            if not engine.step():
                raise RuntimeError(
                    "simulation ran out of events before the transfer completed"
                )
        return self._result


__all__ = ["SoftwareTransferEngine"]
