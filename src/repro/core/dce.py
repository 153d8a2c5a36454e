"""Data Copy Engine (DCE, paper §IV-C, Figure 11).

The DCE is the hardware unit that performs DRAM<->PIM transfers without any
CPU involvement.  Its dataflow for a DRAM->PIM transfer follows the seven
steps of Figure 11:

1. PIM-MS reads an entry from the **address buffer** (the per-PIM-core source
   base address, destination core id and offset counter).
2. The entry goes to the **AGU**, which produces the source physical address.
3. The read request enters the memory controller's read queue and is serviced.
4. The returned cache line is parked in the **data buffer**.
5. The **preprocessing unit** transposes it on the fly (chip interleaving,
   Figure 3).
6. The AGU produces the destination PIM address.
7. The write request enters the write queue and completes the transfer of
   that chunk; the entry's offset counter advances.

The engine's parallelism is bounded by the data buffer (16 KB = 256 in-flight
cache lines) when PIM-MS drives it, or by a shallow descriptor-at-a-time
window when it emulates a conventional DMA engine (the ``Base+D`` ablation
point, :class:`~repro.sim.config.DcePolicy`).
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Container,
    Deque,
    Dict,
    Hashable,
    Iterator,
    Optional,
)

from repro.core.pim_ms import PimAwareScheduler, ScheduledAccess
from repro.memctrl.request import MemoryRequest, RequestStream
from repro.sim.config import CACHE_LINE_BYTES, DcePolicy
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.transfer.result import TransferResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system imports HetMap)
    from repro.system import PimSystem


class TargetFifos:
    """Per-target FIFOs of parked requests, kept in one global rank order.

    Every appended entry is stamped with the next rank of a single counter, so
    each target's FIFO is sorted by rank and the union of all FIFOs reads, in
    rank order, exactly like one deque with appends at its tail.  A
    :meth:`drain` pass walks that merged order through only the *heads* of
    targets that can accept work: a target that is blocked, or whose head is
    rejected, keeps all of its entries without any of them being visited.
    """

    __slots__ = ("_fifos", "_rank", "count")

    def __init__(self) -> None:
        self._fifos: Dict[Hashable, Deque[tuple]] = {}
        self._rank = 0
        #: Entries parked, across all targets (an attribute, not ``__len__``:
        #: the pump reads it once per pulled access).
        self.count = 0

    def __iter__(self) -> Iterator[tuple]:
        """``(key, item)`` pairs in rank order, the order a pass offers them."""
        entries = sorted(
            (rank, key, item) for key, fifo in self._fifos.items() for rank, item in fifo
        )
        return ((key, item) for _, key, item in entries)

    def clear(self) -> None:
        self._fifos.clear()
        self._rank = 0
        self.count = 0

    def append(self, key: Hashable, item: object) -> None:
        """Park ``item`` for target ``key`` behind every entry parked so far."""
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = self._fifos[key] = deque()
        fifo.append((self._rank, item))
        self._rank += 1
        self.count += 1

    def drain(
        self,
        submit: Callable[[Hashable, object], bool],
        blocked: Container[Hashable],
        budget: Optional[int] = None,
    ) -> None:
        """Offer parked entries to ``submit(key, item)`` in rank order.

        Targets in ``blocked`` are skipped, and so is a target for the rest of
        the pass once ``submit`` rejects its head; accepted entries leave
        their FIFO.  After ``budget`` accepted submits (``None``: no limit)
        the pass stops, and the entries it skipped -- the survivors ranked
        below the last accepted one -- are re-stamped behind all others.
        That is the order a single deque leaves when one pass over it rotates
        skipped entries to the back and stops part-way through.
        """
        if budget is not None and budget <= 0:
            return
        fifos = self._fifos
        heap = [(fifo[0][0], key) for key, fifo in fifos.items() if key not in blocked]
        if not heap:
            return
        heapq.heapify(heap)
        while heap:
            rank, key = heapq.heappop(heap)
            fifo = fifos[key]
            if not submit(key, fifo[0][1]):
                continue
            fifo.popleft()
            self.count -= 1
            if fifo:
                heapq.heappush(heap, (fifo[0][0], key))
            else:
                del fifos[key]
            if budget is not None:
                budget -= 1
                if not budget:
                    self._restamp_below(rank)
                    return

    def _restamp_below(self, rank: int) -> None:
        """Move every entry ranked below ``rank`` behind all others, in order.

        One shift for all of them keeps their relative order and lifts them
        above every rank handed out so far, so no sort is needed.
        """
        fifos = self._fifos
        lowest = min((fifo[0][0] for fifo in fifos.values()), default=rank)
        if lowest >= rank:
            return  # nothing ranked below ``rank`` is left
        shift = self._rank - lowest
        for fifo in fifos.values():
            while fifo[0][0] < rank:
                entry_rank, item = fifo.popleft()
                fifo.append((entry_rank + shift, item))
        self._rank += rank - lowest


class DataCopyEngine:
    """Hardware transfer engine with PIM-MS or conventional-DMA issue policy."""

    def __init__(self, system: "PimSystem", policy: DcePolicy = DcePolicy.PIM_MS) -> None:
        self.system = system
        self.policy = policy
        self.config = system.config.pim_mmu
        self.scheduler = PimAwareScheduler(system.config.pim)
        # Transfer-in-progress state.
        self._iterator: Optional[Iterator[ScheduledAccess]] = None
        self._descriptor: Optional[TransferDescriptor] = None
        self._max_in_flight = self.max_in_flight
        self._in_flight = 0
        self._completed_chunks = 0
        self._total_chunks = 0
        # Requests waiting for room in their target (domain, channel,
        # direction) queue: built and pre-decoded once, when first parked.
        self._parked_writes = TargetFifos()
        self._deferred_reads = TargetFifos()
        #: Targets whose slot-listener retry has not fired yet.  Such a queue
        #: is provably still full: every freed slot fires its listeners.
        self._retry_targets: set = set()
        self._done = False
        self.offsets: Dict[int, int] = {}
        # Completion plumbing shared by the blocking and non-blocking paths.
        self._result: Optional[TransferResult] = None
        self._on_complete: Optional[Callable[[TransferResult], None]] = None
        self._baselines: Optional[dict] = None

    # --------------------------------------------------------------- capacity
    @property
    def max_in_flight(self) -> int:
        """How many chunks the engine keeps in flight.

        With PIM-MS the data buffer is the only limit; the conventional-DMA
        policy processes descriptors serially with a shallow window, which is
        what makes ``Base+D`` *lose* to the multi-threaded AVX baseline in
        most Figure 15 configurations.
        """
        if self.policy is DcePolicy.PIM_MS:
            return self.config.data_buffer_entries
        return self.config.serial_outstanding

    def address_buffer_capacity_ok(self, descriptor: TransferDescriptor) -> bool:
        """True if the descriptor fits the 64 KB address buffer in one shot."""
        return descriptor.num_cores <= self.config.address_buffer_entries

    # ----------------------------------------------------------------- execute
    def begin(
        self,
        descriptor: TransferDescriptor,
        on_complete: Optional[Callable[[TransferResult], None]] = None,
    ) -> None:
        """Start one offloaded transfer without blocking.

        The transfer advances as the simulation engine is stepped (by
        :meth:`execute`, or by an external loop such as the multi-tenant
        scenario composer, which runs several engines on one clock).
        ``on_complete`` fires -- with the finished :class:`TransferResult` --
        once the completion interrupt has been delivered.
        """
        if self._descriptor is not None:
            raise RuntimeError("the DCE is already executing a transfer")
        if not self.address_buffer_capacity_ok(descriptor):
            raise ValueError(
                f"descriptor names {descriptor.num_cores} PIM cores but the "
                f"address buffer holds {self.config.address_buffer_entries} entries"
            )
        system = self.system
        self._descriptor = descriptor
        self._total_chunks = descriptor.num_cores * descriptor.chunks_per_core
        self._completed_chunks = 0
        self._in_flight = 0
        self._parked_writes.clear()
        self._deferred_reads.clear()
        self._retry_targets.clear()
        self._done = False
        self._result = None
        self._on_complete = on_complete
        self.offsets = {core: 0 for core in descriptor.pim_core_ids}
        self._max_in_flight = self.max_in_flight
        if self.policy is DcePolicy.PIM_MS:
            self._iterator = self.scheduler.schedule(descriptor)
        else:
            self._iterator = self.scheduler.schedule_serial(descriptor)

        start_ns = system.now
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

        # The single CPU thread writes the pim_mmu_op descriptor array through
        # the device driver and rings the MMIO doorbell, then sleeps.
        setup_ns = self._descriptor_setup_ns(descriptor)
        system.cpu.record_busy_interval(start_ns, start_ns + setup_ns)
        system.engine.schedule_after(setup_ns, self._pump)

    def execute(self, descriptor: TransferDescriptor) -> TransferResult:
        """Run one offloaded transfer to completion and return its result."""
        self.begin(descriptor)
        system = self.system
        while self._result is None:
            if not system.engine.step():
                raise RuntimeError("simulation ran dry before the DCE transfer completed")
        return self._result

    def _finalize(self) -> None:
        """Deliver the completion interrupt and assemble the result (at ``end_ns``)."""
        system = self.system
        assert self._descriptor is not None and self._baselines is not None
        descriptor, baselines = self._descriptor, self._baselines
        end_ns = system.now
        pim_channel1 = system.pim.per_channel_bytes("all")
        dram_channel1 = system.dram.per_channel_bytes("all")
        pim_channel0 = baselines["pim_channel"]
        dram_channel0 = baselines["dram_channel"]
        result = TransferResult(
            descriptor=descriptor,
            design_label=system.design_point.label,
            start_ns=baselines["start_ns"],
            end_ns=end_ns,
            cpu_core_busy_ns=system.cpu.total_core_busy_ns() - baselines["cpu_busy"],
            dce_busy_ns=end_ns - baselines["start_ns"],
            dram_read_bytes=system.dram.read_bytes() - baselines["dram_read"],
            dram_write_bytes=system.dram.write_bytes() - baselines["dram_write"],
            pim_read_bytes=system.pim.read_bytes() - baselines["pim_read"],
            pim_write_bytes=system.pim.write_bytes() - baselines["pim_write"],
            per_channel_pim_bytes={
                channel: pim_channel1[channel] - pim_channel0.get(channel, 0)
                for channel in pim_channel1
            },
            per_channel_dram_bytes={
                channel: dram_channel1[channel] - dram_channel0.get(channel, 0)
                for channel in dram_channel1
            },
        )
        result.extra["llc_accesses"] = 0.0  # the DCE bypasses the cache hierarchy
        result.extra["dce_chunks"] = float(self._total_chunks)
        self._descriptor = None
        self._iterator = None
        self._baselines = None
        self._result = result
        if self._on_complete is not None:
            self._on_complete(result)

    def _descriptor_setup_ns(self, descriptor: TransferDescriptor) -> float:
        """CPU time spent filling the address buffer and ringing the doorbell."""
        per_entry_ns = self.system.config.cpu.cycles_to_ns(16)
        return self.config.mmio_doorbell_latency_ns + per_entry_ns * descriptor.num_cores

    # --------------------------------------------------------------- dataflow
    def _pump(self) -> None:
        """Advance the dataflow as far as queue space and the data buffer allow.

        Unlike a software thread (which processes its chunks strictly in
        order), PIM-MS keeps visibility over *all* pending work and never lets
        a single full queue stall the rest of the transfer: blocked writes and
        blocked reads are parked per target queue and the engine keeps issuing
        work to the queues that still have room.  This skip-ahead behaviour is
        the "fine-grained hardware scheduling" of §IV-D.
        """
        if self._done:
            return
        max_in_flight = self._max_in_flight
        retry_targets = self._retry_targets
        # 1. Drain data-buffer entries whose write can now be enqueued, oldest
        # first across targets.  Targets awaiting a retry are full, so their
        # entries are not even visited.
        if self._parked_writes.count:
            self._parked_writes.drain(self._submit_write, retry_targets)
        # 2. Retry reads that were previously blocked on a full read queue,
        # oldest first, until the data buffer is full.  A pass the full
        # buffer cuts short leaves the reads it skipped behind the ones it
        # never reached (TargetFifos.drain re-stamps them).
        deferred = self._deferred_reads
        if deferred.count:
            deferred.drain(
                self._submit_read, retry_targets, max_in_flight - self._in_flight
            )
        # 3. Pull new accesses from the PIM-MS schedule.
        iterator = self._iterator
        assert iterator is not None
        submit = self.system.submit
        while self._in_flight < max_in_flight and deferred.count < max_in_flight:
            access = next(iterator, None)
            if access is None:
                return
            request = self._build_request(access, is_write=False)
            key = self._target_key(request)
            if key in retry_targets:
                deferred.append(key, request)
            elif submit(request):
                self._in_flight += 1
            else:
                self._register_retry(request, key)
                deferred.append(key, request)

    def _build_request(self, access: ScheduledAccess, is_write: bool) -> MemoryRequest:
        """Create and pre-decode one request so its target channel is known."""
        descriptor = self._descriptor
        assert descriptor is not None
        offset = access.chunk_index * CACHE_LINE_BYTES
        # One end of every DCE chunk is a PIM-heap location: the destination
        # for DRAM->PIM, the source for PIM->DRAM.  Its coordinates are
        # derived directly from (core, offset) -- no decode round trip.
        pim_end = is_write == (
            descriptor.direction is TransferDirection.DRAM_TO_PIM
        )
        if pim_end:
            phys_addr, domain, dram_addr = self.system.pim_heap_request(
                access.pim_core_id, descriptor.pim_heap_offset + offset
            )
        else:
            phys_addr = descriptor.dram_base_addrs[access.descriptor_index] + offset
            domain, dram_addr = self.system.decode(phys_addr)
        if is_write:
            on_complete = partial(self._on_write_complete, access)
            stream = RequestStream.TRANSFER_WRITE
        else:
            on_complete = partial(self._on_read_complete, access)
            stream = RequestStream.TRANSFER_READ
        # Positional construction: this runs once per transferred cache line.
        request = MemoryRequest(
            phys_addr, is_write, 64, stream, 0,
            access.pim_core_id, descriptor.tenant, on_complete,
        )
        request.domain = domain
        request.dram_addr = dram_addr
        return request

    @staticmethod
    def _target_key(request: MemoryRequest) -> tuple:
        assert request.dram_addr is not None
        return (request.domain, request.dram_addr.channel, request.is_write)

    def _submit_read(self, key: tuple, request: MemoryRequest) -> bool:
        """Try to issue a parked read."""
        if not self.system.submit(request):
            self._register_retry(request, key)
            return False
        self._in_flight += 1
        return True

    def _register_retry(self, request: MemoryRequest, key: tuple) -> None:
        """Ask for a wake-up when the full queue that rejected ``request`` drains."""
        if key in self._retry_targets:
            return
        self._retry_targets.add(key)

        def retry() -> None:
            self._retry_targets.discard(key)
            self._pump()

        self.system.retry_when_possible(request, retry)

    def _on_read_complete(self, access: ScheduledAccess, request: MemoryRequest) -> None:
        # Step 5: the preprocessing unit transposes the line on the fly.
        engine = self.system.engine
        engine.schedule_callback(
            engine.now + self.config.transpose_latency_ns,
            partial(self._after_preprocess, access),
        )

    def _after_preprocess(self, access: ScheduledAccess) -> None:
        request = self._build_request(access, is_write=True)
        key = self._target_key(request)
        # A target awaiting its retry is provably still full: park straight
        # away instead of a doomed submit.
        if key not in self._retry_targets and self._submit_write(key, request):
            self._pump()
        else:
            self._parked_writes.append(key, request)

    def _submit_write(self, key: tuple, request: MemoryRequest) -> bool:
        """Try to issue the write of a data-buffer entry."""
        if not self.system.submit(request):
            self._register_retry(request, key)
            return False
        # The chunk has left the data buffer for the controller's write queue
        # (step 7 of Figure 11): its data-buffer slot frees immediately --
        # writes are posted -- so the read pipeline keeps streaming.
        self._in_flight -= 1
        return True

    def _on_write_complete(self, access: ScheduledAccess, request: MemoryRequest) -> None:
        self._completed_chunks += 1
        self.offsets[access.pim_core_id] = self.offsets.get(access.pim_core_id, 0) + CACHE_LINE_BYTES
        if self._completed_chunks >= self._total_chunks:
            self._done = True
            finish_ns = self.system.now
            # Interrupt handling wakes the sleeping user thread briefly;
            # result assembly happens only once the interrupt has been
            # delivered, so a subsequent transfer cannot start before it.
            end_ns = finish_ns + self.config.interrupt_latency_ns
            self.system.cpu.record_busy_interval(finish_ns, end_ns)
            self.system.engine.schedule_at(end_ns, self._finalize)
        # A completed *write* changes no pump-gating state: the data-buffer
        # slot freed when the write was submitted (writes are posted), and
        # every blocked target holds a slot-listener retry that pumps the
        # moment its queue frees, so a pump here could only make submits
        # that are bound to fail.


__all__ = ["DataCopyEngine"]
