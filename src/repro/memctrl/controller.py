"""Channel controller: one module admits, services and completes requests.

One :class:`ChannelController` exists per memory channel.  It

* **admits** requests into indexed read/write queues
  (:class:`~repro.memctrl.queues.IndexedQueue`), enforcing the queue depths
  and stamping arrival metadata;
* **services** them, one request per simulation event: pick under the
  scheduler policy, issue the column access through the DDR4 channel model
  (which computes CAS and data-end times analytically), then arm the next
  decision; and
* **completes** each request at its data-end time, recording latency and
  firing its ``on_complete`` callback.

It also notifies slot listeners (the drivers' back-pressure retries) and
owns the per-channel statistics.

The scheduling *policy* (FR-FCFS by default) is pluggable: the
``MemCtrlConfig.policy`` spec string selects one of the registered
:mod:`repro.memctrl.policies`.  The default FR-FCFS pick is inlined in
:meth:`ChannelController._service`; every other policy is asked through its
``select``.

Decision timing
---------------
After an issue the controller fires the slot listeners *before* it sets the
next decision point to the issued CAS time.  A listener that enqueues during
the issue therefore arms the next service event at the current time, not at
the CAS time, and that event then stands in for the one the issue would have
armed.  This is the seed controller's order, and every committed table
depends on it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List

from repro.dram.channel import DdrChannel
from repro.memctrl.policies import FrFcfsPolicy, SchedulerPolicy, create_policy
from repro.memctrl.queues import IndexedQueue
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry


class ChannelController:
    """One per-channel memory controller (Table I: 64-entry queues, FR-FCFS)."""

    def __init__(
        self,
        engine: SimulationEngine,
        channel: DdrChannel,
        config: MemCtrlConfig,
        stats: StatsRegistry,
        name: str,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.config = config
        self.stats = stats
        self.name = name
        self._read_queue = IndexedQueue()
        self._write_queue = IndexedQueue()
        self._next_seq = 0
        self._slot_listeners: List[Callable[[], None]] = []
        self.policy = create_policy(config.policy)
        # Elide per-request hook calls for policies that keep no queue-side
        # state (the base-class hooks are no-ops).
        policy_type = type(self.policy)
        self._policy_on_enqueue = (
            self.policy.on_enqueue
            if policy_type.on_enqueue is not SchedulerPolicy.on_enqueue
            else None
        )
        self._policy_on_remove = (
            self.policy.on_remove
            if policy_type.on_remove is not SchedulerPolicy.on_remove
            else None
        )
        # The default FR-FCFS pick is inlined in _service (one less dynamic
        # dispatch per request); any other policy goes through select.
        self._frfcfs_fast = policy_type is FrFcfsPolicy
        self._service_pending = False
        self._next_decision_ns = 0.0
        self._drain_mode = False
        #: Issued requests whose completion has not fired yet.
        self._in_flight = 0
        self._read_bw = stats.bandwidth_tracker(f"{name}/read")
        self._write_bw = stats.bandwidth_tracker(f"{name}/write")
        self._served = stats.counter(f"{name}/served")
        self._row_hit_counter = stats.counter(f"{name}/row_hits")
        self._latency_hist = stats.histogram(f"{name}/latency_ns")
        # Bound method, hot path: one latency sample per completed request.
        # Histogram.reset() clears the list in place, so the binding survives
        # stats resets.
        self._latency_append = self._latency_hist._samples.append

    # --------------------------------------------------------------- queueing
    @property
    def read_queue_occupancy(self) -> int:
        return len(self._read_queue)

    @property
    def write_queue_occupancy(self) -> int:
        return len(self._write_queue)

    def can_accept(self, is_write: bool) -> bool:
        if is_write:
            return len(self._write_queue) < self.config.write_queue_depth
        return len(self._read_queue) < self.config.read_queue_depth

    def enqueue(self, request: MemoryRequest) -> bool:
        """Accept ``request`` if the target queue has room; schedule servicing."""
        if request.is_write:
            queue = self._write_queue
            if len(queue) >= self.config.write_queue_depth:
                return False
        else:
            queue = self._read_queue
            if len(queue) >= self.config.read_queue_depth:
                return False
        channel = self.channel
        now = self.engine._now
        request.arrival_ns = now
        request.channel_id = channel.channel_id
        addr = request.dram_addr
        seq = self._next_seq
        self._next_seq = seq + 1
        request._seq = seq
        bank_key = (
            addr.rank * channel._banks_per_rank
            + addr.bankgroup * channel._banks_per_group
            + addr.bank
        )
        request._bank_row = (bank_key, addr.row)
        # Inlined IndexedQueue.add (one call per accepted request otherwise).
        queue._pending[seq] = request
        if queue._indexed:
            queue._index_add(request)
        if self._policy_on_enqueue is not None:
            self._policy_on_enqueue(request)
        if not self._service_pending:
            # Arm the service event, never before the next decision point.
            self._service_pending = True
            when = self._next_decision_ns
            self.engine.schedule_callback(when if when > now else now, self._service)
        return True

    def add_slot_listener(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired the next time a queue slot frees."""
        self._slot_listeners.append(callback)

    def _notify_slot_listeners(self) -> None:
        if not self._slot_listeners:
            return
        listeners, self._slot_listeners = self._slot_listeners, []
        for callback in listeners:
            callback()

    # -------------------------------------------------------------- servicing
    def _service(self) -> None:
        """Issue one request, then arm the next service event if work remains."""
        self._service_pending = False
        read_queue = self._read_queue
        write_queue = self._write_queue
        # Pick the queue (write-drain watermark logic).
        writes = len(write_queue._pending)
        if self._drain_mode:
            if writes <= self.config.write_low_watermark:
                self._drain_mode = False
        elif writes >= self.config.write_high_watermark:
            self._drain_mode = True
        if self._drain_mode and writes:
            queue = write_queue
        elif read_queue._pending:
            queue = read_queue
        elif writes:
            queue = write_queue
        else:
            return
        channel = self.channel
        if self._frfcfs_fast:
            # Inlined head of IndexedQueue.oldest_hit: hit-rich traffic
            # resolves within the first SCAN_PREFIX queued requests.
            banks = channel._banks
            scan_prefix = IndexedQueue.SCAN_PREFIX
            request = None
            scanned = 0
            for candidate in queue._pending.values():
                bank_key, row = candidate._bank_row
                state = banks.get(bank_key)
                if state is not None and state.open_row == row:
                    request = candidate
                    break
                scanned += 1
                if scanned >= scan_prefix:
                    break
            if request is None:
                if len(queue._pending) <= scanned:
                    request = queue.first()
                else:
                    request = queue.oldest_hit(channel) or queue.first()
        else:
            request = self.policy.select(queue, channel)
        queue.remove(request)
        if self._policy_on_remove is not None:
            self._policy_on_remove(request)
        engine = self.engine
        now = engine._now
        is_write = request.is_write
        timing = channel.access(request.dram_addr, is_write, now, True)
        cas = timing.cas_time
        data_end = timing.data_end
        request.issue_ns = cas
        request.row_state = timing.row_state
        # Per-issue statistics (incl. an inlined BandwidthTracker.record).
        self._served.value += 1
        if timing.row_state == "hit":
            self._row_hit_counter.value += 1
        tracker = self._write_bw if is_write else self._read_bw
        size = request.size_bytes
        tracker.total_bytes += size
        if tracker.first_time_ns is None or data_end < tracker.first_time_ns:
            tracker.first_time_ns = data_end
        if tracker.last_time_ns is None or data_end > tracker.last_time_ns:
            tracker.last_time_ns = data_end
        tracker._events.append((data_end, size))
        self._in_flight += 1
        engine.schedule_callback(data_end, partial(self._finish, request, data_end))
        if self._slot_listeners:
            self._notify_slot_listeners()
        # Only now move the decision point (see "Decision timing" above).
        next_decision = cas if cas > now else now
        self._next_decision_ns = next_decision
        if self._service_pending:
            # A slot listener enqueued and armed the service at the current
            # time; that event takes over.
            return
        if read_queue._pending or write_queue._pending:
            self._service_pending = True
            engine.schedule_callback(next_decision, self._service)

    def _finish(self, request: MemoryRequest, time_ns: float) -> None:
        self._in_flight -= 1
        if request.arrival_ns is not None:
            self._latency_append(time_ns - request.arrival_ns)
            if request.tenant is not None:
                # Per-tenant breakdowns for the scenario composer: latency is
                # bucketed across every channel (and both memory domains,
                # since the registry is system-wide), bytes per direction.
                self.stats.histogram(f"tenant/{request.tenant}/latency_ns").add(
                    time_ns - request.arrival_ns
                )
                self.stats.counter(f"tenant/{request.tenant}/bytes").add(
                    request.size_bytes
                )
        # Inlined MemoryRequest.complete (one call per finished request).
        request.completion_ns = time_ns
        on_complete = request.on_complete
        if on_complete is not None:
            on_complete(request)

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Reset scheduling state to power-on.  The controller must be idle."""
        if not self.is_idle():
            raise RuntimeError(
                f"cannot reset controller {self.name!r} with requests in flight"
            )
        # Idle already means no armed service event and nothing in flight.
        self._read_queue.clear()
        self._write_queue.clear()
        self._next_seq = 0
        self._slot_listeners.clear()
        self._drain_mode = False
        self._next_decision_ns = 0.0
        self.policy.reset()
        self.channel.reset()

    # ------------------------------------------------------------------ stats
    @property
    def read_bytes(self) -> int:
        return self._read_bw.total_bytes

    @property
    def write_bytes(self) -> int:
        return self._write_bw.total_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def is_idle(self) -> bool:
        """No queued request, no armed service event, no completion pending."""
        return (
            not self._read_queue
            and not self._write_queue
            and not self._service_pending
            and not self._in_flight
        )


__all__ = ["ChannelController"]
