"""Deterministic event-driven simulation engine with an integer-tick core.

The whole reproduction schedules in **nanoseconds** (floats), but since PR 4
the engine's canonical clock is an **integer tick count**: fixed-point
picoseconds with :data:`TICK_FRACTION_BITS` fractional bits.  One tick is
``2**-62`` ps, so every finite float nanosecond value converts *exactly*
(multiplying a float by a power of two is lossless, and the ps/ns factor of
1000 is applied in integer arithmetic).  Two consequences:

* event ordering is pure integer comparison -- no float-comparison drift can
  ever reorder a heap, and the ordering is bit-identical to the seed's float
  ordering because the conversion is strictly monotone; and
* the clock has exact integer views (:attr:`SimulationEngine.now_ps`) next to
  the exact float view (:attr:`SimulationEngine.now`), which stays the thin
  compatibility API every component already uses.

Events scheduled for the same tick fire in scheduling order, which keeps every
run fully deterministic.  The engine stays tiny: no processes, no channels, no
implicit clocking.  Substrates with a natural clock (the DDR4 channel model,
the DCE) convert their cycle counts into nanoseconds before talking to the
engine.

Beyond plain scheduling the engine offers two services:

* :meth:`SimulationEngine.schedule_batch` pushes many events in one call
  (the trace replayer and the LLM serving driver schedule arrivals this
  way); and
* :meth:`SimulationEngine.peek_next_ticks` exposes the integer time of the
  next live event without firing it (``run`` stops at its ``until`` bound
  with it).
"""

from __future__ import annotations

import heapq
from math import ldexp
from typing import Callable, Iterable, List, Optional, Tuple

#: Fractional bits of the fixed-point picosecond clock.  One tick is
#: ``2**-62`` ps; one nanosecond is ``1000 << 62`` ticks.
TICK_FRACTION_BITS = 62

#: Ticks per picosecond / per nanosecond (integers).
TICKS_PER_PS = 1 << TICK_FRACTION_BITS
TICKS_PER_NS = 1000 << TICK_FRACTION_BITS


def ns_to_ticks(time_ns: float) -> int:
    """Convert float nanoseconds to integer ticks (exact for normal times).

    ``ldexp`` scales by a power of two without rounding; the ps/ns factor of
    1000 is an integer multiply.  The conversion is exact whenever
    ``time_ns * 2**62`` is integral, which holds for every float above
    ~1e-3 ns (anything a DDR4 model ever schedules); smaller values truncate
    to a tick, monotonically.  (``int`` rather than ``round``: identical on
    the exact path and measurably cheaper on the hot path.)
    """
    return int(ldexp(time_ns, TICK_FRACTION_BITS)) * 1000


def ticks_to_ns(ticks: int) -> float:
    """Convert integer ticks back to float nanoseconds (inverse of the above)."""
    return ldexp(ticks / 1000.0, -TICK_FRACTION_BITS) if ticks % 1000 else ldexp(
        float(ticks // 1000), -TICK_FRACTION_BITS
    )


class Event:
    """A single scheduled callback.

    Events order by ``(time_ticks, sequence)`` so that simultaneous events
    fire in scheduling order.  ``cancelled`` events stay in the heap but are
    skipped when popped, which makes cancellation O(1); the engine tracks how
    many cancelled events remain queued so ``len(engine)`` stays O(1) and the
    heap can be compacted once cancellations dominate it.

    ``__slots__`` keeps the per-event footprint minimal and catches stray
    attribute writes -- events are created on the hottest path the simulator
    has.
    """

    __slots__ = ("time", "time_ticks", "sequence", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        _engine: Optional["SimulationEngine"] = None,
        time_ticks: Optional[int] = None,
    ) -> None:
        self.time = time
        self.time_ticks = time_ticks if time_ticks is not None else ns_to_ticks(time)
        self.sequence = sequence
        self.callback = callback
        self.cancelled = cancelled
        self._engine = _engine

    def __lt__(self, other: "Event") -> bool:
        if self.time_ticks != other.time_ticks:
            return self.time_ticks < other.time_ticks
        return self.sequence < other.sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time}, sequence={self.sequence}{state})"

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()


#: Heap entries are ``(time_ticks, sequence, event)`` triples or -- for the
#: fire-and-forget fast path -- ``(time_ticks, sequence, time_ns, callback)``
#: quadruples.  The ``(time_ticks, sequence)`` prefix is unique, so heap
#: comparisons never look past the first two small-int fields (performed in
#: C), and the two entry shapes can share one heap.
_HeapEntry = Tuple


class SimulationEngine:
    """Minimal event queue with an integer-tick time base.

    Example
    -------
    >>> engine = SimulationEngine()
    >>> fired = []
    >>> _ = engine.schedule_at(5.0, lambda: fired.append(engine.now))
    >>> _ = engine.schedule_after(1.0, lambda: fired.append(engine.now))
    >>> engine.run()
    >>> fired
    [1.0, 5.0]
    """

    #: Compact the heap once at least this many cancelled events are queued
    #: *and* they make up at least half of the heap.
    COMPACTION_THRESHOLD = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._now_ticks: int = 0
        self._sequence: int = 0
        self._queue: List[_HeapEntry] = []
        self._cancelled_pending: int = 0
        self._running: bool = False
        #: Lifetime count of fired events (never reset); ``repro bench``
        #: divides it by wall-clock to report events/sec.
        self.events_fired: int = 0

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds (exact float view)."""
        return self._now

    @property
    def now_ps(self) -> int:
        """Current simulation time in whole picoseconds (integer view)."""
        return self._now_ticks >> TICK_FRACTION_BITS

    @property
    def now_ticks(self) -> int:
        """Current simulation time in engine ticks (fixed-point picoseconds)."""
        return self._now_ticks

    # ------------------------------------------------------------- scheduling
    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``time`` (ns).

        Scheduling in the past raises ``ValueError`` -- it always indicates a
        modelling bug and silently clamping it would hide ordering errors.
        """
        ticks = ns_to_ticks(time)
        if ticks < self._now_ticks:
            raise ValueError(
                f"cannot schedule event at {time} ns; current time is {self._now} ns"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(
            time=time,
            sequence=sequence,
            callback=callback,
            _engine=self,
            time_ticks=ticks,
        )
        heapq.heappush(self._queue, (ticks, sequence, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_callback(self, time: float, callback: Callable[[], None]) -> None:
        """Fire-and-forget scheduling: no :class:`Event` handle, no cancel.

        The hot paths (request completions, controller service, DCE
        transpose) never cancel their events, so they skip the per-event
        object allocation entirely.  Ordering and validation are identical
        to :meth:`schedule_at`.
        """
        ticks = int(ldexp(time, TICK_FRACTION_BITS)) * 1000
        if ticks < self._now_ticks:
            raise ValueError(
                f"cannot schedule event at {time} ns; current time is {self._now} ns"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._queue, (ticks, sequence, time, callback))

    def schedule_at_ps(self, time_ps: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute integer-picosecond time."""
        ticks = time_ps * TICKS_PER_PS
        if ticks < self._now_ticks:
            raise ValueError(
                f"cannot schedule event at {time_ps} ps; current time is "
                f"{self.now_ps} ps"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(
            time=time_ps / 1000.0,
            sequence=sequence,
            callback=callback,
            _engine=self,
            time_ticks=ticks,
        )
        heapq.heappush(self._queue, (ticks, sequence, event))
        return event

    def schedule_batch(
        self, items: Iterable[Tuple[float, Callable[[], None]]]
    ) -> List[Event]:
        """Schedule many ``(time_ns, callback)`` pairs in one call.

        Equivalent to calling :meth:`schedule_at` for each pair in order
        (same sequence numbering, same validation), but saves the per-call
        overhead for bulk producers such as the trace replayer.
        """
        events: List[Event] = []
        queue = self._queue
        now_ticks = self._now_ticks
        push = heapq.heappush
        for time, callback in items:
            ticks = ns_to_ticks(time)
            if ticks < now_ticks:
                raise ValueError(
                    f"cannot schedule event at {time} ns; current time is "
                    f"{self._now} ns"
                )
            sequence = self._sequence
            self._sequence = sequence + 1
            event = Event(
                time=time,
                sequence=sequence,
                callback=callback,
                _engine=self,
                time_ticks=ticks,
            )
            push(queue, (ticks, sequence, event))
            events.append(event)
        return events

    # ----------------------------------------------------------- cancellation
    def _note_cancelled(self) -> None:
        """Record that a queued event was cancelled; compact when they dominate."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= self.COMPACTION_THRESHOLD
            and self._cancelled_pending * 2 >= len(self._queue)
        ):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled event from the heap and re-heapify.

        Called automatically once cancelled events make up at least half of
        the queue (see :meth:`_note_cancelled`); keeping them out bounds the
        heap at the number of *live* events, so long runs that cancel heavily
        (e.g. speculative wake-ups) don't grow the queue without bound.
        """
        if self._cancelled_pending == 0:
            return
        live = []
        for entry in self._queue:
            if len(entry) == 3 and entry[2].cancelled:
                entry[2]._engine = None
            else:
                live.append(entry)
        self._queue = live
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    # ---------------------------------------------------------------- peeking
    def peek_next_ticks(self) -> Optional[int]:
        """Integer tick time of the next live event, or ``None`` if idle.

        Pops cancelled events off the heap top as a side effect (they are
        already counted out of ``len(engine)``).
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if len(entry) == 4 or not entry[2].cancelled:
                return entry[0]
            heapq.heappop(queue)
            entry[2]._engine = None
            self._cancelled_pending -= 1
        return None

    def peek_next_time(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None`` if idle."""
        if self.peek_next_ticks() is None:
            return None
        entry = self._queue[0]
        return entry[2] if len(entry) == 4 else entry[2].time

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Fire the next pending event.  Returns ``False`` if none remain."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = pop(queue)
            if len(entry) == 4:
                ticks, _, now, callback = entry
                self._now = now
                self._now_ticks = ticks
                self.events_fired += 1
                callback()
                return True
            ticks, _, event = entry
            event._engine = None
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = event.time
            self._now_ticks = ticks
            self.events_fired += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the number of events that fired.  ``until`` is inclusive: an
        event scheduled exactly at ``until`` still fires.  When ``until`` is
        given, the clock always ends up at ``until`` (or later, if an event at
        that exact time fired), even if the queue drained earlier -- callers
        use this to model fixed delays such as interrupt delivery.
        """
        fired = 0
        until_ticks = None if until is None else ns_to_ticks(until)
        self._running = True
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                next_ticks = self.peek_next_ticks()
                if next_ticks is None or (
                    until_ticks is not None and next_ticks > until_ticks
                ):
                    if until_ticks is not None and until_ticks > self._now_ticks:
                        self._now_ticks = until_ticks
                        self._now = until  # type: ignore[assignment]
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return fired

    def run_until(self, time_ns: float, max_events: Optional[int] = None) -> int:
        """Alias for ``run(until=time_ns)`` (reads better at call sites)."""
        return self.run(until=time_ns, max_events=max_events)

    # --------------------------------------------------------------- clearing
    def drain(self) -> None:
        """Discard all pending events without firing them (used in tests)."""
        for entry in self._queue:
            if len(entry) == 3:
                entry[2]._engine = None
        self._queue.clear()
        self._cancelled_pending = 0

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to 0 ns.

        Used by :meth:`repro.system.PimSystem.reset_state` to make consecutive
        runs on one long-lived system bit-identical to runs on freshly built
        systems: with every component's absolute timestamps cleared alongside,
        a run that starts at the rewound clock replays the exact same event
        sequence as a cold start.  Calling it from inside :meth:`run` raises.
        """
        if self._running:
            raise RuntimeError("cannot reset the engine while it is running")
        self.drain()
        self._now = 0.0
        self._now_ticks = 0
        self._sequence = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending events, in O(1)."""
        return len(self._queue) - self._cancelled_pending


__all__ = [
    "Event",
    "SimulationEngine",
    "TICKS_PER_NS",
    "TICKS_PER_PS",
    "ns_to_ticks",
    "ticks_to_ns",
]
