"""Host time at a fixed machine speed.

The benchmark runs on shared machines whose speed drifts: stretches of
seconds to minutes run 30-60% slower for the same work.  A
:class:`SteadyClock` times a block of code and scales each slice of it
by the machine speed measured during that slice, so that the result reads
as seconds on a machine of fixed speed.

While the clock runs, a timer signal (``ITIMER_VIRTUAL``, every
:data:`SLICE_S` of the process's user CPU time) interrupts the program
and times :func:`reference_work`, a fixed pure-Python loop that does not
depend on the code under test.  Slice ``i`` of wall time ``d_i`` whose
reference loop took ``r_i`` counts as ``d_i * REFERENCE_S / r_i``; ``r_i``
is the median over the neighbouring :data:`SMOOTH` samples, so one
interrupted reference loop does not skew its slice.  The time spent in the
reference loops themselves is left out.

Only the main thread of a process may use a clock, and clocks do not nest.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds of user CPU time between two speed samples.
SLICE_S = 0.1
#: Speed samples per median that sets a slice's speed.
SMOOTH = 5
#: Rounds of :func:`reference_work` per speed sample.
REFERENCE_ROUNDS = 3000
#: Rounds run untimed first, so the timed rounds find the caches warm.
WARM_ROUNDS = 200
#: Host seconds one speed sample takes on the fixed-speed machine; the
#: fastest speed seen on a 2-core Xeon VM (the scale of every reported time).
REFERENCE_S = 0.00050


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def reference_work(rounds: int = REFERENCE_ROUNDS) -> int:
    """A fixed mix of the interpreter work a simulator does: calls, attributes, dicts."""
    table: dict = {}
    cell = _Cell()
    items = []
    for i in range(rounds):
        key = i & 63
        table[key] = table.get(key, 0) + i
        cell.value += table[key] & 7
        items.append(key)
        if len(items) > 32:
            items.pop(0)
    return cell.value + len(items)


def sample_speed() -> float:
    """Host seconds one run of :func:`reference_work` takes now."""
    reference_work(WARM_ROUNDS)
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


class SteadyClock:
    """Context manager: ``elapsed`` is the block's host time at fixed machine speed."""

    def __init__(self) -> None:
        self.slices: list = []  # wall seconds of each slice, reference loops excluded
        self.samples: list = []  # reference-loop seconds measured at each slice's end

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        self.slices.append(now - self._mark)
        self.samples.append(sample_speed())
        self._mark = time.perf_counter()

    def __enter__(self) -> "SteadyClock":
        self.slices = []
        self.samples = [sample_speed()]
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_S, SLICE_S)
        return self

    def __exit__(self, *exc_info) -> None:
        now = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.slices.append(now - self._mark)
        self.samples.append(sample_speed())

    @property
    def raw(self) -> float:
        """Wall seconds of the block, reference loops excluded."""
        return sum(self.slices)

    @property
    def elapsed(self) -> float:
        """Seconds the block would have taken at the fixed machine speed."""
        samples = self.samples
        half = SMOOTH // 2
        total = 0.0
        # Slice i ran between samples i and i + 1.
        for i, wall in enumerate(self.slices):
            window = samples[max(0, i + 1 - half) : i + 2 + half]
            total += wall * REFERENCE_S / statistics.median(window)
        return total


def steady_time(function, *args, **kwargs) -> tuple:
    """``(result, steady seconds)`` of one call."""
    with SteadyClock() as clock:
        result = function(*args, **kwargs)
    return result, clock.elapsed
