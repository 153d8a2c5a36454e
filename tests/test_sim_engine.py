"""Tests for the event-driven simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine


def test_initial_time_is_zero(engine):
    assert engine.now == 0.0


def test_schedule_after_fires_in_order(engine):
    fired = []
    engine.schedule_after(5.0, lambda: fired.append("b"))
    engine.schedule_after(1.0, lambda: fired.append("a"))
    engine.schedule_after(9.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_to_event_time(engine):
    seen = []
    engine.schedule_after(3.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [3.5]
    assert engine.now == 3.5


def test_same_time_events_fire_in_scheduling_order(engine):
    fired = []
    for index in range(10):
        engine.schedule_at(7.0, lambda i=index: fired.append(i))
    engine.run()
    assert fired == list(range(10))


def test_schedule_in_past_raises(engine):
    engine.schedule_after(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_at(5.0, lambda: None)


def test_negative_delay_raises(engine):
    with pytest.raises(ValueError):
        engine.schedule_after(-1.0, lambda: None)


def test_cancelled_event_does_not_fire(engine):
    fired = []
    event = engine.schedule_after(1.0, lambda: fired.append("x"))
    event.cancel()
    engine.run()
    assert fired == []


def test_run_until_stops_before_later_events(engine):
    fired = []
    engine.schedule_after(1.0, lambda: fired.append(1))
    engine.schedule_after(10.0, lambda: fired.append(10))
    count = engine.run(until=5.0)
    assert count == 1
    assert fired == [1]
    assert engine.now == 5.0
    engine.run()
    assert fired == [1, 10]


def test_run_until_is_inclusive(engine):
    fired = []
    engine.schedule_at(5.0, lambda: fired.append(5))
    engine.run(until=5.0)
    assert fired == [5]


def test_run_until_advances_clock_even_when_queue_is_empty(engine):
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_run_max_events(engine):
    fired = []
    for index in range(5):
        engine.schedule_after(float(index + 1), lambda i=index: fired.append(i))
    engine.run(max_events=2)
    assert fired == [0, 1]


def test_events_can_schedule_more_events(engine):
    fired = []

    def chain(depth: int) -> None:
        fired.append(depth)
        if depth < 3:
            engine.schedule_after(1.0, lambda: chain(depth + 1))

    engine.schedule_after(1.0, lambda: chain(0))
    engine.run()
    assert fired == [0, 1, 2, 3]
    assert engine.now == 4.0


def test_step_returns_false_when_empty(engine):
    assert engine.step() is False


def test_peek_next_time_skips_cancelled(engine):
    event = engine.schedule_after(1.0, lambda: None)
    engine.schedule_after(2.0, lambda: None)
    event.cancel()
    assert engine.peek_next_time() == 2.0


def test_len_counts_pending_events(engine):
    first = engine.schedule_after(1.0, lambda: None)
    engine.schedule_after(2.0, lambda: None)
    assert len(engine) == 2
    first.cancel()
    assert len(engine) == 1


def test_drain_discards_everything(engine):
    fired = []
    engine.schedule_after(1.0, lambda: fired.append(1))
    engine.drain()
    engine.run()
    assert fired == []


def test_len_stays_consistent_with_peek(engine):
    """Regression: ``peek_next_time`` pops cancelled events off the heap while
    ``__len__`` counts them out via a bookkeeping counter; the two views must
    agree whatever order they are consulted in."""
    events = [engine.schedule_after(float(i + 1), lambda: None) for i in range(10)]
    for event in events[:3]:
        event.cancel()
    assert len(engine) == 7
    # Peeking pops the cancelled head events; the live count must not change.
    assert engine.peek_next_time() == 4.0
    assert len(engine) == 7
    # Cancelling after a peek keeps the counter in sync too.
    events[5].cancel()
    assert len(engine) == 6
    fired = engine.run()
    assert fired == 6
    assert len(engine) == 0


def test_cancel_is_idempotent_and_safe_after_firing(engine):
    fired = []
    event = engine.schedule_after(1.0, lambda: fired.append(1))
    keeper = engine.schedule_after(2.0, lambda: fired.append(2))
    engine.run(until=1.5)
    # The event already fired; cancelling it now must not corrupt the count.
    event.cancel()
    event.cancel()
    assert len(engine) == 1
    keeper.cancel()
    keeper.cancel()
    assert len(engine) == 0
    engine.run()
    assert fired == [1]


def test_heavy_cancellation_compacts_the_heap(engine):
    threshold = SimulationEngine.COMPACTION_THRESHOLD
    events = [
        engine.schedule_after(float(i + 1), lambda: None) for i in range(2 * threshold)
    ]
    for event in events[: 2 * threshold - 1]:
        event.cancel()
    # The compacting sweep kicked in: the heap is bounded by the live events
    # plus at most one sub-threshold batch of fresh cancellations, rather than
    # retaining all 2*threshold-1 cancelled entries.
    assert len(engine) == 1
    assert len(engine._queue) < 2 * threshold - 1
    assert len(engine._queue) <= len(engine) + threshold
    assert engine.peek_next_time() == float(2 * threshold)
    assert engine.run() == 1


def test_drain_resets_cancellation_bookkeeping(engine):
    event = engine.schedule_after(1.0, lambda: None)
    event.cancel()
    engine.drain()
    assert len(engine) == 0
    engine.schedule_after(2.0, lambda: None)
    assert len(engine) == 1


def test_zero_delay_fires_at_current_time(engine):
    engine.schedule_after(5.0, lambda: engine.schedule_after(0.0, lambda: None))
    count = engine.run()
    assert count == 2
    assert engine.now == 5.0


# ---------------------------------------------------------------------------
# PR 4: the integer-tick core and the batched-kernel support APIs.
# ---------------------------------------------------------------------------


def test_integer_tick_views_match_float_clock(engine):
    seen = []
    engine.schedule_at(13.5, lambda: seen.append((engine.now, engine.now_ps, engine.now_ticks)))
    engine.run()
    now, now_ps, now_ticks = seen[0]
    assert now == 13.5
    assert now_ps == 13500
    from repro.sim.engine import TICKS_PER_PS
    assert now_ticks == 13500 * TICKS_PER_PS


def test_tick_conversion_is_exact_for_ddr_times():
    """Every float the DDR4 model produces must embed losslessly in ticks."""
    from repro.sim.engine import ns_to_ticks
    values = [0.8333333333333334 * n for n in range(1, 200)]
    values += [13.333333333333334, 0.625, 0.3125, 1.25, 1e6 + 1 / 3]
    ticks = [ns_to_ticks(v) for v in values]
    # Strictly monotone: distinct floats stay distinct and order-preserving.
    pairs = sorted(zip(values, ticks))
    for (v1, t1), (v2, t2) in zip(pairs, pairs[1:]):
        if v1 != v2:
            assert t1 < t2
        else:
            assert t1 == t2


def test_schedule_at_ps(engine):
    fired = []
    engine.schedule_at_ps(2500, lambda: fired.append(engine.now_ps))
    engine.run()
    assert fired == [2500]
    assert engine.now == 2.5


def test_schedule_batch_matches_sequential_scheduling(engine):
    fired = []
    events = engine.schedule_batch(
        (float(t), lambda t=t: fired.append(t)) for t in (5, 1, 3)
    )
    assert len(events) == 3
    events[2].cancel()  # the one at t=3
    engine.run()
    assert fired == [1, 5]


def test_schedule_callback_fires_without_event_handle(engine):
    fired = []
    assert engine.schedule_callback(2.0, lambda: fired.append(engine.now)) is None
    engine.schedule_after(1.0, lambda: fired.append(-1.0))
    engine.run()
    assert fired == [-1.0, 2.0]
    assert engine.events_fired == 2


def test_schedule_callback_in_past_raises(engine):
    engine.schedule_at(10.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError):
        engine.schedule_callback(5.0, lambda: None)


def test_run_until_alias(engine):
    fired = []
    engine.schedule_at(1.0, lambda: fired.append(1))
    engine.schedule_at(9.0, lambda: fired.append(9))
    assert engine.run_until(5.0) == 1
    assert engine.now == 5.0
    assert fired == [1]


def test_peek_next_ticks_matches_peek_next_time(engine):
    from repro.sim.engine import ns_to_ticks
    engine.schedule_callback(4.5, lambda: None)
    assert engine.peek_next_ticks() == ns_to_ticks(4.5)
    assert engine.peek_next_time() == 4.5


def test_mixed_event_and_callback_ordering_is_by_schedule_time(engine):
    fired = []
    engine.schedule_callback(2.0, lambda: fired.append("cb2"))
    engine.schedule_at(2.0, lambda: fired.append("ev2"))
    engine.schedule_callback(1.0, lambda: fired.append("cb1"))
    engine.run()
    assert fired == ["cb1", "cb2", "ev2"]


def test_run_until_bounds_the_batched_kernel():
    """A bounded run stops a controller's drain at the horizon; resuming loses nothing.

    The controller issues one request per service event, so ``run(until=)``
    bounds it like any other event source.  On 64 same-row reads the bounded
    run must complete exactly the unbounded run's requests that finish by the
    horizon, leave the clock on the horizon, and -- once resumed -- reproduce
    the unbounded run.
    """
    from repro.dram.channel import DdrChannel
    from repro.mapping.locality import locality_centric_mapping
    from repro.memctrl.controller import ChannelController
    from repro.memctrl.request import MemoryRequest
    from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
    from repro.sim.stats import StatsRegistry

    geometry = MemoryDomainConfig.paper_dram()
    mapping = locality_centric_mapping(geometry)

    def build():
        engine = SimulationEngine()
        controller = ChannelController(
            engine, DdrChannel(geometry, 0),
            MemCtrlConfig(read_queue_depth=256), StatsRegistry(), name="b/ch0",
        )
        completed = []
        for index in range(64):
            request = MemoryRequest(
                phys_addr=index * 64, is_write=False,
                on_complete=lambda r: completed.append(r.completion_ns),
            )
            request.domain = "dram"
            request.dram_addr = mapping.map(request.phys_addr)
            assert controller.enqueue(request)
        return engine, controller, completed

    engine, controller, unbounded = build()
    engine.run()
    served = controller._served.value
    assert served == 64

    engine, controller, bounded = build()
    engine.run(until=40.0)
    assert engine.now == 40.0
    assert bounded == [t for t in unbounded if t <= 40.0]
    assert 0 < len(bounded) < len(unbounded)  # the horizon cuts the drain
    engine.run()
    assert bounded == unbounded
    assert controller._served.value == served
