"""Boundedness regression for :class:`repro.memctrl.queues.IndexedQueue`.

The lazily materialised ``bank -> row -> {seq -> request}`` hit index is
maintained incrementally by ``remove()``: emptied row buckets and bank
buckets must be evicted on the spot, and the index must dissolve entirely
(``_indexed`` back to ``False``) when the queue drains.  A missed eviction
would leak dict keys for every (bank, row) ever touched -- unbounded growth
over a long replay, plus ever-slower ``oldest_hit`` scans over dead banks.

This was investigated as a suspected leak; empirically ``remove()`` already
evicts (max dead buckets observed over 50k requests: zero).  This test pins
that behaviour: it replays 50k random-address requests through a real
controller and asserts, at sampled completion points, that the index carries
no empty buckets and exactly one entry per pending request -- and that
everything is empty once the controller drains.
"""

from __future__ import annotations

import random
from functools import partial

from repro.dram.channel import DdrChannel
from repro.mapping.locality import locality_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry

REPLAY_REQUESTS = 50_000
SAMPLE_EVERY = 997  # prime, so sampling never locks onto a traffic period


def _index_shape(queue):
    """(pending, indexed, banks, entries, dead_rows, dead_banks) snapshot."""
    dead_rows = sum(
        1 for rows in queue._by_bank.values() for inner in rows.values() if not inner
    )
    dead_banks = sum(1 for rows in queue._by_bank.values() if not rows)
    entries = sum(
        len(inner) for rows in queue._by_bank.values() for inner in rows.values()
    )
    return (
        len(queue._pending),
        queue._indexed,
        len(queue._by_bank),
        entries,
        dead_rows,
        dead_banks,
    )


def test_index_stays_bounded_over_50k_replay():
    geometry = MemoryDomainConfig.paper_dram()
    memctrl = MemCtrlConfig(
        policy="frfcfs",
        read_queue_depth=64,
        write_queue_depth=64,
        write_high_watermark=48,
        write_low_watermark=16,
    )
    engine = SimulationEngine()
    controller = ChannelController(
        engine, DdrChannel(geometry, 0), memctrl, StatsRegistry(), name="idx/ch0"
    )
    mapping = locality_centric_mapping(geometry)
    capacity = geometry.channel_capacity_bytes
    rng = random.Random(7)
    completed = 0

    def check_queues():
        for queue in (controller._read_queue, controller._write_queue):
            pending, indexed, banks, entries, dead_rows, dead_banks = _index_shape(
                queue
            )
            assert dead_rows == 0, "empty row bucket left behind by remove()"
            assert dead_banks == 0, "empty bank bucket left behind by remove()"
            if indexed:
                # One index entry per pending request, never more: the index
                # can only exist while it mirrors the queue exactly.
                assert entries == pending
                assert banks <= geometry.banks_per_channel
            else:
                assert banks == 0 and entries == 0

    def on_complete(request):
        nonlocal completed
        completed += 1
        if completed % SAMPLE_EVERY == 0:
            check_queues()

    requests = []
    for _ in range(REPLAY_REQUESTS):
        # Uniform random rows: miss-heavy traffic, which is exactly what
        # forces oldest_hit past its prefix scan and materialises the index.
        phys = rng.randrange(0, capacity // 64) * 64
        request = MemoryRequest(phys_addr=phys, is_write=rng.random() < 0.35)
        request.domain = "dram"
        request.dram_addr = mapping.map(phys)
        request.on_complete = on_complete
        requests.append(request)

    feed = iter(requests)

    def pump():
        for request in feed:
            if not controller.enqueue(request):
                controller.add_slot_listener(partial(retry, request))
                return

    def retry(request):
        if controller.enqueue(request):
            pump()
        else:
            controller.add_slot_listener(partial(retry, request))

    pump()
    engine.run()
    assert controller.is_idle()
    assert completed == REPLAY_REQUESTS
    for queue in (controller._read_queue, controller._write_queue):
        # Fully drained: no pending requests, no index, flag reset.
        assert _index_shape(queue) == (0, False, 0, 0, 0, 0)
