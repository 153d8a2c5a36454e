"""Golden single-bank timing tests: the channel controller vs the pure-Python oracle.

``tests/oracle.py`` is an independent transcription of the DDR4 open-page
state machine.  These tests drive single-bank programs through a real
:class:`ChannelController` and assert, with exact float equality, that the
simulator's issue/completion times match the oracle's predictions -- and pin
the row-hit / row-miss (closed) / row-conflict latencies of the Table I
DDR4-2400 configuration as explicit cycle counts.

Service-order contract used throughout: all requests are enqueued at time 0
into the read (or write) queue under the ``fcfs`` policy, so the controller
services them in arrival order, reads before writes, issuing access ``k``
with ``earliest`` equal to access ``k-1``'s CAS time.
"""

from __future__ import annotations

import pytest

from oracle import SingleBankOracle

from repro.dram.channel import DdrChannel
from repro.dram.timing import DerivedTiming
from repro.mapping.locality import locality_centric_mapping
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.sim.config import MemCtrlConfig, MemoryDomainConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry

GEOMETRY = MemoryDomainConfig.paper_dram()  # Table I: DDR4-2400
TIMING = DerivedTiming.from_config(GEOMETRY.timing)

#: One DDR4-2400 memory-clock cycle in nanoseconds (1200 MHz clock).
def _ns(cycles: float) -> float:
    return GEOMETRY.timing.ns(cycles)


def _run_single_bank(accesses, late_arrivals=()):
    """Drive ``accesses`` (row, column, is_write) at bank 0 through a controller.

    ``late_arrivals`` adds (time_ns, row, column, is_write) requests enqueued
    mid-run via engine callbacks.  Returns the requests in enqueue order.
    """
    memctrl = MemCtrlConfig(policy="fcfs")
    engine = SimulationEngine()
    stats = StatsRegistry()
    controller = ChannelController(
        engine, DdrChannel(GEOMETRY, 0), memctrl, stats, name="oracle/ch0"
    )
    mapping = locality_centric_mapping(GEOMETRY)
    columns = GEOMETRY.columns_per_row

    def build(row, column, is_write):
        phys = (row * columns + column) * 64  # bank/bg/rank/channel bits zero
        request = MemoryRequest(phys_addr=phys, is_write=is_write)
        request.domain = "dram"
        request.dram_addr = mapping.map(phys)
        return request

    requests = []
    for row, column, is_write in accesses:
        request = build(row, column, is_write)
        requests.append(request)
        assert controller.enqueue(request)
    for time_ns, row, column, is_write in late_arrivals:
        request = build(row, column, is_write)
        requests.append(request)

        def submit(request=request):
            assert controller.enqueue(request)

        engine.schedule_callback(time_ns, submit)
    engine.run()
    assert controller.is_idle()
    return requests


def _assert_matches_oracle(requests, steps):
    assert len(requests) == len(steps)
    for request, step in zip(requests, steps):
        assert request.row_state == step.row_state
        assert request.issue_ns == step.cas_time  # exact float equality
        assert request.completion_ns == step.data_end


class TestGoldenLatencies:
    def test_closed_row_read(self):
        """Row miss (closed bank): ACT at 0, CAS at tRCD, data ends tCL+tBL on."""
        (request,) = _run_single_bank([(0, 0, False)])
        assert request.row_state == "closed"
        assert request.issue_ns == pytest.approx(_ns(16))  # tRCD = 16 cycles
        assert request.completion_ns == pytest.approx(_ns(16 + 16 + 4))
        steps = SingleBankOracle(TIMING).run([(0, False)])
        _assert_matches_oracle([request], steps)

    def test_row_hit_stream(self):
        """Hits stream at the same-bank-group CAS-to-CAS spacing (tCCD_L)."""
        accesses = [(0, col, False) for col in range(4)]
        requests = _run_single_bank(accesses)
        assert [r.row_state for r in requests] == [
            "closed", "hit", "hit", "hit"
        ]
        for prev, nxt in zip(requests, requests[1:]):
            assert nxt.issue_ns - prev.issue_ns == pytest.approx(_ns(6))  # tCCD_L
        steps = SingleBankOracle(TIMING).run([(0, False)] * 4)
        _assert_matches_oracle(requests, steps)

    def test_row_conflict(self):
        """Conflict: PRE waits for tRTP after the read, then tRP + tRCD."""
        requests = _run_single_bank([(0, 0, False), (1, 0, False)])
        assert [r.row_state for r in requests] == ["closed", "conflict"]
        # The PRE chain (tRTP + tRP + tRCD = 41 cycles) is NOT the bound here:
        # the same-bank ACT-to-ACT spacing tRC (55 cycles) gates the second
        # activate, so CAS1 = ACT1 + tRCD = tRC + tRCD and the CAS-to-CAS
        # delta is exactly tRC.
        assert requests[1].issue_ns - requests[0].issue_ns == pytest.approx(
            _ns(55)
        )
        steps = SingleBankOracle(TIMING).run([(0, False), (1, False)])
        _assert_matches_oracle(requests, steps)

    def test_read_write_turnaround(self):
        """Read->write on one row: the bus and tRTW gate the write CAS."""
        requests = _run_single_bank([(0, 0, False), (0, 1, True)])
        assert [r.row_state for r in requests] == ["closed", "hit"]
        # Write CAS = read data-start bound: max(CAS0+tRTW, bus_free-tCWL)
        # = (tRCD + tCL + tBL) - tCWL = (16+16+4) - 12 = 24 cycles.
        assert requests[1].issue_ns == pytest.approx(_ns(24))
        steps = SingleBankOracle(TIMING).run([(0, False), (0, True)])
        _assert_matches_oracle(requests, steps)

    def test_write_read_turnaround(self):
        """Write->read (late read arrival): tWTR_L from the write data end."""
        requests = _run_single_bank(
            [(0, 0, False), (0, 1, True)],
            late_arrivals=[(_ns(30), 0, 2, False)],
        )
        # Read CAS = write data end + tWTR_L
        #          = (tRCD + tRTW_bound write CAS 24cy + tCWL... ) pinned:
        # write data_end = 40 cycles, + tWTR_L 9 => CAS at 49 cycles.
        assert requests[2].issue_ns == pytest.approx(_ns(49))
        oracle = SingleBankOracle(TIMING)
        steps = oracle.run([(0, False), (0, True)])
        late = oracle.access(0, False, max(_ns(30), steps[-1].cas_time))
        _assert_matches_oracle(requests, steps + [late])

    def test_mixed_program_matches_oracle(self):
        """A longer pseudo-random single-bank program matches step for step."""
        rows = [0, 0, 3, 3, 3, 1, 0, 2, 2, 0, 5, 5]
        reads = [(row, i % 8, False) for i, row in enumerate(rows)]
        writes = [(row, (i + 3) % 8, True) for i, row in enumerate(rows[:6])]
        requests = _run_single_bank(reads + writes)
        # fcfs + read-queue priority: service order == enqueue order here.
        program = [(row, False) for row, _, _ in reads] + [
            (row, True) for row, _, _ in writes
        ]
        steps = SingleBankOracle(TIMING).run(program)
        _assert_matches_oracle(requests, steps)
