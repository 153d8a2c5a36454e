"""Pure-Python single-bank DDR4 timing oracle.

An independent, deliberately naive transcription of the DDR4 open-page
state machine from the timing diagrams: one bank on one rank, "not before"
timestamps for PRE/ACT/CAS, bank-group CAS-to-CAS spacing, read/write
turnaround and data-bus occupancy.  It shares **no code** with
:mod:`repro.dram` -- it exists so the simulator's channel model (and the
channel controller built on it) can be checked against a second, trivially
auditable implementation.

Scope: a single bank (so tRRD/tFAW across banks never bind beyond the
same-bank ACT chain) and no refresh (callers keep programs shorter than
tREFI).  Within that scope the predicted CAS and data-end times must match
the simulator *exactly* (float equality): both implementations perform the
same IEEE-754 max/add chains on the same values.

The service-order contract the oracle relies on (see
``tests/test_oracle.py``): with everything enqueued at time 0 and a queue
discipline that fixes the order, the controller issues access ``k`` with
``earliest`` equal to the previous access's CAS time (its next decision
point), and the first access at time 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dram.timing import DerivedTiming

NEG_INF = float("-inf")


@dataclass
class OracleAccess:
    """One predicted column access."""

    row: int
    is_write: bool
    earliest: float
    row_state: str
    act_time: Optional[float]
    cas_time: float
    data_end: float


@dataclass
class SingleBankOracle:
    """Reference state machine for one DDR4 bank (open-page policy)."""

    timing: DerivedTiming
    open_row: Optional[int] = None
    ready_act: float = 0.0
    ready_pre: float = 0.0
    ready_cas: float = 0.0
    last_act: float = NEG_INF
    act_window: List[float] = field(default_factory=list)
    last_cas: float = NEG_INF  # same bank => bank-group == channel last CAS
    last_read_cas: float = NEG_INF
    last_write_data_end: float = NEG_INF
    bus_free: float = 0.0

    def access(self, row: int, is_write: bool, earliest: float) -> OracleAccess:
        t = self.timing
        act_time: Optional[float] = None
        if self.open_row == row:
            row_state = "hit"
        else:
            if self.open_row is None:
                row_state = "closed"
                candidate = earliest
            else:
                row_state = "conflict"
                # PRE at max(earliest, ready_pre); ACT legal tRP later.
                pre = max(earliest, self.ready_pre)
                self.open_row = None
                self.ready_act = max(self.ready_act, pre + t.tRP)
                candidate = self.ready_act
            # ACT: bank chain (tRC), rank tRRD spacing, four-ACT window.
            act_time = max(candidate, self.ready_act, self.last_act + t.tRRD_S)
            if len(self.act_window) >= 4:
                act_time = max(act_time, self.act_window[0] + t.tFAW)
            self.open_row = row
            self.ready_cas = max(self.ready_cas, act_time + t.tRCD)
            self.ready_pre = max(self.ready_pre, act_time + t.tRAS)
            self.ready_act = max(self.ready_act, act_time + t.tRC)
            self.last_act = act_time
            self.act_window.append(act_time)
            if len(self.act_window) > 4:
                self.act_window.pop(0)

        # CAS: same-bank traffic always pays the long CCD (one bank group).
        constraint = self.last_cas + t.tCCD_L
        if is_write:
            constraint = max(constraint, self.last_read_cas + t.tRTW)
            latency = t.tCWL
        else:
            constraint = max(constraint, self.last_write_data_end + t.tWTR_L)
            latency = t.tCL
        constraint = max(constraint, self.bus_free - latency)
        cas = max(earliest, self.ready_cas, constraint)
        data_end = max(cas + latency, self.bus_free) + t.tBL

        self.last_cas = max(self.last_cas, cas)
        if is_write:
            self.last_write_data_end = max(self.last_write_data_end, data_end)
            self.ready_pre = max(self.ready_pre, data_end + t.tWR)
        else:
            self.last_read_cas = max(self.last_read_cas, cas)
            self.ready_pre = max(self.ready_pre, cas + t.tRTP)
        self.bus_free = data_end
        return OracleAccess(
            row, is_write, earliest, row_state, act_time, cas, data_end
        )

    def run(
        self, accesses: List[Tuple[int, bool]], start: float = 0.0
    ) -> List[OracleAccess]:
        """Predict a back-to-back program: access ``k`` issues at CAS ``k-1``.

        This is the channel controller's decision cadence for a pre-filled
        queue with no competing events (see the module docstring).
        """
        out: List[OracleAccess] = []
        earliest = start
        for row, is_write in accesses:
            step = self.access(row, is_write, earliest)
            out.append(step)
            earliest = max(earliest, step.cas_time)
        return out


__all__ = ["OracleAccess", "SingleBankOracle"]
