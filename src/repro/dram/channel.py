"""Command-level DDR4 channel model.

The channel owns the bank, bank-group, rank and data-bus state of one memory
channel and answers a single question for the memory controller: *given a
request and the earliest time it may start, when would its column command
issue and when would its data burst occupy the bus?*

Two entry points exist:

* :meth:`DdrChannel.estimate` -- a read-only estimate used by the FR-FCFS
  scheduler to rank queued requests (row hits first).
* :meth:`DdrChannel.access` -- actually issues the implicit PRE/ACT plus the
  column command, mutates all state, and returns the resulting
  :class:`AccessTiming`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.dram.bank import BankState
from repro.dram.rank import RankState
from repro.dram.timing import DerivedTiming
from repro.mapping.address import DramAddress
from repro.sim.config import CACHE_LINE_BYTES, MemoryDomainConfig


class AccessTiming(NamedTuple):
    """Timing outcome of one 64 B column access.

    A ``NamedTuple``: one is produced per serviced request, and tuple
    construction is markedly cheaper than a (frozen) dataclass.
    """

    cas_time: float
    data_start: float
    data_end: float
    row_state: str  # "hit", "closed" or "conflict"
    is_write: bool

    @property
    def is_row_hit(self) -> bool:
        return self.row_state == "hit"


class DdrChannel:
    """Timing state of one DDR4 channel (all ranks, bank groups and banks)."""

    def __init__(self, geometry: MemoryDomainConfig, channel_id: int) -> None:
        self.geometry = geometry
        self.channel_id = channel_id
        self.timing = DerivedTiming.from_config(geometry.timing)
        # Geometry-derived integers, hoisted out of the per-access path (the
        # config properties re-multiply on every call).
        self._banks_per_rank = geometry.banks_per_rank
        self._banks_per_group = geometry.banks_per_group
        self._bankgroups_per_rank = geometry.bankgroups_per_rank
        self._limits = (
            geometry.channels,
            geometry.ranks_per_channel,
            geometry.bankgroups_per_rank,
            geometry.banks_per_group,
            geometry.rows_per_bank,
            geometry.columns_per_row,
        )
        self._banks: Dict[int, BankState] = {}
        self._ranks: List[RankState] = [
            RankState(timing=self.timing) for _ in range(geometry.ranks_per_channel)
        ]
        # Per bank-group and channel-wide last column-command times, split by
        # direction so the read/write turnaround penalties can be applied.
        self._last_cas_bankgroup: Dict[int, float] = {}
        self._last_cas_channel: float = float("-inf")
        self._last_read_cas: float = float("-inf")
        self._last_write_data_end: float = float("-inf")
        self.bus_free_time: float = 0.0
        self.busy_data_ns: float = 0.0

    # ------------------------------------------------------------------ keys
    def bank_key_of(self, addr: DramAddress) -> int:
        """Flat bank index within the channel (rank-major), as cached int ops."""
        return (
            addr.rank * self._banks_per_rank
            + addr.bankgroup * self._banks_per_group
            + addr.bank
        )

    # Backwards-compatible aliases (the public name is ``bank_key_of``).
    def _bank_key(self, addr: DramAddress) -> int:
        return self.bank_key_of(addr)

    def _bankgroup_key(self, addr: DramAddress) -> int:
        return addr.rank * self._bankgroups_per_rank + addr.bankgroup

    def bank_state(self, addr: DramAddress) -> BankState:
        key = self._bank_key(addr)
        if key not in self._banks:
            self._banks[key] = BankState()
        return self._banks[key]

    def rank_state(self, rank: int) -> RankState:
        return self._ranks[rank]

    # ------------------------------------------------------------- estimation
    def row_state(self, addr: DramAddress) -> str:
        return self.bank_state(addr).classify(addr.row)

    def estimate(self, addr: DramAddress, is_write: bool, earliest: float) -> float:
        """Estimate (without mutating state) when the column command could issue."""
        bank = self.bank_state(addr)
        state = bank.classify(addr.row)
        candidate = earliest
        if state == "hit":
            cas_ready = bank.ready_cas
        elif state == "closed":
            act = max(candidate, bank.ready_act)
            cas_ready = act + self.timing.tRCD
        else:
            pre = max(candidate, bank.ready_pre)
            act = pre + self.timing.tRP
            cas_ready = act + self.timing.tRCD
        cas = max(candidate, cas_ready, self._cas_constraints(addr, is_write))
        return cas

    def _cas_constraints(self, addr: DramAddress, is_write: bool) -> float:
        bg_key = self._bankgroup_key(addr)
        constraint = max(
            self._last_cas_bankgroup.get(bg_key, float("-inf")) + self.timing.tCCD_L,
            self._last_cas_channel + self.timing.tCCD_S,
        )
        if is_write:
            constraint = max(constraint, self._last_read_cas + self.timing.tRTW)
        else:
            constraint = max(
                constraint, self._last_write_data_end + self.timing.tWTR_L
            )
        latency = self.timing.tCWL if is_write else self.timing.tCL
        constraint = max(constraint, self.bus_free_time - latency)
        return constraint

    # ----------------------------------------------------------------- access
    def access(
        self, addr: DramAddress, is_write: bool, earliest: float,
        validated: bool = False,
    ) -> AccessTiming:
        """Issue one 64 B access (implicit PRE/ACT as needed) and return its timing.

        ``validated=True`` skips the bounds guard -- the channel controller's
        addresses were produced by the system mapper and are in range by
        construction.
        """
        if not validated:
            limits = self._limits
            if not (
                0 <= addr[0] < limits[0]
                and 0 <= addr[1] < limits[1]
                and 0 <= addr[2] < limits[2]
                and 0 <= addr[3] < limits[3]
                and 0 <= addr[4] < limits[4]
                and 0 <= addr[5] < limits[5]
            ):
                addr.validate(self.geometry)  # raises with the precise field name
        timing = self.timing
        row = addr.row
        addr_rank = addr.rank
        key = (
            addr_rank * self._banks_per_rank
            + addr.bankgroup * self._banks_per_group
            + addr.bank
        )
        bank = self._banks.get(key)
        if bank is None:
            bank = self._banks[key] = BankState()
        rank = self._ranks[addr_rank]

        # Lazily apply any refresh whose deadline has passed.
        if earliest >= rank.next_refresh_due:
            refreshed_until = rank.perform_due_refreshes(earliest)
            if refreshed_until > earliest:
                banks_per_rank = self._banks_per_rank
                for bank_key, state in self._banks.items():
                    if bank_key // banks_per_rank == addr_rank:
                        state.block_until(refreshed_until)

        open_row = bank.open_row
        if open_row is None:
            row_state = "closed"
            bank.row_misses += 1
            candidate = earliest
        elif open_row == row:
            row_state = "hit"
            bank.row_hits += 1
        else:
            row_state = "conflict"
            bank.row_conflicts += 1
            candidate = bank.precharge(earliest, timing)

        if row_state != "hit":
            act_candidate = rank.earliest_activate(
                max(candidate, bank.ready_act), same_bankgroup=False
            )
            act_time = bank.activate(act_candidate, row, timing)
            rank.record_activate(act_time)

        # Inlined _cas_constraints (one call per serviced request otherwise).
        bg_key = addr_rank * self._bankgroups_per_rank + addr.bankgroup
        last_bg = self._last_cas_bankgroup.get(bg_key)
        constraint = self._last_cas_channel + timing.tCCD_S
        if last_bg is not None:
            bg_constraint = last_bg + timing.tCCD_L
            if bg_constraint > constraint:
                constraint = bg_constraint
        if is_write:
            turnaround = self._last_read_cas + timing.tRTW
            latency = timing.tCWL
        else:
            turnaround = self._last_write_data_end + timing.tWTR_L
            latency = timing.tCL
        if turnaround > constraint:
            constraint = turnaround
        bus_bound = self.bus_free_time - latency
        if bus_bound > constraint:
            constraint = bus_bound

        cas_time = max(earliest, bank.ready_cas, constraint)
        data_start = max(cas_time + latency, self.bus_free_time)
        data_end = data_start + timing.tBL

        # Commit state updates.
        if last_bg is None or cas_time > last_bg:
            self._last_cas_bankgroup[bg_key] = cas_time
        if cas_time > self._last_cas_channel:
            self._last_cas_channel = cas_time
        if is_write:
            if data_end > self._last_write_data_end:
                self._last_write_data_end = data_end
            bank.record_write(data_end, timing)
        else:
            if cas_time > self._last_read_cas:
                self._last_read_cas = cas_time
            bank.record_read(cas_time, timing)
        self.bus_free_time = data_end
        self.busy_data_ns += timing.tBL

        return AccessTiming(cas_time, data_start, data_end, row_state, is_write)

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Forget all timing state, as if the channel had just powered on.

        Every piece of channel state carries absolute timestamps (open rows'
        ready times, CAS history, refresh deadlines, bus occupancy), so a
        clean reset paired with rewinding the simulation clock reproduces a
        freshly built channel exactly.
        """
        self._banks.clear()
        self._ranks = [
            RankState(timing=self.timing)
            for _ in range(self.geometry.ranks_per_channel)
        ]
        self._last_cas_bankgroup.clear()
        self._last_cas_channel = float("-inf")
        self._last_read_cas = float("-inf")
        self._last_write_data_end = float("-inf")
        self.bus_free_time = 0.0
        self.busy_data_ns = 0.0

    # ------------------------------------------------------------------ stats
    @property
    def total_row_hits(self) -> int:
        return sum(bank.row_hits for bank in self._banks.values())

    @property
    def total_row_conflicts(self) -> int:
        return sum(bank.row_conflicts for bank in self._banks.values())

    @property
    def total_activations(self) -> int:
        return sum(bank.activations for bank in self._banks.values())

    def utilization(self, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` during which the data bus carried data."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_data_ns / elapsed_ns)

    @property
    def bytes_per_burst(self) -> int:
        return CACHE_LINE_BYTES


__all__ = ["AccessTiming", "DdrChannel"]
