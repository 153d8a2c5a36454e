"""Indexed request queues for the channel controller.

The seed's controller kept each queue as a plain list and re-scanned it on
every scheduling decision (``O(queue depth)`` per pick, with a ``list.remove``
on top -- quadratic under deep queues).  :class:`IndexedQueue` replaces that
with structures maintained incrementally:

* an insertion-ordered ``seq -> request`` dict (Python dicts preserve
  insertion order, so FIFO head lookup is O(1)); and
* a **lazily built** ``bank -> row -> {seq -> request}`` index, so "the
  oldest request that hits an open row" is found by looking at each *bank*
  with pending work (bounded by the channel's bank count) instead of each
  queued request.  Hit-rich traffic is resolved by a short arrival-order
  prefix scan and never pays for the index at all; the index materialises
  the first time a pick actually falls through the prefix, and is then
  maintained incrementally until the queue drains.

Requests carry their queue bookkeeping in two private slots (``_seq``,
``_bank_row``) stamped by the controller at admission, so removal needs no
recomputation and no scanning.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, TYPE_CHECKING

from repro.memctrl.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.channel import DdrChannel


class IndexedQueue:
    """FIFO request queue with a lazily materialised (bank, row) hit index."""

    __slots__ = ("_pending", "_by_bank", "_indexed")

    #: Queue prefix scanned in arrival order before consulting the bank
    #: index.  Row-hit-rich traffic resolves within a few entries; miss-heavy
    #: deep queues pay O(PREFIX + banks-with-work) instead of O(depth).
    SCAN_PREFIX = 4

    def __init__(self) -> None:
        #: seq -> request, in arrival order.
        self._pending: Dict[int, MemoryRequest] = {}
        #: bank_key -> row -> {seq -> request}, each inner dict in arrival
        #: order.  Only populated while ``_indexed`` is True.
        self._by_bank: Dict[int, Dict[int, Dict[int, MemoryRequest]]] = {}
        self._indexed = False

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def _index_add(self, request: MemoryRequest) -> None:
        seq = request._seq
        bank_key, row = request._bank_row
        rows = self._by_bank.get(bank_key)
        if rows is None:
            self._by_bank[bank_key] = {row: {seq: request}}
            return
        inner = rows.get(row)
        if inner is None:
            rows[row] = {seq: request}
        else:
            inner[seq] = request

    def add(self, request: MemoryRequest) -> None:
        """Append a request (``_seq`` and ``_bank_row`` must be stamped)."""
        self._pending[request._seq] = request
        if self._indexed:
            self._index_add(request)

    def remove(self, request: MemoryRequest) -> None:
        """Remove a previously added request in O(1)."""
        del self._pending[request._seq]
        if self._indexed:
            seq = request._seq
            bank_key, row = request._bank_row
            rows = self._by_bank[bank_key]
            inner = rows[row]
            del inner[seq]
            if not inner:
                del rows[row]
                if not rows:
                    del self._by_bank[bank_key]
                    if not self._by_bank:
                        self._indexed = False

    def first(self) -> Optional[MemoryRequest]:
        """The oldest pending request, or ``None`` when empty."""
        for request in self._pending.values():
            return request
        return None

    def oldest_hit(self, channel: "DdrChannel") -> Optional[MemoryRequest]:
        """The oldest request targeting a currently open row, or ``None``.

        Hybrid search: first scan the queue head in arrival order (the first
        hit found *is* the oldest hit -- exactly the request a front-to-back
        FR-FCFS scan returns); if the head of the queue is hit-free, consult
        the (bank, row) index, where each bank with pending work contributes
        at most its FIFO-first same-row request and the oldest candidate
        wins.  Either way the result matches the seed's linear scan while
        bounding the work at O(PREFIX + banks) rather than O(queue depth).
        """
        banks = channel._banks
        pending = self._pending
        scanned = 0
        for request in pending.values():
            bank_key, row = request._bank_row
            state = banks.get(bank_key)
            if state is not None and state.open_row == row:
                return request
            scanned += 1
            if scanned >= self.SCAN_PREFIX:
                break
        if len(pending) <= scanned:
            return None
        if not self._indexed:
            # First fall-through of this queue episode: materialise the
            # index, then keep it incrementally up to date.
            self._by_bank.clear()
            index_add = self._index_add
            for request in pending.values():
                index_add(request)
            self._indexed = True
        best_seq = -1
        best: Optional[MemoryRequest] = None
        for bank_key, rows in self._by_bank.items():
            state = banks.get(bank_key)
            if state is None:
                continue
            inner = rows.get(state.open_row)  # open_row None never matches a row key
            if not inner:
                continue
            for seq in inner:
                if best is None or seq < best_seq:
                    best_seq = seq
                    best = inner[seq]
                break
        return best

    def requests(self) -> Iterator[MemoryRequest]:
        """Pending requests in arrival order (oldest first)."""
        return iter(self._pending.values())

    def clear(self) -> None:
        self._pending.clear()
        self._by_bank.clear()
        self._indexed = False


__all__ = ["IndexedQueue"]
