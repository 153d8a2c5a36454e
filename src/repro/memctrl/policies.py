"""Pluggable memory-scheduler policies and their registry.

The channel controller (:mod:`repro.memctrl.controller`) asks its policy one
question per issued command: *given this queue and this channel state, which
request is served next?*  Policies are selected by the
``MemCtrlConfig.policy`` string (threaded through
:class:`~repro.sim.config.SystemConfig`, the :class:`~repro.api.Session`
facade, experiment specs and the CLI) and listed by ``repro variants``.

Registered policies
-------------------
``fcfs``
    Strict first-come first-served: always the oldest request.  The simplest
    possible reference; pays a row cycle for every bank conflict.
``frfcfs`` (default; the config spells it ``FR-FCFS``)
    First-ready FR-FCFS: the oldest request that hits an already-open row,
    falling back to the oldest request.  Identical decisions to the seed's
    linear-scan implementation, found through the queue's (bank, row) index.
``frfcfs_cap`` / ``frfcfs_cap:<N>``
    FR-FCFS with a row-hit streak cap (default 4): after ``N`` consecutive
    hits to one row, the oldest request is served even if more hits are
    pending, bounding the starvation a streaming row can inflict.
``qos_priority`` / ``qos_priority:<tenant>=<prio>,...``
    Tenant-aware strict-priority scheduling: requests of the highest-priority
    tenant class present are served first (FR-FCFS within a class).  Unlisted
    tenants (and untagged requests) default to priority 0; higher numbers are
    served first.  This is the policy the ``qos-priority`` scenario uses to
    relieve priority inversion for latency-sensitive tenants.

Policy *specs* are strings so they stay picklable, cache-key friendly and
CLI-friendly: ``name`` or ``name:args``, case-insensitive, with ``-``
ignored in the name (``FR-FCFS`` therefore resolves to ``frfcfs``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.memctrl.queues import IndexedQueue
from repro.memctrl.request import MemoryRequest
from repro.registry import VariantRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dram.channel import DdrChannel


class SchedulerPolicy:
    """Base class: picks the next request to service from a queue."""

    #: Registry key (set on registration).
    name: str = "abstract"
    #: One-line description shown by ``repro variants``.
    description: str = ""

    def select(
        self, queue: IndexedQueue, channel: "DdrChannel"
    ) -> MemoryRequest:
        """Return the request to service next (``queue`` is non-empty)."""
        raise NotImplementedError

    # Optional hooks ------------------------------------------------------
    def on_enqueue(self, request: MemoryRequest) -> None:
        """Called after a request is admitted into a queue."""

    def on_remove(self, request: MemoryRequest) -> None:
        """Called when a request leaves a queue (picked for service)."""

    def reset(self) -> None:
        """Forget all scheduling state (power-on reset)."""


class FcfsPolicy(SchedulerPolicy):
    """Strict arrival-order service."""

    description = "first-come first-served (arrival order, row state ignored)"

    def select(self, queue: IndexedQueue, channel: "DdrChannel") -> MemoryRequest:
        return queue.first()


class FrFcfsPolicy(SchedulerPolicy):
    """First-ready FR-FCFS: oldest row hit first, otherwise the oldest."""

    description = "first-ready FCFS: oldest open-row hit, else oldest (default)"

    def select(self, queue: IndexedQueue, channel: "DdrChannel") -> MemoryRequest:
        hit = queue.oldest_hit(channel)
        if hit is not None:
            return hit
        return queue.first()


class FrFcfsCapPolicy(SchedulerPolicy):
    """FR-FCFS with a cap on consecutive same-row hits (anti-starvation)."""

    description = "FR-FCFS with a row-hit streak cap (frfcfs_cap:<N>, default 4)"

    def __init__(self, cap: int = 4) -> None:
        if cap < 1:
            raise ValueError(f"row-hit cap must be >= 1, got {cap}")
        self.cap = cap
        self._streak_bank_row: Optional[tuple] = None
        self._streak = 0

    def select(self, queue: IndexedQueue, channel: "DdrChannel") -> MemoryRequest:
        hit = queue.oldest_hit(channel)
        oldest = queue.first()
        if hit is None:
            return oldest
        if (
            hit is not oldest
            and self._streak >= self.cap
            and hit._bank_row == self._streak_bank_row
        ):
            return oldest
        return hit

    def on_remove(self, request: MemoryRequest) -> None:
        if request._bank_row == self._streak_bank_row:
            self._streak += 1
        else:
            self._streak_bank_row = request._bank_row
            self._streak = 1

    def reset(self) -> None:
        self._streak_bank_row = None
        self._streak = 0


class QosPriorityPolicy(SchedulerPolicy):
    """Strict tenant-priority classes, FR-FCFS within the winning class."""

    description = (
        "tenant-aware strict priority (qos_priority:<tenant>=<prio>,...), "
        "FR-FCFS within a class"
    )

    def __init__(self, priorities: Optional[Dict[str, int]] = None) -> None:
        self.priorities = dict(priorities or {})
        #: (is_write, priority) -> IndexedQueue mirror of that class's
        #: requests.  Buckets are kept per direction because ``select`` must
        #: only ever return a member of the queue it was handed (the controller's
        #: read/write queue choice is made by the write-drain logic, not by
        #: the policy).
        self._classes: Dict[tuple, IndexedQueue] = {}

    def _priority_of(self, request: MemoryRequest) -> int:
        tenant = request.tenant
        if tenant is None:
            return 0
        return self.priorities.get(tenant, 0)

    def on_enqueue(self, request: MemoryRequest) -> None:
        key = (request.is_write, self._priority_of(request))
        bucket = self._classes.get(key)
        if bucket is None:
            bucket = self._classes[key] = IndexedQueue()
        bucket.add(request)

    def on_remove(self, request: MemoryRequest) -> None:
        key = (request.is_write, self._priority_of(request))
        bucket = self._classes[key]
        bucket.remove(request)
        if not bucket:
            del self._classes[key]

    def select(self, queue: IndexedQueue, channel: "DdrChannel") -> MemoryRequest:
        first = queue.first()
        is_write = first.is_write  # queues are homogeneous per direction
        best_priority = None
        for bucket_write, priority in self._classes:
            if bucket_write == is_write and (
                best_priority is None or priority > best_priority
            ):
                best_priority = priority
        bucket = self._classes[(is_write, best_priority)]
        if len(bucket) == len(queue):
            # One class present (the common case): plain FR-FCFS.
            hit = queue.oldest_hit(channel)
            return hit if hit is not None else first
        hit = bucket.oldest_hit(channel)
        return hit if hit is not None else bucket.first()

    def reset(self) -> None:
        self._classes.clear()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: The scheduler-policy axis on the shared variant-registry mechanism
#: (``repro variants`` lists it alongside backends and fabrics).
POLICIES = VariantRegistry(
    "scheduler policy",
    error=KeyError,
    known_label="registered",
    dup_label="policy",
)


def register_policy(
    name: str,
    factory: Callable[[Optional[str]], SchedulerPolicy],
    description: str,
) -> None:
    """Register a scheduler policy under ``name`` (listed by ``repro variants``)."""
    POLICIES.register(name, factory, description)


def normalize_policy_name(name: str) -> str:
    """Canonicalise a policy spelling: lower-case, dashes ignored.

    ``FR-FCFS`` (the Table I spelling used by ``MemCtrlConfig``) normalises
    to ``frfcfs``.
    """
    return POLICIES.normalize(name)


def parse_policy_spec(spec: str) -> tuple:
    """Split ``name[:args]`` into ``(canonical_name, args_or_None)``."""
    return POLICIES.parse(spec)


def available_policies() -> List[str]:
    """Registered policy names, in registration order."""
    return POLICIES.names()


def policy_description(name: str) -> str:
    return POLICIES.description(name)


def create_policy(spec: str) -> SchedulerPolicy:
    """Instantiate a policy from a ``name[:args]`` spec string."""
    policy = POLICIES.create(spec)
    policy.name, _ = POLICIES.parse(spec)
    return policy


def _fcfs_factory(args: Optional[str]) -> SchedulerPolicy:
    if args:
        raise ValueError(f"fcfs takes no arguments, got {args!r}")
    return FcfsPolicy()


def _frfcfs_factory(args: Optional[str]) -> SchedulerPolicy:
    if args:
        raise ValueError(f"frfcfs takes no arguments, got {args!r}")
    return FrFcfsPolicy()


def _frfcfs_cap_factory(args: Optional[str]) -> SchedulerPolicy:
    if args is None:
        return FrFcfsCapPolicy()
    try:
        cap = int(args)
    except ValueError:
        raise ValueError(f"frfcfs_cap takes an integer cap, got {args!r}")
    return FrFcfsCapPolicy(cap=cap)


def parse_qos_priorities(args: Optional[str]) -> Dict[str, int]:
    """Parse ``tenantA=2,tenantB=1`` into a priority mapping."""
    priorities: Dict[str, int] = {}
    if not args:
        return priorities
    for item in args.split(","):
        tenant, sep, value = item.partition("=")
        tenant = tenant.strip()
        if not sep or not tenant:
            raise ValueError(
                f"cannot parse qos_priority entry {item!r}; expected "
                "'<tenant>=<priority>'"
            )
        try:
            priorities[tenant] = int(value)
        except ValueError:
            raise ValueError(f"priority for tenant {tenant!r} must be an integer")
    return priorities


def _qos_priority_factory(args: Optional[str]) -> SchedulerPolicy:
    return QosPriorityPolicy(parse_qos_priorities(args))


register_policy("fcfs", _fcfs_factory, FcfsPolicy.description)
register_policy("frfcfs", _frfcfs_factory, FrFcfsPolicy.description)
register_policy("frfcfs_cap", _frfcfs_cap_factory, FrFcfsCapPolicy.description)
register_policy("qos_priority", _qos_priority_factory, QosPriorityPolicy.description)


__all__ = [
    "POLICIES",
    "FcfsPolicy",
    "FrFcfsCapPolicy",
    "FrFcfsPolicy",
    "QosPriorityPolicy",
    "SchedulerPolicy",
    "available_policies",
    "create_policy",
    "normalize_policy_name",
    "parse_policy_spec",
    "parse_qos_priorities",
    "policy_description",
    "register_policy",
]
