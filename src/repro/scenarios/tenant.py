"""Multi-tenant scenario composition.

A *tenant* is one independent traffic source sharing the simulated PIM server
with others: a bulk DRAM<->PIM transfer (a PrIM workload's input push), a
multi-threaded DRAM->DRAM memcpy, or a replayed/synthetic memory trace.  The
composer in :func:`run_scenario` interleaves N tenants on **one** simulation
clock -- they share the memory channels, the PIM-aware scheduler's queues and
(for CPU-driven tenants) the round-robin OS scheduler -- and reports
per-tenant throughput, p50/p99 transfer latency and the slowdown each tenant
suffers relative to running alone on an identical system.

Tenants are described by the picklable, hashable :class:`TenantSpec`, so a
scenario (a tuple of tenants plus a design point) can be shipped to
:func:`~repro.exp.runner.run_specs` workers and keyed into the on-disk
experiment cache exactly like any other spec.

DRAM buffers are allocated deterministically: tenants receive disjoint slices
in declaration order from address 0 upward, so a scenario's address map -- and
therefore its simulation -- is a pure function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import CACHE_LINE_BYTES, DesignPoint, SystemConfig
from repro.system import PimSystem, build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.workloads.microbench import per_core_bytes
from repro.workloads.prim import PRIM_WORKLOADS

from repro.scenarios.trace import (
    TRACE_PATTERNS,
    Trace,
    TraceReplayer,
    load_trace,
    synthesize_trace,
)

KIB = 1024
MIB = 1024 * 1024

#: Workload kinds a tenant can run.
TENANT_KINDS = ("transfer", "memcpy", "trace")


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one tenant in a multi-tenant scenario.

    Use the classmethod constructors (:meth:`transfer`, :meth:`memcpy`,
    :meth:`synthetic`, :meth:`trace_file`, :meth:`prim`) rather than filling
    fields by hand; they validate the per-kind field combinations.
    """

    name: str
    kind: str
    total_bytes: int = 0
    direction: TransferDirection = TransferDirection.DRAM_TO_PIM
    #: Synthetic trace shape (``trace`` tenants without a file).
    pattern: Optional[str] = None
    mean_gap_ns: float = 10.0
    write_fraction: float = 0.0
    seed: int = 0
    #: File-backed trace (``trace`` tenants); the digest keys the cache so a
    #: changed trace file invalidates cached scenario outcomes.
    trace_path: Optional[str] = None
    trace_digest: Optional[str] = None
    #: Simulation time at which the tenant starts issuing work.
    start_offset_ns: float = 0.0
    #: Provenance label when the tenant models a PrIM workload's transfer phase.
    prim_workload: Optional[str] = None
    #: Closed-loop trace tenants: ``concurrency`` logical clients each keep
    #: one access outstanding and issue their next one ``think_ns`` after the
    #: previous completed (the trace times are ignored; its access sequence
    #: is the work list).  The capacity-study arrival model.
    closed_loop: bool = False
    concurrency: int = 1
    think_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TENANT_KINDS:
            raise ValueError(
                f"unknown tenant kind {self.kind!r}; choose from {', '.join(TENANT_KINDS)}"
            )
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.kind == "trace":
            if (self.pattern is None) == (self.trace_path is None):
                raise ValueError(
                    "a trace tenant needs exactly one of pattern= or trace_path="
                )
            if self.pattern is not None and self.pattern not in TRACE_PATTERNS:
                raise ValueError(
                    f"unknown trace pattern {self.pattern!r}; "
                    f"choose from {', '.join(TRACE_PATTERNS)}"
                )
        if self.kind != "trace" or self.trace_path is None:
            if self.total_bytes <= 0:
                raise ValueError(f"tenant {self.name!r} needs total_bytes > 0")
        if self.start_offset_ns < 0:
            raise ValueError("start_offset_ns must be non-negative")
        if self.closed_loop and self.kind != "trace":
            raise ValueError("closed_loop applies to trace tenants only")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.think_ns < 0:
            raise ValueError("think_ns must be non-negative")

    # -- constructors --------------------------------------------------------
    @classmethod
    def transfer(
        cls,
        name: str,
        total_bytes: int,
        direction: TransferDirection = TransferDirection.DRAM_TO_PIM,
        start_offset_ns: float = 0.0,
    ) -> "TenantSpec":
        """A bulk DRAM<->PIM transfer across every PIM core."""
        return cls(
            name=name,
            kind="transfer",
            total_bytes=total_bytes,
            direction=direction,
            start_offset_ns=start_offset_ns,
        )

    @classmethod
    def memcpy(
        cls, name: str, total_bytes: int, start_offset_ns: float = 0.0
    ) -> "TenantSpec":
        """A multi-threaded DRAM->DRAM copy (ordinary non-PIM traffic)."""
        return cls(
            name=name,
            kind="memcpy",
            total_bytes=total_bytes,
            start_offset_ns=start_offset_ns,
        )

    @classmethod
    def synthetic(
        cls,
        name: str,
        pattern: str,
        total_bytes: int,
        mean_gap_ns: float = 10.0,
        write_fraction: float = 0.0,
        seed: int = 0,
        start_offset_ns: float = 0.0,
    ) -> "TenantSpec":
        """A synthetic trace tenant (uniform / bursty / skewed / phased)."""
        return cls(
            name=name,
            kind="trace",
            total_bytes=total_bytes,
            pattern=pattern,
            mean_gap_ns=mean_gap_ns,
            write_fraction=write_fraction,
            seed=seed,
            start_offset_ns=start_offset_ns,
        )

    @classmethod
    def closed(
        cls,
        name: str,
        pattern: str,
        total_bytes: int,
        concurrency: int = 4,
        think_ns: float = 0.0,
        write_fraction: float = 0.0,
        seed: int = 0,
        start_offset_ns: float = 0.0,
    ) -> "TenantSpec":
        """A closed-loop tenant: ``concurrency`` clients, one outstanding each.

        The synthetic ``pattern`` supplies the address sequence; arrival
        timing is closed-loop (issue-on-completion plus ``think_ns``), so
        the tenant's throughput self-limits at the system's capacity instead
        of queueing unboundedly -- the right model for capacity sweeps.
        """
        return cls(
            name=name,
            kind="trace",
            total_bytes=total_bytes,
            pattern=pattern,
            write_fraction=write_fraction,
            seed=seed,
            start_offset_ns=start_offset_ns,
            closed_loop=True,
            concurrency=concurrency,
            think_ns=think_ns,
        )

    @classmethod
    def trace_file(
        cls, name: str, path: str, start_offset_ns: float = 0.0
    ) -> "TenantSpec":
        """A tenant replaying a recorded trace file (JSONL or CSV).

        The trace content is digested immediately, so cached scenario results
        are invalidated when the file changes.
        """
        trace = load_trace(path)
        return cls(
            name=name,
            kind="trace",
            total_bytes=trace.total_bytes,
            trace_path=str(path),
            trace_digest=trace.stable_digest(),
            start_offset_ns=start_offset_ns,
        )

    @classmethod
    def prim(
        cls,
        name: str,
        workload: str,
        cap_bytes: int = 1 * MIB,
        start_offset_ns: float = 0.0,
    ) -> "TenantSpec":
        """The DRAM->PIM input push of one PrIM workload.

        The workload's input volume (tens to hundreds of MB) is capped at
        ``cap_bytes`` -- the same steady-state-window argument the figure
        suite makes -- so scenarios stay simulable in seconds.
        """
        profile = PRIM_WORKLOADS[workload]
        return cls(
            name=name,
            kind="transfer",
            total_bytes=min(profile.input_bytes, cap_bytes),
            direction=TransferDirection.DRAM_TO_PIM,
            start_offset_ns=start_offset_ns,
            prim_workload=workload,
        )

    @property
    def label(self) -> str:
        """Human-readable one-liner for tables and ``--list`` output."""
        if self.kind == "transfer":
            detail = self.prim_workload or self.direction.value
        elif self.kind == "memcpy":
            detail = "DRAM->DRAM"
        elif self.trace_path is not None:
            detail = self.trace_path
        else:
            detail = self.pattern or ""
        if self.closed_loop:
            detail += f" closed x{self.concurrency}"
        size_mib = self.total_bytes / MIB
        return f"{self.kind}:{detail} ({size_mib:.2f} MiB)"


@dataclass
class TenantResult:
    """Per-tenant outcome of one (shared or isolated) scenario run."""

    name: str
    kind: str
    label: str
    requested_bytes: int
    start_ns: float
    end_ns: float
    requests: int
    mean_latency_ns: float
    p50_latency_ns: float
    p99_latency_ns: float
    # Filled by the composer when isolated baselines are run.
    isolated_duration_ns: Optional[float] = None

    @property
    def duration_ns(self) -> float:
        return max(0.0, self.end_ns - self.start_ns)

    @property
    def throughput_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.requested_bytes / self.duration_ns

    @property
    def slowdown(self) -> Optional[float]:
        """How much longer the tenant took than when running alone (>= 1.0)."""
        if self.isolated_duration_ns is None or self.isolated_duration_ns <= 0:
            return None
        return self.duration_ns / self.isolated_duration_ns


@dataclass
class ScenarioOutcome:
    """Picklable outcome of one multi-tenant scenario run."""

    name: str
    design_label: str
    num_pim_cores: int
    tenants: List[TenantResult] = field(default_factory=list)

    @property
    def makespan_ns(self) -> float:
        """Wall time from the first tenant start to the last tenant finish."""
        if not self.tenants:
            return 0.0
        start = min(result.start_ns for result in self.tenants)
        end = max(result.end_ns for result in self.tenants)
        return max(0.0, end - start)

    @property
    def aggregate_throughput_gbps(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return sum(result.requested_bytes for result in self.tenants) / self.makespan_ns

    def rows(self) -> List[Dict[str, object]]:
        """Table rows (one per tenant) for the scenario report."""
        rows: List[Dict[str, object]] = []
        for result in self.tenants:
            slowdown = result.slowdown
            rows.append(
                {
                    "tenant": result.name,
                    "workload": result.label,
                    "MiB": result.requested_bytes / MIB,
                    "duration_us": result.duration_ns / 1e3,
                    "throughput_gbps": result.throughput_gbps,
                    "p50_lat_ns": result.p50_latency_ns,
                    "p99_lat_ns": result.p99_latency_ns,
                    "slowdown": f"{slowdown:.2f}x" if slowdown is not None else "-",
                }
            )
        return rows


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class _TenantDriver:
    """Runtime adapter: starts one tenant's workload on a system, non-blocking."""

    def __init__(
        self,
        spec: TenantSpec,
        dram_base: int,
        pim_heap_offset: int,
    ) -> None:
        self.spec = spec
        self.dram_base = dram_base
        self.pim_heap_offset = pim_heap_offset
        self.start_ns: float = 0.0
        self.end_ns: float = 0.0
        self.done = False

    # -- workload construction ----------------------------------------------
    def _transfer_descriptor(self, system: PimSystem) -> TransferDescriptor:
        cores = system.config.num_pim_cores
        size_per_core = per_core_bytes(self.spec.total_bytes, cores)
        return TransferDescriptor.contiguous(
            direction=self.spec.direction,
            dram_base=self.dram_base,
            size_per_core_bytes=size_per_core,
            pim_core_ids=range(cores),
            pim_heap_offset=self.pim_heap_offset,
            tenant=self.spec.name,
        )

    def _resolve_trace(self) -> Trace:
        if self.spec.trace_path is not None:
            return load_trace(self.spec.trace_path)
        assert self.spec.pattern is not None
        return synthesize_trace(
            self.spec.pattern,
            total_bytes=self.spec.total_bytes,
            base_addr=self.dram_base,
            mean_gap_ns=self.spec.mean_gap_ns,
            write_fraction=self.spec.write_fraction,
            seed=self.spec.seed,
        )

    def _begin(self, system: PimSystem, shared: bool, on_done: Callable[[], None]) -> None:
        """Start the tenant's workload now (called at its start offset)."""
        self.start_ns = system.now

        def finished(_result: object) -> None:
            self.end_ns = system.now
            self.done = True
            on_done()

        if self.spec.kind == "transfer":
            # The design-point -> backend rule lives in repro.api.backends;
            # imported lazily to keep the package import graph acyclic.
            from repro.api.backends import resolve_backend

            backend = resolve_backend(system.design_point)
            backend.begin(
                system,
                self._transfer_descriptor(system),
                on_complete=finished,
                shared=shared,
            )
        elif self.spec.kind == "memcpy":
            from repro.api.backends import CopySpan, create_backend

            span = CopySpan(
                src_base=self.dram_base,
                dst_base=self.dram_base + self.spec.total_bytes,
                total_bytes=self.spec.total_bytes,
                tenant=self.spec.name,
            )
            create_backend("memcpy").begin(
                system, span, on_complete=finished, shared=shared
            )
        else:  # trace
            replayer = TraceReplayer(
                system,
                self._resolve_trace(),
                tenant=self.spec.name,
                closed_loop=self.spec.closed_loop,
                concurrency=self.spec.concurrency,
                think_ns=self.spec.think_ns,
            )
            replayer.begin(on_complete=finished)

    def start(self, system: PimSystem, shared: bool, on_done: Callable[[], None]) -> None:
        """Arm the tenant: begin immediately or at its start offset."""
        if self.spec.start_offset_ns <= system.now:
            self._begin(system, shared, on_done)
        else:
            system.engine.schedule_at(
                self.spec.start_offset_ns,
                lambda: self._begin(system, shared, on_done),
            )


# ---------------------------------------------------------------------------
# Composer
# ---------------------------------------------------------------------------


def allocate_tenants(
    tenants: Sequence[TenantSpec], config: SystemConfig
) -> List[Tuple[int, int]]:
    """Deterministic disjoint ``(dram_base, pim_heap_offset)`` per tenant.

    DRAM slices are handed out in declaration order from address 0; transfer
    tenants additionally stack their per-core PIM heap slices so concurrent
    transfers never alias each other's MRAM rows.
    """
    allocations: List[Tuple[int, int]] = []
    dram_cursor = 0
    heap_cursor = 0
    cores = config.num_pim_cores
    for spec in tenants:
        allocations.append((dram_cursor, heap_cursor))
        if spec.kind == "memcpy":
            # src + dst buffers.
            dram_cursor += 2 * spec.total_bytes
        elif spec.kind == "trace" and spec.trace_path is not None:
            # File traces carry absolute addresses; no allocation needed.
            pass
        else:
            dram_cursor += spec.total_bytes
        if spec.kind == "transfer":
            heap_cursor += per_core_bytes(spec.total_bytes, cores)
        # Keep slices cache-line aligned.
        dram_cursor += (-dram_cursor) % CACHE_LINE_BYTES
    return allocations


def _gather_tenant_stats(
    system: PimSystem, driver: _TenantDriver
) -> TenantResult:
    spec = driver.spec
    latency = system.stats.histogram(f"tenant/{spec.name}/latency_ns")
    return TenantResult(
        name=spec.name,
        kind=spec.kind,
        label=spec.label,
        requested_bytes=spec.total_bytes,
        start_ns=driver.start_ns,
        end_ns=driver.end_ns,
        requests=latency.count,
        mean_latency_ns=latency.mean,
        p50_latency_ns=latency.percentile(0.50),
        p99_latency_ns=latency.percentile(0.99),
    )


def run_tenants(
    config: SystemConfig,
    design_point: DesignPoint,
    tenants: Sequence[TenantSpec],
    allocations: Sequence[Tuple[int, int]],
    system_factory: Optional[Callable[[], PimSystem]] = None,
) -> List[TenantResult]:
    """Run the given tenants concurrently on one fresh (or quiesced) system.

    ``system_factory`` lets a :class:`repro.api.Session` supply its own
    long-lived system (reset to the just-built state between calls) instead
    of constructing a new one; the default builds a fresh system, which is
    bit-identical.
    """
    if system_factory is not None:
        system = system_factory()
    else:
        system = build_system(config=config, design_point=design_point)
    drivers = [
        _TenantDriver(spec, dram_base, heap_offset)
        for spec, (dram_base, heap_offset) in zip(tenants, allocations)
    ]
    remaining = len(drivers)
    shared = len(drivers) > 1

    def on_done() -> None:
        nonlocal remaining
        remaining -= 1

    for driver in drivers:
        driver.start(system, shared, on_done)

    def served_requests() -> float:
        return sum(
            counter.value
            for name, counter in system.stats.counters.items()
            if name.endswith("/served")
        )

    # In shared runs the OS scheduler keeps ticking after a tenant finishes
    # (stop_scheduler_on_finish=False), so the engine never runs dry; a
    # backpressure deadlock would spin on quantum ticks forever.  Detect it:
    # a long event window in which no memory request completes and no tenant
    # finishes means nothing can make progress any more.
    stall_window = 1_000_000
    steps_until_check = stall_window
    last_progress = (remaining, served_requests())
    while remaining > 0:
        if not system.engine.step():
            stuck = [driver.spec.name for driver in drivers if not driver.done]
            raise RuntimeError(
                f"simulation ran dry with tenants still unfinished: {stuck}"
            )
        steps_until_check -= 1
        if steps_until_check == 0:
            steps_until_check = stall_window
            progress = (remaining, served_requests())
            if progress == last_progress:
                stuck = [driver.spec.name for driver in drivers if not driver.done]
                raise RuntimeError(
                    f"no forward progress over {stall_window} events (likely a "
                    f"backpressure deadlock); unfinished tenants: {stuck}"
                )
            last_progress = progress
    return [_gather_tenant_stats(system, driver) for driver in drivers]


def validate_tenants(tenants: Sequence[TenantSpec]) -> List[TenantSpec]:
    """Check a tenant list is runnable (non-empty, unique names)."""
    specs = list(tenants)
    if not specs:
        raise ValueError("a scenario needs at least one tenant")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    return specs


def run_scenario(
    config: SystemConfig,
    design_point: DesignPoint,
    tenants: Sequence[TenantSpec],
    name: str = "scenario",
    include_isolated: bool = True,
    system_factory: Optional[Callable[[], PimSystem]] = None,
) -> ScenarioOutcome:
    """Run a multi-tenant scenario and (optionally) its isolated baselines.

    The shared run interleaves every tenant on one simulated system.  With
    ``include_isolated``, each tenant is additionally run **alone** on an
    identically configured system -- with the *same* buffer allocation, so the
    comparison isolates contention rather than address-mapping differences --
    and the per-tenant ``slowdown`` is the ratio of the two durations.

    ``system_factory`` (see :func:`run_tenants`) makes every constituent run
    reuse a caller-owned quiesced system; the isolated baselines then run
    *before* the shared run, so the caller's system (and stats registry) is
    left holding the shared run's state.
    """
    specs = validate_tenants(tenants)
    allocations = allocate_tenants(specs, config)
    isolated_durations: List[Optional[float]] = [None] * len(specs)
    if include_isolated and len(specs) > 1:
        for index, spec in enumerate(specs):
            solo_spec = replace(spec, start_offset_ns=0.0)
            solo = run_tenants(
                config,
                design_point,
                [solo_spec],
                [allocations[index]],
                system_factory=system_factory,
            )[0]
            isolated_durations[index] = solo.duration_ns
    results = run_tenants(
        config, design_point, specs, allocations, system_factory=system_factory
    )
    for result, duration in zip(results, isolated_durations):
        result.isolated_duration_ns = duration
    if include_isolated and len(specs) == 1:
        # One tenant: the shared run *is* the isolated run.
        results[0].isolated_duration_ns = results[0].duration_ns
    return ScenarioOutcome(
        name=name,
        design_label=design_point.label,
        num_pim_cores=config.num_pim_cores,
        tenants=results,
    )


__all__ = [
    "TENANT_KINDS",
    "ScenarioOutcome",
    "TenantResult",
    "TenantSpec",
    "allocate_tenants",
    "run_scenario",
    "run_tenants",
    "validate_tenants",
]
