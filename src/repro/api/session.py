"""The ``Session`` facade: one object through which all traffic flows.

A :class:`Session` owns exactly one simulated server -- one
:class:`~repro.sim.engine.SimulationEngine`, one
:class:`~repro.sim.stats.StatsRegistry` and one
:class:`~repro.system.PimSystem` -- for one ``(SystemConfig, DesignPoint)``
pair, and exposes every way the reproduction can put traffic on it:

* :meth:`Session.transfer` -- a bulk DRAM<->PIM (or DRAM->DRAM) transfer
  through a registered :class:`~repro.api.backends.TransferBackend`;
* :meth:`Session.replay` -- deterministic open-loop replay of a recorded or
  synthetic :class:`~repro.scenarios.trace.Trace`;
* :meth:`Session.mix` -- N concurrent tenants composed on the session's
  single simulation clock, with per-tenant breakdowns;
* :meth:`Session.serve_llm` -- a continuous-batching LLM serving run
  (:mod:`repro.workloads.llm`) whose per-request TTFT/ITL rows land in
  ``result.request_records``;
* :meth:`Session.run_workload` -- any declarative
  :class:`~repro.exp.spec.ExperimentSpec` or registered scenario name,
  served through the session's cache-aware experiment provider.

Every entry point returns the same typed
:class:`~repro.api.results.RunResult`.

Consecutive runs are isolated without rebuilding the system: before each run
the session calls :meth:`~repro.system.PimSystem.reset_state`, which rewinds
the clock and clears all timing state, making a session's N-th run
bit-identical to the same run on a freshly built system.  The per-run
:meth:`~repro.sim.stats.StatsRegistry.snapshot` travels inside the result.

Open a session directly, as a context manager, or through the fluent
:class:`SessionBuilder`::

    from repro import Session

    with Session.open(design_point=DesignPoint.BASE_DHP) as session:
        result = session.transfer(total_bytes=1 << 20)
        print(result.throughput_gbps)
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.registry import Variants
from repro.sim.config import DesignPoint, SystemConfig
from repro.sim.engine import SimulationEngine
from repro.sim.stats import StatsRegistry
from repro.system import PimSystem, build_mapper
from repro.transfer.descriptor import TransferDescriptor, TransferDirection

from repro.api.backends import (
    CopySpan,
    TransferBackend,
    create_backend,
    default_backend_name,
)
from repro.api.results import RunResult, tenant_breakdown_from_result

KIB = 1024


#: Bytes simulated per transfer before extrapolation.  This is the single
#: source of truth; :mod:`repro.exp.spec` re-exports it so the declarative
#: spec layer and the facade can never drift apart.
DEFAULT_SIM_CAP_BYTES = 512 * KIB


class Session:
    """Context-managed facade over one simulated PIM server.

    Construct with :meth:`open` (or :class:`SessionBuilder`); the underlying
    system is built lazily on first use.  A closed session refuses further
    traffic.
    """

    def __init__(
        self,
        config: SystemConfig,
        design_point: DesignPoint,
        backend: Optional[str] = None,
        cache=None,
        jobs: int = 1,
        variants: Optional[Variants] = None,
    ) -> None:
        if variants is not None:
            # apply() validates every spec first, preserving the historical
            # fail-fast-at-open behaviour (and its exact error types).
            config = variants.apply(config)
        self.variants = variants if variants is not None else Variants()
        self.config = config
        self.design_point = design_point
        self._backend_name = backend
        if backend is not None:
            create_backend(backend)  # fail fast on unknown names
        self._cache = cache
        self._jobs = jobs
        self._engine: Optional[SimulationEngine] = None
        self._stats: Optional[StatsRegistry] = None
        self._system: Optional[PimSystem] = None
        self._provider = None
        self._dirty = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def open(
        cls,
        config: Optional[SystemConfig] = None,
        design_point: DesignPoint = DesignPoint.BASE_DHP,
        backend: Optional[str] = None,
        cache=None,
        jobs: int = 1,
        variants: Optional[Variants] = None,
    ) -> "Session":
        """Open a session on ``config`` (Table I by default) and a design point.

        ``backend`` overrides the design point's default transfer backend for
        :meth:`transfer`; ``variants`` is a typed
        :class:`~repro.registry.Variants` bundle selecting the scheduler
        policy and the interconnect fabric (``none``/``mesh:WxH``);
        ``repro variants`` lists every registered spec.  ``fabric="none"`` is
        bit-identical to the direct path; policies and real fabrics change
        scheduling.  ``cache``/``jobs`` configure the experiment provider
        behind :meth:`run_workload`.
        """
        return cls(
            config=config if config is not None else SystemConfig.paper_baseline(),
            design_point=design_point,
            backend=backend,
            cache=cache,
            jobs=jobs,
            variants=variants,
        )

    @classmethod
    def builder(cls) -> "SessionBuilder":
        """Start a fluent :class:`SessionBuilder`."""
        return SessionBuilder()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the session.  Idempotent; further traffic calls raise."""
        if self._closed:
            return
        self._closed = True
        if self._engine is not None and len(self._engine):
            self._engine.drain()
        self._system = None
        self._engine = None
        self._stats = None
        self._provider = None

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this Session has been closed")

    # ------------------------------------------------------------ the system
    @property
    def engine(self) -> SimulationEngine:
        self._check_open()
        if self._engine is None:
            self._engine = SimulationEngine()
        return self._engine

    @property
    def stats(self) -> StatsRegistry:
        self._check_open()
        if self._stats is None:
            self._stats = StatsRegistry()
        return self._stats

    @property
    def system(self) -> PimSystem:
        """The session's one wired system (built lazily)."""
        self._check_open()
        if self._system is None:
            self._system = PimSystem(
                config=self.config,
                mapper=build_mapper(self.config, self.design_point),
                design_point=self.design_point,
                engine=self.engine,
                stats=self.stats,
            )
        return self._system

    @property
    def backend_name(self) -> str:
        """The backend :meth:`transfer` uses unless overridden per call."""
        if self._backend_name is not None:
            return self._backend_name
        return default_backend_name(self.design_point)

    @property
    def backend(self) -> TransferBackend:
        return create_backend(self.backend_name)

    @property
    def provider(self):
        """The session's cache-aware experiment provider (built lazily).

        This is the same :class:`~repro.exp.runner.ExperimentProvider` the
        figure registry and the CLI consume, configured with the session's
        config, cache and worker count -- the one orchestration path, reached
        through the facade.
        """
        self._check_open()
        if self._provider is None:
            from repro.exp.runner import ExperimentProvider

            self._provider = ExperimentProvider(
                self.config, cache=self._cache, jobs=self._jobs
            )
        return self._provider

    def _isolated_system(self) -> PimSystem:
        """The session system, reset to its just-built state when reused."""
        system = self.system
        if self._dirty:
            system.reset_state()
        self._dirty = True
        return system

    def stats_snapshot(self) -> Dict[str, float]:
        """Snapshot of the stats registry (the last run's state)."""
        return self.stats.snapshot()

    # ---------------------------------------------------------- aggregation
    def _request_stats(self) -> Dict[str, float]:
        """System-wide request count and latency percentiles of the last run."""
        stats = self.stats
        requests = sum(
            counter.value
            for name, counter in stats.counters.items()
            if name.endswith("/served")
        )
        latency = stats.merged_histogram("/latency_ns", name="session/latency_ns")
        return {
            "requests": requests,
            "mean": latency.mean,
            "p50": latency.percentile(0.50),
            "p99": latency.percentile(0.99),
        }

    # -------------------------------------------------------------- transfer
    def transfer(
        self,
        total_bytes: int,
        direction: TransferDirection = TransferDirection.DRAM_TO_PIM,
        backend: Optional[str] = None,
        sim_cap_bytes: int = DEFAULT_SIM_CAP_BYTES,
        contention=None,
        num_pim_cores: Optional[int] = None,
    ) -> RunResult:
        """Run one bulk transfer through a registered backend.

        DRAM<->PIM backends split ``total_bytes`` evenly across the PIM cores
        (cache-line aligned) and simulate up to ``sim_cap_bytes`` before
        extrapolating at the measured steady rate -- exactly the rule the
        figure suite applies.  The ``memcpy`` backend copies ``total_bytes``
        DRAM->DRAM instead.  ``contention`` takes a
        :class:`~repro.exp.spec.ContentionSpec` whose co-located contenders
        share the run (the Figure 13 study).
        """
        self._check_open()
        backend_name = backend if backend is not None else self.backend_name
        chosen = create_backend(backend_name)

        # Dispatch on the work item the backend actually accepts, preferring
        # the DRAM<->PIM descriptor path (the primary operation) when a
        # backend handles both.
        probe_descriptor = TransferDescriptor.contiguous(
            direction, dram_base=0, size_per_core_bytes=64, pim_core_ids=(0,)
        )
        span = CopySpan(src_base=0, dst_base=total_bytes, total_bytes=total_bytes)
        moves_descriptors = chosen.accepts(probe_descriptor)
        if not moves_descriptors and not chosen.accepts(span):
            raise TypeError(
                f"backend {backend_name!r} accepts neither TransferDescriptor "
                "nor CopySpan work; Session.transfer cannot drive it"
            )
        system = self._isolated_system()

        if not moves_descriptors:
            if contention is not None:
                raise ValueError(
                    "contention is not supported on DRAM->DRAM copy backends"
                )
            from repro.energy.system import SystemEnergyModel

            result = chosen.execute(system, span)
            energy = SystemEnergyModel(self.config).evaluate(
                result, include_pim_mmu=chosen.uses_dce
            )
            request_stats = self._request_stats()
            return RunResult(
                kind="transfer",
                backend=backend_name,
                design_label=self.design_point.label,
                requested_bytes=total_bytes,
                start_ns=result.start_ns,
                end_ns=result.end_ns,
                requests=int(request_stats["requests"]),
                mean_latency_ns=request_stats["mean"],
                p50_latency_ns=request_stats["p50"],
                p99_latency_ns=request_stats["p99"],
                energy_joules=energy.total_j,
                stats=self.stats.snapshot(),
                raw=result,
            )

        from repro.workloads.microbench import run_transfer_experiment_on

        contender_factory = contention.factory() if contention is not None else None
        experiment = run_transfer_experiment_on(
            system,
            direction,
            total_bytes,
            num_pim_cores=num_pim_cores,
            sim_cap_bytes=sim_cap_bytes,
            contender_factory=contender_factory,
            backend=chosen,
        )
        request_stats = self._request_stats()
        result = experiment.result
        return RunResult(
            kind="transfer",
            backend=backend_name,
            design_label=self.design_point.label,
            requested_bytes=experiment.requested_bytes,
            start_ns=result.start_ns,
            end_ns=result.end_ns,
            requests=int(request_stats["requests"]),
            mean_latency_ns=request_stats["mean"],
            p50_latency_ns=request_stats["p50"],
            p99_latency_ns=request_stats["p99"],
            energy_joules=experiment.energy_joules,
            stats=self.stats.snapshot(),
            extra={
                "simulated_bytes": float(experiment.simulated_bytes),
                "pim_utilization": experiment.pim_utilization,
            },
            raw=experiment,
        )

    # ---------------------------------------------------------------- replay
    def replay(
        self,
        trace,
        tenant: Optional[str] = None,
        time_scale: float = 1.0,
    ) -> RunResult:
        """Replay a :class:`~repro.scenarios.trace.Trace` (or trace file path).

        Open-loop and deterministic: each access is issued at its recorded
        offset (scaled by ``time_scale``) from the run start; backpressure
        defers accesses in arrival order.  The result's latency fields come
        from the replayer's per-request measurements.
        """
        self._check_open()
        from repro.scenarios.trace import Trace, TraceReplayer, load_trace

        if isinstance(trace, (str, Path)):
            trace = load_trace(trace)
        if not isinstance(trace, Trace):
            raise TypeError(f"expected a Trace or a trace file path, got {type(trace).__name__}")
        system = self._isolated_system()
        replayer = TraceReplayer(system, trace, tenant=tenant, time_scale=time_scale)
        outcome = replayer.execute()
        return RunResult(
            kind="replay",
            backend=None,
            design_label=self.design_point.label,
            requested_bytes=outcome.total_bytes,
            start_ns=outcome.start_ns,
            end_ns=outcome.end_ns,
            requests=outcome.completed,
            mean_latency_ns=outcome.mean_latency_ns,
            p50_latency_ns=outcome.p50_latency_ns,
            p99_latency_ns=outcome.p99_latency_ns,
            stats=self.stats.snapshot(),
            extra={
                "trace_events": float(outcome.trace_events),
                "deferred": float(outcome.deferred),
            },
            raw=outcome,
        )

    # ------------------------------------------------------------------- mix
    def mix(
        self,
        tenants: Iterable,
        name: str = "mix",
        include_isolated: bool = True,
    ) -> RunResult:
        """Compose N tenants on the session's single simulation clock.

        Tenants are :class:`~repro.scenarios.tenant.TenantSpec` instances;
        transfer and memcpy tenants flow through the registered backends, and
        the per-tenant breakdown (throughput, p50/p99 latency, slowdown
        vs. isolated) lands in ``result.tenants``.  The shared run executes
        last, so the session's stats snapshot describes it.

        Transfer tenants always use the design point's *default* backend (the
        composer models the stack the design point ships with); a session
        ``backend`` override applies to :meth:`transfer` only, so the result
        reports the default backend here.
        """
        self._check_open()
        from repro.scenarios.tenant import run_scenario

        specs = list(tenants)
        outcome = run_scenario(
            self.config,
            self.design_point,
            specs,
            name=name,
            include_isolated=include_isolated,
            system_factory=self._isolated_system,
        )
        breakdowns = tuple(
            tenant_breakdown_from_result(result) for result in outcome.tenants
        )
        start_ns = min((b.start_ns for b in breakdowns), default=0.0)
        end_ns = max((b.end_ns for b in breakdowns), default=0.0)
        return RunResult(
            kind="mix",
            backend=default_backend_name(self.design_point),
            design_label=outcome.design_label,
            requested_bytes=sum(b.requested_bytes for b in breakdowns),
            start_ns=start_ns,
            end_ns=end_ns,
            requests=sum(b.requests for b in breakdowns),
            tenants=breakdowns,
            stats=self.stats.snapshot(),
            extra={"num_pim_cores": float(outcome.num_pim_cores)},
            raw=outcome,
        )

    # ------------------------------------------------------------- serve_llm
    def serve_llm(
        self,
        model,
        tenants: Iterable,
        max_batch_size: int = 8,
        kv_pool_bytes: Optional[int] = None,
        iteration_overhead_ns: float = 0.0,
        name: str = "serve",
    ) -> RunResult:
        """Serve LLM request streams with continuous batching on this session.

        ``model`` is a :class:`~repro.workloads.llm.ModelSpec` and ``tenants``
        are :class:`~repro.workloads.llm.LlmTenantSpec` request classes; the
        run multiplexes every tenant's arrivals on the session clock with
        KV-byte-accounted admission (see :mod:`repro.workloads.llm` and
        ``docs/llm_serving.md``).  The result's ``request_records`` carry one
        :class:`~repro.api.results.RequestRecord` per served request --
        TTFT/ITL distributions and SLO attainment derive from them --
        while ``requests``/latency summarise the underlying *memory*
        requests, as in every other entry point.
        """
        self._check_open()
        from repro.workloads.llm import run_serving

        outcome = run_serving(
            self.config,
            self.design_point,
            model,
            list(tenants),
            max_batch_size=max_batch_size,
            kv_pool_bytes=kv_pool_bytes,
            iteration_overhead_ns=iteration_overhead_ns,
            name=name,
            system_factory=self._isolated_system,
        )
        request_stats = self._request_stats()
        return RunResult(
            kind="serve",
            backend=None,
            design_label=outcome.design_label,
            requested_bytes=outcome.traffic_bytes,
            start_ns=outcome.start_ns,
            end_ns=outcome.end_ns,
            requests=int(request_stats["requests"]),
            mean_latency_ns=request_stats["mean"],
            p50_latency_ns=request_stats["p50"],
            p99_latency_ns=request_stats["p99"],
            request_records=outcome.records,
            stats=self.stats.snapshot(),
            extra={
                "iterations": float(outcome.iterations),
                "deferred": float(outcome.deferred),
                "kv_peak_bytes": float(outcome.kv_peak_bytes),
                "tokens_per_second": outcome.tokens_per_second,
            },
            raw=outcome,
        )

    # -------------------------------------------------------------- workload
    def run_workload(self, workload) -> RunResult:
        """Run a declarative experiment spec or a registered scenario by name.

        Accepts any :class:`~repro.exp.spec.ExperimentSpec` (including
        :class:`~repro.scenarios.registry.ScenarioSpec`) or the name of a
        scenario in :data:`~repro.scenarios.registry.SCENARIOS`.  Execution
        goes through the session's :attr:`provider`, so outcomes are memoised
        and (when the session has a cache) persisted on disk.
        """
        self._check_open()
        from repro.exp.spec import ExperimentSpec

        spec = workload
        if isinstance(spec, str):
            from repro.scenarios.registry import SCENARIOS

            if spec not in SCENARIOS:
                known = ", ".join(SCENARIOS)
                raise KeyError(f"unknown scenario {spec!r}; registered: {known}")
            spec = SCENARIOS[spec].spec
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(
                "run_workload takes an ExperimentSpec or a registered scenario "
                f"name, got {type(workload).__name__}"
            )
        value = self.provider.run(spec)
        return self._wrap_workload_outcome(spec, value)

    def _wrap_workload_outcome(self, spec, value) -> RunResult:
        from repro.scenarios.tenant import ScenarioOutcome
        from repro.workloads.llm import ServingOutcome
        from repro.workloads.microbench import TransferExperiment

        if isinstance(value, ServingOutcome):
            return RunResult(
                kind="serve",
                backend=None,
                design_label=value.design_label,
                requested_bytes=value.traffic_bytes,
                start_ns=value.start_ns,
                end_ns=value.end_ns,
                requests=value.memory_requests,
                request_records=value.records,
                extra={
                    "iterations": float(value.iterations),
                    "deferred": float(value.deferred),
                    "kv_peak_bytes": float(value.kv_peak_bytes),
                    "tokens_per_second": value.tokens_per_second,
                },
                raw=value,
            )
        if isinstance(value, TransferExperiment):
            result = value.result
            return RunResult(
                kind="transfer",
                backend=default_backend_name(value.design_point),
                design_label=value.design_point.label,
                requested_bytes=value.requested_bytes,
                start_ns=result.start_ns,
                end_ns=result.end_ns,
                energy_joules=value.energy_joules,
                extra={"simulated_bytes": float(value.simulated_bytes)},
                raw=value,
            )
        if isinstance(value, ScenarioOutcome):
            breakdowns = tuple(
                tenant_breakdown_from_result(result) for result in value.tenants
            )
            # Scenarios carry their own design point and ran on it, so the
            # backend must come from the spec, not from this session.
            spec_point = getattr(spec, "design_point", self.design_point)
            return RunResult(
                kind="mix",
                backend=default_backend_name(spec_point),
                design_label=value.design_label,
                requested_bytes=sum(b.requested_bytes for b in breakdowns),
                start_ns=min((b.start_ns for b in breakdowns), default=0.0),
                end_ns=max((b.end_ns for b in breakdowns), default=0.0),
                requests=sum(b.requests for b in breakdowns),
                tenants=breakdowns,
                extra={"num_pim_cores": float(value.num_pim_cores)},
                raw=value,
            )
        extra: Dict[str, float] = {}
        if isinstance(value, (int, float)):
            extra["value"] = float(value)
        return RunResult(
            kind="workload",
            backend=None,
            design_label=getattr(
                getattr(spec, "design_point", self.design_point), "label", ""
            ),
            requested_bytes=int(getattr(spec, "total_bytes", 0)),
            start_ns=0.0,
            end_ns=0.0,
            extra=extra,
            raw=value,
        )

    # ----------------------------------------------------------------- traces
    def recorder(self, streams=None):
        """A :class:`~repro.scenarios.trace.TraceRecorder` on this session.

        Use as a context manager around any session run to capture its
        accepted request stream into a replayable trace.
        """
        from repro.scenarios.trace import TraceRecorder

        return TraceRecorder(self.system, streams=streams)


class SessionBuilder:
    """Fluent construction of a :class:`Session`.

    Example::

        session = (Session.builder()
                   .small()
                   .design_point(DesignPoint.BASE_DHP)
                   .backend("dce_serial")
                   .jobs(4)
                   .open())
    """

    def __init__(self) -> None:
        self._config: Optional[SystemConfig] = None
        self._design_point = DesignPoint.BASE_DHP
        self._backend: Optional[str] = None
        self._cache = None
        self._jobs = 1
        self._variants = Variants()

    def config(self, config: SystemConfig) -> "SessionBuilder":
        self._config = config
        return self

    def paper(self) -> "SessionBuilder":
        """Use the Table I configuration (512 PIM cores)."""
        return self.config(SystemConfig.paper_baseline())

    def small(self) -> "SessionBuilder":
        """Use the scaled-down 32-core test configuration."""
        return self.config(SystemConfig.small_test())

    def design_point(self, point: DesignPoint) -> "SessionBuilder":
        self._design_point = point
        return self

    def baseline(self) -> "SessionBuilder":
        return self.design_point(DesignPoint.BASELINE)

    def pim_mmu(self) -> "SessionBuilder":
        return self.design_point(DesignPoint.BASE_DHP)

    def backend(self, name: str) -> "SessionBuilder":
        """Force a registered backend for :meth:`Session.transfer`."""
        self._backend = name
        return self

    def variants(self, variants: Variants) -> "SessionBuilder":
        """Select variant specs in one typed bundle (merged over prior picks)."""
        self._variants = variants.merged_over(self._variants)
        return self

    def policy(self, spec: str) -> "SessionBuilder":
        """Select a registered memory-scheduler policy (``repro variants``)."""
        return self.variants(Variants(policy=spec))

    def fabric(self, spec: str) -> "SessionBuilder":
        """Select the interconnect fabric (``none`` or ``mesh:WxH``)."""
        return self.variants(Variants(fabric=spec))

    def cache(self, cache) -> "SessionBuilder":
        """Attach a :class:`~repro.exp.cache.ResultCache` (or a root path)."""
        if isinstance(cache, (str, Path)):
            from repro.exp.cache import ResultCache

            cache = ResultCache(Path(cache))
        self._cache = cache
        return self

    def jobs(self, jobs: int) -> "SessionBuilder":
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._jobs = jobs
        return self

    def open(self) -> Session:
        return Session(
            config=self._config if self._config is not None else SystemConfig.paper_baseline(),
            design_point=self._design_point,
            backend=self._backend,
            cache=self._cache,
            jobs=self._jobs,
            variants=self._variants if not self._variants.empty else None,
        )


__all__ = ["DEFAULT_SIM_CAP_BYTES", "Session", "SessionBuilder"]
