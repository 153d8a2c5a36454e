"""Declarative experiment specifications.

Every simulation the figure suite needs is described by a small frozen
dataclass -- an :class:`ExperimentSpec` -- that captures *what* to run,
independently of *where* it runs.  Specs are:

* **hashable and comparable**, so identical experiments requested by
  different figures deduplicate to a single simulation;
* **picklable**, so :func:`~repro.exp.runner.run_specs` can ship them to
  ``ProcessPoolExecutor`` workers (each worker builds its own
  :class:`~repro.sim.engine.SimulationEngine`; the engine is deterministic
  and self-contained, so a worker's result is identical to an in-process run);
* **stably reprable**, so the on-disk cache can key results on
  ``(SystemConfig, spec, code-version)`` across interpreter runs.

:class:`TransferSpec` additionally knows how to *canonicalise* itself to the
steady-state window that is actually simulated (``window``): requested sizes
beyond ``sim_cap_bytes`` are extrapolated from the simulated window by
:func:`repro.workloads.microbench.extrapolate_experiment`, so a single cached
window serves every larger requested size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.registry import Variants
from repro.sim.config import DcePolicy, DesignPoint, SystemConfig
from repro.system import build_system
from repro.transfer.descriptor import TransferDescriptor, TransferDirection
from repro.workloads.microbench import (
    ContenderFactory,
    TransferExperiment,
    per_core_bytes,
    run_transfer_experiment,
)
from repro.workloads.patterns import AccessPattern, measure_read_bandwidth

KIB = 1024
MIB = 1024 * 1024

#: Bytes actually simulated per transfer experiment; larger requested sizes
#: are extrapolated from this steady-state window (same rule the paper's
#: hybrid methodology applies to PIM kernels).  Re-exported from the facade
#: so Session.transfer and TransferSpec share one default.
from repro.api.session import DEFAULT_SIM_CAP_BYTES  # noqa: E402


def _expand_variants(spec) -> None:
    """Expand a spec's ``variants`` bundle into its per-axis fields.

    Frozen specs accept either style -- individual ``memctrl_policy=``/
    ``fabric=`` fields or one ``variants=Variants(...)`` -- and normalise to
    the per-axis fields, with ``variants`` cleared back to ``None``.  A
    canonical form means two specs describing the same run have the same
    repr, hash and cache key.  Bundle fields win over individually-passed
    fields.
    """
    bundle = getattr(spec, "variants", None)
    if bundle is None:
        return
    if bundle.policy is not None:
        object.__setattr__(spec, "memctrl_policy", bundle.policy)
    if bundle.fabric is not None:
        object.__setattr__(spec, "fabric", bundle.fabric)
    object.__setattr__(spec, "variants", None)


@dataclass(frozen=True)
class ContentionSpec:
    """Declarative description of the co-located contender workloads.

    Figure 13 sweeps contenders that are built per-system by closures
    (:mod:`repro.workloads.contention`); closures cannot cross process
    boundaries, so specs carry this declarative form instead and rebuild the
    factory inside the worker.
    """

    kind: str  # "compute" (spin-lock CPU hogs) or "memory" (DRAM streamers)
    count: int
    intensity: Optional[str] = None
    buffer_bytes: int = 8 * MIB

    def __post_init__(self) -> None:
        if self.kind not in ("compute", "memory"):
            raise ValueError(f"unknown contention kind: {self.kind!r}")
        if self.count < 0:
            raise ValueError("contender count must be non-negative")
        if self.kind == "memory" and self.intensity is None:
            raise ValueError("memory contention requires an intensity")

    def factory(self) -> ContenderFactory:
        from repro.host.contenders import create_contender_factory

        if self.kind == "compute":
            return create_contender_factory("compute", count=self.count)
        return create_contender_factory(
            "memory",
            count=self.count,
            intensity=self.intensity,
            buffer_bytes=self.buffer_bytes,
        )

    @property
    def label(self) -> str:
        if self.kind == "compute":
            return f"compute x{self.count}"
        return f"memory x{self.count} ({self.intensity})"


class ExperimentSpec:
    """Base class for all experiment specifications.

    Subclasses are frozen dataclasses; ``KIND`` namespaces the cache key and
    ``run`` executes the experiment against a configuration, returning a
    picklable outcome.
    """

    KIND = "abstract"

    def run(self, config: SystemConfig):
        raise NotImplementedError


@dataclass(frozen=True)
class TransferSpec(ExperimentSpec):
    """One DRAM<->PIM bulk-transfer experiment (Figures 4, 13, 15, 16)."""

    KIND = "transfer"

    design_point: DesignPoint
    direction: TransferDirection
    total_bytes: int
    sim_cap_bytes: int = DEFAULT_SIM_CAP_BYTES
    contention: Optional[ContentionSpec] = None
    scheduling_quantum_ns: Optional[float] = None
    #: Memory-scheduler policy spec (``None`` keeps the config's default,
    #: FR-FCFS).  See :mod:`repro.memctrl.policies` / ``repro variants``.
    memctrl_policy: Optional[str] = None
    #: Interconnect fabric spec (``None`` keeps the config's default,
    #: ``none``).  See :mod:`repro.fabric` / ``repro variants``.
    fabric: Optional[str] = None
    #: Typed variant bundle (:class:`repro.registry.Variants`); expanded into
    #: the per-axis fields at construction so the spec's repr (and therefore
    #: its cache key) has one canonical form regardless of input style.
    variants: Optional[Variants] = None

    def __post_init__(self) -> None:
        _expand_variants(self)

    def window(self, config: SystemConfig) -> "TransferSpec":
        """The canonical spec for the steady-state window actually simulated.

        Requests at or below the cap canonicalise to themselves; larger
        requests canonicalise to the capped window, whose cached result can be
        extrapolated to any requested size.
        """
        cores = config.num_pim_cores
        requested = per_core_bytes(self.total_bytes, cores)
        simulated = min(requested, per_core_bytes(self.sim_cap_bytes, cores))
        return replace(self, total_bytes=simulated * cores)

    def run(self, config: SystemConfig) -> TransferExperiment:
        factory = self.contention.factory() if self.contention is not None else None
        return run_transfer_experiment(
            self.design_point,
            self.direction,
            total_bytes=self.total_bytes,
            config=config,
            sim_cap_bytes=self.sim_cap_bytes,
            contender_factory=factory,
            scheduling_quantum_ns=self.scheduling_quantum_ns,
            memctrl_policy=self.memctrl_policy,
            fabric=self.fabric,
        )


@dataclass(frozen=True)
class MemcpySpec(ExperimentSpec):
    """A multi-threaded DRAM->DRAM copy (Figure 14, Figure 6b).

    ``channels``/``ranks_per_channel`` optionally re-derive the memory
    geometry (Figure 14's xC-yR sweep); ``series_windows`` additionally
    samples the per-channel write-traffic time series (Figure 6b).
    """

    KIND = "memcpy"

    design_point: DesignPoint
    total_bytes: int
    src_base: int = 0
    dst_base: Optional[int] = None
    channels: Optional[int] = None
    ranks_per_channel: Optional[int] = None
    series_windows: Optional[int] = None

    def run(self, config: SystemConfig) -> Dict[str, object]:
        from repro.api.backends import CopySpan, create_backend

        if self.channels is not None:
            config = config.with_memory_geometry(self.channels, self.ranks_per_channel)
        system = build_system(config=config, design_point=self.design_point)
        dst_base = self.dst_base if self.dst_base is not None else self.total_bytes
        result = create_backend("memcpy").execute(
            system,
            CopySpan(
                src_base=self.src_base, dst_base=dst_base, total_bytes=self.total_bytes
            ),
        )
        outcome: Dict[str, object] = {
            "duration_ns": result.duration_ns,
            "start_ns": result.start_ns,
            "end_ns": result.end_ns,
            "dram_read_bytes": result.dram_read_bytes,
            "dram_write_bytes": result.dram_write_bytes,
            "per_channel_dram_bytes": dict(result.per_channel_dram_bytes),
        }
        if self.series_windows:
            window_ns = result.duration_ns / self.series_windows
            outcome["write_window_series"] = system.dram.per_channel_window_series(
                window_ns, "write", result.start_ns, result.end_ns
            )
        return outcome


@dataclass(frozen=True)
class SoftwareTransferSeriesSpec(ExperimentSpec):
    """A software DRAM->PIM transfer sampled as a per-channel time series (Figure 6a)."""

    KIND = "software-series"

    size_per_core_bytes: int = 1024
    series_windows: int = 8

    def run(self, config: SystemConfig) -> Dict[str, object]:
        from repro.api.backends import create_backend

        system = build_system(config=config, design_point=DesignPoint.BASELINE)
        descriptor = TransferDescriptor.contiguous(
            TransferDirection.DRAM_TO_PIM,
            dram_base=0,
            size_per_core_bytes=self.size_per_core_bytes,
            pim_core_ids=range(config.num_pim_cores),
        )
        result = create_backend("software").execute(system, descriptor)
        window_ns = result.duration_ns / self.series_windows
        series = system.pim.per_channel_window_series(
            window_ns, "write", result.start_ns, result.end_ns
        )
        return {
            "duration_ns": result.duration_ns,
            "start_ns": result.start_ns,
            "end_ns": result.end_ns,
            "per_channel_pim_bytes": dict(result.per_channel_pim_bytes),
            "write_window_series": series,
        }


@dataclass(frozen=True)
class ReadBandwidthSpec(ExperimentSpec):
    """Sustained DRAM read bandwidth for one access pattern (Figure 8)."""

    KIND = "read-bandwidth"

    pattern: AccessPattern
    design_point: DesignPoint
    total_bytes: int = 2 * MIB
    stride_bytes: int = 4096

    def run(self, config: SystemConfig) -> float:
        system = build_system(config=config, design_point=self.design_point)
        return measure_read_bandwidth(
            system,
            self.pattern,
            total_bytes=self.total_bytes,
            stride_bytes=self.stride_bytes,
        )


@dataclass(frozen=True)
class DceOrderSpec(ExperimentSpec):
    """DCE throughput under an explicit issue order / buffer size (design ablations)."""

    KIND = "dce-ablation"

    policy: DcePolicy
    data_buffer_bytes: Optional[int] = None
    size_per_core_bytes: int = 1 * KIB

    def run(self, config: SystemConfig) -> float:
        from repro.api.backends import create_backend

        if self.data_buffer_bytes is not None:
            config = replace(
                config,
                pim_mmu=replace(config.pim_mmu, data_buffer_bytes=self.data_buffer_bytes),
            )
        system = build_system(config=config, design_point=DesignPoint.BASE_DHP)
        descriptor = TransferDescriptor.contiguous(
            TransferDirection.DRAM_TO_PIM,
            dram_base=0,
            size_per_core_bytes=self.size_per_core_bytes,
            pim_core_ids=range(config.num_pim_cores),
        )
        backend = create_backend(
            "pim_mmu" if self.policy is DcePolicy.PIM_MS else "dce_serial"
        )
        result = backend.execute(system, descriptor)
        return result.throughput_gbps


@dataclass(frozen=True)
class SoftwareThreadPolicySpec(ExperimentSpec):
    """Baseline software-transfer throughput under a thread-to-DPU policy (ablations)."""

    KIND = "software-thread-policy"

    thread_policy: str = "blocked"
    size_per_core_bytes: int = 1 * KIB

    def run(self, config: SystemConfig) -> float:
        from repro.api.backends import create_backend

        config = replace(
            config, os=replace(config.os, thread_to_dpu_policy=self.thread_policy)
        )
        system = build_system(config=config, design_point=DesignPoint.BASELINE)
        descriptor = TransferDescriptor.contiguous(
            TransferDirection.DRAM_TO_PIM,
            dram_base=0,
            size_per_core_bytes=self.size_per_core_bytes,
            pim_core_ids=range(config.num_pim_cores),
        )
        result = create_backend("software").execute(system, descriptor)
        return result.throughput_gbps


@dataclass(frozen=True)
class Sweep:
    """A declarative grid of transfer experiments.

    Enumerates the cartesian product of design points x directions x sizes x
    contention scenarios, in a deterministic order, as :class:`TransferSpec`
    instances ready to hand to a runner or provider.
    """

    design_points: Tuple[DesignPoint, ...] = tuple(DesignPoint)
    directions: Tuple[TransferDirection, ...] = tuple(TransferDirection)
    sizes: Tuple[int, ...] = (1 * MIB,)
    contentions: Tuple[Optional[ContentionSpec], ...] = (None,)
    sim_cap_bytes: int = DEFAULT_SIM_CAP_BYTES
    scheduling_quantum_ns: Optional[float] = None
    memctrl_policy: Optional[str] = None
    fabric: Optional[str] = None
    variants: Optional[Variants] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "design_points", tuple(self.design_points))
        object.__setattr__(self, "directions", tuple(self.directions))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "contentions", tuple(self.contentions))
        _expand_variants(self)

    def __len__(self) -> int:
        return (
            len(self.design_points)
            * len(self.directions)
            * len(self.sizes)
            * len(self.contentions)
        )

    def specs(self) -> List[TransferSpec]:
        return [
            TransferSpec(
                design_point=point,
                direction=direction,
                total_bytes=size,
                sim_cap_bytes=self.sim_cap_bytes,
                contention=contention,
                scheduling_quantum_ns=self.scheduling_quantum_ns,
                memctrl_policy=self.memctrl_policy,
                fabric=self.fabric,
            )
            for point, direction, size, contention in itertools.product(
                self.design_points, self.directions, self.sizes, self.contentions
            )
        ]


__all__ = [
    "DEFAULT_SIM_CAP_BYTES",
    "ContentionSpec",
    "DceOrderSpec",
    "ExperimentSpec",
    "MemcpySpec",
    "ReadBandwidthSpec",
    "SoftwareThreadPolicySpec",
    "SoftwareTransferSeriesSpec",
    "Sweep",
    "TransferSpec",
]
