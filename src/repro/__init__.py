"""repro -- a reproduction of "PIM-MMU: A Memory Management Unit for
Accelerating Data Transfers in Commercial PIM Systems" (MICRO 2024).

The package contains a cycle-approximate simulator of a memory-bus-integrated
PIM server (UPMEM-style), the baseline software data-transfer stack, and the
PIM-MMU hardware/software co-design (Data Copy Engine, PIM-aware Memory
Scheduler and Heterogeneous Memory Mapping Unit), together with the workloads
and harnesses that regenerate every table and figure of the paper's
evaluation.

All traffic flows through the :mod:`repro.api` facade: a :class:`Session`
owns one simulated server and drives transfers, trace replays and
multi-tenant mixes through registered
:class:`~repro.api.backends.TransferBackend`\\ s, returning one typed
:class:`RunResult` everywhere; see ``docs/api.md``.  The :mod:`repro.exp`
subpackage orchestrates experiments declaratively (sweeps, a parallel
process-pool runner, an on-disk result cache) and powers the
``python -m repro`` CLI; see ``docs/experiments.md``.  The
:mod:`repro.scenarios` subpackage layers trace record/replay and multi-tenant
workload mixes on top of it; see ``docs/scenarios.md``.  A subsystem map with
a request-lifecycle walkthrough lives in ``docs/architecture.md``.

Quickstart
----------
>>> from repro import DesignPoint, Session
>>> with Session.open(design_point=DesignPoint.BASE_DHP) as session:
...     result = session.transfer(total_bytes=1 << 20)
>>> result.backend
'pim_mmu'
>>> result.throughput_gbps > 0
True

Lower layers stay importable for direct use: :func:`repro.system.build_system`
builds a bare :class:`PimSystem`, and :class:`repro.core.PimMmuRuntime` is the
paper's ``pim_mmu_op`` API (Figure 10b) with a functional-copy path.
"""

from repro.api import (
    RequestRecord,
    RunResult,
    Session,
    SessionBuilder,
    TenantBreakdown,
    TransferBackend,
    available_backends,
    default_backend_name,
    register_backend,
)
from repro.fabric import available_fabrics, register_fabric
from repro.memctrl.policies import available_policies, register_policy
from repro.registry import VariantRegistry, Variants
from repro.sim.config import (
    CpuConfig,
    DcePolicy,
    DesignPoint,
    DramTimingConfig,
    MemoryDomainConfig,
    PimMmuConfig,
    SystemConfig,
)
from repro.system import PimSystem
from repro.transfer import TransferDescriptor, TransferDirection, TransferResult
from repro.scenarios import ScenarioSpec, ServingSpec, TenantSpec
from repro.workloads import LlmTenantSpec, ModelSpec

__version__ = "1.5.0"

__all__ = [
    "CpuConfig",
    "DcePolicy",
    "DesignPoint",
    "DramTimingConfig",
    "LlmTenantSpec",
    "MemoryDomainConfig",
    "ModelSpec",
    "PimMmuConfig",
    "PimSystem",
    "RequestRecord",
    "RunResult",
    "ScenarioSpec",
    "ServingSpec",
    "Session",
    "SessionBuilder",
    "SystemConfig",
    "TenantBreakdown",
    "TenantSpec",
    "TransferBackend",
    "TransferDescriptor",
    "TransferDirection",
    "TransferResult",
    "VariantRegistry",
    "Variants",
    "__version__",
    "available_backends",
    "available_fabrics",
    "available_policies",
    "default_backend_name",
    "register_backend",
    "register_fabric",
    "register_policy",
]
