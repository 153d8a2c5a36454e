"""``repro.api`` -- the unified facade over the reproduction.

One import gives the three pieces every caller needs:

* :class:`Session` / :class:`SessionBuilder` -- the context-managed entry
  point owning one simulated server; ``session.transfer(...)``,
  ``session.replay(...)``, ``session.mix(...)``, ``session.serve_llm(...)``
  and ``session.run_workload(...)`` are the only traffic APIs new code
  should use (see :mod:`repro.api.session`).
* the :class:`TransferBackend` registry -- the three transfer stacks (and the
  ``Base+D`` DMA proxy) as registered, string-keyed adapters, with the
  design-point -> default-backend rule centralized in
  :func:`default_backend_name` (see :mod:`repro.api.backends`).
* :class:`RunResult` -- the one typed, versioned result schema every entry
  point returns; request-oriented runs (LLM serving) additionally carry
  per-request :class:`RequestRecord` rows (see :mod:`repro.api.results`).
"""

from repro.api.backends import (
    CopySpan,
    TransferBackend,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.api.results import (
    RUN_RESULT_SCHEMA_VERSION,
    FabricLink,
    FabricSummary,
    RequestRecord,
    RunResult,
    TenantBreakdown,
    tenant_breakdown_from_result,
)
from repro.api.session import DEFAULT_SIM_CAP_BYTES, Session, SessionBuilder
from repro.registry import Variants

__all__ = [
    "DEFAULT_SIM_CAP_BYTES",
    "RUN_RESULT_SCHEMA_VERSION",
    "CopySpan",
    "FabricLink",
    "FabricSummary",
    "RequestRecord",
    "RunResult",
    "Variants",
    "Session",
    "SessionBuilder",
    "TenantBreakdown",
    "TransferBackend",
    "available_backends",
    "create_backend",
    "default_backend_name",
    "register_backend",
    "resolve_backend",
    "tenant_breakdown_from_result",
    "unregister_backend",
]
