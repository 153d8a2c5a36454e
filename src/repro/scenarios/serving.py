"""LLM serving as a registered scenario family (``ServingSpec``).

:class:`ServingSpec` wraps one :func:`repro.workloads.llm.run_serving` run as
an :class:`~repro.exp.spec.ExperimentSpec`: frozen, hashable and picklable,
so serving sweeps ride the same orchestration as every figure and mix
-- parallel fan-out, the on-disk result cache and ``-j N`` bit-identity all
apply unchanged.

A registered LLM scenario is a *sweep*: its factory returns one
``ServingSpec`` per load point (arrival rate or client count), and
:func:`render_serving_table` folds the resulting
:class:`~repro.workloads.llm.ServingOutcome`\\ s into a single
SLO-attainment table -- per-request TTFT and inter-token-latency p50/p99 and
the fraction of requests meeting both SLOs, versus offered load.  Those
tables are the committed ``results/scenario_llm_*.txt`` artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.exp.spec import ExperimentSpec, _expand_variants
from repro.registry import Variants
from repro.sim.config import DesignPoint, SystemConfig
from repro.workloads.llm import LlmTenantSpec, ModelSpec, ServingOutcome, run_serving

#: Column order of the SLO tables written under ``results/``.
SERVING_TABLE_COLUMNS = (
    "point",
    "tenant",
    "load",
    "requests",
    "completed",
    "ttft_p50_us",
    "ttft_p99_us",
    "itl_p50_us",
    "itl_p99_us",
    "slo_pct",
)


@dataclass(frozen=True)
class ServingSpec(ExperimentSpec):
    """One LLM serving run (model + tenants + server knobs) as an experiment.

    ``point_label`` names the sweep point in the rendered SLO table (e.g.
    the offered rate); it defaults to the spec name.  ``memctrl_policy``
    mirrors :class:`~repro.scenarios.registry.ScenarioSpec`: ``None`` keeps
    FR-FCFS, tenant-aware specs like ``qos_priority:interactive=1`` select
    the QoS scheduler.
    """

    KIND = "llm-serving"

    name: str
    design_point: DesignPoint
    model: ModelSpec
    tenants: Tuple[LlmTenantSpec, ...]
    max_batch_size: int = 8
    kv_pool_bytes: Optional[int] = None
    iteration_overhead_ns: float = 0.0
    memctrl_policy: Optional[str] = None
    fabric: Optional[str] = None
    variants: Optional[Variants] = None
    point_label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("a serving spec needs at least one tenant")
        _expand_variants(self)

    @property
    def label(self) -> str:
        return self.point_label or self.name

    def run(self, config: SystemConfig) -> ServingOutcome:
        """Execute the serving run on ``config`` (with the policy applied)."""
        config = Variants(policy=self.memctrl_policy, fabric=self.fabric).apply(
            config
        )
        return run_serving(
            config,
            self.design_point,
            self.model,
            self.tenants,
            max_batch_size=self.max_batch_size,
            kv_pool_bytes=self.kv_pool_bytes,
            iteration_overhead_ns=self.iteration_overhead_ns,
            name=self.name,
        )


def render_serving_table(scenario, outcomes: Sequence[ServingOutcome]) -> str:
    """Fold a serving sweep's outcomes into one SLO-attainment text table.

    One row per (sweep point, tenant), in sweep order -- the shape of the
    paper-style "SLO attainment vs. arrival rate" curves, as text.
    """
    specs = scenario.specs
    first_spec: ServingSpec = specs[0]
    first: ServingOutcome = outcomes[0]
    policy = first_spec.memctrl_policy or "frfcfs"
    title = (
        f"LLM serving '{scenario.name}' on {first.design_label} "
        f"({first.num_pim_cores} PIM cores), model {first.model_name}, "
        f"policy {policy}: {len(outcomes)} load point(s), "
        f"batch<={first_spec.max_batch_size}, "
        f"kv pool {first.kv_pool_bytes // 1024} KiB"
    )
    rows = []
    for spec, outcome in zip(specs, outcomes):
        for row in outcome.rows():
            rows.append({"point": spec.label, **row})
    return format_table(
        rows, columns=list(SERVING_TABLE_COLUMNS), title=title, float_format="{:.2f}"
    )


__all__ = [
    "SERVING_TABLE_COLUMNS",
    "ServingSpec",
    "render_serving_table",
]
