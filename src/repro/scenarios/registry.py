"""Scenario specs and the scenario registry (the figure registry's sibling).

:class:`ScenarioSpec` is an :class:`~repro.exp.spec.ExperimentSpec`: frozen,
hashable and picklable, so scenarios plug into the exact same orchestration
path as the paper's figures -- :func:`~repro.exp.runner.run_specs`
fan-out, the in-memory memo and the on-disk
:class:`~repro.exp.cache.ResultCache` all work unchanged.  Running a scenario
twice costs one simulation; ``-j N`` runs distinct scenarios in parallel and
is bit-identical to a serial run.

:data:`SCENARIOS` maps scenario names to registered entries the way
:data:`repro.exp.figures.FIGURES` maps figure names; the ``repro scenarios``
CLI renders each outcome as a text table under ``results/``.

Scenarios are registered with the :func:`register_scenario` decorator on a
spec *factory*::

    @register_scenario("my-mix", "two streams fighting over one channel")
    def _my_mix() -> ScenarioSpec:
        return ScenarioSpec(name="my-mix", design_point=..., tenants=(...,))

The factory runs once at registration (the registry holds concrete specs, so
``--list`` needs no execution) and may return a *tuple* of specs for
scenarios that sweep one axis across several runs -- the LLM serving family
returns one :class:`~repro.scenarios.serving.ServingSpec` per arrival-rate
point and renders them into a single SLO table via a custom ``renderer``.
Third-party code registers the same way (see ``docs/api.md``); the legacy
positional call form ``register_scenario(name, description, spec)`` also
still works.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.report import format_tenant_table
from repro.exp.runner import ExperimentProvider
from repro.exp.spec import ExperimentSpec, _expand_variants
from repro.registry import Variants
from repro.sim.config import DesignPoint, SystemConfig

from repro.scenarios.tenant import ScenarioOutcome, TenantSpec, run_scenario

#: A registered renderer turns a scenario's outcomes (one per spec, in spec
#: order) into the text written under ``results/``.
ScenarioRenderer = Callable[["Scenario", Sequence[object]], str]


@dataclass(frozen=True)
class ScenarioSpec(ExperimentSpec):
    """One multi-tenant scenario as a cacheable, picklable experiment spec."""

    KIND = "scenario"

    name: str
    design_point: DesignPoint
    tenants: Tuple[TenantSpec, ...]
    include_isolated: bool = True
    #: Memory-scheduler policy spec (``None`` keeps FR-FCFS).  Tenant-aware
    #: policies reference tenant names, e.g. ``qos_priority:lat=1``.
    memctrl_policy: Optional[str] = None
    #: Interconnect fabric spec (``None`` keeps the config default,
    #: ``none``).  See :mod:`repro.fabric` / ``repro variants``.
    fabric: Optional[str] = None
    #: Typed variant bundle; expanded into the per-axis fields at
    #: construction (see :func:`repro.exp.spec._expand_variants`).
    variants: Optional[Variants] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        _expand_variants(self)

    def run(self, config: SystemConfig) -> ScenarioOutcome:
        """Execute the scenario (shared run + isolated baselines) on ``config``."""
        config = Variants(policy=self.memctrl_policy, fabric=self.fabric).apply(
            config
        )
        return run_scenario(
            config,
            self.design_point,
            self.tenants,
            name=self.name,
            include_isolated=self.include_isolated,
        )


@dataclass(frozen=True)
class Scenario:
    """One registered, regenerable scenario (mirrors ``exp.figures.Figure``).

    ``spec`` is the primary experiment spec (what ``--list`` summarises);
    multi-run scenarios carry the remaining sweep points in ``extra_specs``.
    ``family`` groups related scenarios for ``--family`` selection (the
    built-in mixes are ``"mix"``, the LLM serving sweeps ``"llm"``).
    ``renderer`` turns the outcomes into the results text; ``None`` uses the
    default per-tenant table over the primary outcome.
    """

    name: str
    filename: str
    description: str
    spec: ExperimentSpec
    extra_specs: Tuple[ExperimentSpec, ...] = ()
    family: str = "mix"
    renderer: Optional[ScenarioRenderer] = None

    @property
    def specs(self) -> Tuple[ExperimentSpec, ...]:
        """Every spec this scenario runs (primary first, in sweep order)."""
        return (self.spec,) + self.extra_specs

    def render(self, outcomes: Sequence[object]) -> str:
        """Render the outcomes (one per :attr:`specs` entry) to results text."""
        if self.renderer is not None:
            return self.renderer(self, outcomes)
        return render_scenario(outcomes[0])


#: Registry of named scenarios, populated by :mod:`repro.scenarios.mixes` and
#: :mod:`repro.scenarios.llm` (imported from ``repro.scenarios.__init__``)
#: and extensible by users via :func:`register_scenario`.
SCENARIOS: Dict[str, Scenario] = {}

#: A spec factory: returns the scenario's spec, or a tuple of specs for
#: multi-run sweeps.
SpecFactory = Callable[[], Union[ExperimentSpec, Tuple[ExperimentSpec, ...]]]


def _register(
    name: str,
    description: str,
    specs: Tuple[ExperimentSpec, ...],
    filename: Optional[str],
    family: str,
    renderer: Optional[ScenarioRenderer],
) -> Scenario:
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} is already registered")
    if not specs:
        raise ValueError(f"scenario {name!r} registered with no specs")
    scenario = Scenario(
        name=name,
        filename=filename if filename is not None else f"scenario_{name.replace('-', '_')}.txt",
        description=description,
        spec=specs[0],
        extra_specs=specs[1:],
        family=family,
        renderer=renderer,
    )
    SCENARIOS[name] = scenario
    return scenario


def register_scenario(
    name: str,
    description: str,
    spec: Optional[ExperimentSpec] = None,
    filename: Optional[str] = None,
    *,
    family: str = "mix",
    renderer: Optional[ScenarioRenderer] = None,
) -> Union[Scenario, Callable[[SpecFactory], SpecFactory]]:
    """Register a scenario under ``name`` (it then shows up in ``--list``).

    Decorator form (the idiomatic one) -- decorate a factory returning the
    spec, or a tuple of specs for a sweep::

        @register_scenario("my-mix", "what it stresses")
        def _my_mix() -> ScenarioSpec: ...

    The factory is invoked once, eagerly, and returned unchanged.  The legacy
    call form ``register_scenario(name, description, spec)`` registers a
    ready-made spec directly and returns the :class:`Scenario` entry.
    """
    if spec is not None:
        return _register(name, description, (spec,), filename, family, renderer)

    def decorator(factory: SpecFactory) -> SpecFactory:
        produced = factory()
        specs = produced if isinstance(produced, tuple) else (produced,)
        _register(name, description, specs, filename, family, renderer)
        return factory

    return decorator


def select_scenarios(
    names: Optional[Sequence[str]] = None, family: Optional[str] = None
) -> List[Scenario]:
    """Resolve scenario names (or the full registry) to registry entries.

    ``family`` narrows the result to one scenario family; with explicit
    ``names`` it acts as a validity filter (asking for a scenario outside the
    family raises, catching sweep-script typos).
    """
    if not names:
        selected = list(SCENARIOS.values())
        if family is not None:
            selected = [s for s in selected if s.family == family]
            if not selected:
                known = ", ".join(sorted({s.family for s in SCENARIOS.values()}))
                raise KeyError(f"no scenarios in family {family!r}; known: {known}")
        return selected
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        known = ", ".join(SCENARIOS)
        raise KeyError(f"unknown scenario(s) {unknown}; known: {known}")
    selected = [SCENARIOS[name] for name in dict.fromkeys(names)]
    if family is not None:
        outside = [s.name for s in selected if s.family != family]
        if outside:
            raise KeyError(f"scenario(s) {outside} are not in family {family!r}")
    return selected


def render_scenario(outcome: ScenarioOutcome) -> str:
    """Render one scenario outcome as the per-tenant text table."""
    title = (
        f"Scenario '{outcome.name}' on {outcome.design_label} "
        f"({outcome.num_pim_cores} PIM cores): "
        f"{len(outcome.tenants)} tenant(s), "
        f"makespan {outcome.makespan_ns / 1e3:.1f} us, "
        f"aggregate {outcome.aggregate_throughput_gbps:.2f} GB/s"
    )
    return format_tenant_table(outcome.rows(), title=title)


def generate_scenarios(
    provider: ExperimentProvider,
    scenarios: Sequence[Scenario],
    results_dir: Path,
) -> List[Path]:
    """Prefetch every scenario (in parallel, cache-aware), render and write."""
    from repro.exp.figures import write_figure

    provider.prefetch([spec for scenario in scenarios for spec in scenario.specs])
    paths: List[Path] = []
    for scenario in scenarios:
        outcomes = [provider.run(spec) for spec in scenario.specs]
        paths.append(
            write_figure(results_dir, scenario.filename, scenario.render(outcomes))
        )
    return paths


__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioRenderer",
    "ScenarioSpec",
    "generate_scenarios",
    "register_scenario",
    "render_scenario",
    "select_scenarios",
]
