"""``python -m repro`` -- regenerate the paper's figures outside pytest.

Subcommands
-----------
``repro figures [NAME...]``
    Regenerate all (or a subset of) the paper's tables/figures under
    ``results/``, fanning simulations out over ``-j`` worker processes and
    reusing the on-disk cache, so a warm rerun executes zero simulations.
``repro sweep``
    Run an ad-hoc grid of transfer experiments and print the result table.
``repro scenarios [NAME...]``
    Run registered multi-tenant scenarios (per-tenant tables under
    ``results/``), or an ad-hoc mix given via ``--tenants``/``--trace``.

``figures``/``sweep``/``scenarios`` fan their simulations out over ``-j``
worker processes and cache each outcome as it finishes, so a rerun after an
interrupt or a failing spec simulates only what is missing.  ``--shard I/N``
deterministically partitions the work across CI jobs or machines.

``repro backends``
    List the registered transfer backends and which design point each one is
    the default for.
``repro variants``
    List every registered variant axis -- memory-scheduler policies
    (``--policy`` / ``Variants(policy=...)``), transfer backends and
    interconnect fabrics (``--fabric`` / :mod:`repro.fabric`).
``repro bench``
    Run the fixed hot-path benchmark matrix (events/sec + wall-clock) and
    append the result to the committed ``BENCH_hotpath.json`` trajectory;
    ``--quick --check`` is the CI perf-smoke gate.
``repro clean-cache``
    Delete the on-disk experiment cache (``results/.cache``).

Every subcommand builds one :class:`repro.api.Session` and drives its
simulations through the session's experiment provider.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.fabric import validate_fabric
from repro.memctrl.policies import create_policy
from repro.sim.config import DesignPoint, SystemConfig
from repro.transfer.descriptor import TransferDirection

from repro.exp.cache import CACHE_DIR_NAME, ResultCache
from repro.exp.figures import FIGURES, generate_figures, select_figures
from repro.exp.runner import ExperimentProvider
from repro.exp.shard import Shard, parse_shard, shard_items
from repro.exp.spec import DEFAULT_SIM_CAP_BYTES, ContentionSpec, Sweep

_SIZE_SUFFIXES = {
    "kib": 1024,
    "kb": 1024,
    "k": 1024,
    "mib": 1024**2,
    "mb": 1024**2,
    "m": 1024**2,
    "gib": 1024**3,
    "gb": 1024**3,
    "g": 1024**3,
}

_DESIGN_POINT_ALIASES = {
    "base": DesignPoint.BASELINE,
    "baseline": DesignPoint.BASELINE,
    "base+d": DesignPoint.BASE_D,
    "base_d": DesignPoint.BASE_D,
    "base+d+h": DesignPoint.BASE_DH,
    "base_dh": DesignPoint.BASE_DH,
    "base+d+h+p": DesignPoint.BASE_DHP,
    "base_dhp": DesignPoint.BASE_DHP,
    "pim-mmu": DesignPoint.BASE_DHP,
}

_DIRECTION_ALIASES = {
    "d2p": (TransferDirection.DRAM_TO_PIM,),
    "dram-to-pim": (TransferDirection.DRAM_TO_PIM,),
    "p2d": (TransferDirection.PIM_TO_DRAM,),
    "pim-to-dram": (TransferDirection.PIM_TO_DRAM,),
    "both": (TransferDirection.DRAM_TO_PIM, TransferDirection.PIM_TO_DRAM),
}


def parse_size(text: str) -> int:
    """Parse ``512KiB`` / ``16MB`` / ``4096`` into bytes."""
    cleaned = text.strip().lower().replace(" ", "")
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if cleaned.endswith(suffix):
            number = cleaned[: -len(suffix)]
            try:
                return int(float(number) * _SIZE_SUFFIXES[suffix])
            except ValueError:
                break
    try:
        return int(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}")


def parse_design_point(text: str) -> DesignPoint:
    """Parse ``Base+D+H+P`` / ``base_dhp`` / ``pim-mmu`` into a design point."""
    key = text.strip().lower()
    if key in _DESIGN_POINT_ALIASES:
        return _DESIGN_POINT_ALIASES[key]
    raise argparse.ArgumentTypeError(
        f"unknown design point {text!r}; choose from "
        + ", ".join(sorted(set(_DESIGN_POINT_ALIASES)))
    )


def parse_contention(text: str) -> Optional[ContentionSpec]:
    """Parse ``none`` / ``compute:8`` / ``memory:4:high`` into a spec."""
    cleaned = text.strip().lower()
    if cleaned in ("", "none"):
        return None
    parts = cleaned.split(":")
    kind = parts[0]
    try:
        if kind == "compute" and len(parts) == 2:
            return ContentionSpec("compute", int(parts[1]))
        if kind == "memory" and len(parts) == 3:
            return ContentionSpec("memory", int(parts[1]), parts[2])
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"cannot parse contention {text!r}; expected 'none', 'compute:<count>' "
        "or 'memory:<count>:<intensity>'"
    )


def parse_tenant(text: str) -> "TenantSpec":
    """Parse one ``--tenants`` item into a :class:`TenantSpec`.

    Forms (sizes accept the usual ``512KiB``/``16MB`` suffixes; an optional
    trailing ``:+<ns>`` delays the tenant's start):

    * ``transfer:<size>[:d2p|:p2d]`` -- bulk DRAM<->PIM transfer
    * ``memcpy:<size>``              -- multi-threaded DRAM->DRAM copy
    * ``prim:<WORKLOAD>[:<cap>]``    -- a PrIM workload's input push
    * ``uniform|bursty|skewed|phased|poisson|diurnal:<size>`` -- open-loop
      synthetic trace tenant
    * ``closed:<pattern>:<size>[:<clients>]`` -- closed-loop tenant
      (``<clients>`` one-outstanding clients, zero think time)
    """
    from repro.scenarios.tenant import TenantSpec
    from repro.scenarios.trace import TRACE_PATTERNS
    from repro.workloads.prim import PRIM_WORKLOADS

    parts = [part for part in text.strip().split(":") if part != ""]
    offset_ns = 0.0
    if len(parts) > 1 and parts[-1].startswith("+"):
        try:
            offset_ns = float(parts.pop()[1:])
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse start offset in {text!r}")
    try:
        kind = parts[0].lower()
        # Placeholder name; cmd_scenarios renames tenants by list position so
        # ad-hoc spec names (and cache keys) are stable across invocations.
        name = kind
        if kind == "transfer" and len(parts) in (2, 3):
            direction = TransferDirection.DRAM_TO_PIM
            if len(parts) == 3:
                directions = _DIRECTION_ALIASES[parts[2].lower()]
                if len(directions) != 1:
                    raise KeyError(parts[2])
                direction = directions[0]
            return TenantSpec.transfer(
                name, parse_size(parts[1]), direction=direction,
                start_offset_ns=offset_ns,
            )
        if kind == "memcpy" and len(parts) == 2:
            return TenantSpec.memcpy(
                name, parse_size(parts[1]), start_offset_ns=offset_ns
            )
        if kind == "prim" and len(parts) in (2, 3):
            workload = parts[1].upper()
            if workload not in PRIM_WORKLOADS:
                raise argparse.ArgumentTypeError(
                    f"unknown PrIM workload {parts[1]!r}; known: "
                    + ", ".join(PRIM_WORKLOADS)
                )
            cap = parse_size(parts[2]) if len(parts) == 3 else 1024**2
            return TenantSpec.prim(
                name, workload, cap_bytes=cap, start_offset_ns=offset_ns
            )
        if kind in TRACE_PATTERNS and len(parts) == 2:
            return TenantSpec.synthetic(
                name, kind, parse_size(parts[1]), start_offset_ns=offset_ns
            )
        if kind == "closed" and len(parts) in (3, 4):
            pattern = parts[1].lower()
            if pattern not in TRACE_PATTERNS:
                raise KeyError(parts[1])
            concurrency = int(parts[3]) if len(parts) == 4 else 4
            return TenantSpec.closed(
                name,
                pattern,
                parse_size(parts[2]),
                concurrency=concurrency,
                start_offset_ns=offset_ns,
            )
    except argparse.ArgumentTypeError:
        raise
    except (KeyError, ValueError):
        pass
    raise argparse.ArgumentTypeError(
        f"cannot parse tenant {text!r}; expected 'transfer:<size>[:d2p|p2d]', "
        "'memcpy:<size>', 'prim:<WORKLOAD>[:<cap>]', "
        "'uniform|bursty|skewed|phased|poisson|diurnal:<size>' or "
        "'closed:<pattern>:<size>[:<clients>]' (each optionally ':+<start-ns>')"
    )


def parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer, got {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def parse_shard_arg(text: str) -> Shard:
    """``I/N`` -> :class:`~repro.exp.shard.Shard` (argparse-friendly)."""
    try:
        return parse_shard(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _variant_arg(validate: Callable[[str], object]) -> Callable[[str], str]:
    """An argparse ``type=`` that checks a variant spec against its registry."""

    def parse(text: str) -> str:
        try:
            validate(text)
        except (KeyError, ValueError) as error:
            raise argparse.ArgumentTypeError(error.args[0] if error.args else error)
        return text

    return parse


def _resolve_config(name: str) -> SystemConfig:
    if name == "paper":
        return SystemConfig.paper_baseline()
    return SystemConfig.small_test()


def _build_session(args: argparse.Namespace) -> "Session":
    """One :class:`repro.api.Session` per CLI invocation.

    Every subcommand drives its simulations through the session's experiment
    provider, so the CLI shares the facade's config/cache/jobs wiring with
    programmatic users.
    """
    from repro.api import Session

    config = _resolve_config(args.config)
    builder = Session.builder().config(config).jobs(args.jobs)
    if args.fabric is not None:
        # Session-level selection: the whole sweep's config runs under this
        # interconnect fabric (figures have no per-spec fabric field; for
        # sweep/scenarios the per-spec override applies the same value
        # again, which is a no-op).
        builder.fabric(args.fabric)
    if not args.no_cache:
        cache_dir = args.cache_dir or (args.results_dir / CACHE_DIR_NAME)
        cache = ResultCache(Path(cache_dir))
        cache.prune_stale_versions()
        builder.cache(cache)
    return builder.open()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the PIM-MMU reproduction's figures and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Variant flags shared by several subcommands, declared once.
    fabric_flag = argparse.ArgumentParser(add_help=False)
    fabric_flag.add_argument(
        "--fabric",
        type=_variant_arg(validate_fabric),
        default=None,
        help="interconnect fabric: none (the direct path, which regenerates "
        "the committed tables byte-for-byte) or "
        "mesh:WxH[,hop_ns=..,credits=..,ingress=..] (see `repro variants`)",
    )
    policy_flag = argparse.ArgumentParser(add_help=False)
    policy_flag.add_argument(
        "--policy",
        type=_variant_arg(create_policy),
        default=None,
        help="memory-scheduler policy spec, e.g. frfcfs_cap:4 or "
        "qos_priority:<tenant>=1 (see `repro variants`); for `scenarios` it "
        "applies to the ad-hoc --tenants/--trace mix only",
    )

    def add_common(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "-j",
            "--jobs",
            type=parse_jobs,
            default=1,
            help="worker processes for simulations (default: 1, serial)",
        )
        cmd.add_argument(
            "--results-dir",
            type=Path,
            default=Path("results"),
            help="directory figures are written to (default: results/)",
        )
        cmd.add_argument(
            "--cache-dir",
            type=Path,
            default=None,
            help=f"experiment cache directory (default: <results-dir>/{CACHE_DIR_NAME})",
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help="do not read or write the on-disk experiment cache",
        )
        cmd.add_argument(
            "--config",
            choices=("paper", "small"),
            default="paper",
            help="system configuration: the Table I system or a small test system",
        )
        cmd.add_argument(
            "--shard",
            type=parse_shard_arg,
            default=None,
            metavar="I/N",
            help="run only shard I of N (deterministic partition; the N shards "
            "are disjoint and cover everything)",
        )

    figures = sub.add_parser(
        "figures",
        parents=[fabric_flag],
        help="regenerate the paper's tables/figures under results/",
    )
    figures.add_argument(
        "names",
        nargs="*",
        metavar="FIGURE",
        help="figures to regenerate (default: all; see --list)",
    )
    figures.add_argument(
        "--fast",
        action="store_true",
        help="only the quick CI-smoke subset of figures",
    )
    figures.add_argument(
        "--list", action="store_true", help="list available figures and exit"
    )
    add_common(figures)

    sweep = sub.add_parser(
        "sweep",
        parents=[policy_flag, fabric_flag],
        help="run an ad-hoc grid of transfer experiments",
    )
    sweep.add_argument(
        "--design-point",
        dest="design_points",
        type=parse_design_point,
        action="append",
        help="design point (repeatable; default: all four ablation points)",
    )
    sweep.add_argument(
        "--direction",
        choices=sorted(_DIRECTION_ALIASES),
        default="both",
        help="transfer direction (default: both)",
    )
    sweep.add_argument(
        "--size",
        dest="sizes",
        type=parse_size,
        action="append",
        help="transfer size, e.g. 1MiB (repeatable; default: 1MiB)",
    )
    sweep.add_argument(
        "--contention",
        dest="contentions",
        type=parse_contention,
        action="append",
        help="contender load: none, compute:<count> or memory:<count>:<intensity> "
        "(repeatable; default: none)",
    )
    sweep.add_argument(
        "--sim-cap",
        type=parse_size,
        default=DEFAULT_SIM_CAP_BYTES,
        help="bytes simulated per experiment before extrapolation (default: 512KiB)",
    )
    sweep.add_argument(
        "--quantum-ns",
        type=float,
        default=None,
        help="override the OS scheduling quantum in nanoseconds",
    )
    add_common(sweep)

    scenarios = sub.add_parser(
        "scenarios",
        parents=[policy_flag, fabric_flag],
        help="run multi-tenant scenarios (registered mixes or an ad-hoc --tenants mix)",
    )
    scenarios.add_argument(
        "names",
        nargs="*",
        metavar="SCENARIO",
        help="registered scenarios to run (default: all; see --list)",
    )
    scenarios.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    scenarios.add_argument(
        "--family",
        default=None,
        help="restrict to one scenario family (e.g. mix, llm); applies to "
        "NAME selection and --list alike",
    )
    scenarios.add_argument(
        "--tenants",
        dest="tenants",
        type=parse_tenant,
        action="append",
        help="ad-hoc tenant (repeatable): transfer:<size>[:d2p|p2d], memcpy:<size>, "
        "prim:<WORKLOAD>[:<cap>], uniform|bursty|skewed|phased|poisson|diurnal:<size>, "
        "or closed:<pattern>:<size>[:<clients>]; append ':+<ns>' to delay the "
        "tenant's start",
    )
    scenarios.add_argument(
        "--trace",
        dest="traces",
        type=Path,
        action="append",
        metavar="TRACE_FILE",
        help="replay a recorded trace file (JSONL/CSV) as an additional tenant "
        "(repeatable)",
    )
    scenarios.add_argument(
        "--design-point",
        type=parse_design_point,
        default=DesignPoint.BASE_DHP,
        help="design point for the ad-hoc --tenants/--trace mix only; registered "
        "scenarios carry their own (default: pim-mmu)",
    )
    scenarios.add_argument(
        "--no-isolated",
        action="store_true",
        help="skip the per-tenant isolated baseline runs (no slowdown column); "
        "applies to registered and ad-hoc scenarios alike",
    )
    add_common(scenarios)

    sub.add_parser(
        "backends",
        help="list the registered transfer backends and design-point defaults",
    )

    sub.add_parser(
        "variants",
        help="list every registered variant axis: scheduler policies, "
        "transfer backends and fabrics",
    )

    bench = sub.add_parser(
        "bench",
        parents=[fabric_flag],
        help="run the fixed hot-path benchmark matrix (events/sec + wall-clock)",
    )
    bench.add_argument(
        "names",
        nargs="*",
        metavar="WORKLOAD",
        help="bench workloads to run (default: the whole matrix; see --list)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list bench workloads and exit"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced matrix for CI smoke (smaller sizes, one design point)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per workload, fastest wins (default: 3, quick: 2)",
    )
    bench.add_argument(
        "--json",
        type=Path,
        default=None,
        help="trajectory file to append to (default: BENCH_hotpath.json; "
        "requires the full matrix)",
    )
    bench.add_argument(
        "--label",
        default="current",
        help="label recorded with this entry in the trajectory file",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if events/sec regressed more than 20%% vs the "
        "last committed entry of the same mode",
    )
    bench.add_argument(
        "--no-write",
        action="store_true",
        help="do not append the entry to the trajectory file",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each workload once under cProfile and write "
        "the top-25-by-cumulative tables next to the trajectory file",
    )
    bench.add_argument(
        "--shard",
        type=parse_shard_arg,
        default=None,
        metavar="I/N",
        help="run only shard I of N of the workload matrix (implies --no-write; "
        "incompatible with --check)",
    )

    clean = sub.add_parser("clean-cache", help="delete the on-disk experiment cache")
    clean.add_argument(
        "--results-dir",
        type=Path,
        default=Path("results"),
        help="directory whose cache is removed (default: results/)",
    )
    clean.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help=f"cache directory to remove (default: <results-dir>/{CACHE_DIR_NAME})",
    )
    return parser


def _print_stats(provider: ExperimentProvider, elapsed_s: float) -> None:
    stats = provider.stats
    print(
        f"simulations executed: {stats.executed} "
        f"(disk-cache hits: {stats.disk_hits}, memoised: {stats.memo_hits}, "
        f"extrapolated: {stats.derived}) in {elapsed_s:.1f}s"
    )


def cmd_figures(args: argparse.Namespace) -> int:
    if args.list:
        listed = list(FIGURES.values())
        if args.fast:
            listed = [figure for figure in listed if figure.fast]
        if args.shard is not None:
            listed = shard_items(listed, args.shard, key=lambda f: f.name)
        rows = [
            {
                "figure": figure.name,
                "file": figure.filename,
                "fast": "yes" if figure.fast else "",
                "description": figure.description,
            }
            for figure in listed
        ]
        print(
            format_table(
                rows, columns=["figure", "file", "fast", "description"]
            )
        )
        return 0
    try:
        figures = select_figures(args.names, fast=args.fast)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.shard is not None:
        figures = shard_items(figures, args.shard, key=lambda f: f.name)
        if not figures:
            print(f"shard {args.shard.label}: no figures assigned; nothing to do")
            return 0
    if not figures:
        print("error: no figures selected", file=sys.stderr)
        return 2
    if args.config != "paper" and args.results_dir == Path("results"):
        # results/ holds the committed paper-config golden tables; writing
        # small-config tables under the same filenames would corrupt them.
        print(
            "error: --config small would overwrite the paper-config tables in "
            "results/; pass an explicit --results-dir",
            file=sys.stderr,
        )
        return 2
    if args.fabric not in (None, "none") and args.results_dir == Path("results"):
        # Same guard: only the direct path regenerates the committed tables
        # byte-for-byte; a mesh changes the numbers.
        print(
            "error: --fabric other than `none` would overwrite the committed "
            "direct-path tables in results/; pass an explicit --results-dir",
            file=sys.stderr,
        )
        return 2
    with _build_session(args) as session:
        provider = session.provider
        started = time.perf_counter()
        paths = generate_figures(provider, figures, args.results_dir)
        for path in paths:
            print(f"wrote {path}")
        _print_stats(provider, time.perf_counter() - started)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    sweep = Sweep(
        design_points=tuple(args.design_points or DesignPoint),
        directions=_DIRECTION_ALIASES[args.direction],
        sizes=tuple(args.sizes or (1024**2,)),
        contentions=tuple(args.contentions if args.contentions else (None,)),
        sim_cap_bytes=args.sim_cap,
        scheduling_quantum_ns=args.quantum_ns,
        memctrl_policy=args.policy,
        fabric=args.fabric,
    )
    # Repeated identical flag values collapse here (shard keys must be
    # unique; without a shard the runner would dedupe anyway).
    specs = list(dict.fromkeys(sweep.specs()))
    if args.shard is not None:
        specs = shard_items(specs, args.shard, key=repr)
        if not specs:
            print(f"shard {args.shard.label}: no specs assigned; nothing to do")
            return 0
    with _build_session(args) as session:
        provider = session.provider
        started = time.perf_counter()
        provider.prefetch(specs)
        rows = []
        for spec in specs:
            experiment = provider.run(spec)
            rows.append(
                {
                    "design": spec.design_point.label,
                    "direction": spec.direction.value,
                    "size_MiB": spec.total_bytes / 1024**2,
                    "contention": spec.contention.label if spec.contention else "none",
                    "throughput_gbps": experiment.throughput_gbps,
                    "latency_us": experiment.duration_ns / 1e3,
                    "energy_J": experiment.energy_joules,
                }
            )
        print(
            format_table(
                rows,
                columns=[
                    "design",
                    "direction",
                    "size_MiB",
                    "contention",
                    "throughput_gbps",
                    "latency_us",
                    "energy_J",
                ],
                title=f"Sweep: {len(rows)} transfer experiments",
                float_format="{:.3f}",
            )
        )
        _print_stats(provider, time.perf_counter() - started)
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.scenarios import (
        SCENARIOS,
        ScenarioSpec,
        generate_scenarios,
        render_scenario,
        select_scenarios,
    )
    from repro.scenarios.tenant import TenantSpec

    if args.list:
        listed = SCENARIOS.values()
        if args.family is not None:
            listed = [s for s in listed if s.family == args.family]
        rows = [
            {
                "scenario": scenario.name,
                "design": scenario.spec.design_point.label,
                "tenants": len(scenario.spec.tenants),
                "file": scenario.filename,
                "description": scenario.description,
            }
            for scenario in listed
        ]
        print(
            format_table(
                rows, columns=["scenario", "design", "tenants", "file", "description"]
            )
        )
        return 0

    adhoc_tenants = list(args.tenants or [])
    for trace_path in args.traces or []:
        adhoc_tenants.append(TenantSpec.trace_file("replay", str(trace_path)))
    if adhoc_tenants and args.names:
        print(
            "error: give registered scenario names OR an ad-hoc --tenants/--trace "
            "mix, not both",
            file=sys.stderr,
        )
        return 2

    with _build_session(args) as session:
        provider = session.provider
        started = time.perf_counter()
        if adhoc_tenants:
            # Rename tenants by position so the spec (and its cache key) is a pure
            # function of the command line.
            tenants = tuple(
                dc_replace(spec, name=f"t{index}-{spec.name}")
                for index, spec in enumerate(adhoc_tenants)
            )
            spec = ScenarioSpec(
                name="adhoc",
                design_point=args.design_point,
                tenants=tenants,
                include_isolated=not args.no_isolated,
                memctrl_policy=args.policy,
                fabric=args.fabric,
            )
            print(render_scenario(provider.run(spec)))
        else:
            try:
                selected = select_scenarios(args.names, family=args.family)
            except KeyError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return 2
            if args.shard is not None:
                selected = shard_items(
                    selected, args.shard, key=lambda scenario: scenario.name
                )
                if not selected:
                    print(
                        f"shard {args.shard.label}: no scenarios assigned; nothing to do"
                    )
                    return 0
            if args.no_isolated:
                # Serving specs have no isolated-baseline phase; leave them as-is.
                def _strip(spec):
                    if hasattr(spec, "include_isolated"):
                        return dc_replace(spec, include_isolated=False)
                    return spec

                selected = [
                    dc_replace(
                        scenario,
                        spec=_strip(scenario.spec),
                        extra_specs=tuple(_strip(s) for s in scenario.extra_specs),
                    )
                    for scenario in selected
                ]
            if args.config != "paper" and args.results_dir == Path("results"):
                # Same guard as `figures`: results/ holds the committed
                # paper-config golden tables.
                print(
                    "error: --config small would overwrite the paper-config tables "
                    "in results/; pass an explicit --results-dir",
                    file=sys.stderr,
                )
                return 2
            if args.fabric not in (None, "none") and args.results_dir == Path("results"):
                print(
                    "error: --fabric other than `none` would overwrite the "
                    "committed direct-path tables in results/; pass an explicit "
                    "--results-dir",
                    file=sys.stderr,
                )
                return 2
            paths = generate_scenarios(provider, selected, args.results_dir)
            for path in paths:
                print(f"wrote {path}")
        _print_stats(provider, time.perf_counter() - started)
    return 0


def _backend_table() -> str:
    from repro.api.backends import available_backends, create_backend, default_backend_name

    rows = []
    for name in available_backends():
        backend = create_backend(name)
        rows.append(
            {
                "backend": name,
                "default for": ", ".join(
                    point.label
                    for point in DesignPoint
                    if default_backend_name(point) == name
                )
                or "-",
                "description": backend.description,
            }
        )
    return format_table(
        rows,
        columns=["backend", "default for", "description"],
        title="Registered transfer backends",
    )


def cmd_backends(args: argparse.Namespace) -> int:
    print(_backend_table())
    return 0


def _policy_table() -> str:
    from repro.memctrl.policies import (
        available_policies,
        normalize_policy_name,
        policy_description,
    )
    from repro.sim.config import MemCtrlConfig

    default = normalize_policy_name(MemCtrlConfig().policy)
    rows = [
        {
            "policy": name,
            "default": "yes" if name == default else "",
            "description": policy_description(name),
        }
        for name in available_policies()
    ]
    return format_table(
        rows,
        columns=["policy", "default", "description"],
        title="Registered memory-scheduler policies",
    )


def _fabric_table() -> str:
    from repro.fabric import available_fabrics, fabric_description
    from repro.sim.config import MemCtrlConfig

    default = MemCtrlConfig().fabric
    rows = [
        {
            "fabric": name,
            "default": "yes" if name == default else "",
            "description": fabric_description(name),
        }
        for name in available_fabrics()
    ]
    return format_table(
        rows,
        columns=["fabric", "default", "description"],
        title="Registered interconnect fabrics (--fabric)",
    )


def cmd_variants(args: argparse.Namespace) -> int:
    """All three variant axes: policies, backends, fabrics."""
    tables = [_policy_table(), _backend_table(), _fabric_table()]
    print("\n\n".join(tables))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.exp.bench import (
        BENCH_FILENAME,
        BENCH_WORKLOADS,
        append_entry,
        check_regression,
        load_trajectory,
        merge_rerun,
        profile_bench,
        regressing_workloads,
        run_bench,
    )

    if args.list:
        names = list(BENCH_WORKLOADS)
        if args.shard is not None:
            names = shard_items(names, args.shard, key=str)
        rows = [{"workload": name} for name in names]
        print(format_table(rows, columns=["workload"], title="Bench workloads"))
        return 0
    if args.shard is not None and args.check:
        print(
            "error: --check compares the full matrix aggregate; it cannot run "
            "on a shard",
            file=sys.stderr,
        )
        return 2
    fabric = args.fabric or "none"
    if fabric != "none" and args.check:
        # A mesh changes the event stream, so the committed-trajectory
        # regression gate does not apply under it.
        print(
            "error: --fabric other than `none` cannot be combined with --check",
            file=sys.stderr,
        )
        return 2
    selected = args.names or None
    if args.shard is not None:
        selected = shard_items(
            list(dict.fromkeys(selected or BENCH_WORKLOADS)), args.shard, key=str
        )
        if not selected:
            print(f"shard {args.shard.label}: no workloads assigned; nothing to do")
            return 0
    started = time.perf_counter()
    mode = "quick" if args.quick else "full"
    path = args.json if args.json is not None else Path(BENCH_FILENAME)
    if args.profile:
        report = profile_bench(quick=args.quick, names=selected, fabric=fabric)
        profile_name = "BENCH_profile-quick.txt" if args.quick else "BENCH_profile.txt"
        profile_path = path.parent / profile_name
        profile_path.write_text(report)
        print(f"wrote {profile_path}")
    entry = run_bench(
        quick=args.quick, names=selected, repeats=args.repeats, fabric=fabric
    )
    if args.check:
        if args.names:
            print(
                "error: --check compares the full matrix aggregate; do not "
                "combine it with a workload selection",
                file=sys.stderr,
            )
            return 2
        document = load_trajectory(path)
        failure = check_regression(document, entry)
        if failure:
            # Flake relief: before failing the gate, rerun only the
            # regressing workload(s) once -- a noisy CI neighbour slows one
            # workload far more often than a real regression slows them all.
            suspects = regressing_workloads(document, entry)
            if suspects:
                print(
                    "perf check: gate tripped; re-running only "
                    f"{', '.join(suspects)} once to rule out runner noise",
                    file=sys.stderr,
                )
                rerun = run_bench(quick=args.quick, names=suspects, repeats=1)
                entry = merge_rerun(entry, rerun)
                failure = check_regression(document, entry)
    rows = [
        {"workload": name, **metrics} for name, metrics in entry["workloads"].items()
    ]
    print(
        format_table(
            rows,
            columns=[
                "workload",
                "wall_s",
                "events",
                "events_per_sec",
                "requests_per_sec",
                "wall_spread_pct",
            ],
            title=f"Hot-path bench ({mode} matrix, best of {entry['repeats']})",
        )
    )
    aggregate = entry["aggregate"]
    print(
        f"aggregate: {aggregate['events']} events in {aggregate['wall_s']}s "
        f"({aggregate['events_per_sec']:.0f} events/sec); "
        f"measured in {time.perf_counter() - started:.1f}s"
    )
    if args.check:
        if failure:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("perf check: within tolerance of the committed baseline")
    if not args.no_write:
        if args.names or args.shard is not None:
            print("note: partial matrix run; not writing the trajectory file")
        else:
            append_entry(path, args.label, entry)
            print(f"appended entry {args.label!r} to {path}")
    return 0


def _orphaned_pycache_dirs(root: Path) -> List[Path]:
    """``__pycache__`` dirs whose package directory no longer has sources.

    Deleting or renaming a package leaves its ``__pycache__`` behind (git
    does not track it), and the stale directory keeps the dead package
    importable on some setups.  A ``__pycache__`` is orphaned when its
    parent contains no ``.py`` files at all.
    """
    orphans = []
    for pycache in sorted(root.rglob("__pycache__")):
        if not any(pycache.parent.glob("*.py")):
            orphans.append(pycache)
    return orphans


def cmd_clean_cache(args: argparse.Namespace) -> int:
    import shutil

    cache_dir = args.cache_dir or (args.results_dir / CACHE_DIR_NAME)
    cache = ResultCache(Path(cache_dir))
    if cache.clear():
        print(f"removed {cache_dir}")
    else:
        print(f"nothing to remove at {cache_dir}")
    import repro

    package_root = Path(repro.__file__).resolve().parent
    for pycache in _orphaned_pycache_dirs(package_root):
        shutil.rmtree(pycache, ignore_errors=True)
        parent = pycache.parent
        try:
            parent.rmdir()  # drop the husk of the dead package if now empty
        except OSError:
            pass
        print(f"removed orphaned {pycache}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "figures": cmd_figures,
        "sweep": cmd_sweep,
        "scenarios": cmd_scenarios,
        "backends": cmd_backends,
        "variants": cmd_variants,
        "bench": cmd_bench,
        "clean-cache": cmd_clean_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
