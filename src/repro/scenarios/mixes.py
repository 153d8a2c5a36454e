"""The built-in multi-tenant workload mixes.

Each mix is a :class:`~repro.scenarios.registry.ScenarioSpec` factory
decorated with :func:`~repro.scenarios.registry.register_scenario` under a
stable name; ``repro scenarios --list`` enumerates them and
``repro scenarios NAME`` regenerates the per-tenant table under ``results/``.
The mixes are sized for the paper's Table I system (512 PIM cores) but run on
any configuration -- a few hundred KiB to ~2 MiB per tenant keeps every
scenario simulable in seconds while still spanning several scheduling quanta
of interleaved traffic.

The shapes are chosen to stress different sharing axes:

* **solo-transfer** -- one bulk transfer, no sharing.  The determinism anchor:
  its tenant matches the equivalent plain :class:`~repro.exp.spec.TransferSpec`
  experiment exactly.
* **prim-pair** -- two PrIM workloads pushing their inputs concurrently
  (PIM-channel + DCE sharing).
* **memcpy-vs-transfer** -- ordinary DRAM traffic against a PIM offload
  (the HetMap story: both compete for the DRAM side).
* **bursty-vs-stream** -- a bursty trace against a steady streamer
  (queue-depth interference).
* **skewed-tenants** -- three skewed-trace tenants hammering hot rows.
* **phase-shift** -- staggered start offsets, so tenants overlap only
  partially (arrival-pattern diversity).
* **baseline-prim-pair** -- the prim-pair mix on the software baseline, for
  before/after comparisons against the PIM-MMU design point.
* **poisson-arrivals / diurnal-load / closed-loop-capacity** -- the
  arrival-process family (see the block comment above their registrations):
  memoryless Poisson streams, diurnally phased load and a closed-loop
  capacity probe, giving capacity sweeps realistic load shapes.

The LLM serving sweeps (family ``"llm"``) live in
:mod:`repro.scenarios.llm`; this module is the ``"mix"`` family only.
"""

from __future__ import annotations

from repro.sim.config import DesignPoint
from repro.transfer.descriptor import TransferDirection

from repro.scenarios.registry import ScenarioSpec, register_scenario
from repro.scenarios.tenant import TenantSpec

KIB = 1024
MIB = 1024 * 1024


@register_scenario(
    "solo-transfer",
    "one bulk DRAM->PIM transfer on PIM-MMU (determinism anchor, no sharing)",
)
def _solo_transfer() -> ScenarioSpec:
    return ScenarioSpec(
        name="solo-transfer",
        design_point=DesignPoint.BASE_DHP,
        tenants=(TenantSpec.transfer("xfer", total_bytes=512 * KIB),),
    )


@register_scenario(
    "prim-pair",
    "GEMV and BS push their PrIM inputs concurrently through the PIM-MMU",
)
def _prim_pair() -> ScenarioSpec:
    return ScenarioSpec(
        name="prim-pair",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.prim("gemv", "GEMV", cap_bytes=512 * KIB),
            TenantSpec.prim("bs", "BS", cap_bytes=512 * KIB),
        ),
    )


@register_scenario(
    "memcpy-vs-transfer",
    "an 8-thread DRAM memcpy competes with a DRAM->PIM offload for DRAM bandwidth",
)
def _memcpy_vs_transfer() -> ScenarioSpec:
    return ScenarioSpec(
        name="memcpy-vs-transfer",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.memcpy("memcpy", total_bytes=1 * MIB),
            TenantSpec.transfer("xfer", total_bytes=512 * KIB),
        ),
    )


@register_scenario(
    "bursty-vs-stream",
    "a bursty reader interferes with a steady streaming reader (queue depth)",
)
def _bursty_vs_stream() -> ScenarioSpec:
    return ScenarioSpec(
        name="bursty-vs-stream",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic("bursty", "bursty", total_bytes=256 * KIB, mean_gap_ns=4.0),
            TenantSpec.synthetic("stream", "uniform", total_bytes=256 * KIB, mean_gap_ns=8.0),
        ),
    )


@register_scenario(
    "skewed-tenants",
    "three skewed (hot-set) trace tenants hammer overlapping hot rows",
)
def _skewed_tenants() -> ScenarioSpec:
    return ScenarioSpec(
        name="skewed-tenants",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic("skew-a", "skewed", total_bytes=128 * KIB, mean_gap_ns=6.0, seed=1),
            TenantSpec.synthetic("skew-b", "skewed", total_bytes=128 * KIB, mean_gap_ns=6.0, seed=2),
            TenantSpec.synthetic(
                "skew-w", "skewed", total_bytes=128 * KIB, mean_gap_ns=6.0,
                write_fraction=0.5, seed=3,
            ),
        ),
    )


@register_scenario(
    "phase-shift",
    "phase-shifted tenants: a transfer starts mid-way through a phased trace",
)
def _phase_shift() -> ScenarioSpec:
    return ScenarioSpec(
        name="phase-shift",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic("phased", "phased", total_bytes=256 * KIB, mean_gap_ns=6.0),
            TenantSpec.transfer(
                "late-xfer",
                total_bytes=256 * KIB,
                direction=TransferDirection.PIM_TO_DRAM,
                start_offset_ns=200_000.0,
            ),
        ),
    )


@register_scenario(
    "baseline-prim-pair",
    "the prim-pair mix on the software baseline (compare against prim-pair)",
)
def _baseline_prim_pair() -> ScenarioSpec:
    return ScenarioSpec(
        name="baseline-prim-pair",
        design_point=DesignPoint.BASELINE,
        tenants=(
            TenantSpec.prim("gemv", "GEMV", cap_bytes=256 * KIB),
            TenantSpec.prim("bs", "BS", cap_bytes=256 * KIB),
        ),
    )


# The QoS pair: identical tenants, two scheduler policies.  A sparse
# latency-sensitive tenant ("lat") shares the DRAM channels with an
# aggressive bulk streamer ("bulk").  Under plain FR-FCFS the bulk tenant's
# row hits keep winning the scheduler and lat's p99 inflates (priority
# inversion); `qos_priority:lat=1` serves lat's requests first and relieves
# it.  Compare `results/scenario_qos_frfcfs.txt` against
# `results/scenario_qos_priority.txt`.
_QOS_TENANTS = (
    TenantSpec.synthetic("lat", "uniform", total_bytes=64 * KIB, mean_gap_ns=25.0),
    TenantSpec.synthetic(
        "bulk", "uniform", total_bytes=1 * MIB, mean_gap_ns=1.2, seed=1
    ),
)


@register_scenario(
    "qos-frfcfs",
    "latency-sensitive tenant vs bulk streamer under plain FR-FCFS (inversion)",
)
def _qos_frfcfs() -> ScenarioSpec:
    return ScenarioSpec(
        name="qos-frfcfs",
        design_point=DesignPoint.BASE_DHP,
        tenants=_QOS_TENANTS,
    )


@register_scenario(
    "qos-priority",
    "the same mix under qos_priority:lat=1 (priority-inversion relief)",
)
def _qos_priority() -> ScenarioSpec:
    return ScenarioSpec(
        name="qos-priority",
        design_point=DesignPoint.BASE_DHP,
        tenants=_QOS_TENANTS,
        memctrl_policy="qos_priority:lat=1",
    )


# The arrival-process family: capacity-style load shapes for capacity sweeps.
# The earlier mixes stress *what* tenants access; these stress *when* work
# arrives -- the axis a service's capacity planning actually lives on.
#
# * **poisson-arrivals** -- two open-loop Poisson streams (memoryless
#   arrivals, the M/G/k capacity model) at a 4x rate asymmetry.  Poisson
#   clustering produces transient queue build-up that fixed-gap streams
#   never show, so p99 separates from p50 here.
# * **diurnal-load** -- a tenant whose Poisson arrival rate follows a
#   sinusoidal day/night envelope (peak issues 4x faster than trough)
#   against a steady streamer: does the quiet phase's headroom absorb the
#   peak phase's backlog?
# * **closed-loop-capacity** -- a closed-loop tenant (8 clients, one access
#   outstanding each, zero think time) that self-limits at the system's
#   saturation throughput, sharing the channels with a sparse open-loop
#   Poisson probe whose latency shows what saturation does to a bystander.


@register_scenario(
    "poisson-arrivals",
    "two open-loop Poisson arrival streams at a 4x rate asymmetry",
)
def _poisson_arrivals() -> ScenarioSpec:
    return ScenarioSpec(
        name="poisson-arrivals",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic(
                "hot", "poisson", total_bytes=256 * KIB, mean_gap_ns=3.0, seed=1
            ),
            TenantSpec.synthetic(
                "cold", "poisson", total_bytes=128 * KIB, mean_gap_ns=12.0, seed=2
            ),
        ),
    )


@register_scenario(
    "diurnal-load",
    "diurnally phased Poisson load (4x peak/trough) vs a steady streamer",
)
def _diurnal_load() -> ScenarioSpec:
    return ScenarioSpec(
        name="diurnal-load",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.synthetic(
                "diurnal", "diurnal", total_bytes=256 * KIB, mean_gap_ns=4.0, seed=1
            ),
            TenantSpec.synthetic(
                "steady", "uniform", total_bytes=128 * KIB, mean_gap_ns=8.0, seed=2
            ),
        ),
    )


@register_scenario(
    "closed-loop-capacity",
    "8-client closed-loop capacity probe vs a sparse Poisson latency probe",
)
def _closed_loop_capacity() -> ScenarioSpec:
    return ScenarioSpec(
        name="closed-loop-capacity",
        design_point=DesignPoint.BASE_DHP,
        tenants=(
            TenantSpec.closed(
                "capacity", "uniform", total_bytes=256 * KIB, concurrency=8
            ),
            TenantSpec.synthetic(
                "probe", "poisson", total_bytes=32 * KIB, mean_gap_ns=50.0, seed=3
            ),
        ),
    )
