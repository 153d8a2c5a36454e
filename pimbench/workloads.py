"""The benchmark's workloads, driven only through the public ``repro.Session`` API.

Each workload generates its inputs from the benchmark seed, opens its
sessions (default variants: FR-FCFS, object kernel, object pump,
``fabric="none"``), and exposes a list of :class:`Op` s that one *pass*
runs back to back from a single caller.  After every op the workload
checks conservation invariants on the result and builds the payload whose
digest is compared against the recorded one (see ``run.py``).

* ``transfer-4mib`` -- ``Session.transfer`` of 4 MiB across the 512 PIM
  cores, fully simulated (``sim_cap_bytes == total_bytes``), for Base and
  Base+D+H+P in both directions.  Each design point has its own session.
  The inputs do not depend on the seed.
* ``serve-llm`` -- ``Session.serve_llm`` on Base+D+H+P: an open-loop
  Poisson interactive tenant plus a closed-loop two-client batch tenant,
  with tenant seeds derived from the benchmark seed.
* ``replay-mixed`` -- ``Session.replay`` of a seeded trace of random 64 B
  accesses over 64 MiB of DRAM plus 64 MiB of the PIM range, one third
  writes, with exponential gaps offered faster than the service rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro import Session
from repro.scenarios.trace import Trace, TraceEvent
from repro.sim.config import CACHE_LINE_BYTES, DesignPoint
from repro.transfer.descriptor import TransferDirection
from repro.workloads.llm import LlmTenantSpec, ModelSpec

KIB = 1024
MIB = 1024 * KIB

#: The paper's headline DRAM<->PIM gain of Base+D+H+P over Base, for both
#: throughput and energy efficiency.
PAPER_GAIN = 4.1

TRANSFER_BYTES = 4 * MIB

LLM_INTERACTIVE_REQUESTS = 96
LLM_INTERACTIVE_GAP_NS = 5_000.0
LLM_BATCH_REQUESTS = 24
LLM_BATCH_CLIENTS = 2
LLM_KV_POOL_BYTES = 96 * KIB
LLM_MAX_BATCH = 8

REPLAY_ACCESSES = 100_000
REPLAY_SPAN_BYTES = 64 * MIB  # per domain
REPLAY_MEAN_GAP_NS = 20.0
REPLAY_WRITE_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class Op:
    """One call into the program; ``group`` names the design point it runs on."""

    name: str
    group: str
    session: Session
    run: Callable[[], object]


def channel_bytes(stats: Dict[str, float]) -> Dict[str, float]:
    """Per-channel, per-direction served bytes from a stats snapshot."""
    return {
        key: value
        for key, value in sorted(stats.items())
        if key.startswith("bw/") and key.endswith("/total_bytes")
    }


def domain_bytes(stats: Dict[str, float], domain: str, direction: str) -> float:
    """Total ``read``/``write`` bytes served by one memory domain's channels."""
    return sum(
        value
        for key, value in channel_bytes(stats).items()
        if key.startswith(f"bw/{domain}/") and f"/{direction}/" in key
    )


def common_payload(result) -> Dict[str, object]:
    """The simulated statistics every op's digest covers."""
    return {
        "start_ns": result.start_ns,
        "end_ns": result.end_ns,
        "requests": result.requests,
        "requested_bytes": result.requested_bytes,
        "p50_latency_ns": result.p50_latency_ns,
        "p99_latency_ns": result.p99_latency_ns,
        "mean_latency_ns": result.mean_latency_ns,
        "channel_bytes": channel_bytes(result.stats),
    }


def common_invariants(op: Op, result) -> List[str]:
    """Checks every op shares: nothing left in flight, every request served once."""
    problems = []
    if not op.session.system.is_memory_idle():
        problems.append("memory requests still in flight after the op returned")
    served_bytes = sum(channel_bytes(result.stats).values())
    if served_bytes != result.requests * CACHE_LINE_BYTES:
        problems.append(
            f"served {served_bytes:.0f} B but {result.requests} requests of "
            f"{CACHE_LINE_BYTES} B"
        )
    return problems


class Workload:
    """Base class: subclasses set ``name``/``seeded`` and fill in the hooks."""

    name = ""
    #: Whether the inputs depend on the seed (if not, the recorded digests
    #: apply to every seed).
    seeded = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sessions: List[Session] = []

    def setup(self) -> None:
        """Open sessions, build their systems and generate the inputs."""
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def invariants(self, op: Op, result) -> List[str]:
        return common_invariants(op, result)

    def payload(self, op: Op, result) -> Dict[str, object]:
        return common_payload(result)

    def _open(self, design_point: DesignPoint) -> Session:
        session = Session.open(design_point=design_point)
        session.system  # build the system now: construction is set-up work
        self.sessions.append(session)
        return session

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []


class TransferWorkload(Workload):
    name = "transfer-4mib"
    seeded = False

    POINTS = (("base", DesignPoint.BASELINE), ("dhp", DesignPoint.BASE_DHP))
    DIRECTIONS = (
        ("d2p", TransferDirection.DRAM_TO_PIM),
        ("p2d", TransferDirection.PIM_TO_DRAM),
    )

    def setup(self) -> None:
        self.close()
        self.by_point = {label: self._open(point) for label, point in self.POINTS}

    def ops(self) -> List[Op]:
        ops = []
        for label, _point in self.POINTS:
            session = self.by_point[label]
            for dir_label, direction in self.DIRECTIONS:
                ops.append(
                    Op(
                        name=f"{label}.{dir_label}",
                        group=label,
                        session=session,
                        run=_transfer_call(session, direction),
                    )
                )
        return ops

    def invariants(self, op: Op, result) -> List[str]:
        problems = common_invariants(op, result)
        if result.extra.get("simulated_bytes") != float(TRANSFER_BYTES):
            problems.append(
                f"simulated {result.extra.get('simulated_bytes')} B of {TRANSFER_BYTES}"
            )
        if result.requested_bytes != TRANSFER_BYTES:
            problems.append(f"requested {result.requested_bytes} B of {TRANSFER_BYTES}")
        source, sink = ("dram", "pim") if op.name.endswith("d2p") else ("pim", "dram")
        expected = {
            (source, "read"): TRANSFER_BYTES,
            (sink, "write"): TRANSFER_BYTES,
            (source, "write"): 0,
            (sink, "read"): 0,
        }
        for (domain, direction), want in expected.items():
            got = domain_bytes(result.stats, domain, direction)
            if got != want:
                problems.append(f"{domain} {direction} bytes {got:.0f} != {want}")
        return problems

    def payload(self, op: Op, result) -> Dict[str, object]:
        payload = common_payload(result)
        payload["energy_joules"] = result.energy_joules
        return payload


def _transfer_call(session: Session, direction: TransferDirection) -> Callable[[], object]:
    def run():
        return session.transfer(
            TRANSFER_BYTES, direction=direction, sim_cap_bytes=TRANSFER_BYTES
        )

    return run


def transfer_gains(results: Dict[str, object]) -> Dict[str, float]:
    """Base+D+H+P over Base gains, geometric mean over both directions.

    ``results`` maps op names (``base.d2p`` ...) to their run results.
    Returns the throughput and energy-efficiency gains and their relative
    errors against :data:`PAPER_GAIN`, in percent.
    """
    throughput = 1.0
    energy = 1.0
    for dir_label, _direction in TransferWorkload.DIRECTIONS:
        base = results[f"base.{dir_label}"]
        dhp = results[f"dhp.{dir_label}"]
        throughput *= dhp.throughput_gbps / base.throughput_gbps
        # Same bytes moved, so the efficiency gain is the energy ratio.
        energy *= base.energy_joules / dhp.energy_joules
    count = len(TransferWorkload.DIRECTIONS)
    xfer_gain = throughput ** (1.0 / count)
    energy_gain = energy ** (1.0 / count)
    return {
        "xfer_gain": xfer_gain,
        "energy_gain": energy_gain,
        "xfer_gain_err_pct": 100.0 * abs(xfer_gain - PAPER_GAIN) / PAPER_GAIN,
        "energy_gain_err_pct": 100.0 * abs(energy_gain - PAPER_GAIN) / PAPER_GAIN,
    }


def derived_seed(seed: int, stream: str) -> int:
    """An independent, reproducible sub-seed for one input stream."""
    return random.Random(f"{seed}:{stream}").randrange(1 << 31)


class ServeWorkload(Workload):
    name = "serve-llm"

    def setup(self) -> None:
        self.close()
        self.session = self._open(DesignPoint.BASE_DHP)
        self.model = ModelSpec.tiny()
        self.tenants = (
            LlmTenantSpec.open_loop(
                "interactive",
                num_requests=LLM_INTERACTIVE_REQUESTS,
                mean_gap_ns=LLM_INTERACTIVE_GAP_NS,
                prompt_tokens=(8, 16),
                output_tokens=(8, 16),
                seed=derived_seed(self.seed, "interactive"),
            ),
            LlmTenantSpec.closed_loop(
                "batch",
                num_requests=LLM_BATCH_REQUESTS,
                clients=LLM_BATCH_CLIENTS,
                prompt_tokens=(48, 64),
                output_tokens=(16, 16),
                seed=derived_seed(self.seed, "batch"),
            ),
        )

    def ops(self) -> List[Op]:
        session = self.session

        def run():
            return session.serve_llm(
                self.model,
                self.tenants,
                max_batch_size=LLM_MAX_BATCH,
                kv_pool_bytes=LLM_KV_POOL_BYTES,
            )

        return [Op(name="serve", group="dhp", session=session, run=run)]

    def invariants(self, op: Op, result) -> List[str]:
        problems = common_invariants(op, result)
        expected = LLM_INTERACTIVE_REQUESTS + LLM_BATCH_REQUESTS
        records = result.request_records
        if len(records) != expected:
            problems.append(f"{len(records)} request records, expected {expected}")
        unfinished = sum(1 for record in records if not record.completed)
        if unfinished:
            problems.append(f"{unfinished} LLM requests never completed")
        served_bytes = sum(channel_bytes(result.stats).values())
        if served_bytes != result.requested_bytes:
            problems.append(
                f"served {served_bytes:.0f} B of {result.requested_bytes} B of KV/weight traffic"
            )
        return problems

    def payload(self, op: Op, result) -> Dict[str, object]:
        payload = common_payload(result)
        payload["iterations"] = result.extra["iterations"]
        payload["records"] = [
            [record.tenant, record.request_id, record.ttft_ns, record.itl_ns]
            for record in result.request_records
        ]
        return payload


class ReplayWorkload(Workload):
    name = "replay-mixed"

    def setup(self) -> None:
        self.close()
        self.session = self._open(DesignPoint.BASE_DHP)
        self.trace = mixed_trace(self.seed, self.session.system.partition.pim_base)
        self._requested = None  # bytes per (domain, direction), counted at first check

    def ops(self) -> List[Op]:
        session = self.session
        trace = self.trace
        return [
            Op(name="replay", group="dhp", session=session, run=lambda: session.replay(trace))
        ]

    def invariants(self, op: Op, result) -> List[str]:
        problems = common_invariants(op, result)
        trace = self.trace
        if result.requests != len(trace):
            problems.append(f"completed {result.requests} of {len(trace)} accesses")
        for (domain, direction), want in self._requested_bytes().items():
            got = domain_bytes(result.stats, domain, direction)
            if got != want:
                problems.append(f"{domain} {direction} bytes {got:.0f} != {want}")
        return problems

    def _requested_bytes(self) -> Dict[tuple, int]:
        if self._requested is None:
            pim_base = self.session.system.partition.pim_base
            self._requested = dict.fromkeys(
                ((d, k) for d in ("dram", "pim") for k in ("read", "write")), 0
            )
            for event in self.trace.events:
                domain = "pim" if event.phys_addr >= pim_base else "dram"
                direction = "write" if event.is_write else "read"
                self._requested[domain, direction] += event.size_bytes
        return self._requested

    def payload(self, op: Op, result) -> Dict[str, object]:
        payload = common_payload(result)
        payload["deferred"] = result.extra["deferred"]
        return payload


def mixed_trace(seed: int, pim_base: int) -> Trace:
    """Random 64 B accesses over both domains, one third writes, Poisson arrivals."""
    rng = random.Random(derived_seed(seed, "replay"))
    lines = REPLAY_SPAN_BYTES // CACHE_LINE_BYTES
    events = []
    now = 0.0
    for _ in range(REPLAY_ACCESSES):
        line = rng.randrange(2 * lines)
        if line < lines:
            addr = line * CACHE_LINE_BYTES
        else:
            addr = pim_base + (line - lines) * CACHE_LINE_BYTES
        events.append(
            TraceEvent(
                time_ns=now,
                phys_addr=addr,
                is_write=rng.random() < REPLAY_WRITE_FRACTION,
            )
        )
        now += rng.expovariate(1.0 / REPLAY_MEAN_GAP_NS)
    return Trace(events=tuple(events), meta=(("source", "pimbench"), ("seed", str(seed))))


WORKLOADS = {
    workload.name: workload
    for workload in (TransferWorkload, ServeWorkload, ReplayWorkload)
}


def create(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)


__all__ = [
    "Op",
    "PAPER_GAIN",
    "WORKLOADS",
    "Workload",
    "create",
    "derived_seed",
    "mixed_trace",
    "transfer_gains",
]
