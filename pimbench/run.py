"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 pimbench/run.py --workload transfer-4mib --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics: after set-up (timed several
times, median reported) it runs passes of the workload's ops back to back
until ``--seconds`` is used (at least :data:`MIN_PASSES`), and reports
per-op medians.  ``--trace 1`` is the separate traced run: one untraced
reference pass, one pass under the counting/span wrappers of
:mod:`pimbench.layers`, and one pass under the grouped profiler; it reports
the per-layer metrics.  Every op is checked (conservation invariants plus a
digest of its simulated statistics, see ``METRICS.md``); a failed check, an
exception or a stall counts as a failed op and is not fatal.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  A copy of
the result, with the machine fingerprint and (traced run) the recorded
spans, is written under ``pimbench/out/``.

``--record-digests`` re-records the reference digests in
``pimbench/digests.json`` from one pass (only for a labelled model-fidelity
change; a speed change must leave them alone).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DIGEST_FILE = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

#: Seed whose digests are recorded; seed 2 is the held-out second seed.
RECORDED_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 3
OP_TIMEOUT_S = 60.0

#: Layers whose self-time share is a per-layer metric.  The profile also
#: groups ``pim``, ``transfer``, ``harness`` and ``other``; they stay below
#: 0.1% on every workload and appear only in the written result.
SHARE_LAYERS = (
    "api",
    "core",
    "dram",
    "energy",
    "host",
    "mapping",
    "memctrl",
    "scenarios",
    "sim",
    "system",
    "upmem_runtime",
    "workloads",
    "builtins",
)

#: Shares within one op group: the design-point contrast of DCE work on the
#: Base+D+H+P ops and software-copy work on the Base ops (0 where a
#: workload has no ops of that group).
GROUP_SHARE_METRICS = {
    "core.self_share.dhp_ops": ("dhp", "core"),
    "upmem_runtime.self_share.base_ops": ("base", "upmem_runtime"),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if ".self_share" in name:
        return "share"
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_req"):
        return "1/req"
    return "count"


class OpStalled(Exception):
    """An op ran past :data:`OP_TIMEOUT_S` of host time."""


def machine_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version()}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


class Checker:
    """Per-op output check: invariants, recorded digest, run-twice equality."""

    def __init__(self, workload, recorded: dict) -> None:
        self.workload = workload
        use_recorded = not workload.seeded or workload.seed == recorded.get("seed")
        self.expected = (
            recorded.get("workloads", {}).get(workload.name, {}) if use_recorded else {}
        )
        self.first_seen: dict = {}

    def check(self, op, result) -> tuple:
        problems = self.workload.invariants(op, result)
        value = digest(self.workload.payload(op, result))
        expected = self.expected.get(op.name)
        if expected is not None and value != expected:
            problems.append(f"digest {value} != recorded {expected}")
        first = self.first_seen.setdefault(op.name, value)
        if value != first:
            problems.append(f"digest {value} differs from the first run's {first}")
        return problems, value


class _Deadline:
    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def _expire(self, _signum, _frame):
        raise OpStalled(f"op did not finish within {self.seconds:.0f} s")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Runner:
    """Runs passes of a workload's ops and keeps what the metrics need."""

    def __init__(self, workload, checker: Checker) -> None:
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failures: list = []
        self.digests: dict = {}

    def run_pass(
        self, index: int, tracer=None, profilers=None, keep: bool = False
    ) -> dict:
        """One pass over the ops.

        ``tracer`` labels spans with the op; ``profilers`` (op group ->
        ``cProfile.Profile``) profiles each op under its group's profiler;
        ``keep`` retains the results for the simulated metrics.
        """
        ops_out = []
        for position in range(len(self.workload.ops())):
            # Re-read the ops each time: a failure below replaces the sessions.
            op = self.workload.ops()[position]
            gc.collect()
            if tracer is not None:
                tracer.trace_id = f"pass{index}:{op.name}"
            engine = op.session.engine
            events_before = engine.events_fired
            self.attempted += 1
            result = None
            profiler = None
            if profilers is not None:
                profiler = profilers.setdefault(op.group, cProfile.Profile())
            started = time.perf_counter()
            try:
                with _Deadline(OP_TIMEOUT_S):
                    if profiler is not None:
                        profiler.enable()
                    try:
                        result = op.run()
                    finally:
                        if profiler is not None:
                            profiler.disable()
                problems = []
            except Exception as exc:  # noqa: BLE001 -- a failed op is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - started
            if result is not None:
                problems, value = self.checker.check(op, result)
                self.digests.setdefault(op.name, value)
            record = {
                "name": op.name,
                "group": op.group,
                "wall_s": wall,
                "ok": not problems,
                "requests": result.requests if result is not None and not problems else 0,
                "events": engine.events_fired - events_before,
            }
            if problems:
                self.failures.append({"pass": index, "op": op.name, "problems": problems})
                print(f"FAILED pass {index} op {op.name}: {'; '.join(problems)}", flush=True)
                # A failed op can leave its session mid-run; start afresh.
                self.workload.setup()
            elif keep:
                record["result"] = result
                record["latency_ns"] = list(
                    op.session.stats.merged_histogram("/latency_ns").samples
                )
            ops_out.append(record)
        return {
            "index": index,
            "wall_s": sum(record["wall_s"] for record in ops_out),
            "requests": sum(record["requests"] for record in ops_out),
            "ops": ops_out,
        }

    @property
    def failed(self) -> int:
        return len(self.failures)


#: Imports timed in a fresh interpreter: everything the harness loads.
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import pimbench.workloads; "
    "print(time.perf_counter() - started)"
)


def timed_import() -> float:
    """Median import time over :data:`SETUP_REPEATS` fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(REPO_ROOT / "src"), str(REPO_ROOT)))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(probe.stdout.split()[-1]))
    return statistics.median(times)


def timed_setup(workload) -> float:
    """Median host time of :data:`SETUP_REPEATS` full set-ups (the last one is kept)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure(runner: Runner, seconds: float) -> list:
    """Passes back to back until ``seconds`` is used, at least :data:`MIN_PASSES`."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(runner.run_pass(len(passes), keep=not passes))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    """Host-time metrics from per-op medians over the passes.

    Each op's host time is the median of its samples, and a pass's time is
    the sum over ops of those medians, so a burst of machine noise spoils
    one sample of one op rather than a whole pass.  Requests per op are
    deterministic (the same inputs every pass).
    """
    walls: dict = {}
    requests: dict = {}
    for record in passes:
        for op in record["ops"]:
            walls.setdefault(op["name"], []).append(op["wall_s"])
            requests[op["name"]] = max(requests.get(op["name"], 0), op["requests"])
    wall_s = sum(statistics.median(samples) for samples in walls.values())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall_s,
        "req_per_s": sum(requests.values()) / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def simulated_summary(workload_name: str, kept_pass: dict) -> dict:
    """Simulated-layer numbers from one pass whose results were kept."""
    from pimbench.workloads import transfer_gains

    records = [record for record in kept_pass["ops"] if "result" in record]
    results = {record["name"]: record["result"] for record in records}
    latencies = sorted(
        sample for record in records for sample in record["latency_ns"]
    )
    row_hits = served = 0.0
    for result in results.values():
        for key, value in result.stats.items():
            if key.endswith("/row_hits"):
                row_hits += value
            elif key.endswith("/served"):
                served += value
    ttfts = sorted(
        record.ttft_ns
        for result in results.values()
        for record in result.request_records
        if record.ttft_ns is not None
    )
    summary = {
        "requests": sum(result.requests for result in results.values()),
        "events": sum(record["events"] for record in records),
        "dram.row_hit_ratio": row_hits / served if served else 0.0,
        "memctrl.lat_p50_ns": percentile(latencies, 0.50),
        "memctrl.lat_p99_ns": percentile(latencies, 0.99),
        "llm.ttft_p99_ns": percentile(ttfts, 0.99),
        "llm.iterations": sum(
            result.extra.get("iterations", 0.0)
            for result in results.values()
            if result.kind == "serve"
        ),
        "trace.deferred": sum(
            result.extra.get("deferred", 0.0)
            for result in results.values()
            if result.kind == "replay"
        ),
        "xfer_gain_err_pct": 0.0,
        "energy_gain_err_pct": 0.0,
    }
    if workload_name == "transfer-4mib" and len(results) == 4:
        gains = transfer_gains(results)
        summary["xfer_gain"] = gains["xfer_gain"]
        summary["energy_gain"] = gains["energy_gain"]
        summary["xfer_gain_err_pct"] = gains["xfer_gain_err_pct"]
        summary["energy_gain_err_pct"] = gains["energy_gain_err_pct"]
    return summary


def layer_metrics(summary: dict, tracer, shares: dict, calls: int, ref_wall: float, traced_wall: float) -> dict:
    """The per-layer metrics of a traced run (names as in ``BENCHMARK.json``)."""
    requests = summary["requests"]
    metrics = {f"{layer}.self_share": shares[layer] for layer in SHARE_LAYERS}
    metrics.update(
        {
            "system.submits": tracer.count("system.submit"),
            "mapping.decodes": tracer.count("mapping.decode"),
            "memctrl.enqueues": tracer.count("memctrl.enqueue"),
            "memctrl.rejects": tracer.rejected("memctrl.enqueue"),
            "dram.accesses": tracer.count("dram.access"),
            "host.preemptions": tracer.count("host.preempt"),
            "sim.events": summary["events"],
            "sim.events_per_req": summary["events"] / requests if requests else 0.0,
            "py_calls_per_req": calls / requests if requests else 0.0,
            "tracing_overhead_pct": 100.0 * (traced_wall - ref_wall) / ref_wall
            if ref_wall > 0
            else 0.0,
        }
    )
    for key in (
        "dram.row_hit_ratio",
        "memctrl.lat_p50_ns",
        "memctrl.lat_p99_ns",
        "llm.ttft_p99_ns",
        "llm.iterations",
        "trace.deferred",
        "xfer_gain_err_pct",
        "energy_gain_err_pct",
    ):
        metrics[key] = summary[key]
    return metrics


def load_recorded() -> dict:
    if DIGEST_FILE.exists():
        return json.loads(DIGEST_FILE.read_text())
    return {}


def record_digests(workload, digests: dict) -> None:
    recorded = load_recorded() or {"seed": RECORDED_SEED, "workloads": {}}
    if workload.seeded and workload.seed != recorded["seed"]:
        raise SystemExit(
            f"digests are recorded for seed {recorded['seed']}, not {workload.seed}"
        )
    recorded["workloads"][workload.name] = dict(sorted(digests.items()))
    DIGEST_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {workload.name} in {DIGEST_FILE.name}")


def traced_run(runner: Runner, workload_name: str) -> tuple:
    from pimbench.layers import LAYERS, Tracer, boundaries, profile_seconds, shares_of

    reference = runner.run_pass(0, keep=True)
    with Tracer(boundaries()) as tracer:
        traced = runner.run_pass(1, tracer=tracer)
    profilers: dict = {}
    profiled = runner.run_pass(2, profilers=profilers)
    by_group = {group: profile_seconds(prof) for group, prof in profilers.items()}
    seconds = {layer: sum(sec[layer] for sec, _ in by_group.values()) for layer in LAYERS}
    calls = sum(count for _, count in by_group.values())
    group_shares = {group: shares_of(sec) for group, (sec, _) in by_group.items()}
    summary = simulated_summary(workload_name, reference)
    metrics = layer_metrics(
        summary, tracer, shares_of(seconds), calls, reference["wall_s"], traced["wall_s"]
    )
    for name, (group, layer) in GROUP_SHARE_METRICS.items():
        metrics[name] = group_shares.get(group, {}).get(layer, 0.0)
    detail = {
        "summary": summary,
        "group_self_shares": group_shares,
        "span_self_shares": tracer.span_self_shares(),
        "boundary_calls": dict(sorted(tracer.calls.items())),
        "spans": tracer.spans,
        "passes": [_pass_view(p) for p in (reference, traced, profiled)],
    }
    return metrics, detail


def _pass_view(record: dict) -> dict:
    return {
        "wall_s": record["wall_s"],
        "requests": record["requests"],
        "ops": [
            {key: op[key] for key in ("name", "group", "wall_s", "ok", "requests", "events")}
            for op in record["ops"]
        ],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        help="a workload name, or 'all' to run each in its own process",
    )
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help="rewrite this workload's reference digests from one pass",
    )
    return parser.parse_args(argv)


def run_all(names, argv) -> int:
    """Run each workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in names:
        child = [arg if arg != "all" else name for arg in argv]
        status |= subprocess.run([sys.executable, __file__, *child], check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT))
    from pimbench.workloads import WORKLOADS, create

    if args.workload == "all":
        return run_all(WORKLOADS, argv if argv is not None else sys.argv[1:])
    workload = create(args.workload, args.seed)
    setup_s = timed_import() + timed_setup(workload)
    # Re-recording checks invariants only, not the digests being replaced.
    recorded = {} if args.record_digests else load_recorded()
    runner = Runner(workload, Checker(workload, recorded))
    machine = machine_fingerprint()
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")

    if args.record_digests:
        runner.run_pass(0)
        if runner.failed:
            return 1
        record_digests(workload, runner.digests)
        return 0

    detail: dict = {}
    if args.trace:
        metrics, detail = traced_run(runner, workload.name)
        units = {name: layer_unit(name) for name in metrics}
    else:
        passes = measure(runner, args.seconds)
        metrics = end_to_end_metrics(passes, setup_s)
        units = END_TO_END_UNITS
        summary = simulated_summary(workload.name, passes[0])
        detail = {
            "summary": summary,
            "passes": [_pass_view(p) for p in passes],
        }
        print(f"passes: {len(passes)}; per-pass wall_s: "
              + ", ".join(f"{p['wall_s']:.3f}" for p in passes))
        if "xfer_gain" in summary:
            for name in ("xfer_gain", "energy_gain", "xfer_gain_err_pct", "energy_gain_err_pct"):
                print(f"  {name} = {summary[name]:.4f} (simulated)")
    workload.close()

    fail_ratio = runner.failed / runner.attempted
    print(f"  fail_ratio = {runner.failed}/{runner.attempted} = {fail_ratio:.4f}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "machine": machine,
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "result": result,
                "failures": runner.failures,
                **detail,
            },
            indent=1,
            default=float,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
