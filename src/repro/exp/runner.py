"""Experiment orchestration: parallel fan-out, memoisation, disk caching.

:func:`run_specs` executes a batch of specs, fanning out over a
``ProcessPoolExecutor`` when ``jobs > 1`` (a serial in-process loop
otherwise) and yielding each ``(spec, outcome)`` the moment it finishes.
Workers build their own :class:`~repro.sim.engine.SimulationEngine`; the
engine is deterministic, so parallel and serial runs produce identical
results.

:class:`ExperimentProvider` is the one orchestration path shared by the
pytest benchmark suite, the ``python -m repro`` CLI and the sharded CI jobs.
It layers, in order:

1. an in-memory memo (one entry per spec per provider),
2. the on-disk :class:`~repro.exp.cache.ResultCache` (optional),
3. arithmetic derivation: oversized :class:`TransferSpec` requests are served
   by extrapolating the cached steady-state *window* experiment instead of
   re-simulating,
4. actual simulation through :func:`run_specs`.  Each outcome is cached as
   soon as it arrives, so a rerun after an interrupt, a crashed worker or a
   failing spec simulates only what is missing.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.transfer.descriptor import TransferDirection
from repro.sim.config import DesignPoint
from repro.workloads.microbench import TransferExperiment, extrapolate_experiment

from repro.exp.cache import MISS, ResultCache
from repro.exp.spec import DEFAULT_SIM_CAP_BYTES, ExperimentSpec, TransferSpec


def run_specs(
    config: SystemConfig, specs: Iterable[ExperimentSpec], jobs: int = 1
) -> Iterator[Tuple[ExperimentSpec, object]]:
    """Run every unique spec, yielding ``(spec, outcome)`` as each finishes.

    Duplicate specs collapse to one execution.  ``jobs == 1`` (or a single
    spec) runs serially in-process; otherwise specs fan out over a process
    pool and arrive in completion order.  A spec that raises does not stop
    the batch: the first such error is re-raised unchanged once every other
    spec has finished.  An interrupt (``KeyboardInterrupt``) propagates at
    once, cancelling the specs that have not started.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    unique = list(dict.fromkeys(specs))
    failure: Optional[BaseException] = None
    if jobs == 1 or len(unique) <= 1:
        for spec in unique:
            try:
                outcome = spec.run(config)
            except Exception as error:  # re-raised once the batch is done
                failure = failure or error
                continue
            yield spec, outcome
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # The platform's default start method: fork on Linux before Python
        # 3.14, where workers inherit the imported package and a pool starts
        # about 0.6 s sooner than with spawn.  fork is safe only while the
        # caller runs no other thread, as the CLI and the test suite do.
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(unique)))
        try:
            futures = {pool.submit(spec.run, config): spec for spec in unique}
            for future in as_completed(futures):
                error = future.exception()
                if error is not None:
                    failure = failure or error
                    continue
                yield futures[future], future.result()
        finally:
            pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure


@dataclass
class ProviderStats:
    """Where each requested experiment outcome came from."""

    executed: int = 0  # actual simulations run (serial or in a worker)
    disk_hits: int = 0  # served from results/.cache
    memo_hits: int = 0  # served from the in-memory memo
    derived: int = 0  # extrapolated arithmetically from a cached window

    def as_dict(self) -> Dict[str, int]:
        return {
            "executed": self.executed,
            "disk_hits": self.disk_hits,
            "memo_hits": self.memo_hits,
            "derived": self.derived,
        }


@dataclass
class ExperimentProvider:
    """Memoising, cache-backed, parallel-capable experiment source."""

    config: SystemConfig
    cache: Optional[ResultCache] = None
    jobs: int = 1
    stats: ProviderStats = field(default_factory=ProviderStats)

    def __post_init__(self) -> None:
        self._memo: Dict[ExperimentSpec, object] = {}

    # -- core orchestration -------------------------------------------------

    def _canonical(self, spec: ExperimentSpec) -> ExperimentSpec:
        """The spec whose outcome is actually simulated and cached."""
        if isinstance(spec, TransferSpec):
            return spec.window(self.config)
        return spec

    def _derive(self, spec: TransferSpec, window_outcome: TransferExperiment):
        derived = extrapolate_experiment(window_outcome, spec.total_bytes, self.config)
        self._memo[spec] = derived
        self.stats.derived += 1
        return derived

    def _store(self, spec: ExperimentSpec, value) -> None:
        """Keep a freshly simulated outcome in the memo and the disk cache."""
        self._memo[spec] = value
        self.stats.executed += 1
        if self.cache is not None:
            self.cache.put(self.config, spec, value)

    def run(self, spec: ExperimentSpec):
        """Return the outcome for ``spec``, simulating only on a cold miss."""
        if spec in self._memo:
            self.stats.memo_hits += 1
            return self._memo[spec]
        canonical = self._canonical(spec)
        if canonical is not spec and canonical != spec:
            return self._derive(spec, self.run(canonical))
        if self.cache is not None:
            value = self.cache.get(self.config, canonical)
            if value is not MISS:
                self.stats.disk_hits += 1
                self._memo[canonical] = value
                return value
        value = canonical.run(self.config)
        self._store(canonical, value)
        return value

    def prefetch(self, specs: Iterable[ExperimentSpec]) -> int:
        """Ensure every spec's canonical outcome is available, in parallel.

        Deduplicates, canonicalises transfers to their simulated windows,
        drops everything already memoised or disk-cached, and runs the rest
        through :func:`run_specs` with this provider's ``jobs``.  Each
        outcome is memoised and cached the moment it arrives, so whatever
        finished survives an interrupt or a failing spec.  Returns the number
        of simulations actually executed.
        """
        todo = []
        for spec in dict.fromkeys(self._canonical(s) for s in specs):
            if spec in self._memo:
                continue
            if self.cache is not None:
                value = self.cache.get(self.config, spec)
                if value is not MISS:
                    self._memo[spec] = value
                    self.stats.disk_hits += 1
                    continue
            todo.append(spec)
        before = self.stats.executed
        # closing(): should storing raise, cancel the specs not yet started.
        with closing(run_specs(self.config, todo, self.jobs)) as outcomes:
            for spec, value in outcomes:
                self._store(spec, value)
        return self.stats.executed - before

    # -- convenience API (the benchmark suite's historical signature) -------

    def get(
        self,
        design_point: DesignPoint,
        direction: TransferDirection,
        total_bytes: int,
        sim_cap_bytes: int = DEFAULT_SIM_CAP_BYTES,
    ) -> TransferExperiment:
        """Fetch one plain transfer experiment (no contention, default OS)."""
        return self.run(
            TransferSpec(
                design_point=design_point,
                direction=direction,
                total_bytes=total_bytes,
                sim_cap_bytes=sim_cap_bytes,
            )
        )


__all__ = ["ExperimentProvider", "ProviderStats", "run_specs"]
